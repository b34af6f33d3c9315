"""Named-profile JSON I/O, bundle syntax, and a PrefLib import shim.

The on-disk profile format is JSON::

    {"kind": "goods" | "chores",
     "items": ["name", ...],
     "agents": [{"name": "...", "ranking": ["best", ..., "worst"]}, ...]}

Internally items are dense integers in the order of the ``items`` list; the
:class:`NamedProfile` wrapper keeps the name maps for the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .core import Allocation, Instance, ItemKind, MultiBundle, Ranking


@dataclass(frozen=True)
class NamedProfile:
    instance: Instance
    item_names: tuple[str, ...]
    agent_names: tuple[str, ...]

    def item_id(self, name: str) -> int:
        try:
            return self.item_names.index(name)
        except ValueError:
            raise KeyError(f"unknown item {name!r}") from None

    def agent_id(self, name: str) -> int:
        try:
            return self.agent_names.index(name)
        except ValueError:
            raise KeyError(f"unknown agent {name!r}") from None


def _check_profile_shape(payload: object) -> None:
    """Raise ValueError unless the payload has the documented JSON shape."""
    if not isinstance(payload, dict):
        raise ValueError("a profile must be a JSON object")
    if not isinstance(payload.get("items"), list):
        raise ValueError('profile "items" must be a list of item names')
    agents = payload.get("agents")
    if not isinstance(agents, list) or not all(
        isinstance(entry, dict) and isinstance(entry.get("ranking"), list)
        for entry in agents
    ):
        raise ValueError('profile "agents" must be a list of objects with a "ranking" list')


def profile_from_json(payload: dict) -> NamedProfile:
    _check_profile_shape(payload)
    kind = ItemKind(payload["kind"])
    item_names = tuple(str(name) for name in payload["items"])
    if len(set(item_names)) != len(item_names):
        raise ValueError("item names must be unique")
    index = {name: i for i, name in enumerate(item_names)}
    agent_names = []
    rankings = []
    for entry in payload["agents"]:
        agent_names.append(str(entry["name"]))
        order = [index[str(name)] for name in entry["ranking"]]
        if sorted(order) != list(range(len(item_names))):
            raise ValueError(
                f"ranking of agent {entry['name']!r} is not a permutation of the items"
            )
        rankings.append(Ranking(tuple(order)))
    if len(set(agent_names)) != len(agent_names):
        raise ValueError("agent names must be unique")
    instance = Instance(kind=kind, rankings=tuple(rankings))
    return NamedProfile(instance, item_names, tuple(agent_names))


def profile_to_json(profile: NamedProfile) -> dict:
    return {
        "kind": profile.instance.kind.value,
        "items": list(profile.item_names),
        "agents": [
            {
                "name": profile.agent_names[a],
                "ranking": [profile.item_names[i] for i in ranking.order],
            }
            for a, ranking in enumerate(profile.instance.rankings)
        ],
    }


def parse_json(text: str) -> object:
    """Decode JSON text; a document nested too deeply is a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def read_json(path: str) -> object:
    with open(path, encoding="utf-8") as handle:
        return parse_json(handle.read())


def load_profile(path: str) -> NamedProfile:
    return profile_from_json(read_json(path))


def save_profile(profile: NamedProfile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(profile_to_json(profile), handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Bundle / allocation syntax
# ---------------------------------------------------------------------------

def parse_bundle(text: str, profile: NamedProfile) -> MultiBundle:
    """Parse ``a,b*2,c`` into a multi-bundle; ``*k`` repeats an item."""
    counts: dict[int, int] = {}
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            continue
        name, star, repeat = token.partition("*")
        multiplicity = 1
        if star:
            if not repeat:
                raise ValueError(f"missing multiplicity in {token!r}")
            multiplicity = int(repeat)
            if multiplicity < 1:
                raise ValueError(f"multiplicity in {token!r} must be >= 1")
        item = profile.item_id(name.strip())
        counts[item] = counts.get(item, 0) + multiplicity
    return MultiBundle.from_counts(counts)


def allocation_from_json(payload: dict, profile: NamedProfile) -> Allocation:
    """Decode ``{"agent": ["item", ...], ...}``; agents may be omitted (empty)."""
    if not isinstance(payload, dict) or not all(
        isinstance(items, list) and all(isinstance(item, str) for item in items)
        for items in payload.values()
    ):
        raise ValueError("an allocation must be a JSON object of item-name lists")
    unknown = set(payload) - set(profile.agent_names)
    if unknown:
        raise ValueError(f"unknown agents in allocation: {sorted(unknown)}")
    bundles = []
    for name in profile.agent_names:
        items = payload.get(name, [])
        bundles.append(tuple(profile.item_id(item) for item in items))
    alloc = Allocation(tuple(bundles))
    if not alloc.is_partition_of(profile.instance.item_count):
        raise ValueError("allocation does not assign every item exactly once")
    return alloc


def allocation_to_json(alloc: Allocation, profile: NamedProfile) -> dict:
    return {
        profile.agent_names[a]: [profile.item_names[i] for i in alloc.bundles[a]]
        for a in range(alloc.agent_count)
    }


# ---------------------------------------------------------------------------
# PrefLib strict-order import (convenience reader only)
# ---------------------------------------------------------------------------

def load_preflib_soc(path: str) -> NamedProfile:
    """Read a PrefLib .soc file (complete strict orders) as a goods profile.

    Metadata lines start with ``#``; each data line is
    ``count: alt,alt,...`` with 1-based alternative numbers, expanded to
    ``count`` agents sharing the ranking.  Every count must be at least 1;
    every order must rank as many alternatives as ``# NUMBER ALTERNATIVES``
    declares (without that line, the highest number named); and the
    alternatives' names (``altK`` when unnamed) must be unique.  Anything
    else is a ValueError.
    """
    names: dict[int, str] = {}
    alternative_count: Optional[int] = None  # None: no header
    orders: list[tuple[int, list[int]]] = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, _, value = body.partition(":")
                key = key.strip().upper()
                if key == "NUMBER ALTERNATIVES":
                    alternative_count = int(value.strip())
                elif key.startswith("ALTERNATIVE NAME"):
                    number = int(key.rsplit(None, 1)[1])
                    names[number] = value.strip()
                continue
            count_text, _, ranking_text = line.partition(":")
            count = int(count_text.strip())
            if count < 1:
                raise ValueError(f"{path}: a preference line has count {count}, not >= 1")
            order = [int(tok.strip()) for tok in ranking_text.split(",")]
            orders.append((count, order))
    if not orders:
        raise ValueError(f"{path} contains no preference lines")
    if alternative_count is None:
        alternative_count = max(max(order) for _, order in orders)
    for _, order in orders:
        if len(order) != alternative_count:
            raise ValueError(
                f"{path}: an order ranks {len(order)} alternatives, not {alternative_count}"
            )
    item_names = tuple(
        names.get(number, f"alt{number}") for number in range(1, alternative_count + 1)
    )
    if len(set(item_names)) != len(item_names):
        raise ValueError("item names must be unique")
    rankings = []
    agent_names = []
    voter = 0
    for count, order in orders:
        ranking = Ranking(tuple(number - 1 for number in order))
        for _ in range(count):
            voter += 1
            agent_names.append(f"voter{voter}")
            rankings.append(ranking)
    instance = Instance(ItemKind.GOODS, tuple(rankings))
    return NamedProfile(instance, item_names, tuple(agent_names))
