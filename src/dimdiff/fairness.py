"""Fairness and efficiency verdicts for concrete allocations.

Each check returns a :class:`FairnessVerdict`; whenever the answer is
negative the verdict carries an independently checkable certificate: the
violating agent with a refuting utility, the envious pair, a Pareto-dominating
allocation, or a one-for-two swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from .core import (
    Allocation,
    Instance,
    ItemKind,
    UtilityFunction,
    lexicographic_utility,
)
from .exceptions import (
    BudgetExceededError,
    ExtensionKindMismatchError,
    UnsupportedExtensionError,
)
from .extensions import (
    CHORES_RELATIONS,
    REFUTABLE_RELATIONS,
    RelationKind,
    holds,
    refuting_utility,
    share_holds,
)

#: The default state budget of every search: the Pareto dominance search
#: here and the existence searches of :mod:`dimdiff.search`.
DEFAULT_MAX_STATES = 10_000_000


class Criterion(Enum):
    PROPORTIONALITY = "pr"
    ENVY_FREENESS = "ef"
    PARETO_EFFICIENCY = "pe"


Profile = Sequence[UtilityFunction]
Extension = Union[RelationKind, Profile]


@dataclass(frozen=True)
class ProportionalityViolation:
    """Agent whose n-times-copied bundle fails against the full item set."""

    agent: int
    refuting_utility: Optional[UtilityFunction] = None


@dataclass(frozen=True)
class EnvyWitness:
    envious: int
    envied: int


@dataclass(frozen=True)
class ParetoImprovement:
    """An allocation weakly better for everyone and strictly better for one."""

    allocation: Allocation


@dataclass(frozen=True)
class OneForTwoSwap:
    """Trading ``single_item`` for ``pair`` improves both agents at once.

    ``single_agent`` holds the single item but some consistent utility makes
    any two items beat one; ``pair_agent`` holds the pair but ranks the single
    item above both of its elements.
    """

    single_agent: int
    single_item: int
    pair_agent: int
    pair: tuple[int, int]


Certificate = Union[ProportionalityViolation, EnvyWitness, ParetoImprovement, OneForTwoSwap]


@dataclass(frozen=True)
class FairnessVerdict:
    criterion: Criterion
    extension: Optional[RelationKind]  # None means a concrete utility profile
    result: bool
    certificate: Optional[Certificate] = None


# ---------------------------------------------------------------------------
# Shared validation
# ---------------------------------------------------------------------------

def _require_partition(alloc: Allocation, instance: Instance) -> None:
    if alloc.agent_count != instance.agent_count:
        raise ValueError(
            f"allocation has {alloc.agent_count} bundles for {instance.agent_count} agents"
        )
    if not alloc.is_partition_of(instance.item_count):
        raise ValueError("allocation does not partition the instance's items")


def _require_kind_match(extension: RelationKind, instance: Instance) -> None:
    # Every relation is a goods or a chores relation, never both.
    chores = extension in CHORES_RELATIONS
    if chores is not (instance.kind is ItemKind.CHORES):
        raise ExtensionKindMismatchError(
            f"{extension.value} is a {'chores' if chores else 'goods'} extension;"
            f" instance holds {instance.kind.value}"
        )


def _require_profile(extension: Profile, instance: Instance) -> tuple[UtilityFunction, ...]:
    profile = tuple(extension)
    if len(profile) != instance.agent_count:
        raise ValueError("profile must supply one utility function per agent")
    for utility in profile:
        if len(utility.values) < instance.item_count:
            raise KeyError(f"no utility value for item {len(utility.values)!r}")
    return profile


# ---------------------------------------------------------------------------
# Proportionality
# ---------------------------------------------------------------------------

def check_proportional(
    alloc: Allocation, instance: Instance, extension: Extension
) -> FairnessVerdict:
    """Is the allocation proportional under the extension (or concrete profile)?

    Extension semantics: agent i's bundle copied n times must relate to the
    full item set under the chosen relation and i's own ranking.  Under a
    concrete profile, agent i needs n * u_i(own bundle) >= u_i(all items),
    decided exactly by :meth:`UtilityFunction.compare`.  On failure the
    verdict names the first violating agent, with an explicit refuting
    utility for the NEC / NDD / NID extensions.
    """
    _require_partition(alloc, instance)
    n = instance.agent_count
    if not isinstance(extension, RelationKind):
        profile = _require_profile(extension, instance)
        everything = range(instance.item_count)
        for agent, utility in enumerate(profile):
            if utility.compare(alloc.bundles[agent] * n, everything) < 0:
                return FairnessVerdict(
                    Criterion.PROPORTIONALITY, None, False,
                    ProportionalityViolation(agent),
                )
        return FairnessVerdict(Criterion.PROPORTIONALITY, None, True)

    _require_kind_match(extension, instance)
    m = instance.item_count
    for agent in range(n):
        ranking = instance.rankings[agent]
        table = ranking.levels
        levels = sorted([table[item] for item in alloc.bundles[agent]], reverse=True)
        if not share_holds(extension, levels, n, m):
            witness = None
            if extension in REFUTABLE_RELATIONS:
                witness = refuting_utility(
                    extension, alloc.bundle(agent).scaled(n), instance.full_bundle(), ranking
                )
            return FairnessVerdict(
                Criterion.PROPORTIONALITY, extension, False,
                ProportionalityViolation(agent, witness),
            )
    return FairnessVerdict(Criterion.PROPORTIONALITY, extension, True)


# ---------------------------------------------------------------------------
# Envy-freeness
# ---------------------------------------------------------------------------

_EF_EXTENSIONS = frozenset({RelationKind.NEC, RelationKind.NDD})


def check_envy_free(
    alloc: Allocation, instance: Instance, extension: Extension
) -> FairnessVerdict:
    """Is the allocation envy-free under NEC / NDD or a concrete profile?

    Under a concrete profile, agent i envies j when u_i(own bundle) <
    u_i(j's bundle), decided exactly by :meth:`UtilityFunction.compare`.
    Only the "necessary" goods extensions admit a pairwise test.  The
    possible-style extensions (PDD and friends) need a single profile working
    for all pairs simultaneously, which no pairwise relation captures; they
    are rejected explicitly (see search.pddef_witness_search for a sampled
    witness finder).
    """
    _require_partition(alloc, instance)
    n = instance.agent_count
    if not isinstance(extension, RelationKind):
        profile = _require_profile(extension, instance)
        for i in range(n):
            for j in range(n):
                if i != j and profile[i].compare(alloc.bundles[i], alloc.bundles[j]) < 0:
                    return FairnessVerdict(
                        Criterion.ENVY_FREENESS, None, False, EnvyWitness(i, j)
                    )
        return FairnessVerdict(Criterion.ENVY_FREENESS, None, True)

    if extension not in _EF_EXTENSIONS:
        raise UnsupportedExtensionError(
            f"envy-freeness is only decidable pairwise for nec/ndd, not {extension.value}"
        )
    _require_kind_match(extension, instance)
    bundles = [alloc.bundle(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and not holds(extension, bundles[i], bundles[j], instance.rankings[i]):
                return FairnessVerdict(
                    Criterion.ENVY_FREENESS, extension, False, EnvyWitness(i, j)
                )
    return FairnessVerdict(Criterion.ENVY_FREENESS, extension, True)


# ---------------------------------------------------------------------------
# Pareto efficiency
# ---------------------------------------------------------------------------

_PARETO_EXTENSIONS = frozenset(
    {RelationKind.POS, RelationKind.PDD, RelationKind.NEC, RelationKind.NDD}
)


def check_pareto(
    alloc: Allocation,
    instance: Instance,
    extension: Extension,
    budget: int = DEFAULT_MAX_STATES,
) -> FairnessVerdict:
    """Pareto-efficiency verdicts.

    * NEC / NDD: necessary-efficiency.  Equivalent tests; decided as
      possible-efficiency plus the absence of a Pareto-improving
      one-for-two swap.
    * POS / PDD: possible-efficiency.  Equivalent tests; decided by a
      brute-force dominance search under the lexicographic profile
      u_i(x) = 2^level_i(x), whose verdict settles the whole class.
    * A concrete profile: direct dominance search under those utilities,
      read exactly (each agent's values scaled to integers).

    The dominance search enumerates all n^M allocations; beyond ``budget``
    states it raises :class:`BudgetExceededError` rather than guessing.
    """
    _require_partition(alloc, instance)
    relation: Optional[RelationKind] = None
    if isinstance(extension, RelationKind):
        if instance.kind is not ItemKind.GOODS:
            raise ExtensionKindMismatchError("pareto extensions are defined for goods instances")
        if extension not in _PARETO_EXTENSIONS:
            raise UnsupportedExtensionError(
                f"pareto efficiency is not defined for extension {extension.value}"
            )
        relation = extension
        profile = tuple(lexicographic_utility(r) for r in instance.rankings)
    else:
        profile = _require_profile(extension, instance)

    dominator = _find_dominating_allocation(alloc, instance, profile, budget)
    if dominator is not None:
        return FairnessVerdict(
            Criterion.PARETO_EFFICIENCY, relation, False, ParetoImprovement(dominator)
        )
    if relation in (RelationKind.NEC, RelationKind.NDD):
        swap = find_one_for_two_swap(alloc, instance)
        if swap is not None:
            return FairnessVerdict(Criterion.PARETO_EFFICIENCY, relation, False, swap)
    return FairnessVerdict(Criterion.PARETO_EFFICIENCY, relation, True)


def find_one_for_two_swap(alloc: Allocation, instance: Instance) -> Optional[OneForTwoSwap]:
    """First pair of agents admitting a Pareto-improving one-for-two swap.

    Agents a and b improve together when a holds a single item that b ranks
    strictly above two of b's own items: a count-dominant utility makes a
    prefer the pair, a lexicographic one makes b prefer the single item.
    """
    n = alloc.agent_count
    for a in range(n):
        for b in range(n):
            if a == b or len(alloc.bundles[b]) < 2:
                continue
            ranking_b = instance.rankings[b]
            items_b = sorted(alloc.bundles[b], key=ranking_b.level)
            for item in alloc.bundles[a]:
                level = ranking_b.level(item)
                # Two worst items of b by b's own ranking suffice: if any pair
                # works, that one works.
                worst_pair = (items_b[0], items_b[1])
                if level > ranking_b.level(worst_pair[0]) and level > ranking_b.level(
                    worst_pair[1]
                ):
                    return OneForTwoSwap(a, item, b, worst_pair)
    return None


def apply_one_for_two_swap(alloc: Allocation, swap: OneForTwoSwap) -> Allocation:
    """The allocation after trading the single item for the pair."""
    bundles = [list(b) for b in alloc.bundles]
    bundles[swap.single_agent].remove(swap.single_item)
    for item in swap.pair:
        bundles[swap.pair_agent].remove(item)
        bundles[swap.single_agent].append(item)
    bundles[swap.pair_agent].append(swap.single_item)
    return Allocation.from_lists(bundles)


def _find_dominating_allocation(
    alloc: Allocation,
    instance: Instance,
    profile: Profile,
    budget: int,
) -> Optional[Allocation]:
    """Smallest (in assignment order) allocation Pareto-dominating ``alloc``.

    Depth-first over items in identifier order, agents in index order, so the
    result is deterministic.  Prunes branches where some agent can no longer
    reach its current utility even with every remaining item it values.
    """
    n = instance.agent_count
    m = instance.item_count
    if n**m > budget:
        raise BudgetExceededError(
            f"pareto dominance search needs {n**m} states, budget is {budget}"
        )
    # Each agent's values times their common denominator: exact integers,
    # with a float read as its exact binary value.
    values = []
    for utility in profile:
        ratios = [Fraction(v).as_integer_ratio() for v in utility.values[:m]]
        scale = lcm(*(den for _, den in ratios))
        values.append([num * (scale // den) for num, den in ratios])
    targets = [sum(values[i][item] for item in alloc.bundles[i]) for i in range(n)]
    # best_remaining[i][d]: the most agent i can still gain from items d..M-1.
    best_remaining = [[0] * (m + 1) for _ in range(n)]
    for i in range(n):
        for d in range(m - 1, -1, -1):
            best_remaining[i][d] = best_remaining[i][d + 1] + max(values[i][d], 0)

    current = [0] * n
    assignment = [0] * m

    def dfs(depth: int) -> Optional[Allocation]:
        if depth == m:
            # The sums are exact, so "no worse and not equal" is a strict gain.
            if current != targets and all(c >= t for c, t in zip(current, targets)):
                bundles: list[list[int]] = [[] for _ in range(n)]
                for item, agent in enumerate(assignment):
                    bundles[agent].append(item)
                return Allocation.from_lists(bundles)
            return None
        for agent in range(n):
            current[agent] += values[agent][depth]
            assignment[depth] = agent
            if all(current[i] + best_remaining[i][depth + 1] >= targets[i] for i in range(n)):
                found = dfs(depth + 1)
                if found is not None:
                    return found
            current[agent] -= values[agent][depth]
        return None

    return dfs(0)
