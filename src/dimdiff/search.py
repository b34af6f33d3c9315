"""Brute-force and backtracking allocation searches.

These searches are the ground-truth oracles of the package: existence
questions answered here are proofs by exhaustion (within an explicit budget),
and every positive answer returns the lexicographically first witness so runs
are reproducible.

The generic existence search is a depth-first search over partial
assignments.  It reads each agent's item levels once and tests a held item
set through the relation layer of :mod:`dimdiff.extensions` on best-first
level lists (``share_holds`` for an agent's own bundle, ``relation_holds``
for envy), so no multi-bundle is built per test.

For goals that force equal bundle sizes (NEC, NDD, NID, NBIN) it cuts a
subtree in two cases, after each placement of an item:

* a bundle just completed fails: its own test, or for envy-freeness the
  envy test in either direction against another complete bundle;
* some agent that still has room fails its own test even on its
  *optimistic completion*: the items it holds plus its best remaining
  items, as many as it has room for.

The second cut is exact.  Each of these relations is monotone: replacing
an item of a bundle by one its agent ranks better never turns the own test
from true to false (for chores under NID, a better-ranked chore is a
lighter one).  Any completion of the agent's bundle takes some set S of
the remaining items; every item of the best set B that S lacks is ranked
above every item of S that B lacks, so S turns into B by such swaps, and
if the agent rejects its held items plus B it rejects them plus S.
Envy-freeness under NEC or NDD implies the own test (sum any utility of
the class over the n bundles), so the cut is exact for both criteria.
Own-test verdicts are memoized by (agent, held items, next item); the test
of a complete bundle is the optimistic completion with no room left.

Before the first placement the same argument settles, once per agent, the
items the agent cannot do without.  An agent *needs* item i when its own
test fails on its best M/n items drawn from all items but i.  Every bundle
of M/n items without i turns into that best set by swaps to better-ranked
items, so by monotonicity the agent rejects every bundle that lacks i, and
every accepted allocation, under either criterion, gives it i.  Only the
agent's top M/n items can be needed: without any other item its best M/n
are its top M/n.  If two agents need the same item, no allocation is
accepted: the search counts every balanced allocation and returns None.
Otherwise a needed item is placed only with the agent that needs it, and
the subtree of each other agent is counted without being searched.

A cut subtree holds no witness, so the search stays exhaustive; it still
counts every balanced allocation the cut skips, so the budget bounds the
same space as an allocation-by-allocation scan.  Every search here has one
budget, ``max_states``, counted in allocations (splits, in the two-agent
kernels); spending it raises :class:`BudgetExceededError`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from . import _pairsearch
from .core import Allocation, Instance, ItemKind, UtilityFunction
from .exceptions import BudgetExceededError, UnsupportedExtensionError
from .extensions import EQUAL_SIZE_RELATIONS, RelationKind, holds, relation_holds, share_holds
from .fairness import (
    DEFAULT_MAX_STATES, _EF_EXTENSIONS, Criterion, _require_kind_match, check_envy_free,
)

_FAST_PR_RELATIONS = {
    RelationKind.NEC: "nec",
    RelationKind.NDD: "ndd",
    RelationKind.PDD: "pdd",
    RelationKind.POS: "pos",
}


@dataclass(frozen=True)
class AllocationGoal:
    """A fairness predicate over whole allocations, built from relation checks."""

    criterion: Criterion
    extension: RelationKind

    def __post_init__(self) -> None:
        if self.criterion is Criterion.PARETO_EFFICIENCY:
            raise UnsupportedExtensionError("pareto efficiency is not a search goal")
        if self.criterion is Criterion.ENVY_FREENESS and self.extension not in _EF_EXTENSIONS:
            raise UnsupportedExtensionError(
                f"envy-freeness search supports nec/ndd only, not {self.extension.value}"
            )

    @property
    def forces_equal_sizes(self) -> bool:
        return self.extension in EQUAL_SIZE_RELATIONS

    def satisfied_by(self, alloc: Allocation, instance: Instance) -> bool:
        """Proportionality: each agent's bundle, copied n times, relates to
        the full item set.  Envy-freeness: each agent weakly prefers its own
        bundle to every other agent's."""
        n = instance.agent_count
        bundles = [alloc.bundle(i) for i in range(n)]
        rankings = instance.rankings
        if self.criterion is Criterion.PROPORTIONALITY:
            full = instance.full_bundle()
            return all(
                holds(self.extension, bundles[i].scaled(n), full, rankings[i])
                for i in range(n)
            )
        return all(
            holds(self.extension, bundles[i], bundles[j], rankings[i])
            for i in range(n)
            for j in range(n)
            if i != j
        )


#: The paper's existence goals by name: the ``solve --goal`` choices, the
#: simulation's columns and the goals of the existence sweep.
GOALS = {
    "necpr": AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.NEC),
    "nddpr": AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.NDD),
    "pddpr": AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.PDD),
    "pospr": AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.POS),
    "nidpr": AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.NID),
    "nddef": AllocationGoal(Criterion.ENVY_FREENESS, RelationKind.NDD),
}


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _assignments(
    agent_count: int, item_count: int, equal_sizes: bool
) -> Iterator[tuple[int, ...]]:
    """Assignment tuples (agent of item 0, of item 1, ...) in ascending order."""
    if not equal_sizes:
        yield from itertools.product(range(agent_count), repeat=item_count)
        return
    share = item_count // agent_count
    capacity = [share] * agent_count
    assignment = [0] * item_count

    def fill(depth: int) -> Iterator[tuple[int, ...]]:
        if depth == item_count:
            yield tuple(assignment)
            return
        for agent in range(agent_count):
            if capacity[agent]:
                capacity[agent] -= 1
                assignment[depth] = agent
                yield from fill(depth + 1)
                capacity[agent] += 1

    yield from fill(0)


def _to_allocation(assignment: tuple[int, ...], agent_count: int) -> Allocation:
    bundles: list[list[int]] = [[] for _ in range(agent_count)]
    for item, agent in enumerate(assignment):
        bundles[agent].append(item)
    return Allocation.from_lists(bundles)


def count_allocations(instance: Instance, equal_sizes: bool = False) -> int:
    n, m = instance.agent_count, instance.item_count
    if not equal_sizes:
        return n**m
    if m % n:
        return 0
    return _balanced_completions([m // n] * n)


def enumerate_allocations(
    instance: Instance,
    equal_sizes: bool = False,
    max_states: int = DEFAULT_MAX_STATES,
) -> Iterator[Allocation]:
    """Every allocation exactly once, in deterministic lexicographic order.

    Items are assigned in identifier order and agents in index order.  The
    total space must fit ``max_states`` up front.
    """
    if equal_sizes and instance.item_count % instance.agent_count:
        return iter(())
    total = count_allocations(instance, equal_sizes)
    if total > max_states:
        raise BudgetExceededError(f"{total} allocations exceed the budget of {max_states}")
    return (
        _to_allocation(a, instance.agent_count)
        for a in _assignments(instance.agent_count, instance.item_count, equal_sizes)
    )


# ---------------------------------------------------------------------------
# Existence search
# ---------------------------------------------------------------------------

def exists_allocation(
    instance: Instance,
    goal: AllocationGoal,
    max_states: int = DEFAULT_MAX_STATES,
) -> Optional[Allocation]:
    """The lexicographically first allocation satisfying the goal, or None.

    None is a proof by exhaustion over the relevant space: for goals whose
    relation forces equal bundle sizes only balanced allocations can qualify,
    so only those are searched.  Two-agent proportionality of goods under
    nec / ndd / pdd / pos goes to the vectorized split kernels; every other
    goal goes to a depth-first search that assigns items in identifier order
    and tries agents in index order, the order of :func:`enumerate_allocations`.
    With equal sizes it cuts a subtree after a placement when a bundle just
    completed fails its test (proportionality, and for envy-freeness also
    both directions against every other complete bundle), or when an agent
    with room would fail its own test even with its best remaining items;
    the relations are monotone in better-ranked items, so no cut subtree
    holds a witness (see the module docstring).  Before the first
    placement it pins to each agent the items whose absence alone makes
    the agent's own test fail (the test fails on its best M/n items drawn
    from all the others): monotonicity puts them in the agent's bundle in
    every qualifying allocation, so such an item is placed only with its
    agent, and two agents that need the same item answer None at once,
    with every balanced allocation counted.  Other goals are tested at the
    leaves.  Every test runs on integer level lists through
    :func:`~dimdiff.extensions.share_holds` and
    :func:`~dimdiff.extensions.relation_holds`.  ``max_states`` counts
    allocations in that order, a cut subtree counting as all the
    allocations it holds, so the budget is exceeded for exactly the inputs
    where a scan of one allocation at a time would exceed it.  It is the
    search's only budget; spending it raises, never returns a silent
    default.
    """
    _require_kind_match(goal.extension, instance)
    n, m = instance.agent_count, instance.item_count
    if goal.forces_equal_sizes and m % n:
        return None

    if (
        n == 2
        and instance.kind is ItemKind.GOODS
        and goal.criterion is Criterion.PROPORTIONALITY
        and goal.extension in _FAST_PR_RELATIONS
    ):
        return _exists_two_agent_pr(instance, goal, max_states)
    return _first_witness(instance, goal, max_states)


def _balanced_completions(capacity: list[int]) -> int:
    """Ways to fill the remaining capacities: their multinomial coefficient."""
    total, remaining = 1, 0
    for free in capacity:
        remaining += free
        total *= math.comb(remaining, free)
    return total


@lru_cache(maxsize=None)
def _needed_ranks(kind: RelationKind, n: int, m: int) -> tuple[int, ...]:
    """The positions in an agent's ranking whose item its own test cannot do
    without: the test fails on its best M/n items drawn from all the others.
    Every ranking gives the levels M..1, so they are the same for every
    agent, and they lie in its top M/n."""
    share = m // n
    full = list(range(m, 0, -1))
    return tuple(
        rank
        for rank in range(share)
        if not share_holds(kind, full[:rank] + full[rank + 1 : share + 1], n, m)
    )


def _owners(instance: Instance, kind: RelationKind) -> Optional[list[int]]:
    """The root rule of the equal-size search: ``owner[item]`` is the agent
    that every accepted allocation gives the item to, or -1 where no agent
    alone needs it; None when two agents need the same item, so that no
    allocation is accepted (see the module docstring)."""
    owner = [-1] * instance.item_count
    for agent, ranking in enumerate(instance.rankings):
        for rank in _needed_ranks(kind, instance.agent_count, instance.item_count):
            item = ranking.order[rank]
            if owner[item] >= 0:
                return None
            owner[item] = agent
    return owner


def _first_witness(
    instance: Instance, goal: AllocationGoal, max_states: int
) -> Optional[Allocation]:
    n, m = instance.agent_count, instance.item_count
    kind = goal.extension
    equal = goal.forces_equal_sizes
    envy = goal.criterion is Criterion.ENVY_FREENESS  # nec / ndd only: equal sizes
    capacity = [m // n if equal else m] * n
    states = 0

    def count(leaves: int) -> None:
        nonlocal states
        states += leaves
        if states > max_states:
            raise BudgetExceededError(f"search exceeded its budget of {max_states} states")

    owner = _owners(instance, kind) if equal else []
    if owner is None:
        count(_balanced_completions(capacity))
        return None
    # level[agent][item]: the item's level under the agent's ranking.
    level = [ranking.levels for ranking in instance.rankings]
    # best_from[agent][d]: the agent's levels of items d..M-1, best-first.
    best_from = [[sorted(row[d:], reverse=True) for d in range(m + 1)] for row in level]
    held: list[list[int]] = [[] for _ in range(n)]
    masks = [0] * n  # the items each agent holds, as a bit mask
    complete = [False] * n
    verdicts: dict[tuple[int, int, int], bool] = {}  # memo of accepts()

    def levels_of(viewer: int, items: list[int]) -> list[int]:
        return sorted([level[viewer][item] for item in items], reverse=True)

    def accepts(agent: int, following: int) -> bool:
        """Does the agent's own test pass on the items it holds plus its
        best items from ``following`` on, as many as it has room for?  From
        ``following = M`` on this is the test of the held items alone."""
        key = (agent, masks[agent], following)
        verdict = verdicts.get(key)
        if verdict is None:
            best = levels_of(agent, held[agent]) + best_from[agent][following][: capacity[agent]]
            best.sort(reverse=True)
            verdict = verdicts[key] = share_holds(kind, best, n, m)
        return verdict

    def prefers(viewer: int, mine: int, theirs: int) -> bool:
        return relation_holds(
            kind, levels_of(viewer, held[mine]), levels_of(viewer, held[theirs]), m
        )

    def completes(agent: int) -> bool:
        if not accepts(agent, m):
            return False
        if envy and not all(
            prefers(agent, agent, peer) and prefers(peer, peer, agent)
            for peer in range(n)
            if complete[peer]
        ):
            return False
        complete[agent] = True
        return True

    def viable(agent: int, item: int) -> bool:
        """No cut below this placement: a completed bundle passes, and every
        agent with room can still pass with its best remaining items."""
        if not capacity[agent] and not completes(agent):
            return False
        return all(accepts(other, item + 1) for other in range(n) if capacity[other])

    def place(item: int) -> Optional[Allocation]:
        if item == m:
            count(1)
            if equal or all(accepts(agent, m) for agent in range(n)):
                return Allocation.from_lists(held)
            return None
        for agent in range(n):
            if not capacity[agent]:
                continue
            capacity[agent] -= 1
            held[agent].append(item)
            masks[agent] |= 1 << item
            found = None
            if equal and not (owner[item] in (-1, agent) and viable(agent, item)):
                count(_balanced_completions(capacity))
            else:
                found = place(item + 1)
            complete[agent] = False
            masks[agent] ^= 1 << item
            held[agent].pop()
            capacity[agent] += 1
            if found is not None:
                return found
        return None

    return place(0)


def _exists_two_agent_pr(
    instance: Instance, goal: AllocationGoal, max_states: int
) -> Optional[Allocation]:
    m = instance.item_count
    perms = tuple(tuple(r.order) for r in instance.rankings)
    kernel = (
        _pairsearch.first_equal_split
        if goal.forces_equal_sizes
        else _pairsearch.first_any_split
    )
    mask, states = kernel(
        m,
        perms[0],
        perms[1],
        _FAST_PR_RELATIONS[goal.extension],
        max_states=max_states,
    )
    if mask is None and states < count_allocations(instance, goal.forces_equal_sizes):
        raise BudgetExceededError(f"search exceeded its budget of {max_states} states")
    if mask is None:
        return None
    return Allocation(_pairsearch.mask_to_bundles(mask, m))


# ---------------------------------------------------------------------------
# Sampled witness finder for possible-DD envy-freeness
# ---------------------------------------------------------------------------

def pddef_witness_search(
    instance: Instance,
    alloc: Allocation,
    samples: int,
    seed: int,
) -> Optional[tuple[UtilityFunction, ...]]:
    """A sampled diminishing-differences profile under which alloc is envy-free.

    Incomplete by design: envy-freeness for at least one profile has no
    pairwise characterization, so absence of a witness proves nothing.
    """
    from .extensions import sample_dd_utility

    if samples < 1:
        raise ValueError("samples must be >= 1")
    if instance.kind is not ItemKind.GOODS:
        raise UnsupportedExtensionError("the DD witness search applies to goods instances")
    rng = random.Random(seed)
    for _ in range(samples):
        profile = tuple(sample_dd_utility(r, rng) for r in instance.rankings)
        if check_envy_free(alloc, instance, profile).result:
            return profile
    return None
