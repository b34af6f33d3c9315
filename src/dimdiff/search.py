"""Brute-force and backtracking allocation searches.

These searches are the ground-truth oracles of the package: existence
questions answered here are proofs by exhaustion (within an explicit budget),
and every positive answer returns the lexicographically first witness so runs
are reproducible.

The generic existence search is a depth-first search over partial
assignments.  For goals that force equal bundle sizes it tests each bundle
as soon as it is complete and cuts every subtree below a bundle that fails.
A cut subtree holds no witness, so the search stays exhaustive; it still
counts every balanced allocation the cut skips, so budgets bound the same
space as an allocation-by-allocation scan.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from . import _pairsearch
from .core import Allocation, Instance, ItemKind, MultiBundle, UtilityFunction
from .exceptions import BudgetExceededError, UnsupportedExtensionError
from .extensions import RelationKind, holds
from .fairness import DEFAULT_MAX_STATES, Criterion, _require_kind_match

#: Extensions whose proportionality / envy-freeness force equal bundle sizes
#: (their size condition makes unequal allocations infeasible outright).
_EQUAL_SIZE_EXTENSIONS = frozenset(
    {RelationKind.NEC, RelationKind.NDD, RelationKind.NID, RelationKind.NBIN}
)

_FAST_PR_RELATIONS = {
    RelationKind.NEC: "nec",
    RelationKind.NDD: "ndd",
    RelationKind.PDD: "pdd",
    RelationKind.POS: "pos",
}


@dataclass(frozen=True)
class SearchBudget:
    """Explicit resource bounds; exceeding them is an error, never a default."""

    max_states: int = DEFAULT_MAX_STATES
    time_limit: Optional[float] = None  # seconds


@dataclass(frozen=True)
class AllocationGoal:
    """A fairness predicate over whole allocations, built from relation checks."""

    criterion: Criterion
    extension: RelationKind

    def __post_init__(self) -> None:
        if self.criterion is Criterion.PARETO_EFFICIENCY:
            raise UnsupportedExtensionError("pareto efficiency is not a search goal")
        if self.criterion is Criterion.ENVY_FREENESS and self.extension not in (
            RelationKind.NEC,
            RelationKind.NDD,
        ):
            raise UnsupportedExtensionError(
                f"envy-freeness search supports nec/ndd only, not {self.extension.value}"
            )

    @property
    def forces_equal_sizes(self) -> bool:
        return self.extension in _EQUAL_SIZE_EXTENSIONS

    def agent_accepts(self, instance: Instance, agent: int, bundle: MultiBundle) -> bool:
        """The test of one agent's own bundle: copied n times, it relates to
        the full item set.  This is proportionality, and envy-freeness under
        NEC / NDD implies it (sum the agent's utility over all n bundles)."""
        return holds(
            self.extension,
            bundle.scaled(instance.agent_count),
            instance.full_bundle(),
            instance.rankings[agent],
        )

    def pair_accepts(
        self, instance: Instance, agent: int, own: MultiBundle, other: MultiBundle
    ) -> bool:
        """The envy test: the agent weakly prefers its own bundle to another's."""
        return holds(self.extension, own, other, instance.rankings[agent])

    def satisfied_by(self, alloc: Allocation, instance: Instance) -> bool:
        n = instance.agent_count
        bundles = [alloc.bundle(i) for i in range(n)]
        if self.criterion is Criterion.PROPORTIONALITY:
            return all(self.agent_accepts(instance, i, bundles[i]) for i in range(n))
        return all(
            self.pair_accepts(instance, i, bundles[i], bundles[j])
            for i in range(n)
            for j in range(n)
            if i != j
        )


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
    share = m // n
    total = 1
    remaining = m
    for _ in range(n):
        total *= math.comb(remaining, share)
        remaining -= share
    return total


def enumerate_allocations(
    instance: Instance,
    equal_sizes: bool = False,
    budget: Optional[SearchBudget] = None,
) -> Iterator[Allocation]:
    """Every allocation exactly once, in deterministic lexicographic order.

    Items are assigned in identifier order and agents in index order.  The
    total space must fit the budget up front.
    """
    budget = budget or SearchBudget()
    if equal_sizes and instance.item_count % instance.agent_count:
        return iter(())
    total = count_allocations(instance, equal_sizes)
    if total > budget.max_states:
        raise BudgetExceededError(
            f"{total} allocations exceed the budget of {budget.max_states}"
        )
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
    budget: Optional[SearchBudget] = None,
) -> Optional[Allocation]:
    """The lexicographically first allocation satisfying the goal, or None.

    None is a proof by exhaustion over the relevant space: for goals whose
    relation forces equal bundle sizes only balanced allocations can qualify,
    so only those are searched.  Two-agent proportionality of goods under
    nec / ndd / pdd / pos goes to the vectorized split kernels; every other
    goal goes to a depth-first search that assigns items in identifier order
    and tries agents in index order, the order of :func:`enumerate_allocations`.
    With equal sizes it tests a bundle once it is complete (proportionality,
    and for envy-freeness also both directions against every other complete
    bundle) and cuts the subtree when the test fails; other goals are tested
    at the leaves.  ``max_states`` counts allocations in that order, a cut
    subtree counting as all the allocations it holds, so the budget is
    exceeded for exactly the inputs where a scan of one allocation at a time
    would exceed it.  The time limit is read each time the count passes a
    multiple of 1024.  Budget exhaustion raises; it never returns a silent
    default.
    """
    budget = budget or SearchBudget()
    _require_kind_match(goal.extension, instance)
    n, m = instance.agent_count, instance.item_count
    if goal.forces_equal_sizes and m % n:
        return None

    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit
    if (
        n == 2
        and instance.kind is ItemKind.GOODS
        and goal.criterion is Criterion.PROPORTIONALITY
        and goal.extension in _FAST_PR_RELATIONS
    ):
        return _exists_two_agent_pr(instance, goal, budget, deadline)
    return _first_witness(instance, goal, budget, deadline)


def _balanced_completions(capacity: list[int]) -> int:
    """Ways to fill the remaining capacities: their multinomial coefficient."""
    total, remaining = 1, 0
    for free in capacity:
        remaining += free
        total *= math.comb(remaining, free)
    return total


def _first_witness(
    instance: Instance,
    goal: AllocationGoal,
    budget: SearchBudget,
    deadline: Optional[float],
) -> Optional[Allocation]:
    n, m = instance.agent_count, instance.item_count
    equal = goal.forces_equal_sizes
    envy = goal.criterion is Criterion.ENVY_FREENESS  # nec / ndd only: equal sizes
    capacity = [m // n if equal else m] * n
    held: list[list[int]] = [[] for _ in range(n)]
    complete: list[Optional[MultiBundle]] = [None] * n
    # (agent, items) -> the bundle if it passes the agent's own test, else None.
    verdicts: dict[tuple[int, tuple[int, ...]], Optional[MultiBundle]] = {}
    states = 0

    def own(agent: int) -> Optional[MultiBundle]:
        key = (agent, tuple(held[agent]))
        if key not in verdicts:
            bundle = MultiBundle.from_items(held[agent])
            verdicts[key] = bundle if goal.agent_accepts(instance, agent, bundle) else None
        return verdicts[key]

    def completes(agent: int) -> bool:
        bundle = own(agent)
        if bundle is None:
            return False
        if envy and not all(
            goal.pair_accepts(instance, agent, bundle, other)
            and goal.pair_accepts(instance, peer, other, bundle)
            for peer, other in enumerate(complete)
            if other is not None
        ):
            return False
        complete[agent] = bundle
        return True

    def count(leaves: int) -> None:
        nonlocal states
        before, states = states, states + leaves
        # The first multiple of 1024 in (before, states], where a scan of one
        # allocation at a time would have read the clock.
        mark = (before // 1024 + 1) * 1024
        if (
            deadline is not None
            and mark <= min(states, budget.max_states)
            and time.monotonic() > deadline
        ):
            raise BudgetExceededError("search exceeded its time limit")
        if states > budget.max_states:
            raise BudgetExceededError(
                f"search exceeded its budget of {budget.max_states} states"
            )

    def place(item: int) -> Optional[Allocation]:
        if item == m:
            count(1)
            if equal or all(own(agent) is not None for agent in range(n)):
                return Allocation.from_lists(held)
            return None
        for agent in range(n):
            if not capacity[agent]:
                continue
            capacity[agent] -= 1
            held[agent].append(item)
            found = None
            if equal and not capacity[agent] and not completes(agent):
                count(_balanced_completions(capacity))
            else:
                found = place(item + 1)
            complete[agent] = None
            held[agent].pop()
            capacity[agent] += 1
            if found is not None:
                return found
        return None

    return place(0)


def _exists_two_agent_pr(
    instance: Instance,
    goal: AllocationGoal,
    budget: SearchBudget,
    deadline: Optional[float],
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
        max_states=budget.max_states,
        deadline=deadline,
    )
    if mask is None and states < count_allocations(instance, goal.forces_equal_sizes):
        raise BudgetExceededError(
            f"search exceeded its budget of {budget.max_states} states"
        )
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
    n = instance.agent_count
    bundles = [alloc.bundle(i) for i in range(n)]
    rng = random.Random(seed)
    for _ in range(samples):
        profile = tuple(sample_dd_utility(r, rng) for r in instance.rankings)
        if all(
            profile[i].of(bundles[i]) >= profile[i].of(bundles[j])
            for i in range(n)
            for j in range(n)
            if i != j
        ):
            return profile
    return None
