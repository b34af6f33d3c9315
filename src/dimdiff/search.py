"""Brute-force and backtracking allocation searches.

These searches are the ground-truth oracles of the package: existence
questions answered here are proofs by exhaustion (within an explicit budget),
and every positive answer returns the lexicographically first witness so runs
are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from . import _pairsearch
from .core import Allocation, Instance, ItemKind, UtilityFunction
from .exceptions import BudgetExceededError, UnsupportedExtensionError
from .extensions import RelationKind, holds
from .fairness import Criterion, _require_kind_match

DEFAULT_MAX_STATES = 10_000_000

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

    def satisfied_by(self, alloc: Allocation, instance: Instance) -> bool:
        n = instance.agent_count
        if self.criterion is Criterion.PROPORTIONALITY:
            everything = instance.full_bundle()
            return all(
                holds(
                    self.extension,
                    alloc.bundle(i).scaled(n),
                    everything,
                    instance.rankings[i],
                )
                for i in range(n)
            )
        bundles = [alloc.bundle(i) for i in range(n)]
        return all(
            holds(self.extension, bundles[i], bundles[j], instance.rankings[i])
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
    so only those are enumerated.  Budget exhaustion raises; it never returns
    a silent default.
    """
    budget = budget or SearchBudget()
    _require_kind_match(goal.extension, instance)
    equal = goal.forces_equal_sizes
    n, m = instance.agent_count, instance.item_count
    if equal and m % n:
        return None

    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit
    if (
        n == 2
        and instance.kind is ItemKind.GOODS
        and goal.criterion is Criterion.PROPORTIONALITY
        and goal.extension in _FAST_PR_RELATIONS
    ):
        return _exists_two_agent_pr(instance, goal, budget, deadline)

    states = 0
    for assignment in _assignments(n, m, equal):
        states += 1
        if states > budget.max_states:
            raise BudgetExceededError(
                f"search exceeded its budget of {budget.max_states} states"
            )
        if deadline is not None and states % 1024 == 0 and time.monotonic() > deadline:
            raise BudgetExceededError("search exceeded its time limit")
        alloc = _to_allocation(assignment, n)
        if goal.satisfied_by(alloc, instance):
            return alloc
    return None


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
