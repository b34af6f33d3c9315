"""Enumeration, existence search (generic and vectorized), witness finding."""

import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimdiff import _pairsearch
from dimdiff.core import Allocation, Instance, ItemKind, MultiBundle, Ranking
from dimdiff.exceptions import BudgetExceededError, UnsupportedExtensionError
from dimdiff.extensions import RelationKind, holds, relation_holds, share_holds
from dimdiff.fairness import Criterion, check_envy_free, check_proportional
from dimdiff.search import (
    _FAST_PR_RELATIONS,
    AllocationGoal,
    _assignments,
    _owners,
    _to_allocation,
    count_allocations,
    enumerate_allocations,
    exists_allocation,
    pddef_witness_search,
)


def goods(*orders):
    return Instance(ItemKind.GOODS, tuple(Ranking(o) for o in orders))


def chores(*orders):
    return Instance(ItemKind.CHORES, tuple(Ranking(o) for o in orders))


PR = Criterion.PROPORTIONALITY
EF = Criterion.ENVY_FREENESS


def generic_scan(instance, goal):
    """Reference implementation: plain enumeration, no vectorized path, no
    pruning.  (first witness, its position in the order) or (None, the
    number of allocations scanned)."""
    equal = goal.forces_equal_sizes
    n, m = instance.agent_count, instance.item_count
    if equal and m % n:
        return None, 0
    position = 0
    for position, assignment in enumerate(_assignments(n, m, equal), 1):
        alloc = _to_allocation(assignment, n)
        if goal.satisfied_by(alloc, instance):
            return alloc, position
    return None, position


def generic_first(instance, goal):
    return generic_scan(instance, goal)[0]


# --- enumeration -------------------------------------------------------------

def test_enumeration_counts():
    two_by_two = goods((0, 1), (1, 0))
    assert len(list(enumerate_allocations(two_by_two))) == 4
    two_by_four = goods((0, 1, 2, 3), (3, 2, 1, 0))
    assert len(list(enumerate_allocations(two_by_four, equal_sizes=True))) == 6
    three_by_six = goods(*(tuple(range(6)),) * 3)
    assert len(list(enumerate_allocations(three_by_six, equal_sizes=True))) == 90
    assert count_allocations(three_by_six, equal_sizes=True) == 90
    assert count_allocations(three_by_six) == 3**6


def test_enumeration_order_and_uniqueness():
    inst = goods((0, 1, 2), (2, 1, 0))
    allocations = list(enumerate_allocations(inst))
    assert allocations[0].bundles == ((0, 1, 2), ())
    assert allocations[-1].bundles == ((), (0, 1, 2))
    assert len({a.bundles for a in allocations}) == len(allocations)


def test_enumeration_budget():
    inst = goods((0, 1, 2, 3), (3, 2, 1, 0))
    with pytest.raises(BudgetExceededError):
        list(enumerate_allocations(inst, max_states=10))


def test_enumeration_equal_sizes_infeasible():
    inst = goods((0, 1, 2), (2, 1, 0))
    assert list(enumerate_allocations(inst, equal_sizes=True)) == []


# --- existence fixtures ------------------------------------------------------

def test_exists_three_agent_envy_instance_has_no_nddef():
    inst = goods((5, 4, 2, 3, 1, 0), (4, 3, 2, 5, 1, 0), (3, 5, 2, 4, 1, 0))
    assert exists_allocation(inst, AllocationGoal(EF, RelationKind.NDD)) is None


def test_exists_opposite_preferences_nddpr():
    inst = goods((3, 2, 1, 0), (1, 2, 3, 0))
    witness = exists_allocation(inst, AllocationGoal(PR, RelationKind.NDD))
    assert witness is not None
    assert check_proportional(witness, inst, RelationKind.NDD).result
    assert exists_allocation(inst, AllocationGoal(PR, RelationKind.NEC)) is None


def test_exists_three_chore_nidpr():
    inst = chores((0, 1, 2), (0, 2, 1), (0, 2, 1))
    witness = exists_allocation(inst, AllocationGoal(PR, RelationKind.NID))
    assert witness is not None
    assert check_proportional(witness, inst, RelationKind.NID).result
    # Up to the symmetry between the two identically ranked agents, it is the
    # allocation that spares everyone their worst chore.
    assert witness.bundles in (((1,), (0,), (2,)), ((1,), (2,), (0,)))


def test_exists_respects_budget():
    # No necessarily-proportional allocation exists here, so the search must
    # exhaust all six balanced splits; a budget of three is not enough.
    inst = goods((3, 2, 1, 0), (1, 2, 3, 0))
    with pytest.raises(BudgetExceededError):
        exists_allocation(inst, AllocationGoal(PR, RelationKind.NEC), max_states=3)
    with pytest.raises(BudgetExceededError):
        exists_allocation(inst, AllocationGoal(EF, RelationKind.NEC), max_states=3)


# Every goal the generic search serves: it takes all but two-agent goods
# proportionality under nec / ndd / pdd / pos.
_GENERIC_GOALS = {
    ItemKind.GOODS: [AllocationGoal(PR, ext) for ext in (
        RelationKind.NEC, RelationKind.NDD, RelationKind.PDD, RelationKind.POS,
        RelationKind.NBIN, RelationKind.PBIN,
    )] + [AllocationGoal(EF, RelationKind.NEC), AllocationGoal(EF, RelationKind.NDD)],
    ItemKind.CHORES: [AllocationGoal(PR, RelationKind.NID), AllocationGoal(PR, RelationKind.PID)],
}


def random_cases(seed):
    """(instance, goal) pairs: 1-4 agents, at most 9 items and at most 2,520
    allocations to scan; goods and chores; the first two agents sharing
    their best item or not."""
    rng = random.Random(seed)
    for agents in range(1, 5):
        for kind, goals in _GENERIC_GOALS.items():
            for goal in goals:
                if agents == 2 and kind is ItemKind.GOODS and goal.criterion is PR and (
                    goal.extension in _FAST_PR_RELATIONS
                ):
                    continue
                for shared in (False, True)[: 1 + (agents > 1)]:
                    for _ in range(2):
                        if goal.forces_equal_sizes:
                            items = agents * rng.randint(1, 9 // agents)
                            if rng.random() < 0.1:
                                items += 1  # no balanced allocation
                        else:
                            items = rng.randint(1, {1: 9, 2: 9, 3: 7, 4: 5}[agents])
                        orders = [rng.sample(range(items), items) for _ in range(agents)]
                        if shared:
                            orders[1].remove(orders[0][0])
                            orders[1].insert(0, orders[0][0])
                        inst = Instance(kind, tuple(Ranking(tuple(o)) for o in orders))
                        yield inst, goal


def test_generic_search_matches_reference_scan_with_budgets():
    budgets = (1, 3, 10, 100, 1000)
    cases = list(random_cases(37))
    found = exhausted = 0
    for inst, goal in cases:
        witness, position = generic_scan(inst, goal)
        result = exists_allocation(inst, goal)
        assert (result and result.bundles) == (witness and witness.bundles), (inst, goal)
        found += witness is not None
        for max_states in budgets:
            if position > max_states:
                with pytest.raises(BudgetExceededError, match="states"):
                    exists_allocation(inst, goal, max_states=max_states)
                exhausted += 1
            else:
                result = exists_allocation(inst, goal, max_states=max_states)
                assert (result and result.bundles) == (witness and witness.bundles)
    # The seed reaches both answers and both sides of every budget.
    assert 0 < found < len(cases) and 0 < exhausted < len(cases) * len(budgets)


# Twelve goods for three agents; the first two share their best item, 7, so
# no allocation gives both of them their best item.
_SHARED_BEST = goods(
    (7, 4, 8, 5, 2, 3, 0, 11, 6, 1, 10, 9),
    (7, 8, 0, 9, 2, 11, 1, 6, 5, 10, 4, 3),
    (8, 10, 5, 6, 1, 0, 11, 4, 7, 9, 3, 2),
)
# Twelve chores for three agents who all find chore 7 the worst.
_SHARED_WORST = chores(
    (1, 10, 6, 2, 5, 4, 9, 11, 0, 8, 3, 7),
    (6, 9, 11, 8, 4, 3, 10, 0, 2, 5, 1, 7),
    (10, 4, 5, 9, 6, 8, 2, 0, 11, 1, 3, 7),
)


@pytest.mark.parametrize("inst, goal", [
    (_SHARED_BEST, AllocationGoal(PR, RelationKind.NEC)),
    (_SHARED_BEST, AllocationGoal(PR, RelationKind.NDD)),
    (_SHARED_BEST, AllocationGoal(EF, RelationKind.NEC)),
    (_SHARED_BEST, AllocationGoal(EF, RelationKind.NDD)),
    (_SHARED_BEST, AllocationGoal(PR, RelationKind.NBIN)),
    (_SHARED_WORST, AllocationGoal(PR, RelationKind.NID)),
], ids=["pr-nec", "pr-ndd", "ef-nec", "ef-ndd", "pr-nbin", "pr-nid"])
def test_cut_subtrees_count_every_allocation_they_hold(inst, goal):
    # No allocation qualifies, so a scan of one allocation at a time ends at
    # the last of the 34,650 balanced allocations.  The search cuts almost
    # all of them, and must still count each one: a budget one short of
    # the total is exceeded, the total itself is not.
    total = count_allocations(inst, equal_sizes=True)
    assert total == 34_650
    assert exists_allocation(inst, goal) is None
    with pytest.raises(BudgetExceededError, match="states"):
        exists_allocation(inst, goal, max_states=total - 1)
    assert exists_allocation(inst, goal, max_states=total) is None


_EQUAL_SIZE_GOALS = (
    (ItemKind.GOODS, AllocationGoal(PR, RelationKind.NEC)),
    (ItemKind.GOODS, AllocationGoal(PR, RelationKind.NDD)),
    (ItemKind.GOODS, AllocationGoal(PR, RelationKind.NBIN)),
    (ItemKind.CHORES, AllocationGoal(PR, RelationKind.NID)),
)


def best_first(items, ranking):
    return sorted((ranking.level(item) for item in items), reverse=True)


def own_test(goal, inst, agent, items):
    """The agent's own test of a bundle through holds: the bundle, copied n
    times, relates to the full item set."""
    bundle = MultiBundle.from_items(items).scaled(inst.agent_count)
    return holds(goal.extension, bundle, inst.full_bundle(), inst.rankings[agent])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_level_tests_agree_with_the_goal(data):
    # The search tests item sets through share_holds and relation_holds on
    # best-first levels; the reference tests multi-bundles through holds.
    m = data.draw(st.integers(1, 9))
    n = data.draw(st.integers(1, 4))
    kind, goal = data.draw(st.sampled_from(_EQUAL_SIZE_GOALS))
    orders = data.draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n))
    inst = Instance(kind, tuple(Ranking(tuple(o)) for o in orders))
    agent = data.draw(st.integers(0, n - 1))
    items = data.draw(st.sets(st.integers(0, m - 1)))
    others = data.draw(st.sets(st.integers(0, m - 1)))
    ranking = inst.rankings[agent]
    assert share_holds(goal.extension, best_first(items, ranking), n, m) == (
        own_test(goal, inst, agent, items)
    )
    if kind is ItemKind.GOODS:
        own, other = MultiBundle.from_items(items), MultiBundle.from_items(others)
        assert relation_holds(
            goal.extension, best_first(items, ranking), best_first(others, ranking), m
        ) == holds(goal.extension, own, other, ranking)


@pytest.mark.parametrize("kind, goal", _EQUAL_SIZE_GOALS, ids=["nec", "ndd", "nbin", "nid"])
def test_own_test_is_monotone_in_better_ranked_items(kind, goal):
    # The premise of the search's cut: swapping an item of a bundle for a
    # better-ranked one never makes an accepted bundle fail.  Checked for
    # every bundle and every such swap, up to 7 items and 4 agents.
    rng = random.Random(11)
    accepted = 0
    for m in range(1, 8):
        for n in range(1, 5):
            inst = Instance(kind, (Ranking(tuple(rng.sample(range(m), m))),) * n)
            ranking = inst.rankings[0]
            for size in range(m + 1):
                for items in itertools.combinations(range(m), size):
                    if not own_test(goal, inst, 0, items):
                        continue
                    accepted += 1
                    for worse in items:
                        for better in set(range(m)) - set(items):
                            if ranking.level(better) < ranking.level(worse):
                                continue
                            swapped = set(items) - {worse} | {better}
                            assert own_test(goal, inst, 0, swapped), (
                                ranking.order, n, items, worse, better
                            )
    assert accepted > 100


# Every equal-size goal, with the item kind it applies to.
_ROOT_RULE_GOALS = _EQUAL_SIZE_GOALS + (
    (ItemKind.GOODS, AllocationGoal(EF, RelationKind.NEC)),
    (ItemKind.GOODS, AllocationGoal(EF, RelationKind.NDD)),
)


def shared_extreme(rng, kind, agents, items, shared):
    """Random rankings.  With ``shared`` the first two agents share their
    best good or their worst chore; without it, all best goods differ."""
    while True:
        orders = [rng.sample(range(items), items) for _ in range(agents)]
        if shared:
            end = 0 if kind is ItemKind.GOODS else items - 1
            orders[1].remove(orders[0][end])
            orders[1].insert(end, orders[0][end])
        if shared or kind is ItemKind.CHORES or len({o[0] for o in orders}) == agents:
            return Instance(kind, tuple(Ranking(tuple(o)) for o in orders))


def test_root_rule_pins_only_what_every_accepted_allocation_gives():
    # The search's root rule pins an item to an agent when the agent's own
    # test fails on its best M/n items drawn from all the others.  Every
    # accepted allocation must then give the agent that item, a clash of
    # pins must mean that no allocation is accepted, and for each agent the
    # pins are exactly the items that every bundle its own test accepts
    # holds.
    rng = random.Random(13)
    clashes = pinned = checked = 0
    for agents, items in ((3, 3), (3, 6), (3, 9), (4, 4), (4, 8), (5, 5)):
        share = items // agents
        for kind, goal in _ROOT_RULE_GOALS:
            for shared in (False, True):
                inst = shared_extreme(rng, kind, agents, items, shared)
                owner = _owners(inst, goal.extension)
                accepted = [
                    alloc
                    for alloc in enumerate_allocations(inst, equal_sizes=True)
                    if goal.satisfied_by(alloc, inst)
                ]
                if owner is None:
                    clashes += 1
                    assert not accepted, (inst, goal)
                    continue
                checked += len(accepted)
                for alloc in accepted:
                    for item, agent in enumerate(owner):
                        assert agent < 0 or item in alloc.bundles[agent], (inst, goal)
                for agent in range(agents):
                    kept = [
                        set(bundle)
                        for bundle in itertools.combinations(range(items), share)
                        if own_test(goal, inst, agent, bundle)
                    ]
                    pins = {item for item, holder in enumerate(owner) if holder == agent}
                    assert pins == set.intersection(*kept), (inst, goal, agent)
                    pinned += len(pins)
    assert clashes and pinned and checked


@pytest.mark.parametrize("agents, items", [(4, 4), (4, 8), (5, 5)])
def test_pinned_search_matches_reference_scan(agents, items):
    # Goods whose first two agents share their best item (a clash of pins,
    # so every balanced allocation is counted at the root), goods with
    # distinct best items (each pinned to its agent), and chores with and
    # without a worst chore shared by the first two agents.  The witness is
    # the reference scan's, and the budget runs out exactly where the
    # scan's would.
    rng = random.Random(agents * 100 + items)
    found = 0
    for kind, goal in _ROOT_RULE_GOALS:
        for shared in (True, False):
            inst = shared_extreme(rng, kind, agents, items, shared)
            witness, position = generic_scan(inst, goal)
            result = exists_allocation(inst, goal)
            assert (result and result.bundles) == (witness and witness.bundles), (inst, goal)
            found += witness is not None
            with pytest.raises(BudgetExceededError, match="states"):
                exists_allocation(inst, goal, max_states=position - 1)
            result = exists_allocation(inst, goal, max_states=position)
            assert (result and result.bundles) == (witness and witness.bundles)
    assert found


def test_goal_validation():
    with pytest.raises(UnsupportedExtensionError):
        AllocationGoal(EF, RelationKind.PDD)
    with pytest.raises(UnsupportedExtensionError):
        AllocationGoal(Criterion.PARETO_EFFICIENCY, RelationKind.NDD)


def test_equal_size_shortcut():
    inst = goods((0, 1, 2), (2, 1, 0))
    assert exists_allocation(inst, AllocationGoal(PR, RelationKind.NDD)) is None
    assert exists_allocation(inst, AllocationGoal(PR, RelationKind.NEC)) is None


# --- vectorized two-agent path ----------------------------------------------

def test_fast_path_matches_generic_including_witness():
    rng = random.Random(21)
    relations = (RelationKind.NEC, RelationKind.NDD, RelationKind.PDD, RelationKind.POS)
    for items in (2, 4, 6):
        for _ in range(60):
            inst = goods(
                tuple(rng.sample(range(items), items)),
                tuple(rng.sample(range(items), items)),
            )
            for ext in relations:
                goal = AllocationGoal(PR, ext)
                fast = exists_allocation(inst, goal)
                slow = generic_first(inst, goal)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert fast.bundles == slow.bundles


# The two-agent kernels are pinned to a scan that walks the same mask order
# and asks ``holds`` for each split, one mask at a time.

_EQUAL_SPLIT = (RelationKind.NEC, RelationKind.NDD)


def run_kernel(inst, ext, max_states=None):
    """(mask, states) of the kernel that serves this two-agent PR question."""
    kernel = (
        _pairsearch.first_equal_split if ext in _EQUAL_SPLIT else _pairsearch.first_any_split
    )
    perm_first, perm_second = (r.order for r in inst.rankings)
    return kernel(
        inst.item_count, perm_first, perm_second, _FAST_PR_RELATIONS[ext], max_states=max_states
    )


def reference_scan(inst, ext, max_states=None):
    """The kernels' contract: the first split in ascending mask order
    (balanced masks only for the equal-split relations) under which both
    agents' doubled bundles relate to the full set, as (mask, position + 1);
    (None, positions scanned) when none of the first ``max_states`` does."""
    m = inst.item_count
    masks = [
        mask for mask in range(1 << m)
        if ext not in _EQUAL_SPLIT or bin(mask).count("1") == m // 2
    ]
    if max_states is not None:
        masks = masks[:max_states]
    everything = inst.full_bundle()
    for position, mask in enumerate(masks, 1):
        alloc = Allocation(_pairsearch.mask_to_bundles(mask, m))
        if all(
            holds(ext, alloc.bundle(a).scaled(2), everything, inst.rankings[a])
            for a in range(2)
        ):
            return mask, position
    return None, len(masks)


def test_kernels_match_reference_scan_for_every_item_count():
    rng = random.Random(23)
    for items in range(1, 17):
        rankings = [tuple(rng.sample(range(items), items)) for _ in range(3)]
        # Two random pairs, and a pair sharing its best item.
        shared = rankings[0][:1] + tuple(rng.sample(rankings[0][1:], items - 1))
        pairs = [(rankings[0], rankings[1]), (rankings[2], rankings[0]), (rankings[0], shared)]
        for first, second in pairs:
            inst = goods(first, second)
            for ext in _FAST_PR_RELATIONS:
                if ext in _EQUAL_SPLIT and items % 2:
                    continue
                assert run_kernel(inst, ext) == reference_scan(inst, ext), (first, second, ext)


def test_equal_split_kernels_refuse_a_shared_best_item():
    for items in (2, 8, 16):
        order = tuple(range(items))
        inst = goods(order, order[:1] + order[:0:-1])
        balanced = math.comb(items, items // 2)
        for ext in _EQUAL_SPLIT:
            assert run_kernel(inst, ext) == reference_scan(inst, ext) == (None, balanced)
            budgeted = (None, min(100, balanced))
            assert run_kernel(inst, ext, 100) == reference_scan(inst, ext, 100) == budgeted


# Found by a random search over ranking pairs: each puts the kernel's witness
# just before, at or just after the end of the 64-, 320- and 1344-state chunk.
_BOUNDARY_WITNESSES = [
    (RelationKind.NEC, 63, (5, 6, 7, 3, 8, 0, 2, 4, 9, 1), (6, 3, 4, 8, 9, 2, 5, 1, 7, 0)),
    (RelationKind.NEC, 64, (2, 9, 5, 7, 0, 3, 4, 1, 8, 6), (6, 4, 7, 3, 1, 5, 9, 2, 0, 8)),
    (RelationKind.NEC, 65,
     (2, 11, 6, 12, 3, 7, 4, 13, 1, 10, 8, 0, 9, 5),
     (5, 2, 4, 11, 10, 13, 6, 12, 9, 3, 0, 8, 7, 1)),
    (RelationKind.NEC, 319,
     (8, 6, 5, 9, 4, 7, 2, 0, 10, 11, 3, 1), (6, 8, 4, 1, 10, 5, 7, 2, 3, 0, 9, 11)),
    (RelationKind.NEC, 320,
     (9, 8, 10, 4, 13, 11, 3, 2, 1, 6, 5, 0, 7, 12),
     (5, 8, 6, 12, 3, 4, 9, 1, 0, 10, 2, 7, 13, 11)),
    (RelationKind.NEC, 321,
     (9, 8, 11, 1, 0, 2, 7, 6, 12, 5, 13, 3, 10, 4),
     (7, 8, 11, 5, 3, 2, 0, 9, 6, 10, 1, 4, 12, 13)),
    (RelationKind.NEC, 1343,
     (1, 7, 14, 13, 9, 8, 5, 0, 11, 12, 15, 10, 3, 4, 6, 2),
     (8, 9, 5, 2, 10, 14, 6, 12, 11, 13, 15, 7, 3, 4, 0, 1)),
    (RelationKind.NEC, 1344,
     (14, 12, 11, 1, 9, 0, 5, 13, 8, 4, 15, 7, 10, 3, 6, 2),
     (6, 1, 8, 7, 2, 9, 4, 12, 14, 10, 0, 13, 11, 15, 5, 3)),
    (RelationKind.NEC, 1345,
     (7, 11, 15, 13, 14, 10, 3, 4, 6, 0, 8, 1, 12, 9, 5, 2),
     (9, 2, 13, 12, 7, 14, 3, 5, 4, 6, 10, 8, 1, 15, 0, 11)),
    (RelationKind.NDD, 63, (7, 9, 3, 4, 2, 0, 5, 6, 1, 8), (4, 1, 0, 7, 2, 9, 8, 6, 3, 5)),
    (RelationKind.NDD, 64,
     (13, 12, 4, 2, 5, 9, 6, 10, 11, 8, 3, 7, 1, 0),
     (4, 9, 7, 1, 11, 0, 3, 6, 10, 13, 8, 5, 2, 12)),
    (RelationKind.NDD, 65,
     (8, 10, 4, 7, 2, 6, 5, 1, 11, 3, 9, 0), (5, 8, 4, 1, 3, 0, 6, 11, 7, 10, 2, 9)),
    (RelationKind.NDD, 320,
     (8, 13, 10, 0, 2, 11, 14, 6, 4, 12, 9, 15, 3, 5, 7, 1),
     (13, 0, 5, 3, 4, 6, 7, 2, 1, 8, 9, 14, 12, 10, 11, 15)),
    (RelationKind.NDD, 1344,
     (14, 12, 0, 8, 2, 5, 13, 11, 7, 3, 9, 10, 15, 1, 6, 4),
     (2, 8, 3, 12, 14, 0, 6, 11, 10, 15, 9, 4, 7, 5, 1, 13)),
    (RelationKind.PDD, 63, (5, 10, 3, 1, 6, 8, 7, 9, 0, 2, 4), (0, 6, 2, 9, 8, 4, 5, 3, 7, 10, 1)),
    (RelationKind.PDD, 64, (3, 1, 8, 10, 4, 7, 9, 6, 2, 5, 0), (3, 1, 9, 2, 6, 5, 0, 4, 7, 8, 10)),
    (RelationKind.PDD, 65,
     (8, 0, 13, 10, 1, 11, 14, 7, 9, 6, 2, 12, 5, 15, 3, 4),
     (9, 1, 2, 13, 4, 8, 12, 11, 10, 3, 5, 15, 6, 14, 0, 7)),
    (RelationKind.PDD, 319,
     (13, 7, 5, 4, 0, 11, 8, 2, 9, 1, 6, 14, 12, 3, 10),
     (5, 1, 9, 12, 3, 10, 13, 6, 11, 4, 2, 7, 14, 8, 0)),
    (RelationKind.PDD, 320,
     (3, 5, 8, 4, 1, 13, 6, 11, 10, 7, 2, 0, 14, 9, 15, 12),
     (0, 12, 14, 3, 4, 6, 7, 11, 15, 10, 1, 2, 13, 8, 5, 9)),
    (RelationKind.POS, 63,
     (13, 3, 8, 5, 12, 2, 11, 7, 10, 1, 9, 0, 4, 6),
     (3, 2, 1, 11, 12, 7, 6, 8, 10, 9, 13, 5, 0, 4)),
    (RelationKind.POS, 64, (6, 5, 11, 3, 4, 0, 2, 7, 1, 10, 8, 9), (3, 0, 6, 2, 10, 5, 1, 11, 4, 8, 7, 9)),
    (RelationKind.POS, 65,
     (8, 0, 13, 10, 1, 11, 14, 7, 9, 6, 2, 12, 5, 15, 3, 4),
     (9, 1, 2, 13, 4, 8, 12, 11, 10, 3, 5, 15, 6, 14, 0, 7)),
]


@pytest.mark.parametrize(
    "ext, states, first, second",
    _BOUNDARY_WITNESSES,
    ids=[f"{case[0].value}-{case[1]}" for case in _BOUNDARY_WITNESSES],
)
def test_kernels_match_reference_at_chunk_boundaries(ext, states, first, second):
    inst = goods(first, second)
    mask, found = run_kernel(inst, ext)
    assert found == states
    assert (mask, found) == reference_scan(inst, ext, states + 1)
    # A budget that ends just before, at or just after the witness.
    assert run_kernel(inst, ext, states - 1) == (None, states - 1)
    assert run_kernel(inst, ext, states) == (mask, states)
    assert run_kernel(inst, ext, states + 1) == (mask, states)


@pytest.mark.parametrize("max_states", [0, 1, 63, 64, 65, 319, 320, 321, 1343, 1344, 1345])
def test_kernel_budgets_at_chunk_boundaries(max_states):
    # Distinct best items but no NEC split: the scan runs to the budget.
    nec = goods(tuple(range(12)), (1, 0) + tuple(range(2, 12)))
    assert run_kernel(nec, RelationKind.NEC) == (None, 924)
    assert run_kernel(nec, RelationKind.NEC, max_states) == (None, min(max_states, 924))
    # Opposite rankings of 16 goods: the first PDD split is mask 1022, so
    # the budget decides between that witness and none.
    pdd = goods(tuple(range(15, -1, -1)), tuple(range(16)))
    assert run_kernel(pdd, RelationKind.PDD) == (1022, 1023)
    expected = reference_scan(pdd, RelationKind.PDD, max_states)
    assert run_kernel(pdd, RelationKind.PDD, max_states) == expected


@pytest.mark.parametrize("witness", [0, 62, 63, 64, 318, 319, 320, 1342, 1343, 1344, 5439, 5440])
def test_chunked_scan_finds_the_first_witness_at_any_position(witness):
    total = 20_000
    accept = lambda masks: masks >= witness  # noqa: E731
    at = lambda start, stop: np.arange(start, stop, dtype=np.int64)  # noqa: E731
    assert _pairsearch._first_split(at, total, accept, None) == (witness, witness + 1)
    assert _pairsearch._first_split(at, total, accept, witness) == (None, witness)
    assert _pairsearch._first_split(at, witness, accept, None) == (None, witness)


def test_two_agent_budgets_stop_inside_the_kernels():
    # No NEC split exists among the 12,870 balanced ones; the budget stops
    # the scan after ten of them instead of after the sweep.
    inst = goods(tuple(range(16)), (1, 0) + tuple(range(2, 16)))
    assert run_kernel(inst, RelationKind.NEC, 10) == (None, 10)
    goal = AllocationGoal(PR, RelationKind.NEC)
    with pytest.raises(BudgetExceededError):
        exists_allocation(inst, goal, max_states=10)
    assert exists_allocation(inst, goal) is None


def test_equal_split_table_build_honours_a_small_state_budget():
    # A state budget below C(22, 11) builds only that many masks, uncached.
    inst = goods(tuple(range(22)), (1, 0) + tuple(range(2, 22)))
    _pairsearch._balanced_masks.cache_clear()
    start = time.monotonic()
    with pytest.raises(BudgetExceededError, match="states"):
        exists_allocation(inst, AllocationGoal(PR, RelationKind.NEC), max_states=10)
    assert time.monotonic() - start < 0.05
    assert not _pairsearch._balanced_masks.cache_info().currsize
    # A partial table answers as the full one does, cached or not: this NEC
    # witness is the 39th of the C(8, 4) = 70 masks.
    first, second = (7, 1, 5, 3, 4, 2, 0, 6), (5, 0, 3, 4, 6, 7, 1, 2)
    for max_states in (0, 1, 38, 39, 69, 70, 1000):
        _pairsearch._balanced_masks.cache_clear()
        partial = _pairsearch.first_equal_split(8, first, second, "nec", max_states)
        assert bool(_pairsearch._balanced_masks.cache_info().currsize) == (max_states >= 70)
        _pairsearch._balanced_masks(8)
        full = _pairsearch.first_equal_split(8, first, second, "nec", max_states)
        assert partial == full == ((142, 39) if max_states >= 39 else (None, max_states))
    # Complete tables are every balanced mask, ascending.
    for items in range(2, 17, 2):
        expected = sorted(
            sum(1 << bit for bit in bits)
            for bits in itertools.combinations(range(items), items // 2)
        )
        assert _pairsearch._balanced_masks(items).tolist() == expected


def test_existence_monotone_in_extension_strength():
    rng = random.Random(22)
    chain = (RelationKind.NEC, RelationKind.NDD, RelationKind.PDD, RelationKind.POS)
    for _ in range(60):
        agents = rng.randint(2, 3)
        items = rng.randint(1, 6)
        inst = Instance(
            ItemKind.GOODS,
            tuple(Ranking(tuple(rng.sample(range(items), items))) for _ in range(agents)),
        )
        found = [
            exists_allocation(inst, AllocationGoal(PR, ext)) is not None for ext in chain
        ]
        for stronger, weaker in zip(found, found[1:]):
            assert not stronger or weaker


def test_search_is_deterministic():
    inst = goods((3, 2, 1, 0), (1, 2, 3, 0))
    goal = AllocationGoal(PR, RelationKind.PDD)
    first = exists_allocation(inst, goal)
    second = exists_allocation(inst, goal)
    assert first.bundles == second.bundles


# --- sampled witness finder ---------------------------------------------------

def test_pddef_witness_on_envy_free_allocation():
    inst = goods((3, 2, 1, 0), (1, 2, 3, 0))
    alloc = Allocation(((3, 0), (1, 2)))
    assert check_envy_free(alloc, inst, RelationKind.NDD).result
    profile = pddef_witness_search(inst, alloc, samples=50, seed=0)
    assert profile is not None
    for i in range(2):
        for j in range(2):
            assert profile[i].of(alloc.bundle(i)) >= profile[i].of(alloc.bundle(j))


def test_pddef_witness_never_for_empty_bundle():
    inst = goods((0, 1, 2, 3), (3, 2, 1, 0))
    alloc = Allocation(((0, 1, 2, 3), ()))
    assert pddef_witness_search(inst, alloc, samples=400, seed=1) is None


def test_pddef_witness_three_agent_fixture():
    # The sampled search on the three-agent allocation {6,1} {5,2} {3,4}
    # finds a witness with this seed and sample count, and the profile
    # must check out concretely.
    inst = goods((5, 4, 2, 3, 1, 0), (4, 3, 2, 5, 1, 0), (3, 5, 2, 4, 1, 0))
    alloc = Allocation(((5, 0), (4, 1), (2, 3)))
    profile = pddef_witness_search(inst, alloc, samples=2000, seed=0)
    assert profile is not None
    own = [profile[i].of(alloc.bundle(i)) for i in range(3)]
    for i in range(3):
        for j in range(3):
            assert own[i] >= profile[i].of(alloc.bundle(j))


def test_pddef_witness_validation():
    inst = chores((0, 1), (1, 0))
    with pytest.raises(UnsupportedExtensionError):
        pddef_witness_search(inst, Allocation(((0,), (1,))), samples=1, seed=0)
    with pytest.raises(ValueError):
        pddef_witness_search(
            goods((0, 1), (1, 0)), Allocation(((0,), (1,))), samples=0, seed=0
        )
