"""Round-robin protocol, existence conditions, and the chores protocols."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dimdiff.core import Allocation, Instance, ItemKind, Ranking
from dimdiff.exceptions import ExtensionKindMismatchError
from dimdiff.extensions import CHORES_RELATIONS, RelationKind
from dimdiff.fairness import Criterion, check_proportional
from dimdiff.protocols import (
    ExistenceReport,
    Reason,
    balanced_round_robin,
    certificate_holds,
    hall_violation_holds,
    necpr_exists,
    nddpr_exists,
    nidpr_necessary,
    nidpr_three_agents_special,
    nidpr_two_agents,
    pddpr_exists,
    pospr_exists,
)
from dimdiff.search import AllocationGoal, enumerate_allocations, exists_allocation
from sweep_existence import DECISIONS, faults, forged_faults, profiles


def random_instance(rng, agents, items, kind=ItemKind.GOODS):
    return Instance(
        kind, tuple(Ranking(tuple(rng.sample(range(items), items))) for _ in range(agents))
    )


def accumulated_differences(alloc, instance, agent):
    """Running level difference of the agent's n-times bundle vs everything."""
    n = instance.agent_count
    scaled = alloc.bundle(agent).scaled(n)
    ranking = instance.rankings[agent]
    mine = itertools.accumulate(scaled.levels(ranking))
    everything = itertools.accumulate(instance.full_bundle().levels(ranking))
    return [a - b for a, b in zip(mine, everything)]


# --- balanced round robin ---------------------------------------------------

def test_round_robin_trace_two_agents():
    # Alice 4>3>2>1 and Bob 2>3>4>1 (labels = id + 1): picks A,B,B,A.
    inst = Instance(ItemKind.GOODS, (Ranking((3, 2, 1, 0)), Ranking((1, 2, 3, 0))))
    alloc = balanced_round_robin(inst)
    assert alloc.bundles == ((0, 3), (1, 2))


def test_round_robin_single_agent():
    inst = Instance(ItemKind.GOODS, (Ranking((2, 0, 1)),))
    assert balanced_round_robin(inst).bundles == ((0, 1, 2),)


def test_round_robin_three_agent_trace():
    inst = Instance(
        ItemKind.GOODS,
        (Ranking((5, 4, 2, 3, 1, 0)), Ranking((4, 3, 2, 5, 1, 0)), Ranking((3, 5, 2, 4, 1, 0))),
    )
    alloc = balanced_round_robin(inst)
    assert all(len(b) == 2 for b in alloc.bundles)
    assert check_proportional(alloc, inst, RelationKind.NDD).result


def test_round_robin_requires_even_split():
    inst = Instance(ItemKind.GOODS, (Ranking((0, 1, 2)), Ranking((2, 1, 0))))
    with pytest.raises(ValueError):
        balanced_round_robin(inst)


def test_round_robin_accumulated_difference_invariant():
    # When the protocol's preconditions hold, the running level difference
    # stays non-negative throughout, reaching n(n-1)/2 after odd rounds and
    # n*(i-1) after even rounds.
    rng = random.Random(10)
    produced = 0
    while produced < 60:
        agents = rng.randint(2, 4)
        share = rng.randint(1, 3)
        items = agents * share
        inst = random_instance(rng, agents, items)
        if len({r.best for r in inst.rankings}) < agents:
            continue
        produced += 1
        alloc = balanced_round_robin(inst)
        for agent in range(agents):
            diffs = accumulated_differences(alloc, inst, agent)
            assert all(d >= 0 for d in diffs)
            for round_no in range(1, share + 1):
                at_round_end = diffs[round_no * agents - 1]
                if round_no % 2:
                    assert at_round_end >= agents * (agents - 1) // 2
                else:
                    assert at_round_end >= agents * agent


# --- NDDPR existence --------------------------------------------------------

def test_nddpr_exists_opposite_preferences():
    inst = Instance(ItemKind.GOODS, (Ranking((3, 2, 1, 0)), Ranking((1, 2, 3, 0))))
    report = nddpr_exists(inst)
    assert report.exists is True and report.reason is Reason.CONDITIONS_MET
    assert check_proportional(report.allocation, inst, RelationKind.NDD).result


def test_nddpr_exists_odd_items():
    inst = Instance(
        ItemKind.GOODS,
        (Ranking((0, 1, 2, 3, 4)), Ranking((4, 3, 2, 1, 0))),
    )
    report = nddpr_exists(inst)
    assert report.exists is False and report.reason is Reason.NOT_MULTIPLE_OF_N


def test_nddpr_exists_shared_best():
    inst = Instance(ItemKind.GOODS, (Ranking((0, 1, 2, 3)), Ranking((0, 2, 1, 3))))
    report = nddpr_exists(inst)
    assert report.exists is False and report.reason is Reason.SHARED_BEST_ITEM


def test_nddpr_exists_requires_goods():
    with pytest.raises(ValueError):
        nddpr_exists(Instance(ItemKind.CHORES, (Ranking((0, 1)), Ranking((1, 0)))))


def test_nddpr_condition_matches_brute_force():
    rng = random.Random(11)
    for _ in range(120):
        agents = rng.randint(2, 3)
        items = rng.randint(1, 6)
        inst = random_instance(rng, agents, items)
        witness = exists_allocation(
            inst, AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.NDD)
        )
        assert (witness is not None) == bool(nddpr_exists(inst).exists)


@st.composite
def nddpr_instances(draw):
    """Goods profiles at the two-agent kernel's sizes (even M up to 16), at
    n = 3 with M = 3, 6, 9, 12 and at n = 4 with M = 4, 8."""
    agents, items = draw(st.sampled_from(
        [(2, items) for items in range(2, 17, 2)]
        + [(3, items) for items in (3, 6, 9, 12)]
        + [(4, 4), (4, 8)]
    ))
    orders = [draw(st.permutations(range(items))) for _ in range(agents)]
    return Instance(ItemKind.GOODS, tuple(Ranking(tuple(o)) for o in orders))


@settings(max_examples=150, deadline=None)
@given(nddpr_instances())
def test_nddpr_condition_matches_search_with_checked_certificates(instance):
    report = nddpr_exists(instance)
    witness = exists_allocation(
        instance, AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.NDD)
    )
    assert report.exists == (witness is not None)
    assert certificate_holds(instance, report, RelationKind.NDD)
    if report.exists:
        assert check_proportional(report.allocation, instance, RelationKind.NDD).result
        assert check_proportional(witness, instance, RelationKind.NDD).result
    else:
        assert report.reason is Reason.SHARED_BEST_ITEM


def test_certificate_holds_rejects_false_certificates():
    distinct = goods_instance((0, 1, 2, 3), (1, 0, 2, 3))
    shared = goods_instance((0, 1, 2, 3), (0, 2, 1, 3))
    odd = goods_instance((0, 1, 2), (2, 1, 0))
    ndd = RelationKind.NDD
    no = ExistenceReport(False, Reason.SHARED_BEST_ITEM)
    assert certificate_holds(shared, no, ndd)
    assert not certificate_holds(distinct, no, ndd)
    divisibility = ExistenceReport(False, Reason.NOT_MULTIPLE_OF_N)
    assert certificate_holds(odd, divisibility, ndd)
    assert not certificate_holds(distinct, divisibility, ndd)
    crowded = ExistenceReport(False, Reason.FEWER_ITEMS_THAN_AGENTS)
    assert not certificate_holds(distinct, crowded, ndd)
    assert not certificate_holds(distinct, ExistenceReport(None, Reason.OUT_OF_THEORY), ndd)
    # A witness must be a partition that the extension accepts.
    assert certificate_holds(distinct, nddpr_exists(distinct), ndd)
    unfair = Allocation.from_lists([(0, 1), (2, 3)])
    assert not certificate_holds(distinct, ExistenceReport(True, Reason.CONDITIONS_MET, unfair), ndd)
    partial = Allocation.from_lists([(0, 2), (1,)])
    assert not certificate_holds(distinct, ExistenceReport(True, Reason.CONDITIONS_MET, partial), ndd)
    assert not certificate_holds(distinct, ExistenceReport(True, Reason.CONDITIONS_MET), ndd)
    # Chores: a worst-window no holds only with a Hall violator of the
    # worst-window assignment (a bare one has none), and an NID witness
    # must be one that the extension accepts.
    nid = RelationKind.NID
    worst = ExistenceReport(False, Reason.SHARED_WORST_WINDOW_INFEASIBLE)
    same_worst = Instance(ItemKind.CHORES, (Ranking((0, 1, 2, 3)), Ranking((1, 0, 2, 3))))
    distinct_worst = Instance(ItemKind.CHORES, (Ranking((0, 1, 2, 3)), Ranking((0, 1, 3, 2))))
    assert not certificate_holds(same_worst, worst, nid)
    assert not certificate_holds(distinct_worst, worst, nid)
    assert certificate_holds(same_worst, nidpr_necessary(same_worst), nid)
    assert not certificate_holds(distinct_worst, nidpr_necessary(same_worst), nid)
    assert certificate_holds(distinct_worst, nidpr_two_agents(distinct_worst), nid)


def test_certificate_holds_rejects_a_yes_with_the_wrong_bundle_count():
    distinct = goods_instance((0, 1, 2, 3), (1, 0, 2, 3))
    three = Allocation.from_lists([(0,), (1,), (2, 3)])
    forged = ExistenceReport(True, Reason.CONDITIONS_MET, three)
    for extension in (RelationKind.NDD, RelationKind.POS):
        assert not certificate_holds(distinct, forged, extension)
    assert not certificate_holds(distinct, ExistenceReport(
        True, Reason.CONDITIONS_MET, Allocation.from_lists([(0, 1, 2, 3)])), RelationKind.POS)
    with pytest.raises(ExtensionKindMismatchError):
        certificate_holds(distinct, forged, RelationKind.NID)


@pytest.mark.parametrize("decide, kind, agents", [
    (necpr_exists, ItemKind.CHORES, 2),
    (nddpr_exists, ItemKind.CHORES, 2),
    (pddpr_exists, ItemKind.CHORES, 2),
    (pospr_exists, ItemKind.CHORES, 2),
    (nidpr_necessary, ItemKind.GOODS, 2),
    (nidpr_two_agents, ItemKind.GOODS, 2),
    (nidpr_three_agents_special, ItemKind.GOODS, 3),
])
def test_every_decision_refuses_the_other_item_kind(decide, kind, agents):
    # The agent count fits the decision, so only the item kind is wrong.
    rankings = tuple(Ranking(tuple(range(2 * agents))) for _ in range(agents))
    with pytest.raises(ExtensionKindMismatchError):
        decide(Instance(kind, rankings))


#: The (reason, extension) pairs a no may carry: each reason rules out the
#: proportional allocations of these extensions, and of no others.
REFUTING_PAIRS = {
    (reason, RelationKind[name])
    for reason, names in (
        (Reason.NOT_MULTIPLE_OF_N, ("NEC", "NDD", "NBIN", "NID")),
        (Reason.SHARED_BEST_ITEM, ("NEC", "NDD", "NBIN", "PDD")),  # PDD at n = M = 2
        (Reason.FEWER_ITEMS_THAN_AGENTS, ("NEC", "NDD", "NBIN", "PDD", "POS", "PBIN")),
        (Reason.HALL_VIOLATION, ("NEC", "NBIN")),
        (Reason.SHARED_WORST_WINDOW_INFEASIBLE, ("NID",)),
    )
    for name in names
}


def test_forged_nos_check_only_where_no_allocation_exists():
    # Every reason forged under every extension of the profile's kind, on
    # every profile at n = 2, M <= 5 and n = 3, M <= 4.
    accepted = set()
    for agents, limit in ((2, 5), (3, 4)):
        for items in range(1, limit + 1):
            for kind in ItemKind:
                chores = kind is ItemKind.CHORES
                extensions = [e for e in RelationKind if (e in CHORES_RELATIONS) == chores]
                for instance in profiles(agents, items, kind):
                    def exists(extension, instance=instance):
                        goal = AllocationGoal(Criterion.PROPORTIONALITY, extension)
                        return exists_allocation(instance, goal) is not None

                    pairs, found = forged_faults(instance, extensions, exists)
                    assert not found, ([r.order for r in instance.rankings], found)
                    accepted.update(pairs)
    assert accepted == REFUTING_PAIRS


# --- PosPR and PDDPR existence -----------------------------------------------

def test_possible_decisions_match_search_on_every_small_profile():
    # The Tier-1 slice of tests/sweep_existence.py: every profile with the
    # first ranking fixed, n = 2 with M <= 6 and n = 3 with M <= 4, for the
    # NecPR matching and the NDDPR condition as well as the PosPR and PDDPR
    # closed forms.
    undecided = 0
    for agents, limit in ((2, 6), (3, 4)):
        for items in range(1, limit + 1):
            for instance in profiles(agents, items):
                for name, decide in DECISIONS:
                    answer, _, found = faults(instance, name, decide)
                    assert not found, ([r.order for r in instance.rankings], found)
                    undecided += answer is None
    # Only PDDPR at three agents sharing a best item is left open:
    # 28 profiles at M = 3 and 360 at M = 4.
    assert undecided == 28 + 360


def test_possible_decisions_reasons_and_witnesses():
    shared = Instance(ItemKind.GOODS, (Ranking((0, 1, 2)), Ranking((0, 2, 1))))
    report = pddpr_exists(shared)
    # Agent 0 takes the shared best item, agent 1 everything else.
    assert report.exists is True and report.allocation.bundles == ((0,), (1, 2))
    pair = Instance(ItemKind.GOODS, (Ranking((0, 1)), Ranking((0, 1))))
    assert pddpr_exists(pair).reason is Reason.SHARED_BEST_ITEM
    assert pospr_exists(pair).allocation.bundles == ((0,), (1,))
    crowded = Instance(ItemKind.GOODS, (Ranking((0, 1)),) * 3)
    for decide in (pddpr_exists, pospr_exists):
        report = decide(crowded)
        assert report.exists is False and report.reason is Reason.FEWER_ITEMS_THAN_AGENTS
    three = Instance(ItemKind.GOODS, (Ranking((0, 1, 2)), Ranking((0, 2, 1)), Ranking((1, 0, 2))))
    assert pddpr_exists(three).reason is Reason.OUT_OF_THEORY
    single = Instance(ItemKind.GOODS, (Ranking((2, 0, 1)),))
    assert pddpr_exists(single).allocation.bundles == ((0, 1, 2),)
    chores = Instance(ItemKind.CHORES, (Ranking((0, 1)), Ranking((1, 0))))
    for decide in (pddpr_exists, pospr_exists):
        with pytest.raises(ValueError):
            decide(chores)


# --- NecPR slot matching ------------------------------------------------------

@st.composite
def necpr_instances(draw):
    """Goods profiles at the grid's sizes (n = 2, even M up to 16) and at
    n = 3 with M = 3, 6, 9."""
    agents, items = draw(st.sampled_from(
        [(2, items) for items in range(2, 17, 2)] + [(3, 3), (3, 6), (3, 9)]
    ))
    orders = [draw(st.permutations(range(items))) for _ in range(agents)]
    return Instance(ItemKind.GOODS, tuple(Ranking(tuple(o)) for o in orders))


@settings(max_examples=150, deadline=None)
@given(necpr_instances())
def test_necpr_matching_matches_search(instance):
    report = necpr_exists(instance)
    witness = exists_allocation(
        instance, AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.NEC)
    )
    assert report.exists == (witness is not None)
    if report.exists:
        assert report.allocation.is_partition_of(instance.item_count)
        assert check_proportional(report.allocation, instance, RelationKind.NEC).result
    else:
        assert report.reason is Reason.HALL_VIOLATION
        assert hall_violation_holds(instance, report.hall_violator)


def goods_instance(*orders):
    return Instance(ItemKind.GOODS, tuple(Ranking(o) for o in orders))


def test_necpr_hall_violator_by_hand():
    # Both best-slots (j = 1) need item 0: two slots, one neighbouring item.
    same = goods_instance((0, 1, 2, 3), (0, 1, 2, 3))
    report = necpr_exists(same)
    assert report.exists is False and report.reason is Reason.HALL_VIOLATION
    assert report.hall_violator == ((0, 1), (1, 1))
    assert hall_violation_holds(same, [(0, 1), (1, 1)])
    # Each agent's j = 2 slot alone has three neighbours; slot j = 3 does not exist.
    assert not hall_violation_holds(same, [(0, 2), (1, 1)])
    assert not hall_violation_holds(same, [(0, 3), (1, 1)])
    assert not hall_violation_holds(same, [(2, 1), (1, 1)])
    assert not hall_violation_holds(same, [])
    odd = goods_instance((0, 1, 2), (0, 1, 2))
    assert necpr_exists(odd).reason is Reason.NOT_MULTIPLE_OF_N
    assert not hall_violation_holds(odd, [(0, 1), (1, 1)])
    with pytest.raises(ValueError):
        necpr_exists(Instance(ItemKind.CHORES, same.rankings))


def test_necpr_matching_augments_past_a_greedy_pick():
    # Slot (0, 2) first takes item 2, the best free one of its top three;
    # slot (1, 2) then finds its top three {1, 0, 2} taken, and the
    # augmenting path moves slot (0, 2) to item 3.
    instance = goods_instance((0, 2, 3, 1), (1, 0, 2, 3))
    report = necpr_exists(instance)
    assert report.exists is True
    assert report.allocation.bundles == ((0, 3), (1, 2))
    assert check_proportional(report.allocation, instance, RelationKind.NEC).result


#: SHA-256 of the four goods decisions' reports on golden_profiles(),
#: recorded before their picking loops moved to per-agent pointers.
GOODS_DECISIONS_SHA256 = "b727483e79c40332bf647a35afe302776677be2acc1c5f2129350b027bec24a7"


def golden_profiles():
    """24 seeded profiles per (n, M), n = 2..4, M = 2..16: uniform rankings
    and, alternately, adjacent-swap perturbations of one shared order."""
    for n in range(2, 5):
        for m in range(2, 17):
            rng = random.Random(f"decisions/{n}/{m}")
            for k in range(24):
                if k % 2:
                    base = rng.sample(range(m), m)
                    orders = []
                    for _ in range(n):
                        order = list(base)
                        for _ in range(rng.randrange(m)):
                            p = rng.randrange(m - 1)
                            order[p], order[p + 1] = order[p + 1], order[p]
                        orders.append(tuple(order))
                else:
                    orders = [tuple(rng.sample(range(m), m)) for _ in range(n)]
                yield Instance(ItemKind.GOODS, tuple(map(Ranking, orders)))


def test_goods_decisions_match_their_golden_reports():
    digest = hashlib.sha256()
    for instance in golden_profiles():
        for decide in (necpr_exists, nddpr_exists, pddpr_exists, pospr_exists):
            report = decide(instance)
            bundles = None if report.allocation is None else report.allocation.bundles
            digest.update(repr(
                (report.exists, report.reason.value, bundles, report.hall_violator)
            ).encode())
    assert digest.hexdigest() == GOODS_DECISIONS_SHA256


# --- chores: necessary condition --------------------------------------------

def chores_instance(*orders):
    return Instance(ItemKind.CHORES, tuple(Ranking(o) for o in orders))


def test_nidpr_necessary_eight_chore_example():
    # a..d then w,x,y,z as ids 0..7; every agent's two worst include y.
    a, b, c, d, w, x, y, z = range(8)
    inst = chores_instance(
        (a, b, c, d, w, x, y, z),
        (b, c, d, a, w, x, z, y),
        (c, d, a, b, w, z, y, x),
        (d, a, b, c, x, z, y, w),
    )
    report = nidpr_necessary(inst)
    assert report.exists is False
    assert report.reason is Reason.SHARED_WORST_WINDOW_INFEASIBLE
    # All eight slots (i, 1..2) neighbour only the seven chores other than y.
    assert report.hall_violator == tuple((i, j) for i in range(4) for j in (1, 2))
    assert (
        exists_allocation(inst, AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.NID))
        is None
    )


def test_nidpr_necessary_three_chore_example():
    inst = chores_instance((0, 1, 2), (0, 2, 1), (0, 2, 1))
    report = nidpr_necessary(inst)
    assert report.exists is None and report.reason is Reason.CONDITIONS_MET


def test_nidpr_necessary_uneven():
    inst = chores_instance((0, 1, 2, 3, 4), (4, 3, 2, 1, 0))
    report = nidpr_necessary(inst)
    assert report.exists is False and report.reason is Reason.NOT_MULTIPLE_OF_N
    with pytest.raises(ValueError):
        nidpr_necessary(Instance(ItemKind.GOODS, (Ranking((0, 1)), Ranking((1, 0)))))


def avoids_worst_windows(instance):
    """The oracle: does some balanced allocation keep every agent's chores
    outside its worst n // 2?"""
    windows = [r.worst_items(instance.agent_count // 2) for r in instance.rankings]
    return any(
        all(window.isdisjoint(bundle) for window, bundle in zip(windows, allocation.bundles))
        for allocation in enumerate_allocations(instance, equal_sizes=True)
    )


def window_profiles():
    """Every chores profile with the first ranking fixed at n = 2, M <= 6
    and n = 3, M = 3; then 24 seeded profiles per shape at n = 3..6 with
    M = n, and at n = 3, 4 with M = 2n, and 4 at 5 x 10, every other one a
    perturbation of one shared order by adjacent swaps.  (The oracle
    enumerates every balanced allocation for a no: 113,400 at 5 x 10, about
    1 s on a 2-core machine, and 7.5 million at 6 x 12, which is left
    out.)"""
    for agents, limit in ((2, 6), (3, 3)):
        for items in range(1, limit + 1):
            yield from profiles(agents, items, ItemKind.CHORES)
    rng = random.Random(27)
    shapes = ((3, 3, 24), (3, 6, 24), (4, 4, 24), (4, 8, 24), (5, 5, 24), (6, 6, 24), (5, 10, 4))
    for agents, items, count in shapes:
        for k in range(count):
            if k % 2:
                yield random_instance(rng, agents, items, ItemKind.CHORES)
                continue
            base = rng.sample(range(items), items)
            orders = []
            for _ in range(agents):
                order = list(base)
                for _ in range(rng.randrange(items)):
                    p = rng.randrange(items - 1)
                    order[p], order[p + 1] = order[p + 1], order[p]
                orders.append(tuple(order))
            yield chores_instance(*orders)


def test_nidpr_necessary_matches_the_balanced_allocation_oracle():
    nos = 0
    for instance in window_profiles():
        report = nidpr_necessary(instance)
        assert (report.exists is False) == (not avoids_worst_windows(instance)), [
            r.order for r in instance.rankings
        ]
        if report.reason is Reason.SHARED_WORST_WINDOW_INFEASIBLE:
            nos += 1
            assert hall_violation_holds(instance, report.hall_violator)
    assert nos > 0


def test_hall_violation_holds_recomputes_the_worst_window_slots():
    # Every agent's worst two are {2, 3}, so each slot neighbours {0, 1}.
    shared = chores_instance((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2))
    violator = nidpr_necessary(shared).hall_violator
    assert violator == ((0, 1), (1, 1), (2, 1))
    assert hall_violation_holds(shared, violator)
    # M/n = 1, so slot (0, 2) does not exist.
    assert not hall_violation_holds(shared, violator + ((0, 2),))
    # Here the slots neighbour {0, 1}, {2, 3} and {1, 2}, and a matching exists.
    feasible = chores_instance((0, 1, 2, 3), (2, 3, 0, 1), (1, 2, 3, 0), (3, 0, 1, 2))
    assert nidpr_necessary(feasible).exists is None
    assert not hall_violation_holds(feasible, violator)


def test_nidpr_necessary_is_conservative():
    # Whenever brute force finds an allocation, the condition never said no.
    rng = random.Random(12)
    for _ in range(120):
        agents = rng.randint(2, 3)
        items = agents * rng.randint(1, 2)
        inst = random_instance(rng, agents, items, ItemKind.CHORES)
        witness = exists_allocation(
            inst, AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.NID)
        )
        if witness is not None:
            assert nidpr_necessary(inst).exists is not False


# --- chores: two agents ------------------------------------------------------

def test_nidpr_two_agents_fixture():
    inst = chores_instance((0, 1, 2, 3), (0, 1, 3, 2))
    report = nidpr_two_agents(inst)
    assert report.exists is True
    assert check_proportional(report.allocation, inst, RelationKind.NID).result


def test_nidpr_two_agents_negative_cases():
    identical = chores_instance((0, 1, 2, 3), (0, 1, 2, 3))
    report = nidpr_two_agents(identical)
    assert report.exists is False and report.reason is Reason.SHARED_WORST_WINDOW_INFEASIBLE
    odd = chores_instance((0, 1, 2), (2, 0, 1))
    assert nidpr_two_agents(odd).reason is Reason.NOT_MULTIPLE_OF_N
    with pytest.raises(ValueError):
        nidpr_two_agents(chores_instance((0, 1), (0, 1), (1, 0)))


def test_nidpr_two_agents_round_robin_gap():
    # Balanced round-robin alone can hand an agent its own worst chore even
    # with distinct worst chores: here the first agent grabs item 3 (the
    # other's worst) immediately and is left with its own worst item 0 in the
    # backward pass.  The decision instead runs round-robin on the mirrored
    # goods instance, where each agent first takes its own worst chore, and
    # swaps the two bundles, so each worst chore goes to the other agent.
    inst = chores_instance((3, 2, 1, 0), (2, 1, 0, 3))
    rr = balanced_round_robin(inst)
    assert not check_proportional(rr, inst, RelationKind.NID).result
    report = nidpr_two_agents(inst)
    assert report.exists is True
    assert check_proportional(report.allocation, inst, RelationKind.NID).result


def test_nidpr_two_agents_matches_brute_force():
    rng = random.Random(13)
    for _ in range(150):
        items = 2 * rng.randint(1, 3)
        inst = random_instance(rng, 2, items, ItemKind.CHORES)
        report = nidpr_two_agents(inst)
        witness = exists_allocation(
            inst, AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.NID)
        )
        assert bool(report.exists) == (witness is not None)
        if report.exists:
            assert check_proportional(report.allocation, inst, RelationKind.NID).result


# --- chores: three agents, near-identical rankings ---------------------------

def test_three_agents_three_chore_example():
    inst = chores_instance((0, 1, 2), (0, 2, 1), (0, 2, 1))
    report = nidpr_three_agents_special(inst)
    assert report.exists is True
    assert report.allocation.bundles == ((1,), (0,), (2,))
    assert check_proportional(report.allocation, inst, RelationKind.NID).result


def test_three_agents_shared_worst_chore():
    inst = chores_instance((0, 1, 2), (1, 0, 2), (0, 1, 2))
    report = nidpr_three_agents_special(inst)
    assert report.exists is False
    assert report.reason is Reason.SHARED_WORST_WINDOW_INFEASIBLE


def test_three_agents_two_rounds():
    # Six chores: common best half (5,4,3), shared worst window {0,1,2}
    # with different worst chores.
    inst = chores_instance(
        (5, 4, 3, 2, 1, 0),
        (5, 4, 3, 0, 2, 1),
        (5, 4, 3, 1, 0, 2),
    )
    report = nidpr_three_agents_special(inst)
    assert report.exists is True
    assert check_proportional(report.allocation, inst, RelationKind.NID).result


def test_three_agents_out_of_theory():
    # Different worst-three sets: the theorem does not apply.
    inst = chores_instance((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0), (0, 1, 2, 3, 4, 5))
    report = nidpr_three_agents_special(inst)
    assert report.exists is None and report.reason is Reason.OUT_OF_THEORY
    # Same worst three but differently ranked remainder.
    inst2 = chores_instance(
        (5, 4, 3, 2, 1, 0),
        (4, 5, 3, 0, 2, 1),
        (5, 4, 3, 1, 0, 2),
    )
    assert nidpr_three_agents_special(inst2).reason is Reason.OUT_OF_THEORY


def test_three_agents_randomized_soundness():
    # Random instances inside the special case: every positive answer is a
    # genuinely proportional allocation, and positives match brute force.
    rng = random.Random(14)
    produced = 0
    while produced < 60:
        share = rng.randint(1, 3)
        items = 3 * share
        common_rest = list(range(3, items))
        rng.shuffle(common_rest)
        rankings = []
        for _ in range(3):
            worst = [0, 1, 2]
            rng.shuffle(worst)
            rankings.append(Ranking(tuple(common_rest + worst)))
        inst = Instance(ItemKind.CHORES, tuple(rankings))
        report = nidpr_three_agents_special(inst)
        assert report.reason is not Reason.OUT_OF_THEORY
        produced += 1
        if report.exists:
            assert check_proportional(report.allocation, inst, RelationKind.NID).result
        elif items <= 6:
            assert (
                exists_allocation(
                    inst, AllocationGoal(Criterion.PROPORTIONALITY, RelationKind.NID)
                )
                is None
            )
