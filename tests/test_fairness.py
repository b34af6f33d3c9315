"""Fairness verdicts: proportionality, envy-freeness, Pareto efficiency."""

import random
from fractions import Fraction

import pytest

from dimdiff.core import (
    Allocation,
    Instance,
    ItemKind,
    Ranking,
    UtilityFunction,
    borda_utility,
    classify_dd,
    lexicographic_utility,
)
from dimdiff.exceptions import (
    BudgetExceededError,
    ExtensionKindMismatchError,
    UnsupportedExtensionError,
)
from dimdiff.extensions import RelationKind, sample_dd_utility
from dimdiff.fairness import (
    EnvyWitness,
    OneForTwoSwap,
    ParetoImprovement,
    ProportionalityViolation,
    apply_one_for_two_swap,
    check_envy_free,
    check_pareto,
    check_proportional,
    find_one_for_two_swap,
)

from conftest import level_ranking


def opposite_preferences_instance():
    # Labels 1..4 = ids 0..3.  Alice: 4>3>2>1, Bob: 2>3>4>1.
    return Instance(ItemKind.GOODS, (Ranking((3, 2, 1, 0)), Ranking((1, 2, 3, 0))))


def three_agent_envy_instance():
    # Labels 1..6 = ids 0..5.  Alice 6>5>3>4>2>1, Bob 5>4>3>6>2>1, Carl 4>6>3>5>2>1.
    return Instance(
        ItemKind.GOODS,
        (Ranking((5, 4, 2, 3, 1, 0)), Ranking((4, 3, 2, 5, 1, 0)), Ranking((3, 5, 2, 4, 1, 0))),
    )


def random_goods_instance(rng, agents, items):
    return Instance(
        ItemKind.GOODS,
        tuple(Ranking(tuple(rng.sample(range(items), items))) for _ in range(agents)),
    )


def random_allocation(rng, agents, items, equal=False):
    ids = list(range(items))
    rng.shuffle(ids)
    bundles = [[] for _ in range(agents)]
    if equal:
        share = items // agents
        for pos, item in enumerate(ids):
            bundles[pos // share].append(item)
    else:
        for item in ids:
            bundles[rng.randrange(agents)].append(item)
    return Allocation.from_lists(bundles)


# --- proportionality --------------------------------------------------------

def test_opposite_preferences_example():
    inst = opposite_preferences_instance()
    alloc = Allocation(((3, 0), (1, 2)))  # Alice {4,1}, Bob {2,3}
    assert check_proportional(alloc, inst, RelationKind.NDD).result
    verdict = check_proportional(alloc, inst, RelationKind.NEC)
    assert not verdict.result
    certificate = verdict.certificate
    assert isinstance(certificate, ProportionalityViolation)
    # The emitted utility concretely violates proportionality for that agent.
    u = certificate.refuting_utility
    assert u is not None
    n = inst.agent_count
    assert n * u.of(alloc.bundle(certificate.agent)) < u.of(inst.full_bundle())


def test_single_agent_trivially_proportional():
    inst = Instance(ItemKind.GOODS, (Ranking((2, 0, 1)),))
    alloc = Allocation(((0, 1, 2),))
    for ext in (RelationKind.NEC, RelationKind.NDD, RelationKind.PDD, RelationKind.POS):
        assert check_proportional(alloc, inst, ext).result


def test_pdd_vs_possible_example():
    inst = Instance(ItemKind.GOODS, (level_ranking(6), level_ranking(6)))
    alloc = Allocation(((5, 4, 0), (3, 2, 1)))  # Alice {6,5,1}, Bob {4,3,2}
    assert check_proportional(alloc, inst, RelationKind.POS).result
    verdict = check_proportional(alloc, inst, RelationKind.PDD)
    assert not verdict.result and verdict.certificate.agent == 1


def test_proportional_extension_chain():
    rng = random.Random(0)
    chain = (RelationKind.NEC, RelationKind.NDD, RelationKind.PDD, RelationKind.POS)
    for _ in range(150):
        agents = rng.randint(1, 3)
        items = agents * rng.randint(1, 2)
        inst = random_goods_instance(rng, agents, items)
        alloc = random_allocation(rng, agents, items, equal=True)
        results = [check_proportional(alloc, inst, ext).result for ext in chain]
        for stronger, weaker in zip(results, results[1:]):
            assert not stronger or weaker


def test_concrete_profile_consistency():
    rng = random.Random(1)
    for _ in range(25):
        inst = random_goods_instance(rng, 2, 4)
        alloc = random_allocation(rng, 2, 4, equal=True)
        verdict = check_proportional(alloc, inst, RelationKind.NDD)
        if verdict.result:
            for _ in range(40):
                profile = [sample_dd_utility(r, rng) for r in inst.rankings]
                assert check_proportional(alloc, inst, profile).result
        else:
            u = verdict.certificate.refuting_utility
            agent = verdict.certificate.agent
            assert 2 * u.of(alloc.bundle(agent)) < u.of(inst.full_bundle())


def test_concrete_proportionality_adds_exactly():
    # check_proportional sums a profile's values itself; its verdicts must be
    # those of n * u(bundle) < u(everything) in Fraction arithmetic, which
    # reads every float as its exact binary value.
    def exactly(alloc, inst, profile):
        n, m = inst.agent_count, inst.item_count
        return next(
            (agent for agent, u in enumerate(profile)
             if n * sum(Fraction(u.values[item]) for item in alloc.bundles[agent])
             < sum(Fraction(u.values[item]) for item in range(m))),
            None,
        )

    def verdict(alloc, inst, profile):
        result = check_proportional(alloc, inst, profile)
        assert result.result == (result.certificate is None)
        return None if result.result else result.certificate.agent

    rng = random.Random(20)
    for _ in range(400):
        agents, items = rng.randint(2, 4), rng.randint(2, 12)
        inst = random_goods_instance(rng, agents, items)
        alloc = random_allocation(rng, agents, items, equal=items % agents == 0)
        extra = rng.choice((0, 0, 3))  # a utility may list more values than items
        floats = [UtilityFunction([rng.uniform(0.5, 2.5) for _ in range(items + extra)])
                  for _ in range(agents)]
        fractions = [UtilityFunction([Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                      for _ in range(items + extra)])
                     for _ in range(agents)]
        for profile in (floats, fractions):
            assert verdict(alloc, inst, profile) == exactly(alloc, inst, profile)

    # The doubles 0.3, 0.1 and 0.2 sum exactly to more than 2 * 0.3, so agent
    # 0 falls short, however Python's sum() would add the floats.
    inst = Instance(ItemKind.GOODS, (Ranking((0, 1, 2)), Ranking((2, 1, 0))))
    tie = UtilityFunction((0.3, 0.1, 0.2))
    assert verdict(Allocation(((0,), (1, 2))), inst, [tie, tie]) == 0
    with pytest.raises(KeyError):  # a utility with fewer values than items
        check_proportional(Allocation(((0,), (1, 2))), inst, [UtilityFunction((1, 2)), tie])


def test_concrete_verdicts_read_floats_exactly():
    # The doubles nearest 0.1 and 0.4 sum exactly to 2.8e-17 more than 0.5,
    # although 0.1 + 0.4 rounds to 0.5.  Fractions tie.
    inst = Instance(ItemKind.GOODS, (Ranking((2, 1, 0)), Ranking((2, 1, 0))))
    u = UtilityFunction((0.1, 0.4, 0.5))
    tenths = UtilityFunction((Fraction(1, 10), Fraction(4, 10), Fraction(5, 10)))
    holds_two = Allocation(((2,), (0, 1)))
    verdict = check_proportional(holds_two, inst, [u, u])
    assert not verdict.result and verdict.certificate == ProportionalityViolation(0)
    assert check_proportional(holds_two, inst, [tenths, tenths]).result
    verdict = check_envy_free(holds_two, inst, [u, u])
    assert not verdict.result and verdict.certificate == EnvyWitness(0, 1)
    assert check_envy_free(holds_two, inst, [tenths, tenths]).result
    # Agent 0 gains 2.8e-17 from the swap and agent 1 loses nothing.
    other = UtilityFunction((0.25, 0.25, 0.5))
    verdict = check_pareto(holds_two, inst, [u, other])
    assert not verdict.result
    assert verdict.certificate == ParetoImprovement(Allocation(((0, 1), (2,))))
    assert check_pareto(holds_two, inst, [tenths, other]).result
    # No allocation dominates itself, whichever way sum() rounds 0.1 + 0.2 + 0.3.
    p = UtilityFunction((0.1, 0.2, 0.3))
    assert check_pareto(Allocation(((0, 1, 2), ())), inst, [p, p]).result


def test_proportional_kind_mismatch():
    inst = Instance(ItemKind.CHORES, (Ranking((0, 1)), Ranking((1, 0))))
    alloc = Allocation(((0,), (1,)))
    with pytest.raises(ExtensionKindMismatchError):
        check_proportional(alloc, inst, RelationKind.NDD)
    goods = Instance(ItemKind.GOODS, (Ranking((0, 1)), Ranking((1, 0))))
    with pytest.raises(ExtensionKindMismatchError):
        check_proportional(alloc, goods, RelationKind.NID)


def test_proportional_requires_partition():
    inst = opposite_preferences_instance()
    with pytest.raises(ValueError):
        check_proportional(Allocation(((0, 1), (2,))), inst, RelationKind.NDD)


# --- envy-freeness ----------------------------------------------------------

def test_three_agent_envy_example():
    inst = three_agent_envy_instance()
    alloc = Allocation(((5, 0), (4, 1), (2, 3)))  # {6,1} {5,2} {3,4} by labels
    assert check_proportional(alloc, inst, RelationKind.NDD).result
    verdict = check_envy_free(alloc, inst, RelationKind.NDD)
    assert not verdict.result
    assert verdict.certificate == EnvyWitness(envious=1, envied=2)
    # Borda confirms the certificate.
    u = borda_utility(inst.rankings[1])
    assert u.of(alloc.bundle(1)) < u.of(alloc.bundle(2))


def test_envy_free_two_agents_equals_proportional():
    rng = random.Random(2)
    for _ in range(120):
        items = 2 * rng.randint(1, 3)
        inst = random_goods_instance(rng, 2, items)
        alloc = random_allocation(rng, 2, items, equal=True)
        for ext in (RelationKind.NEC, RelationKind.NDD):
            assert (
                check_envy_free(alloc, inst, ext).result
                == check_proportional(alloc, inst, ext).result
            )


def test_envy_free_implies_proportional():
    rng = random.Random(3)
    for _ in range(80):
        agents = rng.randint(2, 3)
        items = agents * rng.randint(1, 2)
        inst = random_goods_instance(rng, agents, items)
        alloc = random_allocation(rng, agents, items, equal=True)
        if check_envy_free(alloc, inst, RelationKind.NDD).result:
            assert check_proportional(alloc, inst, RelationKind.NDD).result


def test_envy_free_concrete_profile():
    inst = opposite_preferences_instance()
    alloc = Allocation(((3, 0), (1, 2)))
    profile = [borda_utility(r) for r in inst.rankings]
    assert check_envy_free(alloc, inst, profile).result
    lopsided = Allocation(((0, 1, 2, 3), ()))
    verdict = check_envy_free(lopsided, inst, profile)
    assert not verdict.result and verdict.certificate.envious == 1


def test_envy_free_unsupported_extensions():
    inst = opposite_preferences_instance()
    alloc = Allocation(((3, 0), (1, 2)))
    for ext in (RelationKind.PDD, RelationKind.POS, RelationKind.PID, RelationKind.NID):
        with pytest.raises(UnsupportedExtensionError):
            check_envy_free(alloc, inst, ext)


def test_single_agent_envy_free():
    inst = Instance(ItemKind.GOODS, (Ranking((0, 1, 2)),))
    assert check_envy_free(Allocation(((0, 1, 2),)), inst, RelationKind.NDD).result


# --- Pareto efficiency ------------------------------------------------------

def test_pareto_two_tops():
    inst = Instance(ItemKind.GOODS, (Ranking((0, 1)), Ranking((1, 0))))
    alloc = Allocation(((0,), (1,)))
    assert check_pareto(alloc, inst, RelationKind.NEC).result
    assert check_pareto(alloc, inst, RelationKind.POS).result


def test_one_for_two_swap_example():
    inst = Instance(ItemKind.GOODS, (Ranking((0, 1, 2)), Ranking((0, 1, 2))))
    alloc = Allocation(((0,), (1, 2)))
    swap = find_one_for_two_swap(alloc, inst)
    assert swap == OneForTwoSwap(single_agent=0, single_item=0, pair_agent=1, pair=(2, 1))
    verdict = check_pareto(alloc, inst, RelationKind.NEC)
    assert not verdict.result and isinstance(verdict.certificate, OneForTwoSwap)
    # But it is possibly efficient: no allocation dominates it for the
    # bundle-lexicographic profile.
    assert check_pareto(alloc, inst, RelationKind.POS).result
    # The explicit two-agent profile from the swap argument improves both:
    # count-dominant for the single-item agent, lexicographic for the other.
    m = inst.item_count
    profile = [
        UtilityFunction.from_level_function(inst.rankings[0], lambda lev: m * m + lev),
        lexicographic_utility(inst.rankings[1]),
    ]
    assert all(classify_dd(profile[i], inst.rankings[i]) for i in range(2))
    improved = apply_one_for_two_swap(alloc, swap)
    for agent in (0, 1):
        assert profile[agent].of(improved.bundle(agent)) > profile[agent].of(
            alloc.bundle(agent)
        )


def test_pareto_dominator_certificate_is_checkable():
    inst = Instance(ItemKind.GOODS, (Ranking((0, 1, 2)), Ranking((2, 1, 0))))
    # Giving each agent its worst items is lex-dominated; the certificate must
    # be a genuine improvement.
    alloc = Allocation(((2,), (0, 1)))
    verdict = check_pareto(alloc, inst, RelationKind.POS)
    assert not verdict.result
    dominator = verdict.certificate.allocation
    lex = [lexicographic_utility(r) for r in inst.rankings]
    gains = [
        lex[i].of(dominator.bundle(i)) - lex[i].of(alloc.bundle(i)) for i in range(2)
    ]
    assert all(g >= 0 for g in gains) and any(g > 0 for g in gains)


def test_greedy_picking_outputs_are_possibly_efficient():
    rng = random.Random(4)
    for _ in range(40):
        agents = rng.randint(1, 3)
        items = rng.randint(agents, 6)
        inst = random_goods_instance(rng, agents, items)
        taken = [False] * items
        bundles = [[] for _ in range(agents)]
        for pick in range(items):
            agent = pick % agents
            best = next(i for i in inst.rankings[agent].order if not taken[i])
            taken[best] = True
            bundles[agent].append(best)
        alloc = Allocation.from_lists(bundles)
        assert check_pareto(alloc, inst, RelationKind.POS).result


def test_pareto_nec_equals_ndd_and_pos_equals_pdd():
    rng = random.Random(5)
    for _ in range(40):
        agents = rng.randint(2, 3)
        items = rng.randint(2, 5)
        inst = random_goods_instance(rng, agents, items)
        alloc = random_allocation(rng, agents, items)
        assert (
            check_pareto(alloc, inst, RelationKind.NEC).result
            == check_pareto(alloc, inst, RelationKind.NDD).result
        )
        assert (
            check_pareto(alloc, inst, RelationKind.POS).result
            == check_pareto(alloc, inst, RelationKind.PDD).result
        )


def test_pareto_concrete_profile():
    inst = Instance(ItemKind.GOODS, (Ranking((0, 1)), Ranking((1, 0))))
    profile = [borda_utility(r) for r in inst.rankings]
    assert check_pareto(Allocation(((0,), (1,))), inst, profile).result
    verdict = check_pareto(Allocation(((1,), (0,))), inst, profile)
    assert not verdict.result and isinstance(verdict.certificate, ParetoImprovement)


def test_pareto_budget_guard():
    inst = opposite_preferences_instance()
    alloc = Allocation(((3, 0), (1, 2)))
    with pytest.raises(BudgetExceededError):
        check_pareto(alloc, inst, RelationKind.POS, budget=3)


def test_pareto_unsupported_extension():
    inst = opposite_preferences_instance()
    alloc = Allocation(((3, 0), (1, 2)))
    with pytest.raises(UnsupportedExtensionError):
        check_pareto(alloc, inst, RelationKind.NBIN)
    chores = Instance(ItemKind.CHORES, (Ranking((0, 1)), Ranking((1, 0))))
    with pytest.raises(ExtensionKindMismatchError):
        check_pareto(Allocation(((0,), (1,))), chores, RelationKind.POS)
