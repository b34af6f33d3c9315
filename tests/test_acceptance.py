"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criterion 6 exercises the equivalence between exact-3-cover solvability
and envy-freeness existence on the reduced instances; the argument for it is
in the docstring of ``dimdiff.reductions``.  The test verifies every
discrepancy independently before reporting it.
"""

import hashlib
import io
import itertools
import math
import random
import time

from dimdiff.core import (
    Allocation,
    Instance,
    ItemKind,
    MultiBundle,
    Ranking,
    UtilityFunction,
    borda_utility,
    classify_dd,
    lexicographic_utility,
)
from dimdiff.extensions import (
    RelationKind,
    holds,
    ndd_generator_oracle,
    sampled_utility_refuter,
)
from dimdiff.fairness import (
    Criterion,
    ParetoImprovement,
    check_envy_free,
    check_pareto,
    check_proportional,
    find_one_for_two_swap,
)
from dimdiff.protocols import nddpr_exists, nidpr_necessary
from dimdiff.reductions import X3CInstance, nddef_search_reduced, reduce_x3c, solve_x3c
from dimdiff.search import AllocationGoal, exists_allocation
from dimdiff.simulate import full_grid_config, run_experiment, write_csv

from conftest import by_levels, level_ranking

PR = Criterion.PROPORTIONALITY
EF = Criterion.ENVY_FREENESS


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}{detail}")
    assert ok, f"criterion {number} ({name}) failed{detail}"


def _subsets(item_count: int) -> list[MultiBundle]:
    return [
        MultiBundle.from_items(combo)
        for size in range(item_count + 1)
        for combo in itertools.combinations(range(item_count), size)
    ]


def test_criterion_1_ndd_characterization_equivalence():
    start = time.time()
    mismatches = 0
    # Exhaustive: every ranking and every sub-bundle pair for M <= 6.
    for m in range(1, 7):
        pool = _subsets(m)
        for perm in itertools.permutations(range(m)):
            ranking = Ranking(perm)
            for x in pool:
                for y in pool:
                    if holds(RelationKind.NDD, x, y, ranking) != ndd_generator_oracle(
                        x, y, ranking
                    ):
                        mismatches += 1
    # Randomized multi-bundle pairs up to M = 10.
    rng = random.Random(20250810)
    for _ in range(100_000):
        m = rng.randint(1, 10)
        ranking = Ranking(tuple(rng.sample(range(m), m)))
        x = MultiBundle.from_items(rng.choices(range(m), k=rng.randint(0, m)))
        y = MultiBundle.from_items(rng.choices(range(m), k=rng.randint(0, m)))
        if holds(RelationKind.NDD, x, y, ranking) != ndd_generator_oracle(x, y, ranking):
            mismatches += 1
    # The sampled refuter must never refute a holding relation.
    refuted = 0
    kinds = (RelationKind.NDD, RelationKind.NID, RelationKind.NEC, RelationKind.NBIN)
    checked = 0
    while checked < 40:
        m = rng.randint(2, 8)
        ranking = Ranking(tuple(rng.sample(range(m), m)))
        x = MultiBundle.from_items(rng.choices(range(m), k=rng.randint(1, m)))
        y = MultiBundle.from_items(rng.choices(range(m), k=rng.randint(1, m)))
        for kind in kinds:
            if holds(kind, x, y, ranking):
                checked += 1
                if sampled_utility_refuter(kind, x, y, ranking, 10_000, checked) is not None:
                    refuted += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and refuted == 0 and elapsed < 300
    _report(
        1, "NDD characterization vs generator oracle", ok,
        f" (mismatches={mismatches}, false refutations={refuted}, {elapsed:.0f}s)",
    )


def test_criterion_2_existence_condition_both_directions():
    rng = random.Random(52)
    goal = AllocationGoal(PR, RelationKind.NDD)
    cells = [(2, 2, 250), (2, 4, 250), (2, 6, 250), (3, 3, 150), (3, 6, 150)]
    instances = 0
    discrepancies = 0
    for agents, items, count in cells:
        for _ in range(count):
            inst = Instance(
                ItemKind.GOODS,
                tuple(Ranking(tuple(rng.sample(range(items), items))) for _ in range(agents)),
            )
            instances += 1
            report = nddpr_exists(inst)
            witness = exists_allocation(inst, goal)
            if bool(report.exists) != (witness is not None):
                discrepancies += 1
                continue
            if report.exists:
                if not check_proportional(report.allocation, inst, RelationKind.NDD).result:
                    discrepancies += 1
    ok = discrepancies == 0 and instances >= 1000
    _report(
        2, "NDDPR existence condition vs brute force", ok,
        f" ({instances} instances, discrepancies={discrepancies})",
    )


def test_criterion_3_worked_example_fixtures():
    failures = []

    def expect(label, condition):
        if not condition:
            failures.append(label)

    eight = level_ranking(8)
    u_square = UtilityFunction.from_level_function(eight, lambda lev: lev * lev)
    expect("square 84", u_square.of(by_levels(8, 4, 2)) == 84)
    expect("square 85", u_square.of(by_levels(7, 6)) == 85)
    u_sqrt = UtilityFunction.from_level_function(eight, math.sqrt)
    expect("sqrt 5.06", abs(u_sqrt.of(by_levels(8, 5)) - 5.06) <= 1e-2)
    expect("sqrt 5.09", abs(u_sqrt.of(by_levels(7, 6)) - 5.09) <= 1e-2)

    # Possible- versus PDD-proportionality on identical rankings, m=3.
    identical = Instance(ItemKind.GOODS, (level_ranking(6), level_ranking(6)))
    skewed = Allocation(((5, 4, 0), (3, 2, 1)))
    expect("PosPR true", check_proportional(skewed, identical, RelationKind.POS).result)
    expect("PDDPR false", not check_proportional(skewed, identical, RelationKind.PDD).result)

    # Opposite preferences, m=2: no NecPR allocation, NDDPR exists.
    opposite = Instance(ItemKind.GOODS, (Ranking((3, 2, 1, 0)), Ranking((1, 2, 3, 0))))
    expect(
        "NecPR nonexistent",
        exists_allocation(opposite, AllocationGoal(PR, RelationKind.NEC)) is None,
    )
    expect("NDDPR exists", nddpr_exists(opposite).exists is True)

    # Three agents, six items: no NDD-envy-free allocation at all.
    trio = Instance(
        ItemKind.GOODS,
        (Ranking((5, 4, 2, 3, 1, 0)), Ranking((4, 3, 2, 5, 1, 0)), Ranking((3, 5, 2, 4, 1, 0))),
    )
    expect(
        "NDDEF nonexistent",
        exists_allocation(trio, AllocationGoal(EF, RelationKind.NDD)) is None,
    )

    # Chores: the 8-chore / 4-agent instance has no NIDPR allocation.
    a, b, c, d, w, x, y, z = range(8)
    hard_chores = Instance(
        ItemKind.CHORES,
        (
            Ranking((a, b, c, d, w, x, y, z)),
            Ranking((b, c, d, a, w, x, z, y)),
            Ranking((c, d, a, b, w, z, y, x)),
            Ranking((d, a, b, c, x, z, y, w)),
        ),
    )
    expect("8-chore condition", nidpr_necessary(hard_chores).exists is False)
    expect(
        "8-chore search",
        exists_allocation(hard_chores, AllocationGoal(PR, RelationKind.NID)) is None,
    )

    # Chores: the stated 3-chore allocation is NIDPR, accumulated
    # differences [+1, +1, 0].
    chores3 = Instance(
        ItemKind.CHORES, (Ranking((0, 1, 2)), Ranking((0, 2, 1)), Ranking((0, 2, 1)))
    )
    stated = Allocation(((1,), (0,), (2,)))
    expect("3-chore NIDPR", check_proportional(stated, chores3, RelationKind.NID).result)
    chooser = chores3.rankings[0]
    mine = itertools.accumulate(stated.bundle(0).scaled(3).levels(chooser)[::-1])
    everything = itertools.accumulate(chores3.full_bundle().levels(chooser)[::-1])
    expect("3-chore table", [p - q for p, q in zip(mine, everything)] == [1, 1, 0])

    _report(3, "worked-example fixtures reproduce", not failures, f" {failures or ''}")


def test_criterion_4_binary_equivalence():
    mismatches = 0
    # All rankings and subset pairs for M <= 4, canonical ranking for M = 5, 6.
    for m in range(1, 7):
        pool = _subsets(m)
        perms = itertools.permutations(range(m)) if m <= 4 else [tuple(range(m))]
        for perm in perms:
            ranking = Ranking(perm)
            for x_bundle in pool:
                for y_bundle in pool:
                    if holds(RelationKind.NEC, x_bundle, y_bundle, ranking) != holds(
                        RelationKind.NBIN, x_bundle, y_bundle, ranking
                    ):
                        mismatches += 1
                    if holds(RelationKind.POS, x_bundle, y_bundle, ranking) != holds(
                        RelationKind.PBIN, x_bundle, y_bundle, ranking
                    ):
                        mismatches += 1
    # Multi-bundles with multiplicities up to 2 for M <= 4.
    for m in range(1, 5):
        ranking = level_ranking(m)
        pool = [
            MultiBundle.from_counts({i: c for i, c in enumerate(counts) if c})
            for counts in itertools.product(range(3), repeat=m)
        ]
        for x_bundle in pool:
            for y_bundle in pool:
                if holds(RelationKind.NEC, x_bundle, y_bundle, ranking) != holds(
                    RelationKind.NBIN, x_bundle, y_bundle, ranking
                ):
                    mismatches += 1
                if holds(RelationKind.POS, x_bundle, y_bundle, ranking) != holds(
                    RelationKind.PBIN, x_bundle, y_bundle, ranking
                ):
                    mismatches += 1
    _report(4, "necessary/possible match binary thresholds", mismatches == 0,
            f" (mismatches={mismatches})")


def test_criterion_5_pareto_theorems_at_desk_scale():
    rng = random.Random(55)
    bad = 0
    swaps_seen = 0
    dominators_seen = 0
    for _ in range(200):
        agents = rng.randint(2, 3)
        items = rng.randint(2, 6)
        inst = Instance(
            ItemKind.GOODS,
            tuple(Ranking(tuple(rng.sample(range(items), items))) for _ in range(agents)),
        )
        ids = list(range(items))
        rng.shuffle(ids)
        bundles = [[] for _ in range(agents)]
        for item in ids:
            bundles[rng.randrange(agents)].append(item)
        alloc = Allocation.from_lists(bundles)

        swap = find_one_for_two_swap(alloc, inst)
        if swap is not None:
            swaps_seen += 1
            # The proof's explicit profile: count-dominant for the single-item
            # agent, bundle-lexicographic for the pair agent, Borda elsewhere.
            profile = []
            for agent in range(agents):
                if agent == swap.single_agent:
                    profile.append(
                        UtilityFunction.from_level_function(
                            inst.rankings[agent], lambda lev: items * items + lev
                        )
                    )
                elif agent == swap.pair_agent:
                    profile.append(lexicographic_utility(inst.rankings[agent]))
                else:
                    profile.append(borda_utility(inst.rankings[agent]))
            if not all(classify_dd(profile[i], inst.rankings[i]) for i in range(agents)):
                bad += 1
                continue
            improved_bundles = [list(bundle) for bundle in alloc.bundles]
            improved_bundles[swap.single_agent].remove(swap.single_item)
            improved_bundles[swap.single_agent].extend(swap.pair)
            improved_bundles[swap.pair_agent] = [
                item
                for item in improved_bundles[swap.pair_agent]
                if item not in swap.pair
            ] + [swap.single_item]
            improved = Allocation.from_lists(improved_bundles)
            gains = [
                profile[i].of(improved.bundle(i)) - profile[i].of(alloc.bundle(i))
                for i in range(agents)
            ]
            if not (
                gains[swap.single_agent] > 0
                and gains[swap.pair_agent] > 0
                and all(
                    g == 0
                    for i, g in enumerate(gains)
                    if i not in (swap.single_agent, swap.pair_agent)
                )
            ):
                bad += 1
            if check_pareto(alloc, inst, RelationKind.NEC).result:
                bad += 1

        verdict = check_pareto(alloc, inst, RelationKind.POS)
        if not verdict.result:
            dominators_seen += 1
            if not isinstance(verdict.certificate, ParetoImprovement):
                bad += 1
                continue
            dominator = verdict.certificate.allocation
            lex = [lexicographic_utility(r) for r in inst.rankings]
            gains = [
                lex[i].of(dominator.bundle(i)) - lex[i].of(alloc.bundle(i))
                for i in range(agents)
            ]
            if not (all(g >= 0 for g in gains) and any(g > 0 for g in gains)):
                bad += 1
    ok = bad == 0 and swaps_seen > 20 and dominators_seen > 20
    _report(
        5, "pareto swap certificates and dominators", ok,
        f" (swaps={swaps_seen}, dominators={dominators_seen}, bad={bad})",
    )


def test_criterion_6_np_hardness_reduction():
    # The criterion demands zero discrepancies between cover solvability and
    # envy-freeness existence on the reduced instances.  Any discrepancy is
    # verified before it is reported: it must be a coverless instance whose
    # envy-free witness passes the independent pairwise check.
    start = time.time()
    rng = random.Random(56)
    shapes = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
    divergences = []
    produced = 0
    while produced < 60:
        cover_size, triple_count = shapes[produced % len(shapes)]
        triples = tuple(
            tuple(rng.sample(range(3 * cover_size), 3)) for _ in range(triple_count)
        )
        x3c = X3CInstance(3 * cover_size, triples)
        produced += 1
        cover = solve_x3c(x3c)
        reduced = reduce_x3c(x3c)
        witness = nddef_search_reduced(reduced)
        if (cover is None) == (witness is None):
            continue
        # A cover must always yield an envy-free allocation; only the reverse
        # direction can diverge, and the witness must be genuine.
        assert cover is None and witness is not None
        assert check_envy_free(witness, reduced.instance, RelationKind.NDD).result
        divergences.append(x3c.triplets)
    elapsed = time.time() - start
    ok = not divergences and elapsed < 600
    _report(
        6, "x3c cover equivalence on reduced instances", ok,
        f" ({produced} instances, {len(divergences)} verified divergences"
        f" e.g. {divergences[0] if divergences else None}, {elapsed:.0f}s)",
    )


#: The bytes of the criterion-7 CSV (seed 1234, the full grid); every
#: speed-up of the simulation must leave them unchanged.
CRITERION_7_CSV_SHA256 = "497cbfe2601cebec93b68163638a7036fbed774854221b4fe135c1fd537a605c"


def _csv_sha256(cells, config) -> str:
    buffer = io.StringIO()
    write_csv(cells, config, buffer)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def test_criterion_7_simulation_reproduction():
    start = time.time()
    config = full_grid_config(seed=1234)
    # run_trial hard-asserts the per-trial implication chain and the
    # round-robin guarantee; completing the grid is that assertion.
    cells = run_experiment(config)
    elapsed = time.time() - start

    mean_pddpr = sum(c.p_pddpr for c in cells) / len(cells)
    mean_pospr = sum(c.p_pospr for c in cells) / len(cells)
    max_gap = max(c.p_nddpr - c.p_necpr for c in cells)
    m8 = [c for c in cells if c.m == 8]
    rr_trials = sum(c.p_rr_cardinal_proportional * c.trials for c in m8)
    ndd_trials = sum(c.p_nddpr * c.trials for c in m8)
    conditional = rr_trials / ndd_trials if ndd_trials else 0.0

    checks = {
        "cells": len(cells) == 70,
        "pddpr>=0.99": mean_pddpr >= 0.99,
        "pospr>=0.99": mean_pospr >= 0.99,
        "gap>=0.15": max_gap >= 0.15,
        "m8 conditional>=0.9": conditional >= 0.9,
        "runtime<30min": elapsed < 1800,
        "csv sha256": _csv_sha256(cells, config) == CRITERION_7_CSV_SHA256,
    }
    ok = all(checks.values())
    _report(
        7, "monte-carlo experiment bands", ok,
        f" (pddpr={mean_pddpr:.4f}, pospr={mean_pospr:.4f}, gap={max_gap:.4f},"
        f" m8 conditional={conditional:.4f}, {elapsed:.0f}s,"
        f" failed={[k for k, v in checks.items() if not v]})",
    )


def test_criterion_8_determinism():
    from dimdiff.simulate import SimConfig

    config = SimConfig(noise_levels=(0.3, 0.9), item_pair_counts=(2, 4), trials=50, seed=77)
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        write_csv(run_experiment(config), config, buffer)
        outputs.append(buffer.getvalue())
    csv_identical = outputs[0] == outputs[1]

    rng = random.Random(58)
    witnesses_identical = True
    for _ in range(30):
        items = 2 * rng.randint(1, 3)
        inst = Instance(
            ItemKind.GOODS,
            tuple(Ranking(tuple(rng.sample(range(items), items))) for _ in range(2)),
        )
        for ext in (RelationKind.NEC, RelationKind.NDD, RelationKind.PDD, RelationKind.POS):
            goal = AllocationGoal(PR, ext)
            first = exists_allocation(inst, goal)
            second = exists_allocation(inst, goal)
            if (first is None) != (second is None):
                witnesses_identical = False
            elif first is not None and first.bundles != second.bundles:
                witnesses_identical = False
    ok = csv_identical and witnesses_identical
    _report(
        8, "byte-identical csv and stable witnesses", ok,
        f" (csv={csv_identical}, witnesses={witnesses_identical})",
    )
