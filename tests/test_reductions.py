"""Exact-3-cover solver, the envy-freeness reduction, structured search."""

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimdiff.core import Allocation, Instance, ItemKind, MultiBundle, Ranking
from dimdiff.extensions import RelationKind, holds
from dimdiff.fairness import Criterion, check_envy_free
from dimdiff.reductions import (
    ReducedInstance,
    X3CInstance,
    _arc_consistent,
    _mutual_tolerance,
    allocation_from_cover,
    nddef_search_reduced,
    reduce_x3c,
    solve_x3c,
    x3c_from_json,
)
from dimdiff.search import AllocationGoal, exists_allocation


def x3c_instances(max_cover=3):
    @st.composite
    def build(draw):
        q = draw(st.integers(1, max_cover))
        n = draw(st.integers(q, max_cover))
        elements = st.sets(st.integers(0, 3 * q - 1), min_size=3, max_size=3)
        triples = tuple(
            tuple(draw(elements.flatmap(lambda s: st.permutations(sorted(s)))))
            for _ in range(n)
        )
        return X3CInstance(3 * q, triples)

    return build()


def cover_held_by(witness, reduced, x3c):
    """Triples whose agents hold main items, if each holds its own three."""
    mains = set(reduced.main_items)
    held = []
    for a, agents in enumerate(reduced.agent_triples):
        items = sorted(
            i for agent in agents for i in witness.bundles[agent] if i in mains
        )
        if items:
            if items != sorted(reduced.main_items[e] for e in x3c.triplets[a]):
                return None
            held.append(a)
    return tuple(held)


def independent_cover_search(x3c):
    """Recursive cover check, independent of the combinations-based solver."""
    base = frozenset(range(x3c.base_size))

    def extend(covered, start):
        if covered == base:
            return True
        for index in range(start, x3c.triplet_count):
            triple = frozenset(x3c.triplets[index])
            if covered & triple:
                continue
            if extend(covered | triple, index + 1):
                return True
        return False

    return extend(frozenset(), 0)


def bijection_search(reduced):
    """NDD-EF allocation giving each agent its best item and one free item.

    The definition, without the structured search's level arithmetic: the
    bijections from agents to the items no agent ranks first, each judged
    by ``check_envy_free``.  A prefix holding an envious pair under
    ``holds`` is skipped: bundles never change once assigned, and
    envy-freeness is a conjunction over pairs.
    """
    instance = reduced.instance
    rankings = instance.rankings
    tops = [r.best for r in rankings]
    free = sorted(set(range(instance.item_count)) - set(tops))
    seconds, bundles = [], []

    def extend():
        agent = len(seconds)
        if agent == len(rankings):
            alloc = Allocation.from_lists(zip(tops, seconds))
            return alloc if check_envy_free(alloc, instance, RelationKind.NDD).result else None
        for item in free:
            mine = MultiBundle.from_items((tops[agent], item))
            if item in seconds or not all(
                holds(RelationKind.NDD, mine, theirs, rankings[agent])
                and holds(RelationKind.NDD, theirs, mine, rankings[other])
                for other, theirs in enumerate(bundles)
            ):
                continue
            seconds.append(item)
            bundles.append(mine)
            found = extend()
            if found is not None:
                return found
            seconds.pop()
            bundles.pop()
        return None

    return extend()


def forward_checking_search(reduced, pinned=None):
    """The structured search without the root filter: the reference.

    Forward checking on one bitmask domain per open agent, built from
    cumulative level tables; next is the open agent with the smallest
    domain (lowest index on ties), its items tried in ascending order.
    ``pinned = (agent, k)`` leaves ``agent`` only free item k.
    """
    instance = reduced.instance
    agents, m, rankings = instance.agent_count, instance.item_count, instance.rankings
    top_dummy = [r.best for r in rankings]
    free_items = sorted(set(range(m)) - set(top_dummy))
    full = (1 << agents) - 1
    level = [[r.level(item) for item in free_items] for r in rankings]
    top_level = [[r.level(t) for t in top_dummy] for r in rankings]
    # at_most[a][t]: the free items a ranks at level <= t; at_least[a][t]:
    # those at level >= t - M; t runs over 0 .. 2M.
    at_most, at_least = [], []
    for a in range(agents):
        exact = [0] * (2 * m + 1)
        for k, lev in enumerate(level[a]):
            exact[lev] |= 1 << k
        below = list(itertools.accumulate(exact, int.__or__))
        at_most.append(below)
        at_least.append([full] * (m + 1) + [full ^ below[t] for t in range(m)])
    slack = [[m - lev for lev in row] for row in top_level]
    second = [0] * agents

    def extend(open_domains, pick, left):
        if not open_domains:
            return True
        agent, domain = open_domains[pick]
        rest = open_domains[:pick] + open_domains[pick + 1:]
        tolerated, own, lets = at_most[agent], level[agent], slack[agent]
        while domain:
            low = domain & -domain
            domain ^= low
            k = low.bit_length() - 1
            held = own[k]
            narrowed = []
            smallest, next_pick, union = agents + 1, 0, 0
            for other, dom in rest:
                dom &= (
                    tolerated[held + lets[other]]
                    & at_least[other][level[other][k] + top_level[other][agent]]
                    & ~low
                )
                size = dom.bit_count()
                if not size:
                    break
                union |= dom
                if size < smallest:
                    smallest, next_pick = size, len(narrowed)
                narrowed.append((other, dom))
            else:
                if union != left ^ low:
                    continue
                second[agent] = k
                if extend(narrowed, next_pick, left ^ low):
                    return True
        return False

    domains = [(a, full) for a in range(agents)]
    if pinned is not None:
        domains[pinned[0]] = (pinned[0], 1 << pinned[1])
    if not extend(domains, 0, full):
        return None
    return Allocation.from_lists(
        [(top_dummy[a], free_items[second[a]]) for a in range(agents)]
    )


def tolerance_table(reduced):
    """``_mutual_tolerance``'s table, on levels read with ``Ranking.level``."""
    rankings = reduced.instance.rankings
    m = reduced.instance.item_count
    tops = [r.best for r in rankings]
    free = sorted(set(range(m)) - set(tops))
    level = np.array([[r.level(item) for item in free] for r in rankings])
    slack = m - np.array([[r.level(t) for t in tops] for r in rankings])
    return _mutual_tolerance(level, slack)


def root_filter(reduced):
    """The root filter's domains ``kept[agent, k]`` (None when it refutes)."""
    return _arc_consistent(tolerance_table(reduced))


# --- instance type ------------------------------------------------------------

def test_x3c_validation():
    with pytest.raises(ValueError):
        X3CInstance(4, ((0, 1, 2),))
    with pytest.raises(ValueError):
        X3CInstance(3, ())
    with pytest.raises(ValueError):
        X3CInstance(3, ((0, 0, 1),))
    with pytest.raises(ValueError):
        X3CInstance(3, ((0, 1, 5),))


def test_x3c_json_round_trip():
    inst = X3CInstance(6, ((0, 1, 2), (3, 4, 5)))
    assert x3c_from_json({"base_size": 6, "triplets": [[0, 1, 2], [3, 4, 5]]}) == inst


def test_solver_fixtures():
    partition = X3CInstance(6, ((0, 1, 2), (3, 4, 5)))
    assert solve_x3c(partition) == (0, 1)
    shared = X3CInstance(6, ((0, 1, 2), (0, 3, 4)))
    assert solve_x3c(shared) is None


@settings(max_examples=80, deadline=None)
@given(x3c_instances())
def test_solver_matches_independent_search(x3c):
    assert (solve_x3c(x3c) is not None) == independent_cover_search(x3c)


def test_solver_verifies_disjoint_cover():
    inst = X3CInstance(9, ((0, 1, 2), (2, 3, 4), (3, 4, 5), (6, 7, 8)))
    cover = solve_x3c(inst)
    assert cover is not None
    chosen = [set(inst.triplets[i]) for i in cover]
    assert len(set().union(*chosen)) == 9


# --- reduction structure -------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(x3c_instances())
def test_reduced_instance_structure(x3c):
    reduced = reduce_x3c(x3c)
    inst = reduced.instance
    n, q = x3c.triplet_count, x3c.cover_size
    assert inst.kind is ItemKind.GOODS
    assert inst.item_count == 6 * n
    assert inst.agent_count == 3 * n
    # Dummy triples are pairwise disjoint and each agent tops its own dummy.
    dummy_items = [d for triple in reduced.dummy_triples for d in triple]
    assert len(set(dummy_items)) == 3 * n
    for i in range(n):
        for slot in range(3):
            agent = reduced.agent_triples[i][slot]
            ranking = inst.rankings[agent]
            assert ranking.best == reduced.dummy_triples[i][slot]
            # Own dummies, then the triple's mains, fill the top six places.
            top_six = set(ranking.order[:6])
            expected = set(reduced.dummy_triples[i]) | {
                reduced.main_items[e] for e in x3c.triplets[i]
            }
            assert top_six == expected


def test_reduction_fixture_rows():
    trivial = X3CInstance(3, ((0, 1, 2),))
    reduced = reduce_x3c(trivial)
    assert reduced.instance.item_count == 6 and reduced.instance.agent_count == 3
    witness = nddef_search_reduced(reduced)
    assert witness is not None
    assert check_envy_free(witness, reduced.instance, RelationKind.NDD).result

    spare = X3CInstance(3, ((0, 1, 2), (0, 1, 2)))
    assert solve_x3c(spare) is not None
    assert nddef_search_reduced(reduce_x3c(spare)) is not None

    overlap = X3CInstance(6, ((0, 1, 2), (0, 3, 4)))
    assert solve_x3c(overlap) is None
    assert nddef_search_reduced(reduce_x3c(overlap)) is None


def test_structured_search_agrees_with_generic_on_trivial_instance():
    reduced = reduce_x3c(X3CInstance(3, ((0, 1, 2),)))
    structured = nddef_search_reduced(reduced)
    generic = exists_allocation(
        reduced.instance, AllocationGoal(Criterion.ENVY_FREENESS, RelationKind.NDD)
    )
    assert structured is not None and generic is not None
    assert check_envy_free(generic, reduced.instance, RelationKind.NDD).result


def test_structured_search_agrees_with_generic_with_gap_dummy():
    # The smallest shape with a gap dummy: two triples on three elements.
    # The generic search makes no assumption on bundle shapes.
    reduced = reduce_x3c(X3CInstance(3, ((0, 1, 2), (2, 0, 1))))
    structured = nddef_search_reduced(reduced)
    generic = exists_allocation(
        reduced.instance, AllocationGoal(Criterion.ENVY_FREENESS, RelationKind.NDD)
    )
    assert structured is not None and generic is not None
    assert check_envy_free(generic, reduced.instance, RelationKind.NDD).result
    # Both shape assumptions of the structured search hold for its witness.
    for agent, bundle in enumerate(generic.bundles):
        assert len(bundle) == 2 and reduced.instance.rankings[agent].best in bundle


def test_structured_search_agrees_with_generic_on_coverless_two_two():
    # Two triples sharing element 0: no cover.  The generic search proves
    # "none" over all 7,484,400 balanced allocations of 12 items to 6 agents
    # (most of them in subtrees cut at a completed bundle).
    x3c = X3CInstance(6, ((0, 1, 2), (0, 3, 4)))
    assert solve_x3c(x3c) is None
    reduced = reduce_x3c(x3c)
    assert nddef_search_reduced(reduced) is None
    assert exists_allocation(
        reduced.instance, AllocationGoal(Criterion.ENVY_FREENESS, RelationKind.NDD)
    ) is None


def test_rotation_tie_counterexample_is_real():
    # Under the earlier layout the first auxiliary item sat directly below
    # the three own mains, so an agent holding it tied with co-agents holding
    # own mains one and two places above, and this coverless instance had an
    # envy-free allocation (the witness below).  The gap dummy between the
    # own mains and the auxiliary blocks turns those ties into strict envy
    # inside a triple, and no envy-free allocation remains.
    inst = X3CInstance(6, ((0, 1, 2), (0, 3, 4), (2, 3, 5)))
    assert solve_x3c(inst) is None
    reduced = reduce_x3c(inst)
    assert nddef_search_reduced(reduced) is None
    former_witness = Allocation.from_lists(
        ((1, 6), (0, 7), (8, 17), (9, 15), (4, 10), (3, 11), (5, 12), (13, 16), (2, 14))
    )
    verdict = check_envy_free(former_witness, reduced.instance, RelationKind.NDD)
    assert not verdict.result
    envy = verdict.certificate
    assert envy.envious // 3 == envy.envied // 3


@pytest.mark.parametrize(
    "triplets",
    [((3, 1, 4), (0, 4, 1), (4, 1, 3)), ((5, 0, 4), (5, 0, 4))],
)
def test_uncovered_elements_leave_no_envy_free_allocation(triplets):
    # Some elements lie in no triple (2 and 5; then 1, 2 and 3).  When the
    # foreign mains sat next to each other at the bottom of every ranking,
    # one triple's agents could absorb three of them within their tolerance
    # of one and two levels; each now sits directly below a dummy.
    inst = X3CInstance(6, triplets)
    assert solve_x3c(inst) is None
    assert nddef_search_reduced(reduce_x3c(inst)) is None


@settings(max_examples=60, deadline=None)
@given(x3c_instances())
def test_cover_exists_iff_envy_free_allocation_exists(x3c):
    reduced = reduce_x3c(x3c)
    witness = nddef_search_reduced(reduced)
    assert (solve_x3c(x3c) is None) == (witness is None)
    if witness is not None:
        assert check_envy_free(witness, reduced.instance, RelationKind.NDD).result
        # Each triple holding main items holds its own three, and q triples
        # do: an exact cover.
        held = cover_held_by(witness, reduced, x3c)
        assert held is not None and len(held) == x3c.cover_size


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_allocation_from_cover_is_envy_free(data):
    # The cover-to-allocation direction at shapes the exhaustive search does
    # not reach: a planted exact cover plus random extra triples.
    q = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(q, 2 * q + 2))
    elements = data.draw(st.permutations(range(3 * q)))
    extra = st.lists(st.integers(0, 3 * q - 1), min_size=3, max_size=3, unique=True)
    triplets = [tuple(elements[3 * i:3 * i + 3]) for i in range(q)]
    triplets += [tuple(data.draw(extra)) for _ in range(n - q)]
    x3c = X3CInstance(3 * q, tuple(data.draw(st.permutations(triplets))))
    cover = solve_x3c(x3c)
    alloc = allocation_from_cover(x3c, cover)
    assert check_envy_free(alloc, reduce_x3c(x3c).instance, RelationKind.NDD).result


def test_allocation_from_cover_when_gap_triples_meet():
    # Every non-cover triple meets the cover triple that follows it, so a
    # gap dummy always taken from the next triple would leave a cover here
    # and no envy-free allocation; the gap triple is a disjoint one where
    # possible.
    x3c = X3CInstance(
        9, ((0, 3, 2), (3, 1, 4), (1, 4, 8), (7, 8, 3), (5, 6, 7), (3, 0, 6))
    )
    cover = solve_x3c(x3c)
    assert cover is not None
    reduced = reduce_x3c(x3c)
    alloc = allocation_from_cover(x3c, cover)
    assert check_envy_free(alloc, reduced.instance, RelationKind.NDD).result
    assert nddef_search_reduced(reduced) is not None
    for not_a_cover in [(0, 1), (0, 1, 2), (-6, 2, 4)]:
        with pytest.raises(ValueError):
            allocation_from_cover(x3c, not_a_cover)


def _random_x3c(rng, q, n):
    return X3CInstance(3 * q, tuple(tuple(rng.sample(range(3 * q), 3)) for _ in range(n)))


def _seeded(draw, seed, shapes):
    rng = random.Random(seed)
    return [draw(rng, *shape) for shape in shapes]


def _random_shaped(rng, agents):
    """Goods rankings of 2 * agents items with distinct best items, the shape
    the structured search assumes, without the reduction's layout.  Below
    its best item every agent follows one shared order with one adjacent
    swap, so that envy thresholds bind."""
    items = 2 * agents
    shared = rng.sample(range(items), items)
    rankings = []
    for top in rng.sample(range(items), agents):
        rest = [i for i in shared if i != top]
        k = rng.randrange(len(rest) - 1)
        rest[k], rest[k + 1] = rest[k + 1], rest[k]
        rankings.append(Ranking((top, *rest)))
    return ReducedInstance(Instance(ItemKind.GOODS, tuple(rankings)), (), (), (), ())


@pytest.mark.parametrize(
    "instances",
    [
        pytest.param(
            _seeded(_random_shaped, 4, [(agents,) for agents in (2, 3, 4, 5)] * 50),
            id="random_shaped",
        ),
        pytest.param(
            [X3CInstance(3, combo)
             for n in (1, 2)
             for combo in itertools.product(itertools.permutations(range(3)), repeat=n)],
            id="every_1_1_and_1_2",
        ),
        pytest.param(_seeded(_random_x3c, 22, [(2, 2)] * 30), id="random_2_2"),
        pytest.param(_seeded(_random_x3c, 23, [(2, 3)] * 30), id="random_2_3"),
    ],
)
def test_structured_search_matches_bijection_search(instances):
    # Existence agrees with the definition, on reduced instances and on
    # random ones of the same shape, where the envy thresholds are tight more
    # often; witnesses may differ.
    for case in instances:
        reduced = case if isinstance(case, ReducedInstance) else reduce_x3c(case)
        structured = nddef_search_reduced(reduced)
        assert (structured is None) == (bijection_search(reduced) is None), case
        if structured is not None:
            assert check_envy_free(structured, reduced.instance, RelationKind.NDD).result


def _planted_x3c(rng, q, n):
    elements = rng.sample(range(3 * q), 3 * q)
    triplets = [tuple(elements[3 * i:3 * i + 3]) for i in range(q)]
    triplets += [tuple(rng.sample(range(3 * q), 3)) for _ in range(n - q)]
    rng.shuffle(triplets)
    return X3CInstance(3 * q, tuple(triplets))


def _coverless_x3c(rng, q, n):
    while solve_x3c(x3c := _random_x3c(rng, q, n)) is not None:
        pass
    return x3c


def _assert_same_witness(reduced):
    witness = nddef_search_reduced(reduced)
    reference = forward_checking_search(reduced)
    assert (witness is None) == (reference is None)
    if witness is not None:
        assert witness.bundles == reference.bundles


def _assert_dropped_pairs_are_unused(reduced):
    kept = root_filter(reduced)
    if kept is None:
        assert forward_checking_search(reduced) is None
        return
    for agent, k in np.argwhere(~kept).tolist():
        assert forward_checking_search(reduced, pinned=(agent, k)) is None, (agent, k)


@settings(max_examples=60, deadline=None)
@given(x3c_instances())
def test_filtered_search_returns_the_forward_checking_witness(x3c):
    _assert_same_witness(reduce_x3c(x3c))


@pytest.mark.parametrize(
    "instances",
    [
        pytest.param(
            _seeded(_planted_x3c, 41, [(2, 4), (3, 4), (3, 5)] * 10)
            + _seeded(_coverless_x3c, 42, [(2, 4), (3, 4), (3, 5)] * 10),
            id="planted_and_coverless",
        ),
        pytest.param(
            _seeded(_random_shaped, 43, [(agents,) for agents in (3, 4, 5, 6)] * 20),
            id="random_shaped",
        ),
    ],
)
def test_filtered_search_returns_the_forward_checking_witness_seeded(instances):
    # The root filter skips only subtrees without an envy-free allocation,
    # and the branching order comes from the unfiltered domains, so the
    # first allocation found is the reference's, byte for byte.
    for case in instances:
        _assert_same_witness(case if isinstance(case, ReducedInstance) else reduce_x3c(case))


@settings(max_examples=30, deadline=None)
@given(x3c_instances())
def test_root_filter_drops_only_unused_pairs(x3c):
    _assert_dropped_pairs_are_unused(reduce_x3c(x3c))


def test_root_filter_drops_only_unused_pairs_seeded():
    # Shapes of at most nine agents, where pinning every dropped pair in
    # the reference stays cheap.
    cases = (
        _seeded(_planted_x3c, 44, [(2, 3), (3, 3)] * 5)
        + _seeded(_coverless_x3c, 45, [(2, 3), (3, 3)] * 5)
    )
    for x3c in cases:
        _assert_dropped_pairs_are_unused(reduce_x3c(x3c))
    for reduced in _seeded(_random_shaped, 46, [(agents,) for agents in (4, 6, 9)] * 10):
        _assert_dropped_pairs_are_unused(reduced)


def test_structured_search_on_coverless_three_five():
    # Uniform (3,5) instances until twenty coverless ones, each of which the
    # search must exhaust.
    rng = random.Random(35)
    coverless = 0
    while coverless < 20:
        x3c = _random_x3c(rng, 3, 5)
        cover = solve_x3c(x3c)
        witness = nddef_search_reduced(reduce_x3c(x3c))
        assert (cover is None) == (witness is None), x3c
        coverless += cover is None


def test_structured_search_requires_reduced_shape():
    lopsided = ReducedInstance(
        Instance(ItemKind.GOODS, (Ranking((0, 1, 2)), Ranking((1, 0, 2)))),
        (), (), (), (),
    )
    with pytest.raises(ValueError):
        nddef_search_reduced(lopsided)


def test_cover_always_yields_envy_free_allocation():
    rng = random.Random(30)
    produced = 0
    while produced < 25:
        q = rng.randint(1, 2)
        n = rng.randint(q, 3)
        triples = tuple(
            tuple(rng.sample(range(3 * q), 3)) for _ in range(n)
        )
        x3c = X3CInstance(3 * q, triples)
        if solve_x3c(x3c) is None:
            continue
        produced += 1
        reduced = reduce_x3c(x3c)
        witness = nddef_search_reduced(reduced)
        assert witness is not None
        assert check_envy_free(witness, reduced.instance, RelationKind.NDD).result


#: SHA-256 of the orders of reduce_x3c's rankings and of the witness of
#: nddef_search_reduced on golden_x3c_instances(), recorded before the
#: reduction built its orders from shared blocks and the search read its
#: levels from Ranking.levels.
REDUCTION_SHA256 = "d04f32a4a609c901b3b975bb745099911e653f0a3fac2207f644a6a251c27f6d"


def golden_x3c_instances():
    """12 seeded instances per (kind, q, n), q = 1..3, n = q..q+3: uniform
    random triples, and planted covers shuffled in with random triples."""
    for draw in (_random_x3c, _planted_x3c):
        for q in range(1, 4):
            for n in range(q, q + 4):
                rng = random.Random(f"reduction/{draw.__name__}/{q}/{n}")
                for _ in range(12):
                    yield draw(rng, q, n)


def test_reduction_and_search_match_their_golden_outputs():
    digest = hashlib.sha256()
    for x3c in golden_x3c_instances():
        reduced = reduce_x3c(x3c)
        witness = nddef_search_reduced(reduced)
        digest.update(repr((
            [r.order for r in reduced.instance.rankings],
            None if witness is None else witness.bundles,
        )).encode())
    assert digest.hexdigest() == REDUCTION_SHA256


def arc_consistent_by_sets(ok):
    """``_arc_consistent`` from its docstring, on sets: drop b's item j while
    some agent c keeps no item k with ok[c, k, b, j], until nothing changes."""
    agents = range(len(ok))
    kept = {(b, j) for b in agents for j in agents}
    while True:
        answered = {
            (b, j) for b, j in kept
            if all(any((c, k) in kept and ok[c, k, b, j] for k in agents) for c in agents)
        }
        if answered == kept:
            break
        kept = answered
    if {b for b, _ in kept} != set(agents) or {j for _, j in kept} != set(agents):
        return None
    return kept


def _assert_arc_consistent_by_sets(ok):
    kept, reference = _arc_consistent(ok), arc_consistent_by_sets(ok)
    assert (kept is None) == (reference is None)
    if kept is not None:
        assert kept.dtype == bool and kept.shape == (len(ok), len(ok))
        assert set(map(tuple, np.argwhere(kept).tolist())) == reference


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8), st.floats(0.3, 1.0), st.integers(0, 2**32 - 1),
    st.sampled_from(["all", "agent", "item"]),
)
def test_arc_consistent_matches_its_definition(agents, density, seed, leave_out):
    rng = np.random.default_rng(seed)
    ok = rng.random((agents,) * 4) < density
    # Leave one agent without answers from anyone, or one item held by no one.
    if leave_out == "agent":
        ok[:, :, rng.integers(agents), :] = False
    elif leave_out == "item":
        ok[:, :, :, rng.integers(agents)] = False
    _assert_arc_consistent_by_sets(ok)


def test_arc_consistent_matches_its_definition_at_21_agents():
    # The tables of seven-triple reductions (the first keeps 315 of 441
    # pairs, the other two refute), and a random table of the same size
    # that keeps 408.
    rng = random.Random(21)
    for x3c in (_planted_x3c(rng, 3, 7), _random_x3c(rng, 3, 7), _random_x3c(rng, 4, 7)):
        _assert_arc_consistent_by_sets(tolerance_table(reduce_x3c(x3c)))
    _assert_arc_consistent_by_sets(np.random.default_rng(21).random((21,) * 4) < 0.25)
