"""Relation checkers, the cone-generator oracle, and utility refuters."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dimdiff.core import MultiBundle, Ranking, classify_dd, classify_id
from dimdiff.extensions import (
    RelationKind,
    holds,
    ndd_generator_oracle,
    refuting_utility,
    relation_holds,
    sample_consistent_utility,
    sample_dd_utility,
    sample_id_utility,
    sampled_utility_refuter,
    share_holds,
    threshold_counts,
)

from conftest import by_levels, level_ranking, mb

GOODS_CHAIN = (RelationKind.NEC, RelationKind.NDD, RelationKind.PDD, RelationKind.POS)


def multibundles(max_items: int, max_multiplicity: int = 2):
    return st.dictionaries(
        st.integers(0, max_items - 1), st.integers(1, max_multiplicity), max_size=max_items
    ).map(MultiBundle.from_counts)


def rankings(item_count: int):
    return st.permutations(range(item_count)).map(lambda p: Ranking(tuple(p)))


# --- worked examples --------------------------------------------------------

def test_ndd_examples(eight_items):
    assert not holds(RelationKind.NDD, by_levels(8, 4, 2), by_levels(7, 6), eight_items)
    assert holds(RelationKind.NDD, by_levels(8, 5), by_levels(7, 6), eight_items)
    assert not holds(RelationKind.NEC, by_levels(8, 5), by_levels(7, 6), eight_items)


def test_pdd_doubled_bundle_example():
    # Six identically ranked items; the level-4,3,2 bundle doubled never
    # catches the full set on any condition.
    ranking = level_ranking(6)
    doubled = by_levels(4, 3, 2).scaled(2)
    everything = MultiBundle.from_items(range(6))
    assert not holds(RelationKind.PDD, doubled, everything, ranking)
    assert holds(RelationKind.POS, doubled, everything, ranking)


def test_nid_chore_example():
    ranking = Ranking((0, 1, 2))  # x > y > z
    tripled_middle = MultiBundle.from_items([1]).scaled(3)
    everything = MultiBundle.from_items(range(3))
    assert holds(RelationKind.NID, tripled_middle, everything, ranking)
    assert not holds(RelationKind.NID, MultiBundle.from_items([2]).scaled(3), everything, ranking)


@pytest.mark.parametrize("kind", list(RelationKind))
def test_reflexivity(kind, eight_items):
    x = by_levels(8, 4, 2)
    assert holds(kind, x, x, eight_items)
    empty = MultiBundle(())
    assert holds(kind, empty, empty, eight_items)


def test_threshold_counts(eight_items):
    counts = threshold_counts(by_levels(8, 4, 2).scaled(2).levels(eight_items), 8)
    assert counts == [6, 6, 4, 4, 2, 2, 2, 2]


# --- structural properties --------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_goods_implication_chain(data):
    m = data.draw(st.integers(1, 7))
    ranking = data.draw(rankings(m))
    x = data.draw(multibundles(m))
    y = data.draw(multibundles(m))
    results = [holds(kind, x, y, ranking) for kind in GOODS_CHAIN]
    for stronger, weaker in zip(results, results[1:]):
        assert not stronger or weaker


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reversal_property(data):
    m = data.draw(st.integers(1, 7))
    ranking = data.draw(rankings(m))
    x = data.draw(multibundles(m))
    y = data.draw(multibundles(m))
    assert holds(RelationKind.NID, x, y, ranking) == holds(
        RelationKind.NDD, y, x, ranking.reversed()
    )
    assert holds(RelationKind.PID, x, y, ranking) == holds(
        RelationKind.PDD, y, x, ranking.reversed()
    )


def test_two_agent_share_identities():
    # The two identities nidpr_two_agents rests on, for every subset X of
    # the levels M..1 with complement Y: (a) with two agents
    # 2u(X) >= u(M) iff u(X) >= u(Y), so proportionality is envy-freeness
    # under every relation; (b) X is NID-proportional iff Y beats X under
    # NDD on mirrored levels M + 1 - level.
    def mirror(levels, m):
        return [m + 1 - level for level in reversed(levels)]

    for m in range(1, 10):
        for mask in range(1 << m):
            x = [level for level in range(m, 0, -1) if mask >> (level - 1) & 1]
            y = [level for level in range(m, 0, -1) if not mask >> (level - 1) & 1]
            for kind in RelationKind:
                assert share_holds(kind, x, 2, m) == relation_holds(kind, x, y, m)
            assert share_holds(RelationKind.NID, x, 2, m) == relation_holds(
                RelationKind.NDD, mirror(y, m), mirror(x, m), m
            )


@pytest.mark.parametrize("kind", [RelationKind.NID, RelationKind.PID])
def test_unknown_item_in_a_chores_relation_is_a_key_error(kind):
    ranking = Ranking((0, 1, 2))
    known = MultiBundle.from_items([0, 1])
    ranking.reversed()  # cached: the lookup must still be bounds-checked
    for x, y in ((MultiBundle.from_items([5]), known), (known, MultiBundle.from_items([3]))):
        with pytest.raises(KeyError):
            holds(kind, x, y, ranking)


def test_nid_direct_form_matches_reversal():
    # Direct statement: fewer chores, and every worst-k prefix level of x
    # weakly dominates y's, for k up to |x|.
    rng = random.Random(3)
    for _ in range(400):
        m = rng.randint(1, 7)
        ranking = Ranking(tuple(rng.sample(range(m), m)))
        x = MultiBundle.from_items(rng.choices(range(m), k=rng.randint(0, m)))
        y = MultiBundle.from_items(rng.choices(range(m), k=rng.randint(0, m)))
        lx = x.levels(ranking)[::-1]
        ly = y.levels(ranking)[::-1]
        direct = len(lx) <= len(ly) and all(
            sum(lx[: k + 1]) >= sum(ly[: k + 1]) for k in range(len(lx))
        )
        assert direct == holds(RelationKind.NID, x, y, ranking)


def test_binary_equivalence_small_exhaustive():
    for m in range(1, 5):
        ranking = level_ranking(m)
        pool = [
            MultiBundle.from_counts({i: c for i, c in enumerate(counts) if c})
            for counts in itertools.product(range(3), repeat=m)
        ]
        for x in pool:
            for y in pool:
                assert holds(RelationKind.NEC, x, y, ranking) == holds(
                    RelationKind.NBIN, x, y, ranking
                )
                assert holds(RelationKind.POS, x, y, ranking) == holds(
                    RelationKind.PBIN, x, y, ranking
                )


# --- generator oracle -------------------------------------------------------

def test_generator_oracle_examples(eight_items):
    assert ndd_generator_oracle(by_levels(8, 5), by_levels(7, 6), eight_items)
    assert not ndd_generator_oracle(by_levels(8, 4, 2), by_levels(7, 6), eight_items)
    x = by_levels(8, 4, 2)
    assert ndd_generator_oracle(x, x, eight_items)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_generator_oracle_agrees_with_ndd(data):
    m = data.draw(st.integers(1, 7))
    ranking = data.draw(rankings(m))
    x = data.draw(multibundles(m, 3))
    y = data.draw(multibundles(m, 3))
    assert ndd_generator_oracle(x, y, ranking) == holds(RelationKind.NDD, x, y, ranking)


# --- explicit refuting constructions ---------------------------------------

def assert_refuter_exact(x, y, ranking):
    """For NEC, NDD and NID: a witness exactly when the relation fails, in the
    relation's class, with the right sign, valuing x strictly below y."""
    for kind in (RelationKind.NDD, RelationKind.NEC, RelationKind.NID):
        witness = refuting_utility(kind, x, y, ranking)
        assert (witness is None) == holds(kind, x, y, ranking)
        if witness is None:
            continue
        assert witness.of(x) < witness.of(y)
        if kind is RelationKind.NDD:
            assert classify_dd(witness, ranking) and min(witness.values) > 0
        elif kind is RelationKind.NID:
            assert classify_id(witness, ranking) and max(witness.values) < 0
        else:
            assert witness.is_consistent_with(ranking) and min(witness.values) > 0


def test_refuting_utilities_sound_and_complete_small():
    for m in range(1, 5):
        ranking = Ranking(tuple(range(m - 1, -1, -1)))
        pool = [
            MultiBundle.from_counts({i: c for i, c in enumerate(counts) if c})
            for counts in itertools.product(range(3), repeat=m)
        ]
        for x in pool:
            for y in pool:
                assert_refuter_exact(x, y, ranking)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_refuting_utilities_sound_and_complete_at_scale(data):
    # Beyond the exhaustive pool: up to 8 items, multiplicities up to 4, and
    # the n-times-copied bundle against the full set that check_proportional
    # compares.
    m = data.draw(st.integers(5, 8))
    ranking = data.draw(rankings(m))
    assert_refuter_exact(
        data.draw(multibundles(m, 4)), data.draw(multibundles(m, 4)), ranking
    )
    n = data.draw(st.integers(1, 4))
    share = MultiBundle.from_items(data.draw(st.sets(st.integers(0, m - 1))))
    assert_refuter_exact(share.scaled(n), MultiBundle.from_items(range(m)), ranking)


def test_refuting_utility_unsupported_kind(eight_items):
    with pytest.raises(ValueError):
        refuting_utility(RelationKind.PDD, mb(0), mb(1), eight_items)


def test_size_case_construction_is_cardinality_dominant():
    # With fewer items, the flat offset utility always refutes.
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randint(2, 8)
        ranking = Ranking(tuple(rng.sample(range(m), m)))
        ys = rng.sample(range(m), rng.randint(2, m))
        xs = rng.sample(range(m), rng.randint(1, len(ys) - 1))
        x, y = MultiBundle.from_items(xs), MultiBundle.from_items(ys)
        witness = refuting_utility(RelationKind.NDD, x, y, ranking)
        assert witness is not None and witness.of(x) < witness.of(y)
        offset = m * y.size
        assert all(v > offset for v in witness.values)


# --- sampled refuter --------------------------------------------------------

def test_sampled_refuter_finds_square_style_witness(eight_items):
    witness = sampled_utility_refuter(
        RelationKind.NDD, by_levels(8, 4, 2), by_levels(7, 6), eight_items,
        samples=500, seed=0,
    )
    assert witness is not None
    assert witness.of(by_levels(8, 4, 2)) < witness.of(by_levels(7, 6))
    assert classify_dd(witness, eight_items)


def test_sampled_refuter_none_on_equal(eight_items):
    x = by_levels(8, 4, 2)
    assert sampled_utility_refuter(RelationKind.NDD, x, x, eight_items, 50, 1) is None


def test_sampled_refuter_nbin_is_exact(eight_items):
    x, y = by_levels(8, 5), by_levels(7, 6)
    witness = sampled_utility_refuter(RelationKind.NBIN, x, y, eight_items, 1, 0)
    assert witness is not None and witness.of(x) < witness.of(y)
    assert sampled_utility_refuter(RelationKind.NBIN, y, y, eight_items, 1, 0) is None


def test_sampled_refuter_validation(eight_items):
    with pytest.raises(ValueError):
        sampled_utility_refuter(RelationKind.NDD, mb(0), mb(1), eight_items, 0, 0)
    with pytest.raises(ValueError):
        sampled_utility_refuter(RelationKind.PDD, mb(0), mb(1), eight_items, 5, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sampled_refuter_soundness(data):
    m = data.draw(st.integers(1, 6))
    ranking = data.draw(rankings(m))
    x = data.draw(multibundles(m))
    y = data.draw(multibundles(m))
    for kind in (RelationKind.NDD, RelationKind.NEC, RelationKind.NID, RelationKind.NBIN):
        if holds(kind, x, y, ranking):
            assert sampled_utility_refuter(kind, x, y, ranking, 300, 7) is None


def test_samplers_land_in_their_classes():
    rng = random.Random(9)
    for m in (1, 2, 5, 9):
        ranking = Ranking(tuple(rng.sample(range(m), m)))
        for _ in range(30):
            assert classify_dd(sample_dd_utility(ranking, rng), ranking)
            chores = sample_id_utility(ranking, rng)
            assert classify_id(chores, ranking) and max(chores.values) < 0
            assert sample_consistent_utility(ranking, rng).is_consistent_with(ranking)
