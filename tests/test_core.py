"""Domain types: rankings, bundles, utilities, classification."""

import math
from fractions import Fraction

import pytest

from dimdiff.core import (
    Allocation,
    Instance,
    ItemKind,
    MultiBundle,
    Ranking,
    UtilityFunction,
    binary_threshold_utility,
    borda_utility,
    classify_dd,
    classify_id,
    lexicographic_utility,
)

from conftest import by_levels, level_ranking, mb


def test_ranking_levels():
    r = Ranking((2, 0, 1))
    assert r.level(2) == 3 and r.level(0) == 2 and r.level(1) == 1
    assert r.best == 2 and r.worst == 1
    assert r.reversed().order == (1, 0, 2)
    assert r.worst_items(2) == {0, 1}


def test_ranking_validation():
    with pytest.raises(ValueError):
        Ranking((0, 0, 1))
    with pytest.raises(ValueError):
        Ranking((1, 2, 3))
    with pytest.raises(ValueError):
        Ranking(())
    with pytest.raises(KeyError):
        Ranking((0, 1)).level(5)


def test_reversed_ranking_is_built_once():
    r = Ranking((2, 0, 1))
    flipped = r.reversed()
    assert flipped is r.reversed()
    assert flipped.reversed() == r and flipped.level(1) == 3
    # The cached inverse takes no part in equality, hashing or the repr.
    assert r == Ranking((2, 0, 1)) and hash(r) == hash(Ranking((2, 0, 1)))
    assert repr(r) == "Ranking(order=(2, 0, 1))"


def test_multibundle_basics():
    b = MultiBundle.from_items([3, 1, 3])
    assert b.size == 3
    assert b.counts == ((1, 1), (3, 2))
    assert b.scaled(2).size == 6
    assert b.levels(Ranking((3, 2, 1, 0))) == [4, 4, 2]
    with pytest.raises(KeyError):
        mb(9).levels(Ranking((3, 2, 1, 0)))
    with pytest.raises(ValueError):
        MultiBundle(((0, 0),))
    with pytest.raises(ValueError):
        MultiBundle(((-1, 1),))
    with pytest.raises(ValueError):
        b.scaled(0)


def test_allocation_partition():
    alloc = Allocation(((1, 0), (2,), ()))
    assert alloc.is_partition_of(3)
    assert not alloc.is_partition_of(4)
    assert alloc.bundle(0).size == 2 and alloc.bundle(2).size == 0
    with pytest.raises(ValueError):
        Allocation(((0, 1), (1,)))


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(ItemKind.GOODS, ())
    with pytest.raises(ValueError):
        Instance(ItemKind.GOODS, (Ranking((0, 1)), Ranking((0, 1, 2))))
    inst = Instance(ItemKind.GOODS, (Ranking((0, 1)), Ranking((1, 0))))
    assert inst.agent_count == 2 and inst.item_count == 2
    assert inst.full_bundle().size == 2


# --- utilities --------------------------------------------------------------

def test_utility_of_worked_examples(eight_items):
    u_square = UtilityFunction.from_level_function(eight_items, lambda lev: lev * lev)
    assert u_square.of(by_levels(8, 4, 2)) == 84
    assert u_square.of(by_levels(7, 6)) == 85
    assert u_square.of(MultiBundle(())) == 0

    u_sqrt = UtilityFunction.from_level_function(eight_items, math.sqrt)
    assert u_sqrt.of(by_levels(8, 5)) == pytest.approx(5.06, abs=1e-2)
    assert u_sqrt.of(by_levels(7, 6)) == pytest.approx(5.09, abs=1e-2)


def test_utility_multiplicity_and_errors(eight_items):
    u = borda_utility(eight_items)
    assert u.of(by_levels(3).scaled(4)) == 12
    with pytest.raises(KeyError):
        u.value(8)
    with pytest.raises(KeyError):
        u.of(mb(42))


def test_classification_families(eight_items):
    m = eight_items.item_count
    assert classify_dd(borda_utility(eight_items), eight_items)
    assert classify_dd(lexicographic_utility(eight_items), eight_items)
    # Negated under the reversed ranking, the same families are chore utilities.
    assert classify_id(-borda_utility(eight_items.reversed()), eight_items)
    assert classify_id(-lexicographic_utility(eight_items.reversed()), eight_items)
    # An arithmetic progression has both properties; their intersection.
    linear = UtilityFunction.from_level_function(eight_items, lambda lev: 3 * lev + 1)
    assert classify_dd(linear, eight_items) and classify_id(linear, eight_items)
    # Square has growing gaps toward the top, sqrt the opposite.
    square = UtilityFunction.from_level_function(eight_items, lambda lev: lev * lev)
    root = UtilityFunction.from_level_function(eight_items, math.sqrt)
    assert classify_dd(square, eight_items) and not classify_id(square, eight_items)
    assert classify_id(root, eight_items) and not classify_dd(root, eight_items)
    # Inconsistent values never classify.
    assert not classify_dd(UtilityFunction((1,) * m), eight_items)


def test_classify_binary(eight_items):
    for k in range(1, 9):
        u = binary_threshold_utility(eight_items, k)
        assert u.of(by_levels(8, 4, 2)) == sum(1 for lev in (8, 4, 2) if lev >= k)
    with pytest.raises(ValueError):
        binary_threshold_utility(eight_items, 0)


def test_float_tolerance_in_classification():
    r = level_ranking(4)
    # Exactly linear up to 1e-15 noise: still counts as both DD and ID.
    u = UtilityFunction((1.0, 2.0, 3.0 + 1e-15, 4.0))
    assert classify_dd(u, r) and classify_id(u, r)
    exact = UtilityFunction((Fraction(1), Fraction(2), Fraction(3), Fraction(5)))
    assert classify_dd(exact, r) and not classify_id(exact, r)

