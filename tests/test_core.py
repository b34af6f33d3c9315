"""Domain types: rankings, bundles, utilities, classification."""

import math
import random
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


def test_float_classification_is_exact():
    r = level_ranking(4)
    # Linear up to 1e-15 noise is linear no longer: the gaps 1 - 1e-15,
    # 1 + 1e-15 and 1 are compared exactly, so the utility is neither DD nor ID.
    u = UtilityFunction((1.0, 2.0, 3.0 + 1e-15, 4.0))
    assert not classify_dd(u, r) and not classify_id(u, r)
    assert classify_dd(UtilityFunction((1.0, 2.0, 3.0, 4.0)), r)
    exact = UtilityFunction((Fraction(1), Fraction(2), Fraction(3), Fraction(5)))
    assert classify_dd(exact, r) and not classify_id(exact, r)
    # The doubles nearest 0.1, 0.2 and 0.3 have 0.1 - 2 * 0.2 + 0.3 < 0
    # exactly, so they have increasing differences only; as Fractions they
    # are linear, so both.
    three = level_ranking(3)
    decimal = UtilityFunction((0.1, 0.2, 0.3))
    assert classify_id(decimal, three) and not classify_dd(decimal, three)
    tenths = UtilityFunction((Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)))
    assert classify_dd(tenths, three) and classify_id(tenths, three)


def exact_sign(utility, plus, minus):
    total = sum(Fraction(utility.values[i]) for i in plus) - sum(
        Fraction(utility.values[i]) for i in minus
    )
    return (total > 0) - (total < 0)


def test_compare_agrees_with_fraction_arithmetic():
    rng = random.Random(21)
    draws = (
        lambda: rng.uniform(-2.0, 2.0),
        lambda: rng.choice((0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1e-300, 5e-324, 1e300)),
        lambda: rng.randint(-5, 5),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )
    for trial in range(3000):
        m = rng.randint(1, 6)
        if trial % 3 == 0:  # floats only, the fsum path
            values = [rng.choice(draws[:2])() for _ in range(m)]
        else:
            values = [rng.choice(draws)() for _ in range(m)]
        u = UtilityFunction(values)
        plus = [rng.randrange(m) for _ in range(rng.randint(0, 6))]
        minus = [rng.randrange(m) for _ in range(rng.randint(0, 6))]
        assert u.compare(plus, minus) == exact_sign(u, plus, minus)
        assert u.compare(minus, plus) == -u.compare(plus, minus)
    # Decimal-looking ties: the doubles hold 0.3 + 0.1 + 0.2 > 2 * 0.3 and
    # 0.1 + 0.4 + 0.5 > 2 * 0.5, while as Fractions both tie.
    for values, own in (((0.3, 0.1, 0.2), 0), ((0.1, 0.4, 0.5), 2)):
        u = UtilityFunction(values)
        assert u.compare((own, own), (0, 1, 2)) == -1 == exact_sign(u, (own, own), (0, 1, 2))
        tenths = UtilityFunction([Fraction(str(v)) for v in values])
        assert tenths.compare((own, own), (0, 1, 2)) == 0
    # Partial sums beyond the float range are still decided exactly.
    huge = UtilityFunction((1.5e308, 1.5e308, 1e-300))
    assert huge.compare((0, 1), (0, 1, 2)) == -1 == exact_sign(huge, (0, 1), (0, 1, 2))
    assert huge.compare((0, 1, 2), (0, 1)) == 1


def test_utility_refuses_nan_and_inf():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            UtilityFunction((bad, 1.0))
        with pytest.raises(ValueError):
            UtilityFunction((Fraction(1), bad))
    assert UtilityFunction((1.0, Fraction(1, 3), 2)).values == (1.0, Fraction(1, 3), 2)

