"""Domain types for ordinal fair division: rankings, bundles, allocations, utilities.

Items are dense integer identifiers ``0..M-1``.  A ranking induces integer
levels (Borda scores): the best item has level ``M``, the worst has level 1.
Levels are always derived from a ranking, never stored on items, so the same
bundle can be re-leveled under any agent's ranking.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import fsum, isfinite
from typing import Callable, Iterable, Mapping, Optional, Union

Value = Union[int, Fraction, float]


class ItemKind(Enum):
    GOODS = "goods"
    CHORES = "chores"


@dataclass(frozen=True)
class Ranking:
    """A strict total order over items ``0..M-1``, best item first.

    ``levels[item]`` is the item's level, as :meth:`level` returns it
    without the range check.
    """

    order: tuple[int, ...]
    levels: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _reversed: Optional[Ranking] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        order = tuple(self.order)
        object.__setattr__(self, "order", order)
        m = len(order)
        if m == 0:
            raise ValueError("ranking must contain at least one item")
        if sorted(order) != list(range(m)):
            raise ValueError(f"ranking {order!r} is not a permutation of 0..{m - 1}")
        levels = [0] * m
        for position, item in enumerate(order):
            levels[item] = m - position
        object.__setattr__(self, "levels", tuple(levels))

    @property
    def item_count(self) -> int:
        return len(self.order)

    @property
    def best(self) -> int:
        return self.order[0]

    @property
    def worst(self) -> int:
        return self.order[-1]

    def level(self, item: int) -> int:
        """Level of ``item``: ``M`` for the best item down to 1 for the worst."""
        if not 0 <= item < len(self.order):
            raise KeyError(f"unknown item {item!r}")
        return self.levels[item]

    def worst_items(self, count: int) -> frozenset[int]:
        """The ``count`` least-preferred items."""
        if count == 0:
            return frozenset()
        return frozenset(self.order[-count:])

    def reversed(self) -> Ranking:
        """The inverse order: the worst item becomes the best (built once)."""
        if self._reversed is None:
            object.__setattr__(self, "_reversed", Ranking(tuple(reversed(self.order))))
        return self._reversed


@dataclass(frozen=True)
class MultiBundle:
    """A multiset of items; the unit compared by every bundle relation.

    ``counts`` holds (item, multiplicity) pairs, item-sorted, multiplicities
    strictly positive.  The empty bundle is allowed.
    """

    counts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        counts = tuple(sorted((int(i), int(c)) for i, c in self.counts))
        object.__setattr__(self, "counts", counts)
        seen: set[int] = set()
        for item, count in counts:
            if item < 0:
                raise ValueError(f"negative item identifier {item}")
            if count < 1:
                raise ValueError(f"multiplicity of item {item} must be >= 1, got {count}")
            if item in seen:
                raise ValueError(f"duplicate entry for item {item}")
            seen.add(item)

    @classmethod
    def from_items(cls, items: Iterable[int]) -> MultiBundle:
        counts: dict[int, int] = {}
        for item in items:
            counts[item] = counts.get(item, 0) + 1
        return cls(tuple(counts.items()))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> MultiBundle:
        return cls(tuple(counts.items()))

    @property
    def size(self) -> int:
        return sum(c for _, c in self.counts)

    def scaled(self, factor: int) -> MultiBundle:
        """The multi-bundle holding ``factor`` copies of every item here."""
        if factor < 1:
            raise ValueError("scaling factor must be >= 1")
        return MultiBundle(tuple((i, c * factor) for i, c in self.counts))

    def levels(self, ranking: Ranking) -> list[int]:
        """Item levels with multiplicity, best-first."""
        out = [ranking.level(item) for item, count in self.counts for _ in range(count)]
        out.sort(reverse=True)
        return out


@dataclass(frozen=True)
class Allocation:
    """A partition of the item set into per-agent bundles (possibly empty)."""

    bundles: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        bundles = tuple([tuple(sorted(b)) for b in self.bundles])
        object.__setattr__(self, "bundles", bundles)
        if len(set().union(*bundles)) < sum(map(len, bundles)):
            seen: set[int] = set()
            for bundle in bundles:
                for item in bundle:
                    if item in seen:
                        raise ValueError(f"item {item} assigned to more than one agent")
                    seen.add(item)

    @classmethod
    def from_lists(cls, bundles: Iterable[Iterable[int]]) -> Allocation:
        return cls(tuple(bundles))

    @property
    def agent_count(self) -> int:
        return len(self.bundles)

    def bundle(self, agent: int) -> MultiBundle:
        return MultiBundle.from_items(self.bundles[agent])

    def is_partition_of(self, item_count: int) -> bool:
        # The bundles are disjoint (checked at construction).
        return set().union(*self.bundles) == set(range(item_count))


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: item kind plus one strict ranking per agent."""

    kind: ItemKind
    rankings: tuple[Ranking, ...]
    agent_count: int = field(init=False, repr=False, compare=False)
    item_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rankings = tuple(self.rankings)
        object.__setattr__(self, "rankings", rankings)
        if not rankings:
            raise ValueError("an instance needs at least one agent")
        m = rankings[0].item_count
        if any(r.item_count != m for r in rankings):
            raise ValueError("all rankings must order the same item set")
        object.__setattr__(self, "agent_count", len(rankings))
        object.__setattr__(self, "item_count", m)

    def full_bundle(self) -> MultiBundle:
        """One copy of every item."""
        return MultiBundle.from_items(range(self.item_count))


@dataclass(frozen=True)
class UtilityFunction:
    """An additive item-utility function, dense over items ``0..M-1``.

    Values are ints, Fractions or finite floats; NaN and +-inf raise
    ``ValueError``.  Verdicts read a float as the exact binary value it
    holds, so 0.1 + 0.4 > 0.5 (see :meth:`compare`); Fractions give decimal
    ties.
    """

    values: tuple[Value, ...]
    _float_only: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        floats = [v for v in values if isinstance(v, float)]
        if not all(map(isfinite, floats)):
            raise ValueError(f"utility values must be finite, got {values!r}")
        object.__setattr__(self, "_float_only", len(floats) == len(values))

    def value(self, item: int) -> Value:
        if not 0 <= item < len(self.values):
            raise KeyError(f"no utility value for item {item!r}")
        return self.values[item]

    def of(self, bundle: MultiBundle) -> Value:
        """Utility of a multi-bundle: the multiplicity-weighted sum."""
        return sum(count * self.value(item) for item, count in bundle.counts)

    def compare(self, plus: Iterable[int], minus: Iterable[int]) -> int:
        """The exact sign (1, 0 or -1) of u(plus) - u(minus).

        ``plus`` and ``minus`` list items; an item listed k times counts k
        times.  On floats alone this is the sign of one ``math.fsum``, which
        rounds the exact sum once and so keeps its sign.  Otherwise every
        value is read as a Fraction, a float as its exact binary value.
        """
        values = self.values
        terms = [values[i] for i in plus] + [-values[i] for i in minus]
        try:
            total = fsum(terms) if self._float_only else sum(map(Fraction, terms))
        except OverflowError:  # a partial float sum left the float range
            total = sum(map(Fraction, terms))
        return int(total > 0) - int(total < 0)  # numpy values compare to numpy bools

    def __neg__(self) -> UtilityFunction:
        """The mirrored utility: goods valuations become chores and back."""
        return UtilityFunction(tuple(-v for v in self.values))

    def is_consistent_with(self, ranking: Ranking) -> bool:
        """Strict consistency: better-ranked items have strictly larger values."""
        values, order = self.values, ranking.order
        return all(values[better] > values[worse] for better, worse in zip(order, order[1:]))

    @classmethod
    def from_level_function(cls, ranking: Ranking, fn: Callable[[int], Value]) -> UtilityFunction:
        """Build a utility from a function of the item's level."""
        return cls(tuple(fn(ranking.level(item)) for item in range(ranking.item_count)))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify_dd(utility: UtilityFunction, ranking: Ranking) -> bool:
    """True iff the utility is consistent and has diminishing differences.

    Diminishing differences: for consecutive levels the gap at the top is at
    least the gap immediately below it, that is a - 2b + c >= 0 for the
    values of every three consecutive items in rank order.  Decided exactly
    by :meth:`UtilityFunction.compare`, with no tolerance.
    """
    if not utility.is_consistent_with(ranking):
        return False
    order = ranking.order
    return all(
        utility.compare((better, worse), (middle, middle)) >= 0
        for better, middle, worse in zip(order, order[1:], order[2:])
    )


def classify_id(utility: UtilityFunction, ranking: Ranking) -> bool:
    """True iff the utility is consistent and has increasing differences.

    The chore-side mirror of :func:`classify_dd`: ``u`` has increasing
    differences under a ranking exactly when ``-u`` has diminishing
    differences under the reversed ranking.
    """
    return classify_dd(-utility, ranking.reversed())


# ---------------------------------------------------------------------------
# Common utility families
# ---------------------------------------------------------------------------

def borda_utility(ranking: Ranking) -> UtilityFunction:
    """u(item) = level(item); the canonical diminishing-differences utility."""
    return UtilityFunction.from_level_function(ranking, lambda lev: lev)


def lexicographic_utility(ranking: Ranking) -> UtilityFunction:
    """u(item) = 2^level(item); orders bundles lexicographically by best items."""
    return UtilityFunction.from_level_function(ranking, lambda lev: 1 << lev)


def binary_threshold_utility(ranking: Ranking, threshold: int) -> UtilityFunction:
    """u(item) = 1 if level(item) >= threshold else 0."""
    if not 1 <= threshold <= ranking.item_count:
        raise ValueError(f"threshold must be in 1..{ranking.item_count}")
    return UtilityFunction.from_level_function(
        ranking, lambda lev: 1 if lev >= threshold else 0
    )
