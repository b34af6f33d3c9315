"""Set-extension relations over multi-bundles, plus independent oracles.

Eight relations lift a single agent's item ranking to a partial order over
multi-bundles:

* ``NEC`` / ``POS`` - dominance for all / at least one additive utility
  consistent with the ranking;
* ``NDD`` / ``PDD`` - the same, restricted to diminishing-differences
  utilities (goods);
* ``NID`` / ``PID`` - the same, restricted to increasing-differences
  utilities (chores);
* ``NBIN`` / ``PBIN`` - the same, restricted to the M binary threshold
  utilities.

Each relation is defined once, as a function of the two bundles' levels
listed best-first with multiplicity and of M (:func:`relation_holds`);
:func:`holds` is the one adapter from multi-bundles, and
:func:`share_holds` the proportionality test of one bundle against the
full item set.  NID and PID are NDD and PDD on mirrored levels
``M + 1 - level`` with the roles of x and y swapped.  Every checker is exact
and runs in O(M) time after sorting bundle levels.
A failed NEC, NDD or NID comparison comes with one deterministic refuting
utility.  For NEC and NDD, when x has fewer items than y, it is the
cardinality offset ``M*|y| + level``.  Otherwise NDD uses the first failing
generator of the diminishing-differences cone, a hinge ``max(0, level - t)``,
and NEC a near-threshold utility.  NID negates the NDD refuter of y over x
under the reversed ranking.  The same hinge scan is the cone-generator
oracle that tests compare with the NDD checker.  A randomized sampler gives
a second refuter, sound but not complete.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .core import MultiBundle, Ranking, UtilityFunction, binary_threshold_utility


class RelationKind(Enum):
    NEC = "nec"
    POS = "pos"
    NDD = "ndd"
    PDD = "pdd"
    NID = "nid"
    PID = "pid"
    NBIN = "nbin"
    PBIN = "pbin"


#: Relations whose utility classes consist of positive (goods) valuations.
GOODS_RELATIONS = frozenset(
    {RelationKind.NEC, RelationKind.POS, RelationKind.NDD, RelationKind.PDD,
     RelationKind.NBIN, RelationKind.PBIN}
)
#: Relations whose utility classes consist of negative (chores) valuations.
CHORES_RELATIONS = frozenset({RelationKind.NID, RelationKind.PID})
#: Relations whose proportionality / envy-freeness force equal bundle sizes
#: (their size condition makes unequal allocations infeasible outright).
EQUAL_SIZE_RELATIONS = frozenset(
    {RelationKind.NEC, RelationKind.NDD, RelationKind.NID, RelationKind.NBIN}
)


def holds(kind: RelationKind, x: MultiBundle, y: MultiBundle, ranking: Ranking) -> bool:
    """Exact truth value of ``x (weakly better than) y`` under the relation.

    The one adapter from multi-bundles to the relation layer below.
    """
    return _RELATIONS[kind](x.levels(ranking), y.levels(ranking), ranking.item_count)


# ---------------------------------------------------------------------------
# The relation layer: each relation over best-first level sequences
# ---------------------------------------------------------------------------

Levels = Sequence[int]


def relation_holds(kind: RelationKind, lx: Levels, ly: Levels, m: int) -> bool:
    """``x (weakly better than) y`` from the best-first levels of x and y."""
    return _RELATIONS[kind](lx, ly, m)


@lru_cache(maxsize=None)
def _full_levels(m: int) -> tuple[int, ...]:
    """The levels of the full item set, best-first: M, M-1, ..., 1."""
    return tuple(range(m, 0, -1))


def share_holds(kind: RelationKind, levels: Levels, copies: int, m: int) -> bool:
    """Does a bundle with these best-first levels, copied ``copies`` times,
    relate to the full item set?  The proportionality test of one bundle."""
    scaled = [level for level in levels for _ in range(copies)]
    return _RELATIONS[kind](scaled, _full_levels(m), m)


def _ndd(lx: Levels, ly: Levels, m: int) -> bool:
    # x is at least as large, and every top-k prefix level of x weakly
    # dominates y's.  Checked by accumulating the running level difference.
    if len(lx) < len(ly):
        return False
    total_diff = 0
    for level_x, level_y in zip(lx, ly):
        total_diff += level_x - level_y
        if total_diff < 0:
            return False
    return True


def _pdd(lx: Levels, ly: Levels, m: int) -> bool:
    # Holds when x is strictly larger, or some top-k prefix of x strictly
    # beats y's, or x's total level weakly dominates.  The total-level
    # condition is weak on purpose: at the boundary every diminishing-
    # differences utility can tie.
    if len(lx) > len(ly):
        return True
    total_diff = 0
    for level_x, level_y in zip(lx, ly):
        total_diff += level_x - level_y
        if total_diff > 0:
            return True
    return sum(lx) >= sum(ly)


def _nec(lx: Levels, ly: Levels, m: int) -> bool:
    # Responsive dominance: x is at least as large, and for every k the k-th
    # best item of x is ranked weakly above the k-th best item of y.
    if len(lx) < len(ly):
        return False
    return all(level_x >= level_y for level_x, level_y in zip(lx, ly))


def _strictly_count_dominates(ly: Levels, lx: Levels, m: int) -> bool:
    """True iff y beats x by a strict margin at every count threshold.

    Exactly then does every utility consistent with the ranking (and every
    limit of such utilities) value y strictly above x.  Pairwise form: y has
    strictly more items, y's best item has the top level, and y's (k+1)-th
    best item is ranked weakly above x's k-th best for every k.
    """
    if len(ly) < len(lx) + 1:
        return False
    if ly[0] != m:
        return False
    return all(ly[k + 1] >= lx[k] for k in range(len(lx)))


def _pos(lx: Levels, ly: Levels, m: int) -> bool:
    # Dual of the necessary relation: x is possibly as good as y unless y
    # strictly dominates x for the whole consistent-utility class.
    return not _strictly_count_dominates(ly, lx, m)


def _mirrored(levels: Levels, m: int) -> list[int]:
    """The same items' levels under the reversed ranking, best-first."""
    return [m + 1 - level for level in reversed(levels)]


def _nid(lx: Levels, ly: Levels, m: int) -> bool:
    # Increasing differences mirror diminishing differences under the
    # inverse ranking, with the bundle roles swapped.
    return _ndd(_mirrored(ly, m), _mirrored(lx, m), m)


def _pid(lx: Levels, ly: Levels, m: int) -> bool:
    return _pdd(_mirrored(ly, m), _mirrored(lx, m), m)


def threshold_counts(levels: Levels, m: int) -> list[int]:
    """``result[k-1]`` = number of levels >= k, for k = 1..M."""
    histogram = [0] * (m + 2)
    for level in levels:
        histogram[level] += 1
    suffix = [0] * (m + 1)
    running = 0
    for level in range(m, 0, -1):
        running += histogram[level]
        suffix[level] = running
    return suffix[1:]


def _nbin(lx: Levels, ly: Levels, m: int) -> bool:
    cx = threshold_counts(lx, m)
    cy = threshold_counts(ly, m)
    return all(a >= b for a, b in zip(cx, cy))


def _pbin(lx: Levels, ly: Levels, m: int) -> bool:
    cx = threshold_counts(lx, m)
    cy = threshold_counts(ly, m)
    return any(a >= b for a, b in zip(cx, cy))


_RELATIONS = {
    RelationKind.NEC: _nec,
    RelationKind.POS: _pos,
    RelationKind.NDD: _ndd,
    RelationKind.PDD: _pdd,
    RelationKind.NID: _nid,
    RelationKind.PID: _pid,
    RelationKind.NBIN: _nbin,
    RelationKind.PBIN: _pbin,
}


# ---------------------------------------------------------------------------
# The diminishing-differences cone: generator oracle and refuting utilities
# ---------------------------------------------------------------------------

def _first_failing_hinge(lx: list[int], ly: list[int], m: int) -> Optional[int]:
    """Smallest t in 1..M-1 whose hinge ``max(0, level - t)`` sums lower over
    the levels ``lx`` than over ``ly``; None when every hinge holds."""
    for t in range(1, m):
        hinge_x = sum(level - t for level in lx if level > t)
        hinge_y = sum(level - t for level in ly if level > t)
        if hinge_x < hinge_y:
            return t
    return None


def ndd_generator_oracle(x: MultiBundle, y: MultiBundle, ranking: Ranking) -> bool:
    """NDD decided through the generators of the diminishing-differences cone.

    Every diminishing-differences utility is a positive combination of the
    constant function and the hinge functions ``max(0, level - k)``, so the
    relation holds iff x dominates y on every generator: on bundle size and
    on every hinge sum for k = 1..M-1.
    """
    if x.size < y.size:
        return False
    return _first_failing_hinge(x.levels(ranking), y.levels(ranking), ranking.item_count) is None


#: Relations for which :func:`refuting_utility` builds a certificate.
REFUTABLE_RELATIONS = frozenset({RelationKind.NEC, RelationKind.NDD, RelationKind.NID})


def refuting_utility(
    kind: RelationKind, x: MultiBundle, y: MultiBundle, ranking: Ranking
) -> Optional[UtilityFunction]:
    """A utility in the relation's class with u(x) < u(y), if the relation fails.

    Returns None when the relation holds.  The construction is deterministic
    and exact, so a returned utility is a checkable certificate:

    * NEC and NDD, x has fewer items than y: the cardinality offset
      ``M*|y| + level``, under which one more item outweighs any levels;
    * NDD otherwise: the first failing cone generator, ``max(0, level - t)``
      for the smallest failing t, scaled by ``unit = M*(|x| + |y| + 1)`` so
      that it decides the comparison alone, plus ``level`` for consistency;
    * NEC otherwise: a near-threshold utility at the first rank k where x's
      k-th best item falls below y's;
    * NID: the negated NDD refuter of y over x under the reversed ranking.
    """
    if kind is RelationKind.NID:
        mirrored = refuting_utility(RelationKind.NDD, y, x, ranking.reversed())
        return None if mirrored is None else -mirrored
    if kind not in REFUTABLE_RELATIONS:
        raise ValueError(f"no refuting-utility construction for {kind}")
    m = ranking.item_count
    lx = x.levels(ranking)
    ly = y.levels(ranking)

    if len(lx) < len(ly):
        offset = m * len(ly)
        return UtilityFunction.from_level_function(ranking, lambda lev: offset + lev)

    if kind is RelationKind.NDD:
        t = _first_failing_hinge(lx, ly, m)
        if t is None:
            return None
        unit = m * (len(lx) + len(ly) + 1)
        return UtilityFunction.from_level_function(
            ranking, lambda lev: max(0, lev - t) * unit + lev
        )

    for level_x, level_y in zip(lx, ly):
        if level_x < level_y:
            # Near-threshold utility: items of level >= cutoff are worth about
            # one, the rest nearly nothing.  The epsilon slope keeps it
            # strictly consistent while the unit gap decides the comparison.
            cutoff = level_y
            epsilon = Fraction(1, 2 * m * (len(lx) + len(ly) + 1))
            return UtilityFunction.from_level_function(
                ranking, lambda lev: (1 if lev >= cutoff else 0) + epsilon * lev
            )
    return None


# ---------------------------------------------------------------------------
# Random utility samplers and the sampled refuter
# ---------------------------------------------------------------------------

def sample_dd_utility(ranking: Ranking, rng: random.Random) -> UtilityFunction:
    """A random diminishing-differences utility, full support on the cone interior.

    M-1 increments are drawn i.i.d. uniform on (0, 1] and sorted ascending, so
    the gap grows with the level; the prefix sums start from a uniform base.
    """
    m = ranking.item_count
    increments = sorted(1.0 - rng.random() for _ in range(m - 1))
    by_level = [1.0 - rng.random()]
    for inc in increments:
        by_level.append(by_level[-1] + inc)
    return UtilityFunction.from_level_function(ranking, lambda lev: by_level[lev - 1])


def sample_id_utility(ranking: Ranking, rng: random.Random) -> UtilityFunction:
    """A random increasing-differences chore utility (all values negative)."""
    return -sample_dd_utility(ranking.reversed(), rng)


def sample_consistent_utility(ranking: Ranking, rng: random.Random) -> UtilityFunction:
    """A random positive utility consistent with the ranking."""
    m = ranking.item_count
    draws = sorted(1.0 - rng.random() for _ in range(m))
    return UtilityFunction.from_level_function(ranking, lambda lev: draws[lev - 1])


_SAMPLERS = {
    RelationKind.NDD: sample_dd_utility,
    RelationKind.NID: sample_id_utility,
    RelationKind.NEC: sample_consistent_utility,
}


def sampled_utility_refuter(
    kind: RelationKind,
    x: MultiBundle,
    y: MultiBundle,
    ranking: Ranking,
    samples: int,
    seed: int,
) -> Optional[UtilityFunction]:
    """Search the relation's utility class for a witness with u(x) < u(y).

    A returned utility genuinely violates the relation (sound refuter);
    returning None proves nothing, except for NBIN where the M threshold
    utilities are enumerated exactly.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if kind is RelationKind.NBIN:
        thresholds = range(1, ranking.item_count + 1)
        candidates = (binary_threshold_utility(ranking, k) for k in thresholds)
    elif kind in _SAMPLERS:
        rng = random.Random(seed)
        candidates = (_SAMPLERS[kind](ranking, rng) for _ in range(samples))
    else:
        raise ValueError(f"no utility sampler for {kind}")
    plus = [item for item, count in x.counts for _ in range(count)]
    minus = [item for item, count in y.counts for _ in range(count)]
    return next((u for u in candidates if u.compare(plus, minus) < 0), None)
