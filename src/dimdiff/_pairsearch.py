"""Vectorized search kernels for two-agent proportionality predicates.

The generic search in :mod:`dimdiff.search` enumerates allocations one by
one; for two agents the per-trial work in the simulation would be far too
slow in pure Python, so these kernels evaluate whole blocks of candidate
splits with numpy.  They must return exactly the witness the generic
enumeration would return: splits are encoded as item-indexed bitmasks (bit
set = item goes to agent 1, item 0 in the most significant position), so
ascending mask order equals the generic lexicographic assignment order.

Both kernels walk their split space in ascending order through one
early-exit loop, :func:`_first_split`.  Its chunks grow geometrically
(64 masks, then four times as many each step up to ``_CHUNK``), so a
witness early in the order costs one small chunk, while a full sweep still
takes few chunks.

The one budget is ``max_states``, the number of positions a kernel may
scan.  The balanced masks of the equal-split kernel are built once per
item count and cached (at most 32 tables); a budget below C(M, M/2) builds
only the masks it may scan and caches nothing, so it bounds the build's
work and memory as well as the scan.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

_FIRST_CHUNK = 64
_GROWTH = 4
_CHUNK = 8192


def _gosper(item_count: int, count: int) -> np.ndarray:
    """The first ``count`` masks with M/2 of the M bits set, ascending, built
    one at a time in Python straight into the array."""

    def masks() -> Iterator[int]:
        mask = (1 << (item_count // 2)) - 1
        for _ in range(count):
            yield mask
            # Gosper's hack: next integer with the same popcount.
            low = mask & -mask
            ripple = mask + low
            mask = ripple | (((mask ^ ripple) >> 2) // low)

    return np.fromiter(masks(), dtype=np.int64, count=count)


@lru_cache(maxsize=32)
def _balanced_masks(item_count: int) -> np.ndarray:
    """All C(M, M/2) balanced masks, ascending; read-only, since the cache
    shares one table per M."""
    table = _gosper(item_count, math.comb(item_count, item_count // 2))
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _rank_constants(item_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thresholds j = 1..M, the level M+1-j of the j-th best item, and
    full[k], the total level of the k best items of the full item set
    (k = 0..2M; a doubled bundle is compared against the full set)."""
    j = np.arange(1, item_count + 1, dtype=np.int64)
    capped = np.minimum(np.arange(2 * item_count + 1, dtype=np.int64), item_count)
    constants = (j, j[::-1].copy(), capped * item_count - capped * (capped - 1) // 2)
    for array in constants:
        array.setflags(write=False)  # shared by every caller through the cache
    return constants


# Each relation test takes ``held``, one row per split whose column r is 1
# when the agent holds its (r+1)-th best item, and returns a verdict per row.


def _ok_nec(held: np.ndarray) -> np.ndarray:
    # Doubled bundle count-dominates the full set at every threshold:
    # among the agent's j best items the split holds at least ceil(j/2).
    j, _, _ = _rank_constants(held.shape[1])
    return (2 * np.cumsum(held, axis=1) >= j).all(axis=1)


def _ok_pos(held: np.ndarray) -> np.ndarray:
    # Dual: some threshold where the doubled bundle is not strictly beaten.
    j, _, _ = _rank_constants(held.shape[1])
    return (2 * np.cumsum(held, axis=1) >= j).any(axis=1)


def _ok_ndd(held: np.ndarray) -> np.ndarray:
    # Equal splits only: every prefix of the doubled bundle weakly dominates
    # the full set's prefix.  At a selected rank with running count c the
    # doubled prefixes of length 2c and 2c-1 are tested; together these cover
    # every prefix length.
    _, levels, full = _rank_constants(held.shape[1])
    counts = np.cumsum(held, axis=1)
    doubled = 2 * np.cumsum(held * levels, axis=1)
    even_ok = doubled >= full[2 * counts]
    odd_ok = doubled - levels >= full[np.maximum(2 * counts - 1, 0)]
    return ((even_ok & odd_ok) | (held == 0)).all(axis=1)


def _ok_pdd(held: np.ndarray) -> np.ndarray:
    # Any split size: strictly larger than the full set, or a strictly
    # winning prefix, or a weakly dominating total level.
    item_count = held.shape[1]
    _, levels, full = _rank_constants(item_count)
    counts = np.cumsum(held, axis=1)
    doubled = 2 * np.cumsum(held * levels, axis=1)
    larger = 2 * counts[:, -1] > item_count
    total_ok = doubled[:, -1] >= item_count * (item_count + 1) // 2
    even_win = doubled > full[2 * counts]
    odd_win = doubled - levels > full[np.maximum(2 * counts - 1, 0)]
    prefix_win = ((even_win | odd_win) & (held != 0)).any(axis=1)
    return larger | prefix_win | total_ok


_EQUAL_SPLIT_OK = {"nec": _ok_nec, "ndd": _ok_ndd}
_ANY_SPLIT_OK = {"pos": _ok_pos, "pdd": _ok_pdd}


def _chunks(limit: int) -> Iterator[tuple[int, int]]:
    """Consecutive [start, stop) spans of 0..limit: 64, 256, ... up to _CHUNK."""
    start, size = 0, _FIRST_CHUNK
    while start < limit:
        stop = min(start + size, limit)
        yield start, stop
        start, size = stop, min(size * _GROWTH, _CHUNK)


def _scan_limit(total: int, max_states: Optional[int]) -> int:
    return total if max_states is None else max(0, min(total, max_states))


def _first_split(
    masks_at: Callable[[int, int], np.ndarray],
    total: int,
    accept: Callable[[np.ndarray], np.ndarray],
    max_states: Optional[int],
) -> tuple[Optional[int], int]:
    """First mask of positions 0..total-1 that ``accept`` passes.

    ``masks_at(start, stop)`` gives the masks at those positions and
    ``accept`` scores a block of masks.  Returns (mask, position + 1), or
    (None, positions scanned) when no mask within ``max_states`` positions
    passes.
    """
    limit = _scan_limit(total, max_states)
    for start, stop in _chunks(limit):
        masks = masks_at(start, stop)
        hits = np.flatnonzero(accept(masks))
        if hits.size:
            return int(masks[hits[0]]), start + int(hits[0]) + 1
    return None, limit


def _both_agents(
    evaluate: Callable[[np.ndarray], np.ndarray],
    item_count: int,
    perm_first: tuple[int, ...],
    perm_second: tuple[int, ...],
) -> Callable[[np.ndarray], np.ndarray]:
    # Shifting a mask right by these moves the bit of the agent's r-th best
    # item to the bottom; agent 0 holds the clear bits, so its masks are
    # complemented first.
    shifts_first = item_count - 1 - np.array(perm_first, dtype=np.int64)
    shifts_second = item_count - 1 - np.array(perm_second, dtype=np.int64)

    def accept(masks: np.ndarray) -> np.ndarray:
        ok = evaluate((masks[:, None] >> shifts_second) & 1)
        survivors = np.flatnonzero(ok)
        ok[survivors] = evaluate((~masks[survivors, None] >> shifts_first) & 1)
        return ok

    return accept


def first_equal_split(
    item_count: int,
    perm_first: tuple[int, ...],
    perm_second: tuple[int, ...],
    relation: str,
    max_states: Optional[int] = None,
) -> tuple[Optional[int], int]:
    """First balanced split satisfying the relation for both agents.

    Returns (mask, states scanned); the mask encodes agent 1's bundle and
    the states are its Gosper position + 1, or the number of positions
    scanned when no split qualifies.  Both relations demand that each agent
    holds its own best item (the one-item prefix), so only such splits are
    scored, and agents sharing a best item have no qualifying split.
    """
    total = math.comb(item_count, item_count // 2)
    limit = _scan_limit(total, max_states)
    if perm_first[0] == perm_second[0]:
        return None, limit
    masks = _gosper(item_count, limit) if limit < total else _balanced_masks(item_count)
    first_bit = 1 << (item_count - 1 - perm_first[0])
    second_bit = 1 << (item_count - 1 - perm_second[0])
    both = _both_agents(_EQUAL_SPLIT_OK[relation], item_count, perm_first, perm_second)

    def accept(chunk: np.ndarray) -> np.ndarray:
        ok = ((chunk & first_bit) == 0) & ((chunk & second_bit) != 0)
        kept = np.flatnonzero(ok)
        ok[kept] = both(chunk[kept])
        return ok

    return _first_split(lambda start, stop: masks[start:stop], len(masks), accept, max_states)


def first_any_split(
    item_count: int,
    perm_first: tuple[int, ...],
    perm_second: tuple[int, ...],
    relation: str,
    max_states: Optional[int] = None,
) -> tuple[Optional[int], int]:
    """First split of any size satisfying the relation for both agents.

    Scans the 2^M split space in ascending mask order.  Returns (mask, mask
    + 1), or (None, states scanned) when no split within ``max_states``
    qualifies; the caller tells exhaustion from a spent budget by comparing
    the states with 2^M.
    """
    accept = _both_agents(_ANY_SPLIT_OK[relation], item_count, perm_first, perm_second)
    return _first_split(
        lambda start, stop: np.arange(start, stop, dtype=np.int64),
        1 << item_count,
        accept,
        max_states,
    )


def mask_to_bundles(mask: int, item_count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Decode a split mask into (agent 0 items, agent 1 items)."""
    first = tuple(j for j in range(item_count) if not (mask >> (item_count - 1 - j)) & 1)
    second = tuple(j for j in range(item_count) if (mask >> (item_count - 1 - j)) & 1)
    return first, second
