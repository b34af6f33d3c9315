"""Exact-3-cover machinery: instance type, reduction to envy-freeness, solver.

The reduction maps an exact-3-cover question on 3q elements and n triples to
a 6n-item, 3n-agent goods instance on which a necessarily-DD-envy-free
allocation exists iff the cover exists.  A tiny exhaustive cover solver and a
structure-aware envy-freeness search validate the two sides against each
other at desk scale; the search is a forward-checking one behind a root
arc-consistency filter (``nddef_search_reduced``).

Write M = 6n, k = n - q for the number of auxiliary blocks, and l_i for the
levels of agent i (M for its best item).  ``reduce_x3c`` gives agent s of
triple a its own dummies at M .. M-2, its triple's main items at M-3 .. M-5,
the gap dummy at M-6 (when n > 1), the auxiliary blocks from M-7 down to
M-6-3k, and below them the foreign main items, each directly below a dummy,
in the same order for the three co-agents.

Envy is a level sum.  NDD dominance needs a bundle at least as large as the
other and at least as good item by item from the top, so in an envy-free
allocation every agent holds two items: its top dummy and one item x_i.
Every dummy is some agent's top, so no x_i is a dummy.  Agent i envies
agent j iff l_i(top_j) + l_i(x_j) > M + l_i(x_i).  The co-agents' top
dummies sit at M-1 and M-2, so agent s of a triple tolerates agent s+1
(indices mod 3) holding an item at most one level above its own, and agent
s+2 at most two levels above.

Envy-free implies cover.
(A) No agent holds a foreign main.  If agent s holds one at level L, the item
    at L+1 is a dummy, so agent s+1 holds an item below L: again a foreign
    main, lower in the order the co-agents share.  Round the triple this
    gives a strictly descending cycle.
(B) If agent s holds an auxiliary item (level M-7 or less), agent s+1 holds
    an item at M-6 or less, which is not the gap dummy and so lies below the
    triple's main items; by (A) it is auxiliary.  Round the triple, all three
    agents hold auxiliary items.
So every triple holds its own three main items or three auxiliary items.
Every item is allocated, so exactly k triples absorb the 3k auxiliary items
and the other q hold all 3q main items, each its own: they are disjoint and
cover the base.

Cover implies envy-free (``allocation_from_cover``).  Agent s of a cover
triple takes its favourite main item; the other triples take the auxiliary
blocks in an order pi, agent s taking its favourite item of the block, at
level M-7-3pi(a).  No agent envies a co-agent.  Across triples, an agent
holding a main item has 2M-3 against at most (M-6) + (M-3).  An agent of a
non-cover triple a has 2M-7-3pi(a); against the owner of any dummy other
than its gap dummy the sum is at most (M-7-3k) + (M-3), less.  Against the
owner o of its gap dummy, agent s of the gap triple g(a):
* g(a) is a cover triple disjoint from a: o's main item is foreign to a and
  lies below M-7-3k, so no envy.
* g(a) is not a cover triple: o holds its favourite item of block pi(g(a)),
  which agent s of a ranks at M-7-3pi(g(a)); no envy iff
  pi(a) <= pi(g(a)) + 2.
* g(a) is a cover triple that meets a: by the choice of g, a meets every
  other triple.  If q >= 2, a triple that meets every other lies in no
  cover, so a is the only one (else g(a) would be another, outside the
  cover), and no triple has a as its gap triple.  If q = 1 every triple
  meets every other, g(a) = a + 1, and a is the triple just before the
  cover triple.  Either way at most one triple is in this case, and block 0
  spares it: (M-6) + (M-3) < M + (M-7).
The order pi exists: the triple of the last case first, followed by the
chain of triples that lead to it (only when q = 1), each one block after its
gap triple; then every other triple before its gap triple, except along a
cycle c_1 -> ... -> c_L of gap triples, listed c_1, c_L, c_2, c_(L-1), ...
so that every step along the cycle goes back at most two blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .core import Allocation, Instance, ItemKind, Ranking
from .exceptions import BudgetExceededError
from .fairness import DEFAULT_MAX_STATES

@dataclass(frozen=True)
class X3CInstance:
    """Exact-3-cover input: a base set of size 3q and n candidate triples."""

    base_size: int
    triplets: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        triplets = tuple(tuple(int(e) for e in t) for t in self.triplets)
        object.__setattr__(self, "triplets", triplets)
        if self.base_size <= 0 or self.base_size % 3:
            raise ValueError("base size must be a positive multiple of 3")
        if self.cover_size > len(triplets):
            raise ValueError("need at least base_size/3 triplets")
        for triple in triplets:
            if len(triple) != 3 or len(set(triple)) != 3:
                raise ValueError(f"triple {triple!r} must hold 3 distinct elements")
            if any(not 0 <= e < self.base_size for e in triple):
                raise ValueError(f"triple {triple!r} leaves the base set")

    @property
    def cover_size(self) -> int:
        return self.base_size // 3

    @property
    def triplet_count(self) -> int:
        return len(self.triplets)


def x3c_from_json(payload: object) -> X3CInstance:
    """Decode ``{"base_size": int, "triplets": [[int, int, int], ...]}``."""
    if not isinstance(payload, dict) or not _is_int(payload.get("base_size")):
        raise ValueError('an X3C instance must be a JSON object with an integer "base_size"')
    triplets = payload.get("triplets")
    if not isinstance(triplets, list) or not all(
        isinstance(t, list) and len(t) == 3 and all(_is_int(e) for e in t)
        for t in triplets
    ):
        raise ValueError('X3C "triplets" must be a list of three-integer lists')
    return X3CInstance(payload["base_size"], tuple(tuple(t) for t in triplets))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def solve_x3c(x3c: X3CInstance) -> Optional[tuple[int, ...]]:
    """Indices of q pairwise-disjoint triples covering the base, or None.

    Exhaustive over all selections, first hit in lexicographic index order.
    """
    n, q = x3c.triplet_count, x3c.cover_size
    if math.comb(n, q) > DEFAULT_MAX_STATES:
        raise BudgetExceededError(f"C({n},{q}) selections exceed the solver limit")
    base = frozenset(range(x3c.base_size))
    for selection in itertools.combinations(range(n), q):
        covered: set[int] = set()
        ok = True
        for index in selection:
            triple = set(x3c.triplets[index])
            if covered & triple:
                ok = False
                break
            covered |= triple
        if ok and covered == base:
            return selection
    return None


# ---------------------------------------------------------------------------
# The reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedInstance:
    """The goods instance produced from an exact-3-cover question.

    6n items: one main item per base element, three dummies per triple, and
    three auxiliary items per triple beyond the cover size.  Three agents per
    triple.  Bookkeeping tuples give the item and agent identifiers per
    triple so searches can exploit the structure.
    """

    instance: Instance
    main_items: tuple[int, ...]                  # main item id per base element
    dummy_triples: tuple[tuple[int, int, int], ...]
    aux_triples: tuple[tuple[int, int, int], ...]
    agent_triples: tuple[tuple[int, int, int], ...]


def reduce_x3c(x3c: X3CInstance) -> ReducedInstance:
    """Build the envy-freeness instance equivalent to the cover question.

    Agent s of triple a (s = 0, 1, 2) ranks, best first:

    1. the triple's three dummies, cyclically shifted by s;
    2. the triple's three main items, shifted by s;
    3. its gap dummy: dummy s of the gap triple ``g(a)`` (see
       ``_gap_triples``), absent when there is no other triple;
    4. every auxiliary block in index order, each shifted by s;
    5. the foreign main items (elements outside the triple) in ascending
       order, each placed directly below a dummy: the gap dummy serves the
       first one when there are no auxiliary blocks, the remaining dummies
       in ascending order serve the others;
    6. the dummies left over, ascending.

    The module docstring gives the argument that an NDD-envy-free allocation
    exists iff the cover does.
    """
    q, n = x3c.cover_size, x3c.triplet_count
    dummy_base, aux_base = 3 * q, 3 * q + 3 * n
    main_items = tuple(range(dummy_base))
    dummy_triples = tuple((d, d + 1, d + 2) for d in range(dummy_base, aux_base, 3))
    aux_triples = tuple((x, x + 1, x + 2) for x in range(aux_base, 6 * n, 3))
    agent_triples = tuple((a, a + 1, a + 2) for a in range(0, 3 * n, 3))
    gaps = _gap_triples(x3c)
    # Item 4 of every agent with shift s: the auxiliary blocks, each shifted.
    aux_runs = [[x for t in aux_triples for x in t[s:] + t[:s]] for s in range(3)]
    # The first foreign main goes right below the gap dummy when no
    # auxiliary block comes between them; every other one gets a separator.
    unseparated = 1 if not aux_triples and n > 1 else 0

    rankings = []
    for i in range(n):
        own_dummies, own_main = dummy_triples[i], x3c.triplets[i]  # main item e is e
        foreign = sorted(set(main_items).difference(own_main))
        separated = len(foreign) - unseparated
        # The other triples' dummies, ascending: the separators.
        others = [*range(dummy_base, own_dummies[0]), *range(own_dummies[0] + 3, aux_base)]
        for s in range(3):
            order = [*own_dummies[s:], *own_dummies[:s], *own_main[s:], *own_main[:s]]
            spare = others.copy()
            if gaps[i] is not None:
                gap = dummy_triples[gaps[i]][s]
                order.append(gap)
                spare.remove(gap)
            order += aux_runs[s]
            order += foreign[:unseparated]
            interleaved = [0] * (2 * separated)
            interleaved[::2], interleaved[1::2] = spare[:separated], foreign[unseparated:]
            order += interleaved
            order += spare[separated:]
            rankings.append(Ranking(tuple(order)))

    instance = Instance(kind=ItemKind.GOODS, rankings=tuple(rankings))
    return ReducedInstance(instance, main_items, dummy_triples, aux_triples, agent_triples)


def _gap_triples(x3c: X3CInstance) -> tuple[Optional[int], ...]:
    """The gap triple g(a) of every triple a (None when a stands alone).

    The first triple after a, in cyclic index order, that is disjoint from
    a; if a meets every other triple, the first later one that also meets
    every other triple; failing that, the next triple.
    """
    n = x3c.triplet_count
    sets = [frozenset(t) for t in x3c.triplets]
    meets_all = [
        all(sets[a] & sets[b] for b in range(n) if b != a) for a in range(n)
    ]
    gaps: list[Optional[int]] = []
    for a in range(n):
        later = [(a + step) % n for step in range(1, n)]
        disjoint = [b for b in later if not sets[a] & sets[b]]
        universal = [b for b in later if meets_all[b]]
        gaps.append((disjoint or universal or later or [None])[0])
    return tuple(gaps)


def allocation_from_cover(x3c: X3CInstance, cover: Sequence[int]) -> Allocation:
    """The NDD-envy-free allocation of ``reduce_x3c(x3c)`` built from a cover.

    This is the cover-to-allocation direction of the module's argument:
    agent s of a cover triple takes the triple's main item s; the other
    triples take the auxiliary blocks in the order of ``_block_order``,
    agent s taking item s of its block.  Every agent also keeps its top
    dummy.
    """
    q, n = x3c.cover_size, x3c.triplet_count
    chosen = sorted(set(cover))
    if len(chosen) != q or not all(0 <= a < n for a in chosen) or sorted(
        e for a in chosen for e in x3c.triplets[a]
    ) != list(range(x3c.base_size)):
        raise ValueError(f"{tuple(cover)!r} is not an exact cover")
    dummy_base, aux_base = 3 * q, 3 * q + 3 * n
    second: dict[int, int] = {}
    for a in chosen:
        for s in range(3):
            second[3 * a + s] = x3c.triplets[a][s]
    for block, a in enumerate(_block_order(x3c, chosen)):
        for s in range(3):
            second[3 * a + s] = aux_base + 3 * block + s
    return Allocation.from_lists(
        (dummy_base + agent, second[agent]) for agent in range(3 * n)
    )


def _block_order(x3c: X3CInstance, cover: Sequence[int]) -> list[int]:
    """Non-cover triples listed so that block j goes to the j-th of them.

    Every triple a must sit at most two places after g(a) when g(a) is also
    outside the cover.  A triple whose gap triple is a cover triple it meets
    (there is at most one) must come first; it opens the list, followed by
    the chain of triples leading to it, each directly after its gap triple.
    The rest are listed so that every triple precedes its gap triple, except
    on a cycle of gap triples c_1 -> ... -> c_L, listed c_1, c_L, c_2,
    c_{L-1}, ... so that each step along the cycle goes back at most two.
    """
    gaps = _gap_triples(x3c)
    sets = [frozenset(t) for t in x3c.triplets]
    chosen = set(cover)
    outside = [a for a in range(x3c.triplet_count) if a not in chosen]
    order = [a for a in outside if gaps[a] in chosen and sets[a] & sets[gaps[a]]]
    while order and (chain := [
        a for a in outside if gaps[a] == order[-1] and a not in order
    ]):
        order.append(chain[0])
    rest = [a for a in outside if a not in order]
    pending = {a: sum(gaps[b] == a for b in rest) for a in rest}
    ready = [a for a in rest if not pending[a]]
    while ready:
        a = ready.pop()
        order.append(a)
        if gaps[a] in pending:
            pending[gaps[a]] -= 1
            if not pending[gaps[a]]:
                ready.append(gaps[a])
    for start in rest:
        if start in order:
            continue
        cycle = [start]
        while gaps[cycle[-1]] != start:
            cycle.append(gaps[cycle[-1]])
        while cycle:
            order.append(cycle.pop(0))
            if cycle:
                order.append(cycle.pop())
    return order


# ---------------------------------------------------------------------------
# Structure-aware envy-freeness search on reduced instances
# ---------------------------------------------------------------------------

def nddef_search_reduced(reduced: ReducedInstance) -> Optional[Allocation]:
    """Exhaustive NDD-envy-freeness decision on a reduced instance.

    In any qualifying allocation every agent holds exactly two items, one of
    them its top dummy (its best item overall, which the pairwise relation
    forces it to own).  That pins 3n of the 6n items, leaving a bijection
    between agents and the remaining "free" items, which a forward-checking
    search decides exactly.

    With all bundles of size two and every agent owning its own best item,
    the pairwise relation is level-sum dominance under the observer's
    ranking.  With ``l_a(top_a) = M``, agent a holding i tolerates agent b
    holding j iff ``l_a(j) <= l_a(i) + M - l_a(top_b)``: a level threshold.
    The levels are the rankings' own ``Ranking.levels``, in the smallest
    unsigned dtype that holds 2M, so a level plus a slack never overflows.
    ``ok[a, k, b, j]`` (see ``_mutual_tolerance``) says that a holding free
    item k and b holding free item j != k tolerate each other.  It holds
    n^4 booleans for n agents, kept for the call with a copy packed one bit
    an entry into an int; ``_arc_consistent`` reads a float32 copy of it.
    That is 20 KB + 83 KB at 12 agents and 194 KB + 778 KB at 21.

    Before the search, ``_arc_consistent`` drops every (agent, item) pair
    that some other agent cannot answer with a tolerated item of its own,
    until nothing changes.  A dropped pair lies in no envy-free allocation,
    so the filter is exact; it answers None outright when an agent is left
    with no item or an item with no agent.

    The search keeps two bitmask domains per open agent: the unfiltered one
    and the filtered one.  Each assignment narrows both by the items the
    other agent may hold next to it, one row of ``ok`` turned into a mask
    the first time it is needed.  The branch fails as soon as a filtered
    domain is empty, or some untaken free item lies in no filtered domain
    (agents and free items are in bijection, so every such item must go to
    an open agent).  It branches on agents, never on triples: next is the
    open agent with the smallest unfiltered domain (lowest index on ties),
    trying the items of its filtered domain in ascending order.  So the
    search visits the subtrees a plain forward-checking search visits, in
    the same order, skipping only those that hold no envy-free allocation,
    and returns the same witness.
    """
    instance = reduced.instance
    agents = instance.agent_count
    m = instance.item_count
    rankings = instance.rankings
    top_dummy = [rankings[a].best for a in range(agents)]
    free_items = sorted(set(range(m)) - set(top_dummy))
    if len(free_items) != agents:
        raise ValueError("instance does not have the reduced 2-items-per-agent shape")

    # level[a, k]: agent a's level of free item k (bit k of every mask).
    # slack[a, b] = M - l_a(top_b): how far above its own item a lets b's go.
    levels = np.array([r.levels for r in rankings], dtype=np.min_scalar_type(2 * m))
    level, slack = levels[:, free_items], m - levels[:, top_dummy]
    ok = _mutual_tolerance(level, slack)
    kept = _arc_consistent(ok)
    if kept is None:
        return None

    # Bit ((a * n + k) * n + b) * n + j of ``packed`` is ok[a, k, b, j].
    full = (1 << agents) - 1
    packed, block = _bits(ok), agents * agents
    block_mask = (1 << block) - 1

    @cache
    def allowed(agent: int, k: int) -> list[int]:
        """Per agent b, the free items b may hold next to ``agent`` holding k."""
        bits = (packed >> block * (agent * agents + k)) & block_mask
        return [(bits >> agents * b) & full for b in range(agents)]

    second = [0] * agents

    def extend(open_agents: list[tuple[int, int, int]], pick: int, left: int) -> bool:
        if not open_agents:
            return True
        agent, _, choices = open_agents[pick]
        rest = open_agents[:pick] + open_agents[pick + 1:]
        while choices:
            low = choices & -choices
            choices ^= low
            k = low.bit_length() - 1
            rows = allowed(agent, k)
            narrowed = []
            smallest, next_pick, union = agents + 1, 0, 0
            for other, domain, filtered in rest:
                row = rows[other]
                filtered &= row
                if not filtered:
                    break
                union |= filtered
                domain &= row
                size = domain.bit_count()
                if size < smallest:
                    smallest, next_pick = size, len(narrowed)
                narrowed.append((other, domain, filtered))
            else:
                if union != left ^ low:
                    continue
                second[agent] = k
                if extend(narrowed, next_pick, left ^ low):
                    return True
        return False

    kept_bits = _bits(kept)
    start = [(a, full, (kept_bits >> agents * a) & full) for a in range(agents)]
    if not extend(start, 0, full):
        return None
    return Allocation.from_lists(
        [(top_dummy[a], free_items[second[a]]) for a in range(agents)]
    )


def _mutual_tolerance(level: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """``ok[a, k, b, j]``: a holding free item k and b holding free item j
    tolerate each other, for agents a != b and items j != k.  ``ok[a, :, a, :]``
    is all True, since an agent places no condition on itself."""
    agents = len(level)
    each = np.arange(agents)
    # tolerates[a * n + k, b * n + j]: l_a(j) <= l_a(k) + slack[a, b], one
    # comparison of rows of length n^2 per (a, k) rather than n per (a, k, b).
    reach = (level[:, :, None] + slack[:, None, :]).reshape(agents, agents * agents, 1)
    tolerates = (level[:, None, :] <= reach).reshape(agents * agents, agents * agents)
    ok = (tolerates & tolerates.T).reshape(agents, agents, agents, agents)
    ok[:, each, :, each] = False
    ok[each, :, each, :] = True
    return ok


def _arc_consistent(ok: np.ndarray) -> Optional[np.ndarray]:
    """The largest domains ``kept[b, j]`` (b may hold free item j) in which
    every agent answers every other agent's items, or None when that leaves
    an agent or an item out.

    b's item j stays while each agent c keeps some item k with
    ``ok[c, k, b, j]``.  In an envy-free allocation c's own item answers
    b's, so no pair of one is ever dropped.  Each pass recomputes the
    domains from the last ones; fewer kept items never answer more, so the
    domains only shrink.  So an item that no agent keeps after some pass is
    left out at the end, and the filter answers None there; an agent whose
    domain empties leaves every item out one pass later.
    """
    agents = len(ok)
    # A float32 product counts the answers, at most n per entry and so
    # exactly, in one BLAS call per agent; a boolean product loops in numpy.
    by_owner = ok.reshape(agents, agents, agents * agents).astype(np.float32)
    kept, count = np.ones((agents, 1, agents), dtype=np.float32), agents * agents
    while True:
        # fewest[0, b * n + j]: over the agents c, the fewest items c keeps
        # with ok[c, k, b, j].  kept[b, 0, j] is 1 where that is > 0, else 0.
        fewest = (kept @ by_owner).min(axis=0)
        kept = np.sign(fewest).reshape(agents, 1, agents)
        if not kept.any(axis=0).all():
            return None
        count, last = np.count_nonzero(fewest), count
        if count == last:
            return kept.reshape(agents, agents) > 0


def _bits(flags: np.ndarray) -> int:
    """An int whose bit i is ``flags.flat[i]``."""
    return int.from_bytes(np.packbits(flags, axis=None, bitorder="little").tobytes(), "little")
