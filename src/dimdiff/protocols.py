"""Constructive allocation protocols and existence conditions.

Goods: linear-time decisions for necessarily-DD-proportional and
possibly-proportional allocations, and for possibly-DD-proportional ones at
two agents or with distinct best items; balanced round-robin and serial
picks are the constructive halves.  Both are turn orders of one picking
loop, ``_picks``, in which the agent on turn takes its best free item.
Necessarily-proportional allocations are decided for any n by a bipartite
matching of slots to items.  Chores: a necessary feasibility condition
(avoid every agent's worst-chore window), an exact two-agent decision that
mirrors NDDPR, and a three-agent protocol for the special case of
near-identical rankings.  Every decision raises
``ExtensionKindMismatchError`` on an instance of the other item kind.

NDDPR (``_ndd``: the n-copied bundle X is at least as large as the full
set, and every top-k prefix of its levels sums to at least the full set's
M + (M-1) + ... + (M-k+1)) exists iff n divides M and the best items are
distinct:

* Only if: every n-copied bundle needs at least M items, and the bundles
  hold M items in all, so each holds exactly M/n and n divides M.  The
  k = 1 prefix needs level M, the agent's best item.  If two agents share
  a best item, one of them does not hold it, and its n-copied top level
  is at most M - 1 < M.
* If: balanced round-robin (order 0..n-1, then n-1..0, per round) is a
  witness.  In round 1 every agent takes its own best item, still free
  because the best items are distinct.  Round j copied n times fills
  positions (j-1)n + 1..jn of nX with the level of agent i's round-j
  pick, which is agent i's q-th pick of the round with q = i + 1 in odd
  rounds and q = n - i in even ones.  Only (j-1)n + q - 1 items are gone
  before it, so that level is at least M - (j-1)n - q + 1.  Against the
  full set's levels M - (j-1)n - t, t = 0..n-1, the running difference
  changes by at least -(q-1), -(q-2), ..., n-q: it dips by at most
  q(q-1)/2 inside the round and ends n(n-1)/2 - n(q-1) higher.  Round 1
  has q - 1 replaced by 0, which leaves the difference at n(n-1)/2 or
  more; each even round then leaves it at n*i or more, each later odd
  round at n(n-1)/2 or more again, and the dips n(n-1)/2 - (n-i)(n-i-1)/2
  and n*i - i(i+1)/2 are never negative.

Serial picks: agents 0..n-1 each take their best remaining item, and agent
n-1 then takes every item left over (M >= n).  Agent i picks from its own
top i+1, since only i items are gone.  The closed forms below rest on it.

PosPR exists iff M >= n.  Under ``_pos`` agent i's n-copied bundle X is
possibly as good as the full set unless the full set beats it at every
count threshold, that is unless t > n * |X & top_t(i)| for every t = 1..M.
An empty bundle is beaten so, which makes M >= n necessary.  One item of
rank r <= n is enough (take t = r), and adding items only raises the
counts, so serial picks are a witness.

PDDPR (``_pdd``: more than M/n items, a strictly winning prefix, or a total
level of at least M(M+1)/(2n)):

* M < n: it does not exist, since an empty bundle meets no clause.
* Distinct best items: it exists.  Serial picks give each agent its own
  best item, of level M.  For n >= 2 its n copies lead the n-copied bundle,
  whose two-item prefix 2M strictly beats the full set's 2M - 1; for n = 1
  the agent holds everything and the totals tie.
* n = 2 with a shared best item: it exists iff M >= 3.  Serial picks give
  agent 0 the shared item (its two copies win as above) and agent 1 the
  other M - 1 > M/2 items.  At M = 2 the agent without the shared item
  holds level 1 alone: copied, (1, 1) against (2, 1) is no larger, wins no
  prefix and totals 2 < 3.
* Otherwise (n >= 3, a shared best item, M >= n) the report is undecided.

NecPR (``_nec``: the n-copied bundle X is at least as large as the full
set, and its l-th best item is ranked weakly above the full set's l-th
best, agent i's rank-l item, for l = 1..M).  Every bundle needs at least
M/n items, so if n does not divide M none exists.  Otherwise, with
M = kn, every bundle holds exactly k items.  The l-th best item of nX is
X's ceil(l/n)-th best, and the bound is tightest at l = (j-1)n + 1, so X
is NEC-proportional for i iff X's j-th best item lies in i's top
(j-1)n + 1 for j = 1..k.  Call (i, j) a slot, with those top items as its
neighbours.  NecPR exists iff the kn slots have a perfect matching to the
kn items:

* Only if: match slot (i, j) to i's j-th best held item.
* If: give agent i the items of its slots (i, 1..k).  Its slots
  (i, 1..j) hold j items, all in its top (j-1)n + 1 since the neighbour
  sets grow with j, so its j-th best held item lies there too.

The matching is Kuhn's augmenting-path algorithm, slots in the order
(0, 1), (1, 1), ..., (n-1, k), each trying its neighbours best first.
When the search from a slot s fails, every item it visited is matched to
a slot it reached other than s, and every neighbour of a reached slot was
visited.  So the reached slots outnumber their neighbours by one: a Hall
violator, which no matching can saturate.  (Cf. Aziz, Gaspers, Mackenzie
and Walsh, Fair assignment of indivisible objects under ordinal
preferences, AIJ 2015, on SD-proportionality.)

NIDPR at two agents is NDDPR mirrored.  At n = 2, 2u(X) >= u(M) iff
u(X) >= u(Y) for the other bundle Y, so proportionality is envy-freeness
under every relation; and ``_nid`` of x over y is ``_ndd`` of y over x on
the levels of the reversed ranking.  So (X0, X1) is NIDPR iff (X1, X0) is
NDDPR on the goods instance with reversed rankings: by the rule above, iff
M is even and the worst chores (its best items) are distinct, with its
balanced round-robin, bundles swapped, as the witness.

A no names a reason, and each reason rules out the proportional
allocations of some extensions only; :func:`certificate_holds` accepts it
for those alone.  A divisibility failure rules out the equal-size
extensions NEC, NDD, NBIN and NID, whose n-copied bundles must hold at
least (NID: at most) M items each.  A shared best item rules out NEC and
NDD (the k = 1 prefix above) and NBIN, which agrees with NEC on every pair
of multi-bundles, but PDD only at n = M = 2.  Fewer items than agents
rules out every goods extension, since some bundle is empty.  A Hall
violator rules out NEC and NBIN, and an infeasible worst-window
assignment (:func:`nidpr_necessary`) rules out NID.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import networkx as nx

from .core import Allocation, Instance, ItemKind
from .extensions import EQUAL_SIZE_RELATIONS, GOODS_RELATIONS, RelationKind
from .fairness import _require_kind_match, check_proportional


class Reason(Enum):
    NOT_MULTIPLE_OF_N = "not_multiple_of_n"
    SHARED_BEST_ITEM = "shared_best_item"
    FEWER_ITEMS_THAN_AGENTS = "fewer_items_than_agents"
    HALL_VIOLATION = "hall_violation"
    SHARED_WORST_WINDOW_INFEASIBLE = "shared_worst_window_infeasible"
    CONDITIONS_MET = "conditions_met"
    OUT_OF_THEORY = "out_of_theory"


@dataclass(frozen=True)
class ExistenceReport:
    """Outcome of an existence condition.

    ``exists`` is three-valued: True / False when the condition is decisive,
    None when it is only necessary and leaves existence open.  When True, the
    allocation is present and passes the corresponding fairness check.  A
    ``HALL_VIOLATION`` no carries the violating slots ``(agent, j)`` of
    :func:`necpr_exists`, which :func:`hall_violation_holds` checks.
    :func:`certificate_holds` checks a decisive report as a whole.
    """

    exists: Optional[bool]
    reason: Reason
    allocation: Optional[Allocation] = None
    hall_violator: Optional[tuple[tuple[int, int], ...]] = None


def _picks(instance: Instance, turns: Iterable[int]) -> Allocation:
    """On each turn the agent named takes its best free item.

    Each agent's iterator over its ranking is its pointer: every item it
    has passed is taken.  With strict rankings no pick can tie; every turn
    must find a free item.
    """
    pointers = [iter(ranking.order) for ranking in instance.rankings]
    taken = [False] * instance.item_count
    bundles: list[list[int]] = [[] for _ in pointers]
    for agent in turns:
        for item in pointers[agent]:
            if not taken[item]:
                break
        taken[item] = True
        bundles[agent].append(item)
    return Allocation.from_lists(bundles)


def balanced_round_robin(instance: Instance) -> Allocation:
    """Picking protocol with agent order 1..n, then n..1, per round.

    Each agent takes its best remaining item in turn.  Requires the item
    count to be a multiple of the agent count so everybody ends up with the
    same share.
    """
    n, m = instance.agent_count, instance.item_count
    if m % n:
        raise ValueError(f"{m} items cannot be split evenly among {n} agents")
    forward = list(range(n))
    return _picks(instance, itertools.islice(itertools.cycle(forward + forward[::-1]), m))


def nddpr_exists(instance: Instance) -> ExistenceReport:
    """Decide existence of a necessarily-DD-proportional goods allocation.

    Exists iff the items split evenly and all best items are distinct; in
    that case balanced round-robin constructs a witness in O(M) picks (see
    the module docstring).
    """
    _require_kind_match(RelationKind.NDD, instance)
    n, m = instance.agent_count, instance.item_count
    if m % n:
        return ExistenceReport(False, Reason.NOT_MULTIPLE_OF_N)
    best_items = {r.best for r in instance.rankings}
    if len(best_items) < n:
        return ExistenceReport(False, Reason.SHARED_BEST_ITEM)
    return ExistenceReport(True, Reason.CONDITIONS_MET, balanced_round_robin(instance))


def pospr_exists(instance: Instance) -> ExistenceReport:
    """Decide existence of a possibly-proportional goods allocation.

    Exists iff there are at least as many items as agents; serial picks
    construct the witness (see the module docstring).
    """
    _require_kind_match(RelationKind.POS, instance)
    n, m = instance.agent_count, instance.item_count
    if m < n:
        return ExistenceReport(False, Reason.FEWER_ITEMS_THAN_AGENTS)
    serial = itertools.chain(range(n), itertools.repeat(n - 1, m - n))
    return ExistenceReport(True, Reason.CONDITIONS_MET, _picks(instance, serial))


def pddpr_exists(instance: Instance) -> ExistenceReport:
    """Decide existence of a possibly-DD-proportional goods allocation.

    Decisive with fewer items than agents, with distinct best items, and at
    two agents; undecided (``OUT_OF_THEORY``) for three or more agents that
    share a best item.  Otherwise the answer and its serial-picks witness
    are :func:`pospr_exists`'s (see the module docstring).
    """
    _require_kind_match(RelationKind.PDD, instance)
    n, m = instance.agent_count, instance.item_count
    if m >= n and len({r.best for r in instance.rankings}) < n:
        if n > 2:
            return ExistenceReport(None, Reason.OUT_OF_THEORY)
        if m < 3:
            return ExistenceReport(False, Reason.SHARED_BEST_ITEM)
    return pospr_exists(instance)


def _augment(root: int, tops: list[tuple[int, ...]], owner: list[Optional[int]]) -> set[int]:
    """Kuhn's search for an augmenting path from the unmatched slot ``root``.

    ``tops[s]`` lists slot s's neighbours and ``owner[item]`` the slot
    matched to each item.  On success the path is flipped and the result is
    empty; on failure nothing changes and the result is the set of slots the
    search reached.
    """
    visited: set[int] = set()
    stack = [root]
    paths = [iter(tops[root])]
    via: list[int] = []  # via[d]: the item through which stack[d + 1] was reached
    while stack:
        for item in paths[-1]:
            if item in visited:
                continue
            visited.add(item)
            holder = owner[item]
            via.append(item)
            if holder is None:
                for slot, taken in zip(stack, via):
                    owner[taken] = slot
                return set()
            stack.append(holder)
            paths.append(iter(tops[holder]))
            break
        else:
            stack.pop()
            paths.pop()
            if via:
                via.pop()
    return {root} | {owner[item] for item in visited}


def necpr_exists(instance: Instance) -> ExistenceReport:
    """Decide existence of a necessarily-proportional goods allocation.

    Exists iff n divides M and the slots (i, j), j = 1..M/n, have a perfect
    matching to the items, where slot (i, j) may take any of agent i's top
    (j-1)n + 1 items (see the module docstring).  A yes carries the matched
    bundles; a no with ``HALL_VIOLATION`` carries the slots reached by the
    failed augmenting search, fewer items than slots neighbouring them.
    """
    _require_kind_match(RelationKind.NEC, instance)
    n, m = instance.agent_count, instance.item_count
    if m % n:
        return ExistenceReport(False, Reason.NOT_MULTIPLE_OF_N)
    # Slot s is (s % n, s // n + 1): agent s % n may take its top s - s % n + 1.
    orders = [ranking.order for ranking in instance.rankings]
    owner: list[Optional[int]] = [None] * m
    # Every item before first[agent] in the agent's order is matched; matched
    # items stay matched, so the pointer only moves down.
    first = [0] * n
    tops: Optional[list[tuple[int, ...]]] = None  # built for the first search
    for slot in range(m):
        agent = slot % n
        order = orders[agent]
        position = first[agent]
        while owner[order[position]] is not None:  # slot < m items are matched
            position += 1
        first[agent] = position
        if position <= slot - agent:  # the common case, without a search
            owner[order[position]] = slot
            continue
        if tops is None:
            tops = [orders[s % n][: s - s % n + 1] for s in range(m)]
        reached = _augment(slot, tops, owner)
        if reached:
            violator = tuple(sorted((s % n, s // n + 1) for s in reached))
            return ExistenceReport(False, Reason.HALL_VIOLATION, hall_violator=violator)
    bundles: list[list[int]] = [[] for _ in range(n)]
    for item, slot in enumerate(owner):
        bundles[slot % n].append(item)
    return ExistenceReport(True, Reason.CONDITIONS_MET, Allocation.from_lists(bundles))


def hall_violation_holds(instance: Instance, slots: Iterable[tuple[int, int]]) -> bool:
    """Does this set of NecPR slots have fewer neighbouring items than slots?

    Recomputes the neighbours from the rankings: slot (i, j), with
    0 <= i < n and 1 <= j <= M/n, neighbours agent i's top (j-1)n + 1
    items.  False for an invalid slot, or when n does not divide M (there
    are no slots then).
    """
    n, m = instance.agent_count, instance.item_count
    if m % n:
        return False
    chosen = set(slots)
    neighbours: set[int] = set()
    for agent, j in chosen:
        if not (0 <= agent < n and 1 <= j <= m // n):
            return False
        neighbours.update(instance.rankings[agent].order[: (j - 1) * n + 1])
    return len(neighbours) < len(chosen)


#: The extensions whose proportional allocations each reason for a no rules
#: out (see the module docstring).  A shared best item also rules out PDD at
#: n = M = 2.
_REFUTED_BY = {
    Reason.NOT_MULTIPLE_OF_N: EQUAL_SIZE_RELATIONS,
    Reason.SHARED_BEST_ITEM: frozenset({RelationKind.NEC, RelationKind.NDD, RelationKind.NBIN}),
    Reason.FEWER_ITEMS_THAN_AGENTS: GOODS_RELATIONS,
    Reason.HALL_VIOLATION: frozenset({RelationKind.NEC, RelationKind.NBIN}),
    Reason.SHARED_WORST_WINDOW_INFEASIBLE: frozenset({RelationKind.NID}),
}


def certificate_holds(
    instance: Instance, report: ExistenceReport, extension: RelationKind
) -> bool:
    """Does a decisive report check against the instance?

    A yes must carry a partition of the items into n bundles that
    ``check_proportional`` accepts under ``extension``.  A no holds only if
    its reason refutes the extension (the module docstring says which
    reason refutes which) and holds on the instance: n does not divide M;
    two rankings share a best item; fewer items than agents; a Hall
    violator that :func:`hall_violation_holds` accepts; or n divides M but
    no allocation of M/n chores per agent avoids every agent's worst-chore
    window.  False for an undecided report and for any other reason.  A
    decisive report raises ``ExtensionKindMismatchError`` when the extension
    does not fit the instance's item kind.
    """
    n, m = instance.agent_count, instance.item_count
    if report.exists is None:
        return False
    _require_kind_match(extension, instance)
    if report.exists:
        allocation = report.allocation
        return (
            allocation is not None
            and allocation.agent_count == n
            and allocation.is_partition_of(m)
            and check_proportional(allocation, instance, extension).result
        )
    reason = report.reason
    if not (
        extension in _REFUTED_BY.get(reason, ())
        or (reason is Reason.SHARED_BEST_ITEM and extension is RelationKind.PDD and n == m == 2)
    ):
        return False
    if reason is Reason.NOT_MULTIPLE_OF_N:
        return m % n != 0
    if reason is Reason.SHARED_WORST_WINDOW_INFEASIBLE:
        return m % n == 0 and not _avoidance_feasible(instance)
    if reason is Reason.SHARED_BEST_ITEM:
        return len({r.best for r in instance.rankings}) < n
    if reason is Reason.FEWER_ITEMS_THAN_AGENTS:
        return m < n
    return hall_violation_holds(instance, report.hall_violator or ())


# ---------------------------------------------------------------------------
# Chores
# ---------------------------------------------------------------------------

def _avoidance_feasible(instance: Instance) -> bool:
    """Can each agent receive m chores avoiding its worst-chore window?

    Bipartite feasibility: chores have unit supply, each agent has capacity
    m and accepts only chores outside its window.  Decided exactly by max
    flow.
    """
    n, m = instance.agent_count, instance.item_count
    share = m // n
    window = n // 2  # ceil((n-1)/2)
    windows = [instance.rankings[i].worst_items(window) for i in range(n)]
    graph = nx.DiGraph()
    source, sink = "s", "t"
    for chore in range(m):
        graph.add_edge(source, ("chore", chore), capacity=1)
    for agent in range(n):
        graph.add_edge(("agent", agent), sink, capacity=share)
        for chore in range(m):
            if chore not in windows[agent]:
                graph.add_edge(("chore", chore), ("agent", agent), capacity=1)
    value = nx.maximum_flow_value(graph, source, sink)
    return value == m


def nidpr_necessary(instance: Instance) -> ExistenceReport:
    """Necessary condition for a necessarily-ID-proportional chore allocation.

    Never answers True: when the item count splits evenly and the avoidance
    assignment is feasible, existence is still open, so the report says
    unknown.  A False is definitive.
    """
    _require_kind_match(RelationKind.NID, instance)
    n, m = instance.agent_count, instance.item_count
    if m % n:
        return ExistenceReport(False, Reason.NOT_MULTIPLE_OF_N)
    if not _avoidance_feasible(instance):
        return ExistenceReport(False, Reason.SHARED_WORST_WINDOW_INFEASIBLE)
    return ExistenceReport(None, Reason.CONDITIONS_MET)


def nidpr_two_agents(instance: Instance) -> ExistenceReport:
    """Exact two-agent decision: even split plus distinct worst chores.

    :func:`nddpr_exists` on the reversed rankings, with the witness's two
    bundles swapped (see the module docstring for the proof).
    """
    _require_kind_match(RelationKind.NID, instance)
    if instance.agent_count != 2:
        raise ValueError("nidpr_two_agents requires exactly two agents")
    mirror = nddpr_exists(Instance(ItemKind.GOODS, tuple(r.reversed() for r in instance.rankings)))
    if mirror.allocation is None:
        if mirror.reason is Reason.SHARED_BEST_ITEM:
            return ExistenceReport(False, Reason.SHARED_WORST_WINDOW_INFEASIBLE)
        return mirror
    first, second = mirror.allocation.bundles
    return ExistenceReport(True, Reason.CONDITIONS_MET, Allocation((second, first)))


def nidpr_three_agents_special(instance: Instance) -> ExistenceReport:
    """Three-agent protocol for the near-identical-rankings special case.

    Applicable when all agents share the same three worst chores and rank
    the remaining chores identically; outside that case the report says
    out-of-theory.  Within it, existence is decided exactly: the items must
    split evenly and the worst chore must not be shared by everyone.

    The protocol first assigns the three worst chores so every agent gets a
    chore it ranks second-worst or better and someone gets its third-worst
    (found among the six possible assignments), then hands out the remaining
    chores from worst to best, steering each round's worst chore to an agent
    whose accumulated level advantage can absorb it.
    """
    _require_kind_match(RelationKind.NID, instance)
    if instance.agent_count != 3:
        raise ValueError("nidpr_three_agents_special requires exactly three agents")
    rankings = instance.rankings
    m = instance.item_count

    worst_sets = [r.worst_items(min(3, m)) for r in rankings]
    if not (worst_sets[0] == worst_sets[1] == worst_sets[2]) or m < 3:
        return ExistenceReport(None, Reason.OUT_OF_THEORY)
    rest = rankings[0].order[:-3]
    if any(r.order[:-3] != rest for r in rankings):
        return ExistenceReport(None, Reason.OUT_OF_THEORY)

    if m % 3:
        return ExistenceReport(False, Reason.NOT_MULTIPLE_OF_N)
    if rankings[0].worst == rankings[1].worst == rankings[2].worst:
        return ExistenceReport(False, Reason.SHARED_WORST_WINDOW_INFEASIBLE)

    # Opening: one of the six assignments of the three worst chores gives
    # every agent level >= 2 and some agent level 3.
    worst_chores = sorted(worst_sets[0])
    opening: Optional[tuple[int, ...]] = None
    for candidate in itertools.permutations(worst_chores):
        levels = [rankings[i].level(candidate[i]) for i in range(3)]
        if all(lev >= 2 for lev in levels) and max(levels) >= 3:
            opening = candidate
            break
    if opening is None:  # cannot happen when the worst chore is not shared
        raise AssertionError("no admissible opening assignment found")

    bundles: list[list[int]] = [[opening[i]] for i in range(3)]
    # Accumulated level advantage over the full set after the opening:
    # 0 for a second-worst chore, 3 for a third-worst one.
    advantage = [3 * (rankings[i].level(opening[i]) - 2) for i in range(3)]

    # Remaining chores, worst first; their levels agree across agents.
    pending = list(reversed(rest))
    while pending:
        worst, middle, best = pending[:3]
        pending = pending[3:]
        receiver_worst = next(i for i in range(3) if advantage[i] >= 3)
        others = [i for i in range(3) if i != receiver_worst]
        others.sort(key=lambda i: advantage[i])
        receiver_best, receiver_middle = others[0], others[1]
        bundles[receiver_worst].append(worst)
        bundles[receiver_middle].append(middle)
        bundles[receiver_best].append(best)
        advantage[receiver_worst] -= 3
        advantage[receiver_best] += 3

    allocation = Allocation.from_lists(bundles)
    verdict = check_proportional(allocation, instance, RelationKind.NID)
    if not verdict.result:  # guards the protocol's guarantee
        raise AssertionError("three-agent protocol produced a non-NIDPR allocation")
    return ExistenceReport(True, Reason.CONDITIONS_MET, allocation)
