"""Independent checks of the answers the benchmark gets from dimdiff.

Nothing here imports dimdiff: every relation, verdict and cover is decided
again from first principles, so a wrong answer from the program cannot be
confirmed by the same code that produced it.

Conventions: a ranking is a list of items, best first; an item's level is M
for the best item down to 1 for the worst.  A bundle is a list of items,
repeated items standing for copies.  Every checker returns a list of
problems, empty when the answer is right.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from math import comb


def levels_of(ranking):
    """Item -> level map of a best-first ranking."""
    m = len(ranking)
    return {item: m - position for position, item in enumerate(ranking)}


# ---------------------------------------------------------------------------
# Bundle relations, decided apart from dimdiff.extensions
# ---------------------------------------------------------------------------

def nec_dominates(x, y, level):
    """x is at least as good as y for every consistent utility.

    Decided by threshold counts: for every level k, x holds at least as many
    items of level >= k as y does (k = 1 compares the sizes).
    """
    m = len(level)
    return all(
        sum(level[i] >= k for i in x) >= sum(level[i] >= k for i in y)
        for k in range(1, m + 1)
    )


def ndd_dominates(x, y, level):
    """x is at least as good as y for every diminishing-differences utility.

    Such utilities are the positive combinations of the constant function
    and the hinges max(0, level - t), so x must win on its size and on every
    hinge sum.
    """
    if len(x) < len(y):
        return False
    m = len(level)
    return all(
        sum(max(0, level[i] - t) for i in x) >= sum(max(0, level[i] - t) for i in y)
        for t in range(1, m)
    )


def nid_dominates(x, y, level):
    """The chores mirror: y beats x under NDD in the reversed ranking."""
    m = len(level)
    reversed_level = {item: m + 1 - lev for item, lev in level.items()}
    return ndd_dominates(y, x, reversed_level)


def ndd_by_prefix_sums(x, y, level):
    """NDD again, by a second route: |x| >= |y| and every top-k level sum of
    x weakly beats y's."""
    if len(x) < len(y):
        return False
    lx = sorted((level[i] for i in x), reverse=True)
    ly = sorted((level[i] for i in y), reverse=True)
    running = 0
    for a, b in zip(lx, ly):
        running += a - b
        if running < 0:
            return False
    return True


DOMINATES = {"nec": nec_dominates, "ndd": ndd_dominates, "nid": nid_dominates}


def proportional(bundle, n, level, relation):
    """n copies of the bundle dominate the whole item set."""
    return DOMINATES[relation](list(bundle) * n, list(level), level)


def envy_free(bundles, levels, relation):
    """No agent ranks another agent's bundle above its own."""
    n = len(bundles)
    return all(
        DOMINATES[relation](bundles[i], bundles[j], levels[i])
        for i in range(n)
        for j in range(n)
        if i != j
    )


def is_partition(bundles, items):
    flat = [i for bundle in bundles for i in bundle]
    return len(flat) == len(items) and set(flat) == set(items)


# ---------------------------------------------------------------------------
# Certificates of negative verdicts
# ---------------------------------------------------------------------------

def utility_problems(values, ranking, relation):
    """Why a claimed utility is not in the relation's class (empty if it is).

    values maps item -> Fraction.  The class is the strictly consistent
    utilities, positive for goods (nec, ndd), negative for chores (nid), with
    diminishing differences for ndd and increasing differences for nid.
    """
    if set(values) != set(ranking):
        return ["utility does not value every item"]
    seq = [values[i] for i in ranking]
    problems = []
    if any(a <= b for a, b in zip(seq, seq[1:])):
        problems.append("utility is not consistent with the ranking")
    if relation == "nid":
        if any(v >= 0 for v in seq):
            problems.append("chore utility is not negative")
    elif any(v <= 0 for v in seq):
        problems.append("goods utility is not positive")
    gaps = [a - b for a, b in zip(seq, seq[1:])]
    if relation == "ndd" and any(top < below for top, below in zip(gaps, gaps[1:])):
        problems.append("utility does not have diminishing differences")
    if relation == "nid" and any(top > below for top, below in zip(gaps, gaps[1:])):
        problems.append("utility does not have increasing differences")
    return problems


def refutation_problems(values, ranking, relation, x, y):
    """A refuting utility must be in the class and value x below y."""
    problems = utility_problems(values, ranking, relation)
    if not problems and sum(values[i] for i in x) >= sum(values[i] for i in y):
        problems.append("refuting utility does not value x below y")
    return problems


def parse_utility(text_values):
    """{item: "3/7"} as printed by the CLI -> {item: Fraction}."""
    return {item: Fraction(value) for item, value in text_values.items()}


def dominator_problems(bundles, dominator, rankings):
    """Pareto domination under the 2^level profile: weakly better for every
    agent, strictly better for one, and still a partition."""
    if len(dominator) != len(bundles) or not is_partition(
        dominator, [i for b in bundles for i in b]
    ):
        return ["dominating allocation is not a partition of the items"]
    gains = []
    for ranking, old, new in zip(rankings, bundles, dominator):
        level = levels_of(ranking)
        gains.append(sum(2 ** level[i] for i in new) - sum(2 ** level[i] for i in old))
    if min(gains) < 0 or max(gains) <= 0:
        return ["allocation does not Pareto-dominate under the 2^level profile"]
    return []


def swap_problems(bundles, rankings, single_agent, single_item, pair_agent, pair):
    """A one-for-two swap: the single item's holder takes two items, which a
    count-dominant utility prefers; the pair's holder ranks the single item
    above both of the pair's items, which a lexicographic utility prefers."""
    level = levels_of(rankings[pair_agent])
    if single_agent == pair_agent or single_item not in bundles[single_agent]:
        return ["swap names an item its agent does not hold"]
    if pair[0] == pair[1] or any(i not in bundles[pair_agent] for i in pair):
        return ["swap names a pair its agent does not hold"]
    if not all(level[single_item] > level[i] for i in pair):
        return ["pair holder does not rank the single item above the pair"]
    return []


# ---------------------------------------------------------------------------
# Existence characterizations
# ---------------------------------------------------------------------------

def nddpr_should_exist(rankings):
    """NDD-proportional goods allocations exist iff the items split evenly
    and the agents' best items are pairwise distinct."""
    n, m = len(rankings), len(rankings[0])
    return m % n == 0 and len({r[0] for r in rankings}) == n


def nidpr_two_agents_should_exist(rankings):
    """Two agents with chores: iff the count is even and the worst chores differ."""
    return len(rankings[0]) % 2 == 0 and rankings[0][-1] != rankings[1][-1]


# ---------------------------------------------------------------------------
# Exact 3-cover and the reduction's allocations
# ---------------------------------------------------------------------------

def is_exact_cover(base_size, triplets, selection):
    """The selected triples are q pairwise disjoint triples covering the base."""
    if len(set(selection)) != len(selection) or len(selection) * 3 != base_size:
        return False
    if not all(0 <= a < len(triplets) for a in selection):
        return False
    covered = [e for a in selection for e in triplets[a]]
    return sorted(covered) == list(range(base_size))


def brute_force_cover(base_size, triplets):
    """Some exact cover (a sorted tuple of triple indices), or None.

    Branches on the smallest uncovered element, trying every triple that
    holds it and meets nothing covered so far.
    """
    sets = [frozenset(t) for t in triplets]

    def extend(covered, chosen):
        if len(covered) == base_size:
            return tuple(sorted(chosen))
        first = min(set(range(base_size)) - covered)
        for index, triple in enumerate(sets):
            if first in triple and not triple & covered:
                found = extend(covered | triple, chosen + [index])
                if found is not None:
                    return found
        return None

    return extend(frozenset(), [])


def cover_spelled_by(bundles, base_size, triplets):
    """The triples whose agents hold main items, if they form an exact cover.

    Agent 3a+s belongs to triple a and main item e is element e.  Every
    agent holding a main item must hold one of its own triple's, and the
    three agents of such a triple must hold all three of them.  Returns the
    sorted triple indices, or None when the mains spell no exact cover.
    """
    holders = {}
    for agent, bundle in enumerate(bundles):
        for item in bundle:
            if item < base_size:
                holders.setdefault(agent // 3, []).append(item)
    for a, held in holders.items():
        if sorted(held) != sorted(triplets[a]):
            return None
    selection = tuple(sorted(holders))
    return selection if is_exact_cover(base_size, triplets, selection) else None


def x3c_problems(base_size, triplets, planted, cover, rankings, witness, built):
    """Every property the x3c workload checks for one instance.

    ``planted`` says whether the instance was built around a cover.
    ``cover`` is solve_x3c's answer, ``witness`` the allocation (list of
    bundles) of nddef_search_reduced or None, ``built`` the allocation of
    allocation_from_cover or None, and ``rankings`` the reduced instance's.
    """
    problems = []
    own = brute_force_cover(base_size, triplets)
    if (own is None) != (cover is None):
        problems.append(f"solve_x3c says cover={cover}, brute force says {own}")
    if cover is not None and not is_exact_cover(base_size, triplets, cover):
        problems.append(f"solve_x3c returned {cover}, which is not an exact cover")
    if planted and own is None:
        problems.append("planted instance has no cover")
    if (witness is None) != (own is None):
        problems.append(f"cover exists={own is not None} but allocation found={witness is not None}")
    if cover is not None and built is None:
        problems.append("no allocation built from the cover")
    levels = [levels_of(r) for r in rankings]
    for label, alloc in (("search witness", witness), ("cover allocation", built)):
        if alloc is None:
            continue
        if not is_partition(alloc, list(range(len(rankings[0])))):
            problems.append(f"{label} is not a partition of the items")
        elif not all(
            ndd_by_prefix_sums(alloc[i], alloc[j], levels[i])
            for i in range(len(alloc))
            for j in range(len(alloc))
            if i != j
        ):
            problems.append(f"{label} is not NDD-envy-free")
        if cover_spelled_by(alloc, base_size, triplets) is None:
            problems.append(f"main items of the {label} spell no exact cover")
    return problems


# ---------------------------------------------------------------------------
# The Monte-Carlo CSV
# ---------------------------------------------------------------------------

def distinct_best_count(seed, noise, m_index, m, trials):
    """Trials of one cell whose two agents have different best items.

    Redraws the experiment's values from its documented per-trial stream,
    SeedSequence((seed, noise_index, m_index, trial)) with noise_index 0
    for a one-level grid: market values uniform on [1, 2], then per-agent
    noise uniform on [-A, A].  By the characterization this is exactly the
    number of trials with an NDD-proportional allocation.
    """
    import numpy as np

    count = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0, m_index, trial)))
        market = rng.uniform(1.0, 2.0, 2 * m)
        values = market[None, :] + rng.uniform(-noise, noise, (2, 2 * m))
        count += int(np.argmax(values[0])) != int(np.argmax(values[1]))
    return count


def csv_row_problems(text, seed, noise, item_pair_counts, trials):
    """Check one request's simulation CSV (one noise level, every m)."""
    rows = list(csv.reader(io.StringIO(text)))
    data = [row for row in rows if row and not row[0].startswith("#")]
    if not data or data[0][:3] != ["A", "m", "trials"]:
        return ["CSV header missing"]
    header, body = data[0], data[1:]
    if [int(row[1]) for row in body] != list(item_pair_counts):
        return ["CSV rows do not cover every m of the grid"]
    problems = []
    for m_index, row in enumerate(body):
        cell = dict(zip(header, row))
        m = int(cell["m"])
        p = {key: Fraction(value) for key, value in cell.items() if key.startswith("p_")}
        where = f"A={noise} m={m}"
        if abs(float(cell["A"]) - noise) > 1e-9 or int(cell["trials"]) != trials:
            problems.append(f"{where}: row has the wrong A or trial count")
        chain = [p["p_necpr"], p["p_nddpr"], p["p_pddpr"], p["p_pospr"]]
        if any(a > b for a, b in zip(chain, chain[1:])):
            problems.append(f"{where}: p_necpr <= p_nddpr <= p_pddpr <= p_pospr fails")
        if p["p_rr_cardinal_proportional"] > p["p_nddpr"]:
            problems.append(f"{where}: p_rr exceeds p_nddpr")
        if p["p_pospr"] != 1:
            problems.append(f"{where}: p_pospr is not 1")
        expected = distinct_best_count(seed, noise, m_index, m, trials) / trials
        if cell["p_nddpr"] != f"{expected:.4f}":
            problems.append(f"{where}: p_nddpr {cell['p_nddpr']} but {expected:.4f} of trials have distinct best items")
    return problems


def balanced_rank(mask, item_count):
    """Position of a mask among the masks with item_count/2 bits, ascending."""
    remaining = item_count // 2
    rank = 0
    for bit in range(item_count - 1, -1, -1):
        if mask >> bit & 1:
            rank += comb(bit, remaining)
            remaining -= 1
    return rank


def needed_masks(kind, item_count, mask):
    """Masks a split kernel must score: up to and including the first witness
    in ascending mask order, or the whole space when there is none."""
    if kind == "equal_split":
        if mask is None:
            return comb(item_count, item_count // 2)
        return balanced_rank(mask, item_count) + 1
    return (1 << item_count) if mask is None else mask + 1
