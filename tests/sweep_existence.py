"""Sweep the closed-form existence decisions against exhaustive search.

Not collected by pytest; run it directly:

    PYTHONPATH=src python tests/sweep_existence.py
    PYTHONPATH=src python tests/sweep_existence.py 7 4

The arguments are the largest item count M for n = 2, 3, 4 agents in turn;
the default ``8 5 4`` is the full sweep, and an agent count without an
argument is skipped.  Every profile with the first ranking fixed to
0 > 1 > ... is checked for M = 1 up to the limit (relabelling the items
maps every profile to one of these), goods and chores alike.  Each
decision names its goal in ``dimdiff.search.GOALS``, and every decisive
answer must equal ``exists_allocation`` on that goal and pass
``certificate_holds``: every witness must be a partition that
``check_proportional`` accepts, and every no must carry a reason that
holds.  The goods decisions are ``necpr_exists``, ``nddpr_exists``,
``pospr_exists`` and ``pddpr_exists`` (their reasons: a divisibility
failure, two rankings sharing a best item, fewer items than agents, or a
Hall violator).  The chores decisions, all for the goal ``nidpr``, are
``nidpr_necessary`` at every n, ``nidpr_two_agents`` at n = 2 and
``nidpr_three_agents_special`` at n = 3 (their reasons: a divisibility
failure, or no balanced allocation avoiding every agent's worst-chore
window).  Undecided answers are counted per decision, with how many of
them the search says exist.

Each profile also gets a forged no of every reason under every goal the
sweep searches (the Hall violator taken from ``necpr_exists``): where
``certificate_holds`` accepts one, the search must find no allocation.
The accepted (reason, goal) pairs are counted.  The exit status is nonzero
on any fault.
"""

import itertools
import sys
import time

from dimdiff.core import Instance, ItemKind, Ranking
from dimdiff.protocols import (
    ExistenceReport,
    Reason,
    certificate_holds,
    necpr_exists,
    nddpr_exists,
    nidpr_necessary,
    nidpr_three_agents_special,
    nidpr_two_agents,
    pddpr_exists,
    pospr_exists,
)
from dimdiff.search import GOALS, exists_allocation

DECISIONS = (
    ("necpr", necpr_exists),
    ("nddpr", nddpr_exists),
    ("pospr", pospr_exists),
    ("pddpr", pddpr_exists),
)
CHORES_DECISIONS = {
    2: (("nidpr", nidpr_necessary), ("nidpr", nidpr_two_agents)),
    3: (("nidpr", nidpr_necessary), ("nidpr", nidpr_three_agents_special)),
    4: (("nidpr", nidpr_necessary),),
}
DEFAULT_LIMITS = (8, 5, 4)


def profiles(agents, items, kind=ItemKind.GOODS):
    first = Ranking(tuple(range(items)))
    orders = list(itertools.permutations(range(items)))
    for rest in itertools.product(orders, repeat=agents - 1):
        yield Instance(kind, (first,) + tuple(Ranking(o) for o in rest))


def faults(instance, name, decide):
    """(answer, searched, faults): the decision's answer (None when
    undecided), whether the search finds an allocation for the goal
    ``GOALS[name]``, and why the answer is wrong (empty when it is right)."""
    goal = GOALS[name]
    report = decide(instance)
    found = []
    witness = exists_allocation(instance, goal)
    if report.exists is None:
        return None, witness is not None, found
    if report.exists != (witness is not None):
        found.append(f"{decide.__name__} says {report.exists}, the search disagrees")
    if not certificate_holds(instance, report, goal.extension):
        found.append(f"{decide.__name__} certificate does not check ({report.reason.value})")
    return report.exists, witness is not None, found


def forged_faults(instance, extensions, exists):
    """(accepted, faults) for a forged no of every reason under each of
    ``extensions``: the (reason, extension) pairs ``certificate_holds``
    accepts, and why an accepted pair is wrong, that is, ``exists(extension)``
    says an allocation exists (called only for accepted pairs)."""
    violator = None
    if instance.kind is ItemKind.GOODS:
        violator = necpr_exists(instance).hall_violator
    accepted = []
    found = []
    for reason in Reason:
        forged = ExistenceReport(False, reason, hall_violator=violator)
        for extension in extensions:
            if certificate_holds(instance, forged, extension):
                accepted.append((reason, extension))
                if exists(extension):
                    found.append(f"a forged {reason.value} no checks under "
                                 f"{extension.value}, but an allocation exists")
    return accepted, found


def report(agents, items, kind, decisions):
    """Sweep one (n, M, kind) and print one line of tallies, per decision."""
    start = time.time()
    total = 0
    exists = {decide: 0 for _, decide in decisions}
    undecided = {decide: 0 for _, decide in decisions}
    undecided_exist = {decide: 0 for _, decide in decisions}
    forged = {}
    failures = []
    for instance in profiles(agents, items, kind):
        total += 1
        searched_by = {}
        for name, decide in decisions:
            answer, searched, found = faults(instance, name, decide)
            searched_by[GOALS[name].extension] = searched
            exists[decide] += searched
            if answer is None:
                undecided[decide] += 1
                undecided_exist[decide] += searched
            if found:
                failures.append(([r.order for r in instance.rankings], found))
        accepted, found = forged_faults(instance, tuple(searched_by), searched_by.__getitem__)
        for pair in accepted:
            forged[pair] = forged.get(pair, 0) + 1
        if found:
            failures.append(([r.order for r in instance.rankings], found))
    counts = ", ".join(
        f"{decide.__name__} {exists[decide]} exist, {undecided[decide]} undecided"
        f" ({undecided_exist[decide]} exist)"
        for _, decide in decisions
    )
    checked = ", ".join(
        f"{reason.value}/{extension.value} {count}"
        for (reason, extension), count in forged.items()
    )
    print(f"n={agents} M={items} {kind.value}: {total} profiles; {counts}; "
          f"forged nos accepted: {checked or 'none'}; "
          f"{len(failures)} failures, {time.time() - start:.1f}s", flush=True)
    for failure in failures[:5]:
        print("   ", failure)
    return not failures


def main(argv):
    limits = [int(a) for a in argv[1:]] or list(DEFAULT_LIMITS)
    ok = True
    for agents, limit in zip((2, 3, 4), limits):
        for items in range(1, limit + 1):
            ok &= report(agents, items, ItemKind.GOODS, DECISIONS)
            ok &= report(agents, items, ItemKind.CHORES, CHORES_DECISIONS[agents])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
