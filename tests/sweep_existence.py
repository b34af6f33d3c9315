"""Sweep the closed-form existence decisions against exhaustive search.

Not collected by pytest; run it directly:

    PYTHONPATH=src python tests/sweep_existence.py
    PYTHONPATH=src python tests/sweep_existence.py 7 4

The arguments are the largest item count M for n = 2, 3, 4 agents in turn;
the default ``8 5 4`` is the full sweep, and an agent count without an
argument is skipped.  Every profile with the first ranking fixed to
0 > 1 > ... is checked for M = 1 up to the limit (relabelling the items
maps every profile to one of these).  Per goods profile, every decisive
answer of ``necpr_exists``, ``nddpr_exists``, ``pospr_exists`` and
``pddpr_exists`` must equal ``exists_allocation`` and pass
``certificate_holds``: every witness must be a partition that
``check_proportional`` accepts, and every no must carry a reason that
holds (a divisibility failure, two rankings sharing a best item, fewer
items than agents, or a Hall violator).  Up to the n = 2 limit every
chores profile is checked the same way against ``nidpr_two_agents``:
every witness must be a partition that ``check_proportional`` accepts
under NID, and every no must carry a reason that holds (M odd, or a
shared worst chore).  Undecided answers are counted, with how many of
them the search says exist.  The exit status is nonzero on any fault.
"""

import itertools
import sys
import time

from dimdiff.core import Instance, ItemKind, Ranking
from dimdiff.extensions import RelationKind
from dimdiff.fairness import Criterion, check_proportional
from dimdiff.protocols import (
    Reason,
    certificate_holds,
    necpr_exists,
    nddpr_exists,
    nidpr_two_agents,
    pddpr_exists,
    pospr_exists,
)
from dimdiff.search import AllocationGoal, exists_allocation


def two_agent_chores_certificate_holds(instance, report, extension):
    """Does a ``nidpr_two_agents`` report check against the instance?  A yes
    must carry a partition that ``check_proportional`` accepts, a no an odd
    item count or a worst chore the two agents share."""
    if report.exists:
        allocation = report.allocation
        return (
            allocation is not None
            and allocation.is_partition_of(instance.item_count)
            and check_proportional(allocation, instance, extension).result
        )
    if report.reason is Reason.NOT_MULTIPLE_OF_N:
        return instance.item_count % 2 == 1
    if report.reason is Reason.SHARED_WORST_WINDOW_INFEASIBLE:
        return instance.rankings[0].worst == instance.rankings[1].worst
    return False


DECISIONS = (
    ("necpr", necpr_exists, RelationKind.NEC),
    ("nddpr", nddpr_exists, RelationKind.NDD),
    ("pospr", pospr_exists, RelationKind.POS),
    ("pddpr", pddpr_exists, RelationKind.PDD),
)
TWO_AGENT_CHORES_DECISIONS = (("nidpr", nidpr_two_agents, RelationKind.NID),)
DEFAULT_LIMITS = (8, 5, 4)


def profiles(agents, items, kind=ItemKind.GOODS):
    first = Ranking(tuple(range(items)))
    orders = list(itertools.permutations(range(items)))
    for rest in itertools.product(orders, repeat=agents - 1):
        yield Instance(kind, (first,) + tuple(Ranking(o) for o in rest))


def faults(instance, name, decide, extension):
    """(answer, searched, faults): the decision's answer (None when
    undecided), whether the search finds an allocation, and why the answer
    is wrong (empty when it is right)."""
    report = decide(instance)
    found = []
    witness = exists_allocation(
        instance, AllocationGoal(Criterion.PROPORTIONALITY, extension)
    )
    if report.exists is None:
        return None, witness is not None, found
    if report.exists != (witness is not None):
        found.append(f"{name} says {report.exists}, the search disagrees")
    certified = (
        certificate_holds if instance.kind is ItemKind.GOODS
        else two_agent_chores_certificate_holds
    )
    if not certified(instance, report, extension):
        found.append(f"{name} certificate does not check ({report.reason.value})")
    return report.exists, witness is not None, found


def report(agents, items, kind, decisions):
    start = time.time()
    total = 0
    exists = {name: 0 for name, _, _ in decisions}
    undecided = {name: 0 for name, _, _ in decisions}
    undecided_exist = {name: 0 for name, _, _ in decisions}
    failures = []
    for instance in profiles(agents, items, kind):
        total += 1
        for name, decide, extension in decisions:
            answer, searched, found = faults(instance, name, decide, extension)
            exists[name] += searched
            if answer is None:
                undecided[name] += 1
                undecided_exist[name] += searched
            if found:
                failures.append(([r.order for r in instance.rankings], found))
    counts = ", ".join(
        f"{name} {exists[name]} exist, {undecided[name]} undecided"
        f" ({undecided_exist[name]} exist)"
        for name, _, _ in decisions
    )
    print(f"n={agents} M={items} {kind.value}: {total} profiles; {counts}; "
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
            if agents == 2:
                ok &= report(agents, items, ItemKind.CHORES, TWO_AGENT_CHORES_DECISIONS)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
