"""Sweep the exact-3-cover reduction: cover exists iff NDD-EF allocation does.

Not collected by pytest; run it directly:

    PYTHONPATH=src python tests/sweep_x3c.py exhaustive
    PYTHONPATH=src python tests/sweep_x3c.py random 300
    PYTHONPATH=src python tests/sweep_x3c.py planted 60

Per instance it compares ``solve_x3c`` with ``nddef_search_reduced``,
re-checks every witness with ``check_envy_free``, checks that the triples
holding main items hold their own and form a cover, and checks the
allocation ``allocation_from_cover`` builds from the solver's cover.
``exhaustive`` takes every instance of the shapes (q, n) = (1,1)..(1,4)
and (2,2), with triples as ordered tuples; ``random`` draws uniform triples
at ``RANDOM_SHAPES``, up to (3,6) and (4,6); ``planted`` shuffles a random
exact cover in with random extra triples at ``PLANTED_SHAPES``, up to (4,7)
and (5,7), so that covers exist at larger q.  The exhaustive (2,3) shape,
1,728,000 instances, is left out of the modes (it takes about 15 min on
a 2-core machine with Python 3.11.7); run it once with

    cd tests && PYTHONPATH=../src python -c "import sweep_x3c as s; s.report('exhaustive (2,3)', s.exhaustive(2, 3))"
"""

import itertools
import random
import sys
import time

from dimdiff.extensions import RelationKind
from dimdiff.fairness import check_envy_free
from dimdiff.reductions import (
    X3CInstance,
    allocation_from_cover,
    nddef_search_reduced,
    reduce_x3c,
    solve_x3c,
)
from test_reductions import cover_held_by

RANDOM_SHAPES = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4),
                 (3, 3), (3, 4), (4, 4), (3, 5), (4, 5), (3, 6), (4, 6)]
PLANTED_SHAPES = [(2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (2, 5), (3, 5),
                  (4, 5), (3, 6), (4, 6), (4, 7), (5, 7)]


def faults(x3c):
    """Why the instance breaks the equivalence (empty when it does not)."""
    q = x3c.cover_size
    cover = solve_x3c(x3c)
    reduced = reduce_x3c(x3c)
    witness = nddef_search_reduced(reduced)
    found = []
    if (cover is None) != (witness is None):
        found.append("divergence")
    if witness is not None:
        if not check_envy_free(witness, reduced.instance, RelationKind.NDD).result:
            found.append("witness not envy-free")
        held = cover_held_by(witness, reduced, x3c)
        if held is None or len(held) != q:
            found.append("witness spells no cover")
    if cover is not None:
        alloc = allocation_from_cover(x3c, cover)
        if not check_envy_free(alloc, reduced.instance, RelationKind.NDD).result:
            found.append("cover allocation not envy-free")
    return cover is not None, found


def exhaustive(q, n):
    triples = list(itertools.permutations(range(3 * q), 3))
    for combo in itertools.product(triples, repeat=n):
        yield X3CInstance(3 * q, combo)


def uniform(q, n, count, rng):
    for _ in range(count):
        yield X3CInstance(
            3 * q, tuple(tuple(rng.sample(range(3 * q), 3)) for _ in range(n))
        )


def planted(q, n, count, rng):
    for _ in range(count):
        elements = rng.sample(range(3 * q), 3 * q)
        triples = [tuple(elements[3 * i:3 * i + 3]) for i in range(q)]
        triples += [tuple(rng.sample(range(3 * q), 3)) for _ in range(n - q)]
        rng.shuffle(triples)
        yield X3CInstance(3 * q, tuple(triples))


def report(label, instances):
    start = time.time()
    total = covered = 0
    failures = []
    for x3c in instances:
        has_cover, found = faults(x3c)
        total += 1
        covered += has_cover
        if found:
            failures.append((x3c.triplets, found))
    print(f"{label}: {total} instances, {covered} with a cover, "
          f"{len(failures)} failures, {time.time() - start:.1f}s", flush=True)
    for failure in failures[:5]:
        print("   ", failure)
    return not failures


def main(argv):
    mode = argv[1] if len(argv) > 1 else "exhaustive"
    count = int(argv[2]) if len(argv) > 2 else 300
    ok = True
    if mode == "exhaustive":
        for q, n in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2)]:
            ok &= report(f"exhaustive ({q},{n})", exhaustive(q, n))
    elif mode in ("random", "planted"):
        shapes, draw = (
            (RANDOM_SHAPES, uniform) if mode == "random" else (PLANTED_SHAPES, planted)
        )
        for q, n in shapes:
            rng = random.Random(1000 * q + n)
            ok &= report(f"{mode} ({q},{n})", draw(q, n, count, rng))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
