"""x3c_sweep: the hardness reduction, one exact-3-cover instance per request.

Each request decides one instance both ways: ``reduce_x3c``, ``solve_x3c``,
``nddef_search_reduced``, then ``allocation_from_cover`` when a cover
exists.  Planted instances (a random exact cover shuffled in with random
triples) end the backtracking early.  Coverless ones (uniform random triples,
drawn again until the benchmark's own solver finds no cover) exhaust it.
A third of uniform (2,4) instances have a cover and take about 1 ms instead
of about 150 ms, so leaving the draw to chance would let a run's figures
follow the share of covered draws.  ``ROUND`` fixes the shapes (q, n): q
triples cover the 3q elements, n triples in all.  It is weighted so that the
median falls inside the coverless (2,3) requests (about 8 ms) and the 90th
percentile inside the coverless (2,4) ones (about 120 ms), away from the
boundaries between kinds.
Shapes with n = 5 are left out: single instances there take from 1 ms to
over 2 s, so a run's figures would hang on a handful of draws.
"""

from __future__ import annotations

import json
import random

import checks
from dimdiff import reductions

ROUND = (
    [("planted", 2, 3), ("planted", 2, 4), ("planted", 3, 3), ("planted", 3, 4),
     ("coverless", 3, 3)]
    + [("coverless", 2, 3)] * 8
    + [("coverless", 3, 4)] * 3
    + [("coverless", 2, 4)] * 4
)


def draw(rng, kind, q, n):
    """Triples of one instance over the elements 0..3q-1."""
    base = 3 * q
    while True:
        triplets = []
        if kind == "planted":
            elements = rng.sample(range(base), base)
            triplets = [tuple(elements[3 * k:3 * k + 3]) for k in range(q)]
        triplets += [tuple(rng.sample(range(base), 3)) for _ in range(n - len(triplets))]
        rng.shuffle(triplets)
        if kind == "planted" or checks.brute_force_cover(base, triplets) is None:
            return base, tuple(triplets)


class X3cSweep:
    name = "x3c_sweep"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.instance_file = workdir / "instances.json"

    def round(self, index):
        rng = random.Random(f"x3c_sweep/{self.seed}/{index}")
        requests = [(kind,) + draw(rng, kind, q, n) for kind, q, n in ROUND]
        self.instance_file.write_text(json.dumps([
            {"kind": kind, "base_size": base, "triplets": triplets}
            for kind, base, triplets in requests
        ]))
        return requests

    def call(self, request):
        _, base, triplets = request
        x3c = reductions.X3CInstance(base, triplets)
        reduced = reductions.reduce_x3c(x3c)
        cover = reductions.solve_x3c(x3c)
        witness = reductions.nddef_search_reduced(reduced)
        built = None if cover is None else reductions.allocation_from_cover(x3c, cover)
        return reduced, cover, witness, built

    def check(self, index, requests, answers):
        problems = []
        for (kind, base, triplets), answer in zip(requests, answers):
            if isinstance(answer, Exception):
                continue
            reduced, cover, witness, built = answer
            found = checks.x3c_problems(
                base, triplets, kind == "planted", cover,
                [list(r.order) for r in reduced.instance.rankings],
                None if witness is None else [list(b) for b in witness.bundles],
                None if built is None else [list(b) for b in built.bundles],
            )
            problems += [f"{kind} {triplets}: {p}" for p in found]
        return problems

    def summary(self):
        return {}
