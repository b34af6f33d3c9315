"""mc_grid: the paper's Monte-Carlo experiment, one row of its grid per request.

A round is ten requests, one per noise level A = 0.1 .. 1.0, so a round
covers the whole grid once.  Each request runs ``simulate.run_experiment``
on one noise level, every m in 2..8, two agents and ``TRIALS`` trials per
cell, with its own seed drawn from the run seed and the request's place.
Every request has the same mix of m, so the latency percentiles do not sit
on the boundary between two sizes of trial.

Run as a script it prints the SHA-256 of round 0's CSV bytes for a seed,
the hash every mc_grid run with that seed reports:

    PYTHONPATH=src python3 perfbench/mc_grid.py --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import io
import random

import checks
from dimdiff import simulate

NOISE_LEVELS = tuple(round(0.1 * k, 1) for k in range(1, 11))
ITEM_PAIR_COUNTS = tuple(range(2, 9))
TRIALS = 2


class McGrid:
    name = "mc_grid"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.csv_sha256 = None

    def round(self, index):
        return [
            (noise, random.Random(f"mc_grid/{self.seed}/{index}/{i}").getrandbits(32))
            for i, noise in enumerate(NOISE_LEVELS)
        ]

    def call(self, request):
        noise, seed = request
        config = simulate.SimConfig((noise,), ITEM_PAIR_COUNTS, TRIALS, seed)
        out = io.StringIO()
        simulate.write_csv(simulate.run_experiment(config), config, out)
        return out.getvalue()

    def check(self, index, requests, answers):
        problems = []
        for (noise, seed), text in zip(requests, answers):
            if not isinstance(text, Exception):
                problems += checks.csv_row_problems(text, seed, noise, ITEM_PAIR_COUNTS, TRIALS)
        if index == 0:
            digest = round_hash(answers)
            if self.csv_sha256 not in (None, digest):
                problems.append("round 0 gave other CSV bytes on its second pass")
            self.csv_sha256 = digest
        return problems

    def summary(self):
        return {"csv_sha256": self.csv_sha256}


def round_hash(answers):
    digest = hashlib.sha256()
    for text in answers:
        digest.update(str(text).encode("utf-8"))
    return digest.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args().seed
    grid = McGrid(seed, None)
    print(round_hash([grid.call(request) for request in grid.round(0)]))
