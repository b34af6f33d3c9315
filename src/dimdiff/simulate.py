"""Monte-Carlo experiment: existence probabilities under correlated rankings.

Each trial draws a per-item market value uniformly from [1, 2] and gives each
agent that value plus independent uniform noise from [-A, A]; rankings are
the descending value orders.  Per trial the experiment decides whether
proportional allocations exist under the four goods extensions, and audits
whether the round-robin output is proportional under the generating cardinal
values.  Results aggregate per (A, m) cell into a plot-ready CSV.

The two necessary columns come from decisions that are exact for any n:
``necpr_exists`` (a slot-to-item matching) and ``nddpr_exists`` (n divides
M and the best items are distinct, with balanced round-robin as the
witness).  On every trial both certificates must pass
``certificate_holds``: a yes witness ``check_proportional`` accepts, or a
no whose reason (a divisibility failure, a shared best item or a Hall
violator) holds.  The possible and possibly-DD columns come from the closed
forms ``pospr_exists`` and ``pddpr_exists`` whenever they are decisive,
which is every trial except those of three or more agents sharing a best
item; only those fall back to exhaustive search, so no two-agent trial
searches.  Where ``pddpr_exists`` answers with ``pospr_exists``'s own
report, the trial reads that report for both columns and so builds the
serial-picks witness once.  Trials do not check the pospr and pddpr
witnesses; the tests certify them on seeded trials of every cell of the
full grid.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Optional

import numpy as np

from .core import (
    Instance,
    ItemKind,
    Ranking,
    UtilityFunction,
    classify_dd,
)
from .fairness import check_proportional
from .protocols import (
    Reason,
    certificate_holds,
    necpr_exists,
    nddpr_exists,
    pddpr_exists,
    pospr_exists,
)
from .search import GOALS, exists_allocation

CSV_HEADER = "A,m,trials,p_necpr,p_nddpr,p_pddpr,p_pospr,p_rr_cardinal_proportional"

#: The goals of the existence columns, in CSV order; see ``search.GOALS``.
_COLUMNS = ("necpr", "nddpr", "pddpr", "pospr")

#: Columns whose every answer carries a certificate checked per trial.
_CERTIFIED = ("necpr", "nddpr")

#: The reasons of pospr_exists's reports.  pddpr_exists answers with
#: pospr_exists's report unchanged whenever it gives one of them.
_POSPR_REASONS = frozenset({Reason.CONDITIONS_MET, Reason.FEWER_ITEMS_THAN_AGENTS})


def _valid_noise(amplitude: float) -> bool:
    # numpy draws the noise from [-A, A] only if the width 2A is finite.
    try:
        width = 2 * float(amplitude)
    except OverflowError:  # an integer beyond the float range
        return False
    return width > 0 and math.isfinite(width)


@dataclass(frozen=True)
class SimConfig:
    """Experiment grid: noise amplitudes x item-pair counts, trials per cell."""

    noise_levels: tuple[float, ...]
    item_pair_counts: tuple[int, ...]
    trials: int
    seed: int
    agents: int = 2

    def __post_init__(self) -> None:
        noise_levels = tuple(self.noise_levels)
        if not noise_levels or not all(map(_valid_noise, noise_levels)):
            raise ValueError("noise levels must be positive and finite")
        object.__setattr__(self, "noise_levels", tuple(float(a) for a in noise_levels))
        try:  # operator.index takes ints and numpy ints, never a float
            sizes = (
                tuple(map(operator.index, self.item_pair_counts)),
                *map(operator.index, (self.trials, self.seed, self.agents)),
            )
        except TypeError:
            raise ValueError("item pair counts, trials, seed and agents must be integers") from None
        for name, value in zip(("item_pair_counts", "trials", "seed", "agents"), sizes):
            object.__setattr__(self, name, value)
        if not self.item_pair_counts or any(m < 1 for m in self.item_pair_counts):
            raise ValueError("item pair counts must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.agents < 2:
            raise ValueError("the experiment needs at least two agents")


def full_grid_config(seed: int, trials: int = 1000) -> SimConfig:
    """The full default grid: A in 0.1..1.0 by 0.1, item pairs m in 2..8."""
    return SimConfig(
        noise_levels=tuple(round(0.1 * k, 1) for k in range(1, 11)),
        item_pair_counts=tuple(range(2, 9)),
        trials=trials,
        seed=seed,
    )


@dataclass(frozen=True)
class SimCell:
    noise: float
    m: int
    trials: int
    p_necpr: float
    p_nddpr: float
    p_pddpr: float
    p_pospr: float
    p_rr_cardinal_proportional: float


def trial_rng(seed: int, noise_index: int, m_index: int, trial: int) -> np.random.Generator:
    """Independent, reproducible per-trial stream.

    The stream is derived by hashing (seed, cell coordinates, trial index),
    so cells and trials can run in any order or in parallel without changing
    a single draw.
    """
    # SeedSequence reads a tuple of ints as the 32-bit words of each, least
    # significant first (0 as one zero word).  Handing it those words as one
    # uint32 array gives the same pool without its per-part conversion.
    words = []
    for part in (seed, noise_index, m_index, trial):
        if part < 0:
            raise ValueError("expected non-negative integer")
        words.append(part & 0xFFFFFFFF)
        part >>= 32
        while part:
            words.append(part & 0xFFFFFFFF)
            part >>= 32
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def generate_profile(
    m: int, noise: float, rng: np.random.Generator, agents: int = 2
) -> tuple[np.ndarray, Instance]:
    """Cardinal values (agents x 2m) and the induced ordinal instance.

    Value ties have probability zero in theory but can occur in floats; they
    are broken by item identifier to keep rankings strict.
    """
    if not _valid_noise(noise):
        raise ValueError("noise must be positive and finite")
    item_count = 2 * m
    market = rng.uniform(1.0, 2.0, item_count)
    values = market[None, :] + rng.uniform(-noise, noise, (agents, item_count))
    orders = np.argsort(-values, axis=1, kind="stable").tolist()
    rankings = tuple(Ranking(tuple(order)) for order in orders)
    return values, Instance(ItemKind.GOODS, rankings)


@dataclass(frozen=True)
class TrialResult:
    exists: dict
    rr_cardinal_proportional: bool


def run_trial(
    m: int,
    noise: float,
    rng: np.random.Generator,
    agents: int = 2,
) -> TrialResult:
    values, instance = generate_profile(m, noise, rng, agents)
    reports = {
        "necpr": necpr_exists(instance),
        "nddpr": nddpr_exists(instance),
        "pddpr": pddpr_exists(instance),
    }
    pddpr = reports["pddpr"]
    reports["pospr"] = pddpr if pddpr.reason in _POSPR_REASONS else pospr_exists(instance)
    for name in _CERTIFIED:
        if not certificate_holds(instance, reports[name], GOALS[name].extension):
            raise AssertionError(f"{name} certificate failed its check: {reports[name]}")

    exists: dict[str, bool] = {}
    for name in _COLUMNS:
        answer = reports[name].exists
        if answer is None:
            answer = exists_allocation(instance, GOALS[name]) is not None
        exists[name] = answer

    # The implication chain must hold per trial, not just in aggregate.
    chain = [exists[name] for name in _COLUMNS]
    for stronger, weaker in zip(chain, chain[1:]):
        if stronger and not weaker:
            raise AssertionError(f"extension implication chain violated: {exists}")

    # A yes from nddpr_exists is the round-robin allocation, whose NDD
    # guarantee certificate_holds checked above.
    rr_proportional = False
    report = reports["nddpr"]
    if report.exists:
        allocation = report.allocation
        profile = tuple(map(UtilityFunction, values.tolist()))
        rr_proportional = check_proportional(allocation, instance, profile).result
        if not rr_proportional and all(map(classify_dd, profile, instance.rankings)):
            # Guaranteed exactly when the sampled cardinal profile lands in
            # the diminishing-differences class.
            raise AssertionError("cardinal DD profile contradicts the NDD guarantee")
    return TrialResult(exists, rr_proportional)


def run_experiment(config: SimConfig, progress: Optional[IO[str]] = None) -> list[SimCell]:
    """All cells of the grid; deterministic for a fixed config."""
    cells: list[SimCell] = []
    for ai, noise in enumerate(config.noise_levels):
        for mi, m in enumerate(config.item_pair_counts):
            tallies = {name: 0 for name in _COLUMNS}
            rr_tally = 0
            for trial in range(config.trials):
                rng = trial_rng(config.seed, ai, mi, trial)
                result = run_trial(m, noise, rng, config.agents)
                for name in _COLUMNS:
                    tallies[name] += result.exists[name]
                rr_tally += result.rr_cardinal_proportional
            cells.append(
                SimCell(
                    noise=noise,
                    m=m,
                    trials=config.trials,
                    p_necpr=tallies["necpr"] / config.trials,
                    p_nddpr=tallies["nddpr"] / config.trials,
                    p_pddpr=tallies["pddpr"] / config.trials,
                    p_pospr=tallies["pospr"] / config.trials,
                    p_rr_cardinal_proportional=rr_tally / config.trials,
                )
            )
            if progress is not None:
                progress.write(f"A={noise:g} m={m} done\n")
                progress.flush()
    return cells


def write_csv(cells: Iterable[SimCell], config: SimConfig, stream: IO[str]) -> None:
    """Emit the cell table with a comment header recording the exact setup."""
    stream.write(f"# seed={config.seed}\n")
    stream.write(f"# agents={config.agents}\n")
    stream.write(f"# noise_levels={','.join(f'{a:g}' for a in config.noise_levels)}\n")
    stream.write(f"# item_pair_counts={','.join(str(m) for m in config.item_pair_counts)}\n")
    stream.write(f"# trials_per_cell={config.trials}\n")
    stream.write("# value ties broken by item identifier; ")
    stream.write("per-trial rng = SeedSequence((seed, noise_index, m_index, trial))\n")
    stream.write(CSV_HEADER + "\n")
    for cell in cells:
        stream.write(
            f"{cell.noise:.4f},{cell.m},{cell.trials},"
            f"{cell.p_necpr:.4f},{cell.p_nddpr:.4f},{cell.p_pddpr:.4f},"
            f"{cell.p_pospr:.4f},{cell.p_rr_cardinal_proportional:.4f}\n"
        )


def main_csv(config: SimConfig, path: str, progress: bool = False) -> list[SimCell]:
    cells = run_experiment(config, progress=sys.stderr if progress else None)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_csv(cells, config, handle)
    return cells
