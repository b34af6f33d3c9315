"""Monte-Carlo experiment: profile generation, trials, aggregation, CSV."""

import io
import itertools
import random

import numpy as np
import pytest

from dimdiff import simulate
from dimdiff.core import Instance, ItemKind, Ranking, UtilityFunction, classify_dd
from dimdiff.fairness import Criterion, FairnessVerdict, ProportionalityViolation
from dimdiff.protocols import (
    ExistenceReport,
    Reason,
    certificate_holds,
    necpr_exists,
    nddpr_exists,
    pddpr_exists,
    pospr_exists,
)
from dimdiff.search import GOALS, exists_allocation
from dimdiff.simulate import (
    CSV_HEADER,
    SimConfig,
    generate_profile,
    full_grid_config,
    run_experiment,
    run_trial,
    trial_rng,
    write_csv,
)
from test_protocols import golden_profiles


def small_config(seed=7, trials=40):
    return SimConfig(
        noise_levels=(0.2, 1.0),
        item_pair_counts=(2, 3),
        trials=trials,
        seed=seed,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig((0.0,), (2,), 10, 1)
    # numpy cannot draw from [-A, A] unless 2A is a finite float.
    for noise in (float("nan"), float("inf"), 1e308, 10 ** 400):
        with pytest.raises(ValueError):
            SimConfig((noise,), (2,), 10, 1)
        with pytest.raises(ValueError):
            generate_profile(2, noise, trial_rng(1, 0, 0, 0))
    with pytest.raises(ValueError):
        SimConfig((0.5,), (), 10, 1)
    with pytest.raises(ValueError):
        SimConfig((0.5,), (2,), 0, 1)
    with pytest.raises(ValueError):
        SimConfig((0.5,), (2,), 10, -1)
    with pytest.raises(ValueError):
        SimConfig((0.5,), (2,), 10, 1, agents=1)
    full = full_grid_config(0)
    assert len(full.noise_levels) == 10 and full.item_pair_counts == tuple(range(2, 9))
    assert full.trials == 1000 and full.agents == 2
    # Sizes must be integers: 2.7 item pairs would run m = 2, and 2.5 trials
    # would fail only inside run_experiment.  numpy ints are integers.
    for sizes in (((2.7,), 10, 1, 2), ((2,), 2.5, 1, 2), ((2,), 10, 1.5, 2), ((2,), 10, 1, 2.0)):
        with pytest.raises(ValueError):
            SimConfig((0.5,), *sizes)
    numpy_sizes = SimConfig((0.5,), (np.int64(2),), np.int64(10), np.int32(1), np.int8(3))
    assert numpy_sizes == SimConfig((0.5,), (2,), 10, 1, 3)
    assert type(numpy_sizes.trials) is int


def test_generate_profile_golden_fixture():
    # Frozen from the first run: seed 12345, cell (0, 0), trial 0, m=2, A=1.
    values, instance = generate_profile(2, 1.0, trial_rng(12345, 0, 0, 0))
    expected = np.array(
        [
            [1.0095551236709877, 0.9823861954425219, 1.9939829645071137, 1.0497230419584012],
            [1.5728481104964123, 2.2003640702496270, 1.2938568865918760, 2.5740169744176110],
        ]
    )
    assert np.allclose(values, expected, rtol=0, atol=1e-15)
    assert instance.kind is ItemKind.GOODS
    assert [r.order for r in instance.rankings] == [(2, 3, 0, 1), (3, 1, 0, 2)]


def test_generate_profile_determinism_and_independence():
    a1, i1 = generate_profile(3, 0.4, trial_rng(9, 1, 2, 5))
    a2, i2 = generate_profile(3, 0.4, trial_rng(9, 1, 2, 5))
    assert (a1 == a2).all() and i1 == i2
    b, _ = generate_profile(3, 0.4, trial_rng(9, 1, 2, 6))
    assert not (a1 == b).all()


def test_tiny_noise_converges_to_market_order():
    # As the noise amplitude vanishes both agents' rankings approach the
    # market-value order, i.e. they coincide.
    values, instance = generate_profile(4, 1e-12, trial_rng(3, 0, 0, 0))
    assert instance.rankings[0] == instance.rankings[1]


def test_rankings_are_strict_under_ties():
    class ZeroRng:
        def uniform(self, lo, hi, size=None):
            return np.full(size, (lo + hi) / 2.0)

    values, instance = generate_profile(2, 0.5, ZeroRng())
    # All values equal: identifier order breaks the ties.
    assert instance.rankings[0].order == (0, 1, 2, 3)
    assert instance.rankings[0] == instance.rankings[1]


def test_run_trial_invariants():
    for trial in range(30):
        result = run_trial(3, 0.3, trial_rng(11, 0, 0, trial))
        chain = [result.exists[k] for k in ("necpr", "nddpr", "pddpr", "pospr")]
        for stronger, weaker in zip(chain, chain[1:]):
            assert not stronger or weaker
        assert result.exists["pospr"]  # balanced splits always qualify
        if not result.exists["nddpr"]:
            assert not result.rr_cardinal_proportional


def test_run_experiment_cells_and_probabilities():
    cells = run_experiment(small_config())
    assert len(cells) == 4
    assert [(c.noise, c.m) for c in cells] == [(0.2, 2), (0.2, 3), (1.0, 2), (1.0, 3)]
    for cell in cells:
        probs = (cell.p_necpr, cell.p_nddpr, cell.p_pddpr, cell.p_pospr,
                 cell.p_rr_cardinal_proportional)
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert cell.p_necpr <= cell.p_nddpr <= cell.p_pddpr <= cell.p_pospr
        assert cell.p_rr_cardinal_proportional <= cell.p_nddpr
        assert cell.trials == 40


def test_csv_layout_and_determinism():
    config = small_config(trials=15)
    cells = run_experiment(config)
    buffer = io.StringIO()
    write_csv(cells, config, buffer)
    text = buffer.getvalue()
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    assert comments and f"# seed={config.seed}" in comments
    header_index = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_index] == CSV_HEADER
    data = lines[header_index + 1:]
    assert len(data) == 4
    first = data[0].split(",")
    assert first[0] == "0.2000" and first[1] == "2" and first[2] == "15"
    assert all(len(field.split(".")[-1]) == 4 for field in first[3:])

    again = io.StringIO()
    write_csv(run_experiment(config), config, again)
    assert again.getvalue() == text


def test_experiment_seed_sensitivity():
    base = run_experiment(small_config(seed=1, trials=25))
    other = run_experiment(small_config(seed=2, trials=25))
    assert any(
        a.p_necpr != b.p_necpr or a.p_nddpr != b.p_nddpr for a, b in zip(base, other)
    )


def test_nddpr_certificate_is_checked_on_every_trial(monkeypatch):
    # A trial whose two rankings have distinct best items: a no that blames
    # a shared best item is false and must stop the trial.
    _, instance = generate_profile(3, 1.0, trial_rng(5, 0, 0, 0))
    assert len({r.best for r in instance.rankings}) == 2
    monkeypatch.setattr(
        simulate, "nddpr_exists", lambda _: ExistenceReport(False, Reason.SHARED_BEST_ITEM)
    )
    with pytest.raises(AssertionError, match="nddpr certificate"):
        run_trial(3, 1.0, trial_rng(5, 0, 0, 0))


def test_two_agent_trials_never_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a two-agent trial called exists_allocation")

    monkeypatch.setattr(simulate, "exists_allocation", no_search)
    cells = run_experiment(small_config(trials=20))
    assert len(cells) == 4


def test_trial_rng_is_the_seed_sequence_of_the_tuple():
    for value in (0, 2**32 - 1, 2**32, 2**64 + 5, 10**30):
        for place in range(4):
            parts = [7, 1, 2, 3]
            parts[place] = value
            rng = trial_rng(*parts)
            reference = np.random.SeedSequence(tuple(parts))
            assert (rng.bit_generator.seed_seq.pool == reference.pool).all()
            assert (rng.random(4) == np.random.default_rng(reference).random(4)).all()
            parts[place] = -1
            with pytest.raises(ValueError):
                trial_rng(*parts)


def test_cardinal_dd_audit_fires_on_a_false_verdict(monkeypatch):
    # Trial 63 at m = 2, A = 0.5 draws two utilities with diminishing
    # differences and distinct best items, so round-robin must be
    # proportional under them; a verdict that says otherwise stops the trial.
    values, instance = generate_profile(2, 0.5, trial_rng(1, 0, 0, 63))
    assert all(map(classify_dd, map(UtilityFunction, values.tolist()), instance.rankings))
    assert run_trial(2, 0.5, trial_rng(1, 0, 0, 63)).rr_cardinal_proportional
    refused = FairnessVerdict(
        Criterion.PROPORTIONALITY, None, False, ProportionalityViolation(0)
    )
    monkeypatch.setattr(simulate, "check_proportional", lambda *args: refused)
    with pytest.raises(AssertionError, match="contradicts the NDD guarantee"):
        run_trial(2, 0.5, trial_rng(1, 0, 0, 63))


def test_possible_witnesses_certify_on_grid_sized_trials():
    # run_trial certifies only the necpr and nddpr columns; the pospr and
    # pddpr witnesses of every A and m of the full grid are checked here.
    config = full_grid_config(seed=3)
    for ai, noise in enumerate(config.noise_levels):
        for mi, m in enumerate(config.item_pair_counts):
            for trial in range(4):
                _, instance = generate_profile(m, noise, trial_rng(3, ai, mi, trial))
                for name, decide in (("pospr", pospr_exists), ("pddpr", pddpr_exists)):
                    report = decide(instance)
                    assert report.exists
                    assert certificate_holds(instance, report, GOALS[name].extension), name


def _shared_best_profiles():
    """Seeded goods profiles of n = 3..5 agents whose first two agents share
    their best item, with M = n - 1 .. n + 4 items."""
    rng = random.Random("shared-best")
    for n in range(3, 6):
        for m in range(n - 1, n + 5):
            for _ in range(12):
                orders = [rng.sample(range(m), m) for _ in range(n)]
                first = orders[0][0]
                orders[1].remove(first)
                orders[1].insert(0, first)
                yield Instance(ItemKind.GOODS, tuple(Ranking(tuple(o)) for o in orders))


def test_pddpr_passes_on_the_pospr_report():
    # run_trial reads pddpr_exists's report as pospr's whenever its reason is
    # one pospr_exists gives; there the two reports must be the same.
    passed_on = 0
    for instance in itertools.chain(golden_profiles(), _shared_best_profiles()):
        pddpr = pddpr_exists(instance)
        if pddpr.reason in simulate._POSPR_REASONS:
            assert pddpr == pospr_exists(instance)
            passed_on += 1
        else:
            assert pddpr.reason in (Reason.SHARED_BEST_ITEM, Reason.OUT_OF_THEORY)
            assert pospr_exists(instance).reason in simulate._POSPR_REASONS
    assert 0 < passed_on < 1080 + 3 * 6 * 12


def test_three_agent_columns_match_the_decisions():
    # Every column of a three-agent grid against the four decisions, called
    # one by one, with exhaustive search where a decision is undecided.
    config = SimConfig((0.1, 1.0), (2, 3), trials=12, seed=5, agents=3)
    cells = run_experiment(config)
    decisions = {
        "necpr": necpr_exists, "nddpr": nddpr_exists,
        "pddpr": pddpr_exists, "pospr": pospr_exists,
    }
    undecided = 0
    for cell, (ai, mi) in zip(cells, itertools.product(range(2), range(2))):
        tallies = dict.fromkeys(decisions, 0)
        for trial in range(config.trials):
            _, instance = generate_profile(
                config.item_pair_counts[mi], config.noise_levels[ai],
                trial_rng(config.seed, ai, mi, trial), agents=3,
            )
            for name, decide in decisions.items():
                answer = decide(instance).exists
                if answer is None:
                    undecided += 1
                    answer = exists_allocation(instance, GOALS[name]) is not None
                tallies[name] += answer
        assert (cell.p_necpr, cell.p_nddpr, cell.p_pddpr, cell.p_pospr) == tuple(
            tallies[name] / config.trials for name in decisions
        )
    assert undecided
