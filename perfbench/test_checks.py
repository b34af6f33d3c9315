"""The benchmark's own checkers accept dimdiff's answers and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py

Each case takes the program's answer on a small fixed input, shows that the
checker accepts it, then corrupts it in one way (a flipped existence flag,
two items exchanged between agents, a selection that is not a cover, a CSV
row with a changed probability, a certificate that does not certify) and
shows that the checker rejects it.
"""

import copy
import io
import json

import pytest

import checks
from desk_cli import Question, answer_problems, round_robin
from dimdiff import cli, reductions, simulate

GOODS = {
    "kind": "goods",
    "items": ["i0", "i1", "i2", "i3", "i4", "i5"],
    "agents": [
        {"name": "a0", "ranking": ["i0", "i1", "i2", "i3", "i4", "i5"]},
        {"name": "a1", "ranking": ["i1", "i0", "i3", "i2", "i5", "i4"]},
    ],
}
CHORES = {
    "kind": "chores",
    "items": ["i0", "i1", "i2", "i3"],
    "agents": [
        {"name": "a0", "ranking": ["i0", "i1", "i2", "i3"]},
        {"name": "a1", "ranking": ["i1", "i0", "i3", "i2"]},
    ],
}


def ask(tmp_path, profile, *argv, **details):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    argv = [argv[0], "--profile", str(path)] + list(argv[1:]) + ["--json"]
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdout", out)
        code = cli.main(argv)
    return Question(argv, profile, **details), code, json.loads(out.getvalue())


def exchange(bundles, a, b):
    """Swap the first item of agent a's bundle with the first of agent b's."""
    bundles = copy.deepcopy(bundles)
    bundles[a][0], bundles[b][0] = bundles[b][0], bundles[a][0]
    return bundles


@pytest.mark.parametrize("goal", ["nddpr", "necpr", "nddef"])
def test_search_answer_accepted_and_flipped_flag_rejected(tmp_path, goal):
    question, code, payload = ask(tmp_path, GOODS, "solve", "--goal", goal, "--method", "search")
    assert code == 0 and answer_problems(question, code, payload) == []
    flipped = dict(payload, exists=not payload["exists"])
    assert answer_problems(question, 1, flipped)


def test_nidpr_rule_rejects_flipped_flag(tmp_path):
    question, code, payload = ask(tmp_path, CHORES, "solve", "--goal", "nidpr", "--method", "protocol")
    assert code == 0 and answer_problems(question, code, payload) == []
    assert answer_problems(question, 1, dict(payload, exists=False))


def test_witness_with_exchanged_items_rejected(tmp_path):
    question, code, payload = ask(tmp_path, GOODS, "solve", "--goal", "nddpr", "--method", "search")
    allocation = payload["allocation"]
    bundles = exchange([allocation["a0"], allocation["a1"]], 0, 1)
    corrupted = dict(payload, allocation={"a0": bundles[0], "a1": bundles[1]})
    assert answer_problems(question, code, corrupted)


def test_check_verdict_and_certificate(tmp_path):
    bad = {"a0": ["i3", "i4", "i5"], "a1": ["i0", "i1", "i2"]}
    question, code, payload = ask(
        tmp_path, GOODS, "check", "--allocation", json.dumps(bad), "--criterion", "pr",
        "--extension", "ndd", allocation=bad,
    )
    assert code == 1 and answer_problems(question, code, payload) == []
    assert answer_problems(question, 0, dict(payload, result=True))
    head, _, utility = payload["certificate"].partition("; refuting utility: ")
    values = [pair.split("=") for pair in utility.split(", ")]
    flat = ", ".join(f"{k}=1" for k, _ in values)  # constant: not consistent
    assert answer_problems(question, code, dict(payload, certificate=f"{head}; refuting utility: {flat}"))

    fair = round_robin(GOODS)
    question, code, payload = ask(
        tmp_path, GOODS, "check", "--allocation", json.dumps(fair), "--criterion", "ef",
        "--extension", "ndd", allocation=fair,
    )
    assert code == 0 and answer_problems(question, code, payload) == []
    assert answer_problems(question, 1, dict(payload, result=False, certificate="a0 envies a1"))


def test_pareto_certificate_rejected_when_not_dominating(tmp_path):
    bad = {"a0": ["i1", "i3", "i5"], "a1": ["i0", "i2", "i4"]}
    question, code, payload = ask(
        tmp_path, GOODS, "check", "--allocation", json.dumps(bad), "--criterion", "pe",
        "--extension", "pos", allocation=bad,
    )
    assert code == 1 and answer_problems(question, code, payload) == []
    assert payload["certificate"].startswith("dominated by ")
    same = "dominated by " + json.dumps(bad)
    assert answer_problems(question, code, dict(payload, certificate=same))


def test_swap_certificate(tmp_path):
    same = {
        "kind": "goods",
        "items": ["i0", "i1", "i2"],
        "agents": [{"name": "a0", "ranking": ["i0", "i1", "i2"]},
                   {"name": "a1", "ranking": ["i0", "i1", "i2"]}],
    }
    alloc = {"a0": ["i0"], "a1": ["i1", "i2"]}
    question, code, payload = ask(
        tmp_path, same, "check", "--allocation", json.dumps(alloc), "--criterion", "pe",
        "--extension", "nec", allocation=alloc,
    )
    assert code == 1 and payload["certificate"].startswith("swap improves both: ")
    assert answer_problems(question, code, payload) == []
    reversed_roles = "swap improves both: a1 trades i1 for i0+i2 of a0"
    assert answer_problems(question, code, dict(payload, certificate=reversed_roles))


def test_compare_refutation(tmp_path):
    details = {"bundles": ("a0", ["i1", "i2"], ["i0", "i5"], "ndd")}
    question, code, payload = ask(
        tmp_path, GOODS, "compare", "--agent", "a0", "--x", "i1,i2", "--y", "i0,i5",
        "--relation", "ndd", **details,
    )
    assert code == 1 and answer_problems(question, code, payload) == []
    assert answer_problems(question, 0, dict(payload, holds=True))


X3C = reductions.X3CInstance(6, ((0, 1, 2), (1, 2, 3), (3, 4, 5)))


def x3c_answer(x3c):
    reduced = reductions.reduce_x3c(x3c)
    cover = reductions.solve_x3c(x3c)
    witness = reductions.nddef_search_reduced(reduced)
    built = reductions.allocation_from_cover(x3c, cover) if cover is not None else None
    rankings = [list(r.order) for r in reduced.instance.rankings]
    as_lists = lambda alloc: None if alloc is None else [list(b) for b in alloc.bundles]
    return cover, rankings, as_lists(witness), as_lists(built)


def test_x3c_answer_accepted_and_corruptions_rejected():
    cover, rankings, witness, built = x3c_answer(X3C)
    args = (X3C.base_size, X3C.triplets, True)
    assert checks.x3c_problems(*args, cover, rankings, witness, built) == []
    # a flipped existence flag: no allocation although the cover exists
    assert checks.x3c_problems(*args, cover, rankings, None, built)
    # a selection that is not a cover
    assert not checks.is_exact_cover(6, X3C.triplets, (0, 1))
    assert checks.x3c_problems(*args, (0, 1), rankings, witness, built)
    # a witness with two items exchanged between agents
    assert checks.x3c_problems(*args, cover, rankings, exchange(witness, 0, 4), built)


def test_x3c_without_cover_accepted():
    coverless = reductions.X3CInstance(6, ((0, 1, 2), (0, 3, 4)))
    cover, rankings, witness, built = x3c_answer(coverless)
    assert cover is None and witness is None
    assert checks.x3c_problems(6, coverless.triplets, False, cover, rankings, witness, built) == []
    assert checks.x3c_problems(6, coverless.triplets, True, cover, rankings, witness, built)


def test_csv_accepted_and_changed_probability_rejected():
    config = simulate.SimConfig((0.4,), (2, 3, 4), 5, 99)
    out = io.StringIO()
    simulate.write_csv(simulate.run_experiment(config), config, out)
    text = out.getvalue()
    assert checks.csv_row_problems(text, 99, 0.4, (2, 3, 4), 5) == []
    lines = text.splitlines(keepends=True)
    fields = lines[-1].split(",")
    fields[4] = "0.2000" if fields[4] != "0.2000" else "0.4000"  # p_nddpr
    changed = "".join(lines[:-1]) + ",".join(fields)
    assert checks.csv_row_problems(changed, 99, 0.4, (2, 3, 4), 5)


def test_needed_masks_counts_the_gosper_order():
    # balanced 4-item masks ascending: 0011 0101 0110 1001 1010 1100
    assert [checks.needed_masks("equal_split", 4, m) for m in (3, 5, 6, 9, 10, 12)] == [1, 2, 3, 4, 5, 6]
    assert checks.needed_masks("equal_split", 4, None) == 6
    assert checks.needed_masks("any_split", 4, 5) == 6
    assert checks.needed_masks("any_split", 4, None) == 16
