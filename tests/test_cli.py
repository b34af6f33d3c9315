"""Command-line interface: exit codes, reports, file round-trips."""

import json
import os
import subprocess
import sys

import pytest

import dimdiff
from dimdiff import cli
from dimdiff.cli import main
from dimdiff.profiles import (
    allocation_from_json,
    load_preflib_soc,
    load_profile,
    profile_from_json,
    profile_to_json,
    save_profile,
)

EIGHT = {
    "kind": "goods",
    "items": [str(i) for i in range(1, 9)],
    "agents": [{"name": "alice", "ranking": [str(i) for i in range(8, 0, -1)]}],
}

OPPOSITE = {
    "kind": "goods",
    "items": ["1", "2", "3", "4"],
    "agents": [
        {"name": "alice", "ranking": ["4", "3", "2", "1"]},
        {"name": "bob", "ranking": ["2", "3", "4", "1"]},
    ],
}

THREE_AGENT = {
    "kind": "goods",
    "items": ["1", "2", "3", "4", "5", "6"],
    "agents": [
        {"name": "alice", "ranking": ["6", "5", "3", "4", "2", "1"]},
        {"name": "bob", "ranking": ["5", "4", "3", "6", "2", "1"]},
        {"name": "carl", "ranking": ["4", "6", "3", "5", "2", "1"]},
    ],
}

CHORES3 = {
    "kind": "chores",
    "items": ["x", "y", "z"],
    "agents": [
        {"name": "a", "ranking": ["x", "y", "z"]},
        {"name": "b", "ranking": ["x", "z", "y"]},
        {"name": "c", "ranking": ["x", "z", "y"]},
    ],
}


@pytest.fixture
def profile_path(tmp_path):
    def write(payload, name="profile.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


# --- compare ------------------------------------------------------------------

def test_compare_refuted_relation(profile_path, capsys):
    path = profile_path(EIGHT)
    code = main([
        "compare", "--profile", path, "--agent", "alice",
        "--x", "8,4,2", "--y", "7,6", "--relation", "ndd",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "does not hold" in out and "refuting utility" in out


def test_compare_holding_relation(profile_path, capsys):
    path = profile_path(EIGHT)
    code = main([
        "compare", "--profile", path, "--agent", "alice",
        "--x", "8,5", "--y", "7,6", "--relation", "ndd",
    ])
    assert code == 0
    code = main([
        "compare", "--profile", path, "--agent", "alice",
        "--x", "8,5", "--y", "7,6", "--relation", "nec",
    ])
    assert code == 1


def test_compare_reflexive_and_multiplicity(profile_path):
    path = profile_path(EIGHT)
    for relation in ("nec", "ndd", "pdd", "pos", "nbin", "pbin"):
        assert main([
            "compare", "--profile", path, "--agent", "alice",
            "--x", "8,4", "--y", "8,4", "--relation", relation,
        ]) == 0
    assert main([
        "compare", "--profile", path, "--agent", "alice",
        "--x", "2*3", "--y", "1,2,3", "--relation", "pos",
    ]) == 0


def test_compare_json_output(profile_path, capsys):
    path = profile_path(EIGHT)
    code = main([
        "compare", "--profile", path, "--agent", "alice",
        "--x", "8,4,2", "--y", "7,6", "--relation", "ndd", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["holds"] is False
    assert "refuting_utility" in payload


def test_compare_unknown_item(profile_path, capsys):
    path = profile_path(EIGHT)
    code = main([
        "compare", "--profile", path, "--agent", "alice",
        "--x", "9", "--y", "1", "--relation", "ndd",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bundle", ["2*", "2* ,3"])
def test_compare_empty_multiplicity_is_usage_error(profile_path, capsys, bundle):
    # A star without a count is malformed, not a single copy.
    path = profile_path(EIGHT)
    code = main([
        "compare", "--profile", path, "--agent", "alice",
        "--x", bundle, "--y", "1", "--relation", "nec",
    ])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


# --- check --------------------------------------------------------------------

def test_check_envy_example(profile_path, capsys):
    path = profile_path(THREE_AGENT)
    alloc = json.dumps({"alice": ["6", "1"], "bob": ["5", "2"], "carl": ["3", "4"]})
    code = main([
        "check", "--profile", path, "--allocation", alloc,
        "--criterion", "ef", "--extension", "ndd",
    ])
    out = capsys.readouterr().out
    assert code == 1 and "bob envies carl" in out


def test_check_proportionality(profile_path):
    path = profile_path(OPPOSITE)
    alloc = json.dumps({"alice": ["4", "1"], "bob": ["2", "3"]})
    assert main([
        "check", "--profile", path, "--allocation", alloc,
        "--criterion", "pr", "--extension", "ndd",
    ]) == 0
    assert main([
        "check", "--profile", path, "--allocation", alloc,
        "--criterion", "pr", "--extension", "nec",
    ]) == 1


def test_check_pdd_example(profile_path):
    identical = {
        "kind": "goods",
        "items": [str(i) for i in range(1, 7)],
        "agents": [
            {"name": "alice", "ranking": [str(i) for i in range(6, 0, -1)]},
            {"name": "bob", "ranking": [str(i) for i in range(6, 0, -1)]},
        ],
    }
    path = profile_path(identical)
    alloc = json.dumps({"alice": ["6", "5", "1"], "bob": ["4", "3", "2"]})
    assert main([
        "check", "--profile", path, "--allocation", alloc,
        "--criterion", "pr", "--extension", "pdd",
    ]) == 1
    assert main([
        "check", "--profile", path, "--allocation", alloc,
        "--criterion", "pr", "--extension", "pos",
    ]) == 0


def test_check_allocation_from_file(profile_path, tmp_path):
    path = profile_path(OPPOSITE)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"alice": ["4", "1"], "bob": ["2", "3"]}))
    assert main([
        "check", "--profile", path, "--allocation", str(alloc_path),
        "--criterion", "ef", "--extension", "ndd",
    ]) == 0


def test_check_unsupported_extension_is_usage_error(profile_path, capsys):
    path = profile_path(OPPOSITE)
    alloc = json.dumps({"alice": ["4", "1"], "bob": ["2", "3"]})
    code = main([
        "check", "--profile", path, "--allocation", alloc,
        "--criterion", "ef", "--extension", "pdd",
    ])
    assert code == 2


@pytest.mark.parametrize(
    "allocation",
    ['{"alice": 5}', '{"alice": ["4", "1"], "bob": "23"}', '{"alice": ["4", 1], "bob": ["2", "3"]}'],
    ids=["bundle_not_a_list", "bundle_a_string", "item_not_a_string"],
)
def test_wrongly_shaped_allocation_is_usage_error(profile_path, capsys, allocation):
    path = profile_path(OPPOSITE)
    assert main([
        "check", "--profile", path, "--allocation", allocation,
        "--criterion", "pr", "--extension", "ndd",
    ]) == 2
    assert "Traceback" not in capsys.readouterr().err
    with pytest.raises(ValueError):
        allocation_from_json(json.loads(allocation), profile_from_json(OPPOSITE))


def test_check_single_agent(profile_path):
    single = {
        "kind": "goods",
        "items": ["a", "b"],
        "agents": [{"name": "only", "ranking": ["a", "b"]}],
    }
    path = profile_path(single)
    alloc = json.dumps({"only": ["a", "b"]})
    assert main([
        "check", "--profile", path, "--allocation", alloc,
        "--criterion", "pr", "--extension", "ndd",
    ]) == 0


# --- solve --------------------------------------------------------------------

def test_solve_protocol_and_condition(profile_path, capsys):
    path = profile_path(OPPOSITE)
    code = main(["solve", "--profile", path, "--goal", "nddpr", "--method", "protocol"])
    out = capsys.readouterr().out
    assert code == 0 and "allocation:" in out
    code = main(["solve", "--profile", path, "--goal", "nddpr", "--method", "condition"])
    out = capsys.readouterr().out
    assert code == 0 and "allocation:" not in out


def test_solve_odd_items(profile_path, capsys):
    odd = {
        "kind": "goods",
        "items": ["a", "b", "c"],
        "agents": [
            {"name": "p", "ranking": ["a", "b", "c"]},
            {"name": "q", "ranking": ["c", "b", "a"]},
        ],
    }
    path = profile_path(odd)
    code = main(["solve", "--profile", path, "--goal", "nddpr", "--method", "condition"])
    out = capsys.readouterr().out
    assert code == 1 and "not_multiple_of_n" in out


SHARED_PAIR = {
    "kind": "goods",
    "items": ["a", "b"],
    "agents": [
        {"name": "p", "ranking": ["a", "b"]},
        {"name": "q", "ranking": ["a", "b"]},
    ],
}

SHARED_THREE = {
    "kind": "goods",
    "items": ["a", "b", "c"],
    "agents": [
        {"name": "p", "ranking": ["a", "b", "c"]},
        {"name": "q", "ranking": ["a", "c", "b"]},
        {"name": "r", "ranking": ["a", "b", "c"]},
    ],
}


@pytest.mark.parametrize(
    "payload, goal, decided, searched, reason",
    [
        (OPPOSITE, "pddpr", 0, 0, "conditions_met"),
        (OPPOSITE, "pospr", 0, 0, "conditions_met"),
        (SHARED_PAIR, "pddpr", 1, 1, "shared_best_item"),
        (SHARED_PAIR, "pospr", 0, 0, "conditions_met"),
        (SHARED_THREE, "pddpr", 3, 0, "out_of_theory"),
        (SHARED_THREE, "pospr", 0, 0, "conditions_met"),
        ({**SHARED_THREE, "items": ["a", "b"], "agents": [
            {"name": name, "ranking": ["a", "b"]} for name in "pqr"
        ]}, "pospr", 1, 1, "fewer_items_than_agents"),
    ],
)
def test_solve_possible_goals(profile_path, capsys, payload, goal, decided, searched, reason):
    path = profile_path(payload)
    code = main(["solve", "--profile", path, "--goal", goal, "--method", "protocol", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == decided and out["reason"] == reason
    if decided == 0:
        alloc = json.dumps(out["allocation"])
        assert main([
            "check", "--profile", path, "--allocation", alloc,
            "--criterion", "pr", "--extension", goal[:3],
        ]) == 0
    code = main(["solve", "--profile", path, "--goal", goal, "--method", "condition"])
    out = capsys.readouterr().out
    assert code == decided and reason in out and "allocation:" not in out
    assert main(["solve", "--profile", path, "--goal", goal, "--method", "search"]) == searched


def test_solve_nddef_search(profile_path, capsys):
    path = profile_path(THREE_AGENT)
    code = main(["solve", "--profile", path, "--goal", "nddef", "--method", "search"])
    out = capsys.readouterr().out
    assert code == 1 and "does not exist" in out


def test_solve_necpr_search(profile_path):
    path = profile_path(OPPOSITE)
    assert main(["solve", "--profile", path, "--goal", "necpr", "--method", "search"]) == 1


def test_solve_nidpr(profile_path, capsys):
    path = profile_path(CHORES3)
    code = main(["solve", "--profile", path, "--goal", "nidpr", "--method", "condition"])
    out = capsys.readouterr().out
    assert code == 3 and "undecided" in out
    code = main(["solve", "--profile", path, "--goal", "nidpr", "--method", "protocol"])
    out = capsys.readouterr().out
    assert code == 0 and "allocation" in out
    assert main(["solve", "--profile", path, "--goal", "nidpr", "--method", "search"]) == 0


def chores_profile(*orders):
    """Chores 0..M-1 (named by their ids) and agents a0, a1, ... ranking them."""
    return {
        "kind": "chores",
        "items": [str(i) for i in range(len(orders[0]))],
        "agents": [
            {"name": f"a{i}", "ranking": [str(c) for c in order]} for i, order in enumerate(orders)
        ],
    }


def test_solve_nidpr_protocol_beyond_three_agents(profile_path, capsys):
    # No protocol covers four agents, so the answer is nidpr_necessary's:
    # a checkable no or undecided.
    def solve(payload):
        path = profile_path(payload)
        code = main(
            ["solve", "--json", "--profile", path, "--goal", "nidpr", "--method", "protocol"]
        )
        return code, json.loads(capsys.readouterr().out)

    code, out = solve(chores_profile(*[range(5)] * 4))
    assert code == 1 and out["reason"] == "not_multiple_of_n"
    # Every agent's worst two are 2 and 3: the slots (a0, 1), (a1, 1) and
    # (a2, 1) neighbour only chores 0 and 1.
    code, out = solve(chores_profile((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)))
    assert code == 1 and out["reason"] == "shared_worst_window_infeasible"
    assert out["hall_violator"] == [["a0", 1], ["a1", 1], ["a2", 1]]
    rotations = [tuple((c + 2 * i) % 8 for c in range(8)) for i in range(4)]
    code, out = solve(chores_profile(*rotations))
    assert code == 3 and out["exists"] is None


@pytest.mark.parametrize("method", ["condition", "protocol"])
def test_solve_necpr_matching(profile_path, capsys, method):
    # OPPOSITE: both agents' second slots may take only items 4, 3 and 2,
    # which the first slots share: four slots, three items.
    path = profile_path(OPPOSITE)
    code = main(["solve", "--profile", path, "--goal", "necpr", "--method", method, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["reason"] == "hall_violation"
    assert out["hall_violator"] == [["alice", 1], ["alice", 2], ["bob", 1], ["bob", 2]]
    split = {**OPPOSITE, "agents": [
        OPPOSITE["agents"][0], {"name": "bob", "ranking": ["1", "2", "3", "4"]},
    ]}
    path = profile_path(split, "split.json")
    code = main(["solve", "--profile", path, "--goal", "necpr", "--method", method, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["reason"] == "conditions_met"
    assert ("allocation" in out) == (method == "protocol")
    if method == "protocol":
        assert main([
            "check", "--profile", path, "--allocation", json.dumps(out["allocation"]),
            "--criterion", "pr", "--extension", "nec",
        ]) == 0
    assert main(["solve", "--profile", path, "--goal", "necpr", "--method", "search"]) == 0


def test_solve_budget_exhaustion(profile_path, capsys):
    path = profile_path(OPPOSITE)
    code = main([
        "solve", "--profile", path, "--goal", "necpr", "--method", "search",
        "--budget", "2",
    ])
    assert code == 3
    assert "undecided" in capsys.readouterr().err


def test_budget_env_var(profile_path, capsys, monkeypatch):
    monkeypatch.setenv("DIMDIFF_BUDGET", "2")
    path = profile_path(OPPOSITE)
    code = main(["solve", "--profile", path, "--goal", "necpr", "--method", "search"])
    assert code == 3
    assert "undecided" in capsys.readouterr().err


def test_malformed_budget_env_var_is_a_usage_error(profile_path, capsys, monkeypatch):
    monkeypatch.setenv("DIMDIFF_BUDGET", "abc")
    assert main(["--help"]) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dimdiff.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "dimdiff.cli", "solve", "--profile", profile_path(OPPOSITE),
         "--goal", "necpr"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "invalid int value: 'abc'" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", [
    ["solve", "--goal", "necpr"],
    ["check", "--allocation", '{"alice": ["4", "1"], "bob": ["2", "3"]}',
     "--criterion", "pe", "--extension", "nec"],
])
def test_negative_budget_is_a_usage_error(profile_path, capsys, monkeypatch, command):
    argv = command + ["--profile", profile_path(OPPOSITE)]
    monkeypatch.delenv("DIMDIFF_BUDGET", raising=False)
    assert main(argv + ["--budget", "-1"]) == 2
    err = capsys.readouterr().err
    assert "non-negative" in err and "Traceback" not in err
    monkeypatch.setenv("DIMDIFF_BUDGET", "-1")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "non-negative" in err and "Traceback" not in err
    # A zero budget is allowed: nothing may be scanned, so the answer is undecided.
    assert main(argv + ["--budget", "0"]) == 3


# --- one parser per process ---------------------------------------------------

def test_parser_is_built_once(monkeypatch):
    monkeypatch.delenv("DIMDIFF_BUDGET", raising=False)
    assert cli.build_parser() is cli.build_parser()


def test_budget_follows_the_environment(profile_path, capsys, monkeypatch):
    argv = ["solve", "--profile", profile_path(OPPOSITE), "--goal", "necpr"]
    monkeypatch.delenv("DIMDIFF_BUDGET", raising=False)
    assert main(argv) == 1
    monkeypatch.setenv("DIMDIFF_BUDGET", "2")
    assert main(argv) == 3
    monkeypatch.delenv("DIMDIFF_BUDGET")
    assert main(argv) == 1


def test_no_state_leaks_between_calls(profile_path, capsys):
    argv = ["solve", "--profile", profile_path(OPPOSITE), "--goal", "necpr"]
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out)["method"] == "search"
    assert main(argv) == 1
    assert capsys.readouterr().out == "necpr: does not exist (exhaustive search)\n"
    assert main(argv + ["--method", "nonsense"]) == 2
    capsys.readouterr()
    assert main(argv) == 1
    assert "exhaustive search" in capsys.readouterr().out
    assert main(argv + ["--method", "protocol"]) == 1
    assert "hall_violation" in capsys.readouterr().out
    assert main(argv) == 1
    assert "exhaustive search" in capsys.readouterr().out


# --- reduce / simulate ----------------------------------------------------------

def test_reduce_then_solve_pipeline(tmp_path, capsys):
    x3c_path = tmp_path / "cover.json"
    x3c_path.write_text(json.dumps({"base_size": 3, "triplets": [[0, 1, 2]]}))
    out_path = tmp_path / "reduced.json"
    code = main(["reduce", "--x3c", str(x3c_path), "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    code = main(["solve", "--profile", str(out_path), "--goal", "nddef", "--method", "search"])
    assert code == 0


@pytest.mark.parametrize(
    "payload",
    [[1, 2], {"base_size": 3, "triplets": 5}, {"base_size": 3, "triplets": [None]}],
    ids=["top_level_list", "triplets_not_a_list", "triple_not_a_list"],
)
def test_wrongly_shaped_x3c_is_usage_error(tmp_path, capsys, payload):
    x3c_path = tmp_path / "x3c.json"
    x3c_path.write_text(json.dumps(payload))
    out_path = tmp_path / "reduced.json"
    assert main(["reduce", "--x3c", str(x3c_path), "--out", str(out_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "payload",
    [[1], {"noise_levels": 0.5, "item_pair_counts": [2]}],
    ids=["top_level_list", "noise_levels_not_a_list"],
)
def test_wrongly_shaped_simulate_config_is_usage_error(tmp_path, capsys, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    assert main([
        "simulate", "--config", str(config), "--seed", "1", "--out", str(out),
    ]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_simulate_deterministic_csv(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "noise_levels": [0.5],
        "item_pair_counts": [2],
        "trials": 30,
    }))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        assert main([
            "simulate", "--config", str(config), "--seed", "99", "--out", str(out),
        ]) == 0
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert "A,m,trials,p_necpr,p_nddpr,p_pddpr,p_pospr,p_rr_cardinal_proportional" in text
    assert "# seed=99" in text


def test_simulate_config_without_trials_takes_the_trials_option(tmp_path, capsys):
    # --trials fills in a config without "trials"; a config's own wins.
    config = tmp_path / "config.json"
    out = tmp_path / "out.csv"
    for payload, trials in (({}, "3"), ({"trials": 2}, "2")):
        config.write_text(json.dumps({"noise_levels": [0.5], "item_pair_counts": [2], **payload}))
        assert main([
            "simulate", "--config", str(config), "--seed", "1", "--out", str(out),
            "--trials", "3",
        ]) == 0
        row = out.read_text().splitlines()[-1].split(",")
        assert row[:3] == ["0.5000", "2", trials]


# --- profile round trips --------------------------------------------------------

def test_profile_round_trip(tmp_path):
    profile = profile_from_json(THREE_AGENT)
    path = tmp_path / "roundtrip.json"
    save_profile(profile, str(path))
    again = load_profile(str(path))
    assert again.instance == profile.instance
    assert again.item_names == profile.item_names
    assert again.agent_names == profile.agent_names
    assert profile_to_json(again) == profile_to_json(profile)


def test_profile_validation():
    bad = dict(THREE_AGENT, items=["1", "1", "3", "4", "5", "6"])
    with pytest.raises(ValueError):
        profile_from_json(bad)
    bad_ranking = {
        "kind": "goods",
        "items": ["a", "b"],
        "agents": [{"name": "p", "ranking": ["a", "a"]}],
    }
    with pytest.raises(ValueError):
        profile_from_json(bad_ranking)


def test_preflib_soc_reader(tmp_path):
    path = tmp_path / "orders.soc"
    path.write_text(
        "# FILE NAME: toy.soc\n"
        "# NUMBER ALTERNATIVES: 3\n"
        "# ALTERNATIVE NAME 1: spring\n"
        "# ALTERNATIVE NAME 2: summer\n"
        "# ALTERNATIVE NAME 3: fall\n"
        "2: 3,1,2\n"
        "1: 1,2,3\n"
    )
    profile = load_preflib_soc(str(path))
    assert profile.item_names == ("spring", "summer", "fall")
    assert profile.agent_names == ("voter1", "voter2", "voter3")
    assert profile.instance.agent_count == 3
    assert profile.instance.rankings[0].order == (2, 0, 1)
    assert profile.instance.rankings[0] == profile.instance.rankings[1]
    assert profile.instance.rankings[2].order == (0, 1, 2)


@pytest.mark.parametrize("declared", [0, 2, 4])
def test_preflib_soc_header_must_match_the_orders(tmp_path, capsys, declared):
    # Three-item orders under a header declaring fewer or more alternatives.
    path = tmp_path / "mismatch.soc"
    path.write_text(f"# NUMBER ALTERNATIVES: {declared}\n1: 1,2,3\n1: 3,2,1\n")
    with pytest.raises(ValueError):
        load_preflib_soc(str(path))
    assert main([
        "solve", "--profile", str(path), "--goal", "pospr", "--method", "protocol",
    ]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    "# ALTERNATIVE NAME 1: a\n# ALTERNATIVE NAME 2: a\n# ALTERNATIVE NAME 3: c\n",
    "# ALTERNATIVE NAME 1: alt2\n",  # collides with alternative 2's default name
])
def test_preflib_soc_duplicate_names_are_usage_error(tmp_path, capsys, header):
    # Two items with one name would make every named answer ambiguous.
    path = tmp_path / "names.soc"
    path.write_text(f"# NUMBER ALTERNATIVES: 3\n{header}1: 1,2,3\n1: 2,1,3\n")
    with pytest.raises(ValueError, match="item names must be unique"):
        load_preflib_soc(str(path))
    assert main([
        "solve", "--profile", str(path), "--goal", "pospr", "--method", "protocol",
    ]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -2])
def test_preflib_soc_nonpositive_count_is_usage_error(tmp_path, capsys, count):
    # A line with no voters is malformed; it must not be dropped silently.
    path = tmp_path / "count.soc"
    path.write_text(f"1: 1,2,3\n{count}: 1,2,3\n1: 3,2,1\n")
    with pytest.raises(ValueError):
        load_preflib_soc(str(path))
    assert main([
        "solve", "--profile", str(path), "--goal", "nddpr", "--method", "condition",
    ]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_malformed_profile_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main([
        "compare", "--profile", str(path), "--agent", "a",
        "--x", "1", "--y", "2", "--relation", "ndd",
    ]) == 2


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "goods", "items": 5, "agents": [{"name": "a", "ranking": ["1", "2"]}]},
        [{"kind": "goods", "items": ["1", "2"], "agents": [{"name": "a", "ranking": ["1", "2"]}]}],
        {"kind": "goods", "items": ["1", "2"], "agents": ["a"]},
        {"kind": "goods", "items": ["1", "2"], "agents": [{"name": "a", "ranking": 7}]},
    ],
    ids=["items_not_a_list", "top_level_list", "agent_not_an_object", "ranking_not_a_list"],
)
def test_wrongly_shaped_profile_is_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(payload))
    assert main([
        "solve", "--profile", str(path), "--goal", "nddpr", "--method", "condition",
    ]) == 2
    assert "Traceback" not in capsys.readouterr().err
    with pytest.raises(ValueError):
        profile_from_json(payload)
