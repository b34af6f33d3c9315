"""Fuzz the command line: any argv and any input file keep the exit-code API.

``main`` must return 0, 1, 2 or 3 and never let an exception escape, for
random argument vectors over every subcommand and for random, malformed or
wrongly shaped profile, allocation, config and X3C files.  Sizes are kept
small (at most six items, three agents and a handful of trials, and every
integer a size could come from is small) so every example runs in
milliseconds: the exit code, not the cost, is under test.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, event, given, settings, strategies as st

from dimdiff.cli import main
from dimdiff.extensions import RelationKind

ITEM_NAMES = ("a", "b", "c", "d", "e", "f")
AGENT_NAMES = ("x", "y", "z")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def maybe(strategy, other=json_values):
    """Mostly ``strategy``, one time in eight ``other`` in its place."""
    return st.sampled_from([strategy] * 7 + [other]).flatmap(lambda chosen: chosen)


def profiles(items, agents):
    names = list(ITEM_NAMES[:items])
    return st.fixed_dictionaries({
        "kind": maybe(st.sampled_from(["goods", "chores"])),
        "items": maybe(st.just(names)),
        "agents": maybe(st.tuples(*(
            st.fixed_dictionaries({
                "name": maybe(st.just(name)),
                "ranking": maybe(st.permutations(names)),
            })
            for name in AGENT_NAMES[:agents]
        )).map(list)),
    })


def allocations(items, agents):
    """Mostly a partition of the profile's items, else any item lists."""
    partitions = st.lists(
        st.sampled_from(AGENT_NAMES[:agents]), min_size=items, max_size=items
    ).map(lambda owners: {
        agent: [item for item, owner in zip(ITEM_NAMES, owners) if owner == agent]
        for agent in AGENT_NAMES[:agents]
    })
    return maybe(partitions, st.dictionaries(
        maybe(st.sampled_from(AGENT_NAMES), st.text(max_size=3)),
        maybe(st.lists(st.sampled_from(ITEM_NAMES), max_size=6)),
        max_size=3,
    ))


numbers = st.floats() | st.integers(-2, 2) | st.sampled_from([10 ** 400, 1e308])
configs = st.fixed_dictionaries(
    {
        "noise_levels": maybe(st.lists(numbers, max_size=2)),
        "item_pair_counts": maybe(st.lists(st.integers(-1, 3), max_size=2)),
        # Always present: the default is 1000 trials per cell.
        "trials": maybe(st.integers(-1, 2)),
    },
    optional={"agents": maybe(st.integers(-1, 3))},
)

x3cs = st.fixed_dictionaries({
    "base_size": maybe(st.integers(-3, 6)),
    "triplets": maybe(st.lists(st.lists(st.integers(-1, 6), min_size=3, max_size=3),
                               max_size=4)),
})

soc_lines = st.one_of(
    st.sampled_from([
        "# NUMBER ALTERNATIVES: 3",
        "# NUMBER ALTERNATIVES: 2",
        "# ALTERNATIVE NAME 1: a",
        "#",
        "",
    ]),
    st.builds(
        lambda count, order: f"{count}: {','.join(map(str, order))}",
        st.integers(-1, 2),
        st.lists(st.integers(-1, 4), max_size=4),
    ),
    st.text(max_size=8),
)


def file_contents(payloads):
    """Valid JSON of the given shape, arbitrary JSON, or text that is not
    JSON at all (including a document nested too deeply to parse)."""
    return maybe(
        payloads.map(json.dumps),
        st.one_of(
            json_values.map(json.dumps), st.text(max_size=20), st.just("[" * 100_000)
        ),
    )


def text_or(strategy):
    return maybe(strategy, st.text(max_size=6))


@st.composite
def invocations(draw):
    """(files to write, argv); ``{dir}`` in argv stands for the work directory."""
    items = draw(st.integers(1, len(ITEM_NAMES)))
    agents = draw(st.integers(1, len(AGENT_NAMES)))
    allocation = allocations(items, agents)
    files = {
        "profile.json": draw(file_contents(profiles(items, agents))),
        "profile.soc": "\n".join(draw(st.lists(soc_lines, max_size=4))),
        "allocation.json": draw(file_contents(allocation)),
        "config.json": draw(file_contents(configs)),
        "x3c.json": draw(file_contents(x3cs)),
    }

    def path(name):
        return draw(maybe(
            st.just("{dir}/" + name), st.sampled_from(["{dir}/missing.json", "{dir}"])
        ))

    profile = draw(maybe(st.just("profile.json"), st.just("profile.soc")))
    bundle = st.lists(
        st.builds(
            lambda item, repeat: item + repeat,
            text_or(st.sampled_from(ITEM_NAMES)),
            st.sampled_from(["", "", "*2", "*0", "*-1", "*x"]),
        ),
        max_size=4,
    ).map(",".join)
    relation = text_or(st.sampled_from([k.value for k in RelationKind]))
    options = {
        "compare": {
            "--profile": st.just(path(profile)),
            "--agent": text_or(st.sampled_from(AGENT_NAMES)),
            "--x": bundle,
            "--y": bundle,
            "--relation": relation,
        },
        "check": {
            "--profile": st.just(path(profile)),
            "--allocation": st.one_of(
                st.just(path("allocation.json")),
                allocation.map(json.dumps),
                st.text(max_size=8).map(lambda t: "{" + t),
            ),
            "--criterion": text_or(st.sampled_from(["pr", "ef", "pe"])),
            "--extension": relation,
            "--budget": text_or(st.integers(-2, 10 ** 4).map(str)),
        },
        "solve": {
            "--profile": st.just(path(profile)),
            "--goal": text_or(st.sampled_from(
                ["nddpr", "necpr", "pddpr", "pospr", "nidpr", "nddef"]
            )),
            "--method": text_or(st.sampled_from(["condition", "protocol", "search"])),
            "--budget": text_or(st.integers(-2, 10 ** 4).map(str)),
        },
        "simulate": {
            "--out": maybe(
                st.just("{dir}/out.csv"), st.sampled_from(["{dir}", "{dir}/missing/out.csv"])
            ),
            "--seed": text_or(st.integers(-2, 50).map(str)),
            "--config": st.just(path("config.json")),
        },
        "reduce": {
            "--x3c": st.just(path("x3c.json")),
            "--out": maybe(st.just("{dir}/reduced.json"), st.just("{dir}")),
        },
    }
    command = draw(text_or(st.sampled_from(sorted(options))))
    argv = [command]
    for flag, values in options.get(command, {}).items():
        if draw(st.integers(0, 19)):
            argv += [flag, draw(values)]
    for flag, odds in (("--json", 2), ("--progress", 5), ("--help", 20)):
        if not draw(st.integers(0, odds - 1)):
            argv.append(flag)
    if not draw(st.integers(0, 9)):
        argv += draw(st.lists(st.text(max_size=6), max_size=2))
    if command == "simulate":
        # Last, so that it wins, and always there: without --config a run
        # covers the full grid, 1000 trials per cell by default.
        argv += ["--trials", draw(st.sampled_from(["1", "0", "-1", "x", ""]))]
    return files, argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_cli_keeps_its_exit_codes_on_any_input(invocation):
    files, argv = invocation
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        argv = [arg.replace("{dir}", work) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
