"""Command-line front end.

Subcommands: ``compare`` (bundle relations), ``check`` (fairness verdicts for
an allocation), ``solve`` (existence conditions, protocols, searches),
``simulate`` (the Monte-Carlo experiment), ``reduce`` (exact-3-cover to
envy-freeness instances).

Exit codes are stable API: 0 holds / found, 1 does not hold / not found,
2 usage or parse error, 3 undecided (open condition or exhausted budget).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Optional

from .exceptions import BudgetExceededError
from .extensions import REFUTABLE_RELATIONS, RelationKind, holds, refuting_utility
from .fairness import (
    DEFAULT_MAX_STATES,
    Criterion,
    EnvyWitness,
    OneForTwoSwap,
    ParetoImprovement,
    ProportionalityViolation,
    check_envy_free,
    check_pareto,
    check_proportional,
)
from .profiles import (
    NamedProfile,
    allocation_from_json,
    allocation_to_json,
    load_preflib_soc,
    load_profile,
    parse_bundle,
    parse_json,
    read_json,
    save_profile,
)
from .protocols import (
    ExistenceReport,
    necpr_exists,
    nddpr_exists,
    nidpr_necessary,
    nidpr_three_agents_special,
    nidpr_two_agents,
    pddpr_exists,
    pospr_exists,
)
from .reductions import reduce_x3c, x3c_from_json
from .search import GOALS, exists_allocation
from .simulate import SimConfig, full_grid_config, main_csv

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_ERROR = 2
EXIT_UNDECIDED = 3


def _load_any_profile(path: str) -> NamedProfile:
    if path.endswith(".soc"):
        return load_preflib_soc(path)
    return load_profile(path)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in payload["report"]:
            print(line)


def _cmd_compare(args: argparse.Namespace) -> int:
    profile = _load_any_profile(args.profile)
    agent = profile.agent_id(args.agent)
    ranking = profile.instance.rankings[agent]
    x = parse_bundle(args.x, profile)
    y = parse_bundle(args.y, profile)
    kind = RelationKind(args.relation)
    result = holds(kind, x, y, ranking)
    report = [
        f"{kind.value}: {args.x} {'holds over' if result else 'does not hold over'} {args.y} "
        f"for agent {args.agent}"
    ]
    payload: dict = {
        "relation": kind.value,
        "agent": args.agent,
        "x": args.x,
        "y": args.y,
        "holds": result,
    }
    if not result and kind in REFUTABLE_RELATIONS:
        witness = refuting_utility(kind, x, y, ranking)
        values = {
            profile.item_names[i]: str(witness.value(i))
            for i in range(profile.instance.item_count)
        }
        payload["refuting_utility"] = values
        report.append("refuting utility: " + ", ".join(f"{k}={v}" for k, v in values.items()))
    payload["report"] = report
    _emit(payload, args.json)
    return EXIT_HOLDS if result else EXIT_FAILS


def _read_allocation(spec: str, profile: NamedProfile):
    if spec.lstrip().startswith("{"):
        payload = parse_json(spec)
    else:
        payload = read_json(spec)
    return allocation_from_json(payload, profile)


def _describe_certificate(certificate, profile: NamedProfile) -> Optional[str]:
    if isinstance(certificate, ProportionalityViolation):
        text = f"agent {profile.agent_names[certificate.agent]} falls short of its share"
        if certificate.refuting_utility is not None:
            values = ", ".join(
                f"{profile.item_names[i]}={certificate.refuting_utility.value(i)}"
                for i in range(profile.instance.item_count)
            )
            text += f"; refuting utility: {values}"
        return text
    if isinstance(certificate, EnvyWitness):
        return (
            f"{profile.agent_names[certificate.envious]} envies "
            f"{profile.agent_names[certificate.envied]}"
        )
    if isinstance(certificate, ParetoImprovement):
        improved = allocation_to_json(certificate.allocation, profile)
        return f"dominated by {json.dumps(improved, sort_keys=True)}"
    if isinstance(certificate, OneForTwoSwap):
        return (
            f"swap improves both: {profile.agent_names[certificate.single_agent]} trades "
            f"{profile.item_names[certificate.single_item]} for "
            f"{profile.item_names[certificate.pair[0]]}+{profile.item_names[certificate.pair[1]]} "
            f"of {profile.agent_names[certificate.pair_agent]}"
        )
    return None


def _cmd_check(args: argparse.Namespace) -> int:
    profile = _load_any_profile(args.profile)
    alloc = _read_allocation(args.allocation, profile)
    extension = RelationKind(args.extension)
    criterion = Criterion(args.criterion)
    if criterion is Criterion.PROPORTIONALITY:
        verdict = check_proportional(alloc, profile.instance, extension)
    elif criterion is Criterion.ENVY_FREENESS:
        verdict = check_envy_free(alloc, profile.instance, extension)
    else:
        verdict = check_pareto(alloc, profile.instance, extension, budget=args.budget)
    status = "satisfied" if verdict.result else "violated"
    report = [f"{criterion.value} under {extension.value}: {status}"]
    payload: dict = {
        "criterion": criterion.value,
        "extension": extension.value,
        "result": verdict.result,
    }
    if verdict.certificate is not None:
        description = _describe_certificate(verdict.certificate, profile)
        if description:
            report.append(description)
            payload["certificate"] = description
    payload["report"] = report
    _emit(payload, args.json)
    return EXIT_HOLDS if verdict.result else EXIT_FAILS


def _report_payload(report: ExistenceReport, profile: NamedProfile, goal: str) -> tuple[dict, int]:
    lines = []
    payload: dict = {"goal": goal, "reason": report.reason.value}
    if report.exists is True:
        payload["exists"] = True
        lines.append(f"{goal}: allocation exists ({report.reason.value})")
        if report.allocation is not None:
            decoded = allocation_to_json(report.allocation, profile)
            payload["allocation"] = decoded
            lines.append(f"allocation: {json.dumps(decoded, sort_keys=True)}")
        code = EXIT_HOLDS
    elif report.exists is False:
        payload["exists"] = False
        lines.append(f"{goal}: does not exist ({report.reason.value})")
        if report.hall_violator is not None:
            slots = [[profile.agent_names[agent], j] for agent, j in report.hall_violator]
            payload["hall_violator"] = slots
            lines.append(
                "Hall violator, slots (agent, j) with fewer neighbouring items: "
                + ", ".join(f"({name}, {j})" for name, j in slots)
            )
        code = EXIT_FAILS
    else:
        payload["exists"] = None
        lines.append(f"{goal}: undecided ({report.reason.value})")
        code = EXIT_UNDECIDED
    payload["report"] = lines
    return payload, code


def _cmd_solve(args: argparse.Namespace) -> int:
    profile = _load_any_profile(args.profile)
    instance = profile.instance
    goal = args.goal
    method = args.method

    if method in ("condition", "protocol"):
        if goal == "necpr":
            report = necpr_exists(instance)
        elif goal == "nddpr":
            report = nddpr_exists(instance)
        elif goal == "pddpr":
            report = pddpr_exists(instance)
        elif goal == "pospr":
            report = pospr_exists(instance)
        elif goal == "nidpr":
            if method == "condition":
                report = nidpr_necessary(instance)
            elif instance.agent_count == 2:
                report = nidpr_two_agents(instance)
            elif instance.agent_count == 3:
                report = nidpr_three_agents_special(instance)
            else:
                raise ValueError("no protocol covers this number of agents")
        else:
            raise ValueError(f"goal {goal} has no {method} method; use --method search")
        if method == "condition":
            report = dataclasses.replace(report, allocation=None)
        payload, code = _report_payload(report, profile, goal)
        _emit(payload, args.json)
        return code

    witness = exists_allocation(instance, GOALS[goal], max_states=args.budget)
    payload = {"goal": goal, "method": "search"}
    if witness is None:
        payload["exists"] = False
        payload["report"] = [f"{goal}: does not exist (exhaustive search)"]
        _emit(payload, args.json)
        return EXIT_FAILS
    decoded = allocation_to_json(witness, profile)
    payload["exists"] = True
    payload["allocation"] = decoded
    payload["report"] = [
        f"{goal}: allocation found (exhaustive search)",
        f"allocation: {json.dumps(decoded, sort_keys=True)}",
    ]
    _emit(payload, args.json)
    return EXIT_HOLDS


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.config:
        config = _sim_config_from_json(read_json(args.config), args.seed, args.trials)
    else:
        config = full_grid_config(args.seed, trials=args.trials)
    cells = main_csv(config, args.out, progress=args.progress)
    summary = {
        "cells": len(cells),
        "out": args.out,
        "report": [f"wrote {len(cells)} cells to {args.out}"],
    }
    _emit(summary, args.json)
    return EXIT_HOLDS


def _sim_config_from_json(raw: object, seed: int, trials: int) -> SimConfig:
    """Decode a ``simulate --config`` payload; ValueError on a wrong shape.

    ``trials`` (the ``--trials`` option) applies when the payload has no
    ``"trials"`` of its own.
    """
    if not isinstance(raw, dict):
        raise ValueError("a simulation config must be a JSON object")
    for key, kinds, noun in (
        ("noise_levels", (int, float), "numbers"),
        ("item_pair_counts", int, "integers"),
    ):
        values = raw.get(key)
        if not isinstance(values, list) or not all(
            isinstance(v, kinds) and not isinstance(v, bool) for v in values
        ):
            raise ValueError(f'config "{key}" must be a list of {noun}')
    for key in ("trials", "agents"):
        if key in raw and (not isinstance(raw[key], int) or isinstance(raw[key], bool)):
            raise ValueError(f'config "{key}" must be an integer')
    return SimConfig(
        noise_levels=tuple(raw["noise_levels"]),
        item_pair_counts=tuple(raw["item_pair_counts"]),
        trials=raw.get("trials", trials),
        seed=seed,
        agents=raw.get("agents", 2),
    )


def _cmd_reduce(args: argparse.Namespace) -> int:
    x3c = x3c_from_json(read_json(args.x3c))
    reduced = reduce_x3c(x3c)
    q, n = x3c.cover_size, x3c.triplet_count
    item_names = [f"m{e}" for e in range(3 * q)]
    for i in range(n):
        item_names += [f"d{i}{suffix}" for suffix in "abc"]
    for j in range(n - q):
        item_names += [f"x{j}{suffix}" for suffix in "abc"]
    agent_names = [f"A{i}{suffix}" for i in range(n) for suffix in "abc"]
    profile = NamedProfile(reduced.instance, tuple(item_names), tuple(agent_names))
    save_profile(profile, args.out)
    payload = {
        "items": reduced.instance.item_count,
        "agents": reduced.instance.agent_count,
        "out": args.out,
        "report": [
            f"reduced {n} triples over {3 * q} elements to "
            f"{reduced.instance.item_count} items / {reduced.instance.agent_count} agents",
            f"profile written to {args.out}",
        ],
    }
    _emit(payload, args.json)
    return EXIT_HOLDS


def _budget(text: str) -> int:
    """``--budget`` / ``DIMDIFF_BUDGET``: a non-negative state count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The ``dimdiff`` parser, built once per ``DIMDIFF_BUDGET`` value.

    DIMDIFF_BUDGET overrides the default search/Pareto state budget; argparse
    converts it like an explicit --budget when it parses, so a malformed or
    negative value exits 2.  Parsing never changes the parser and gives a fresh
    Namespace each time, so one parser serves every call in a process; callers
    share it and must not change it.
    """
    return _parser(os.environ.get("DIMDIFF_BUDGET", str(DEFAULT_MAX_STATES)))


@functools.lru_cache(maxsize=1)
def _parser(budget: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimdiff",
        description="Ordinal fair division under diminishing / increasing differences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="compare two bundles under a relation")
    compare.add_argument("--profile", required=True)
    compare.add_argument("--agent", required=True)
    compare.add_argument("--x", required=True, help="bundle, e.g. a,b*2,c")
    compare.add_argument("--y", required=True)
    compare.add_argument(
        "--relation", required=True, choices=[k.value for k in RelationKind]
    )
    compare.add_argument("--json", action="store_true")
    compare.set_defaults(func=_cmd_compare)

    check = sub.add_parser("check", help="fairness verdict for a given allocation")
    check.add_argument("--profile", required=True)
    check.add_argument("--allocation", required=True, help="JSON file or inline JSON")
    check.add_argument("--criterion", required=True, choices=["pr", "ef", "pe"])
    check.add_argument(
        "--extension", required=True, choices=[k.value for k in RelationKind]
    )
    check.add_argument("--budget", type=_budget, default=budget)
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=_cmd_check)

    solve = sub.add_parser("solve", help="find or refute a fair allocation")
    solve.add_argument("--profile", required=True)
    solve.add_argument("--goal", required=True, choices=sorted(GOALS))
    solve.add_argument(
        "--method", default="search", choices=["condition", "protocol", "search"]
    )
    solve.add_argument("--budget", type=_budget, default=budget)
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    simulate = sub.add_parser("simulate", help="run the Monte-Carlo experiment")
    simulate.add_argument("--out", required=True)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--config", help="JSON config; defaults to the full grid")
    simulate.add_argument("--trials", type=int, default=1000)
    simulate.add_argument("--progress", action="store_true")
    simulate.add_argument("--json", action="store_true")
    simulate.set_defaults(func=_cmd_simulate)

    reduce = sub.add_parser("reduce", help="exact-3-cover to envy-freeness instance")
    reduce.add_argument("--x3c", required=True)
    reduce.add_argument("--out", required=True)
    reduce.add_argument("--json", action="store_true")
    reduce.set_defaults(func=_cmd_reduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
