"""One workload in one fresh interpreter; started by run.py.

The worker imports dimdiff and warms it up, prints ``READY`` (run.py times
the interval from starting this interpreter to that line as set-up), then
generates its inputs and sends one request at a time, closed loop, until the
requests have taken ``--seconds`` seconds and number at least
``MIN_REQUESTS``, always in whole rounds.  Inputs are generated and answers
checked between requests, outside the timed intervals.  The last line of its
output is one JSON object with the run's figures.

With ``--trace 1`` it measures half as long, sending every round twice:
untraced, then with the tracer installed.  The per-layer figures come from
the traced passes, and the tracing overhead is the ratio of the two passes'
times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REQUESTS = 100
WALL_LIMIT_S = 140


def set_up():
    """Import dimdiff from this checkout and fill the balanced-split tables."""
    import dimdiff
    import dimdiff.cli  # noqa: F401  (the desk workload's entry point)

    if Path(dimdiff.__file__).resolve().parent != ROOT / "src" / "dimdiff":
        raise SystemExit(f"dimdiff was imported from {dimdiff.__file__}, not from this checkout")
    for m in range(4, 17, 2):
        same = dimdiff.Ranking(tuple(range(m)))
        instance = dimdiff.Instance(dimdiff.ItemKind.GOODS, (same, same))
        for extension in (dimdiff.RelationKind.NEC, dimdiff.RelationKind.NDD):
            goal = dimdiff.AllocationGoal(dimdiff.Criterion.PROPORTIONALITY, extension)
            dimdiff.exists_allocation(instance, goal)


def make_workload(name, seed, workdir):
    if name == "mc_grid":
        from mc_grid import McGrid as workload
    elif name == "desk_cli":
        from desk_cli import DeskCli as workload
    else:
        from x3c_sweep import X3cSweep as workload
    return workload(seed, workdir)


def measure(workload, seconds, deadline, tracer=None):
    """Send whole rounds of requests until they have taken ``seconds`` and
    number at least MIN_REQUESTS.  With a tracer, every round is sent twice,
    untraced and then traced, so that a drift in the host's speed touches
    both passes alike.  Returns the untraced and traced latencies, the
    failed requests and the problems the checks found."""
    plain, traced, failed, problems, reported = [], [], 0, [], set()
    index = 0
    while sum(plain) < seconds or len(plain) < MIN_REQUESTS:
        passes = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
        for latencies, active in passes:
            requests = workload.round(index)
            answers = []
            if active is not None:
                active.install()
            for request in requests:
                if active is not None:
                    active.request = len(latencies)
                start = time.perf_counter()
                try:
                    answer = workload.call(request)
                except Exception as exc:  # a failed request is counted, not fatal
                    answer = exc
                latencies.append(time.perf_counter() - start)
                answers.append(answer)
            if active is not None:
                active.uninstall()
            for answer in answers:
                if isinstance(answer, Exception):
                    failed += 1
                    message = f"{type(answer).__name__}: {answer}"
                    if message not in reported:
                        reported.add(message)
                        print(f"failed request: {message}", file=sys.stderr)
            problems += workload.check(index, requests, answers)
        index += 1
        if time.monotonic() > deadline:
            problems.append(f"stopped after {WALL_LIMIT_S} s of wall time")
            break
    return plain, traced, failed, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["mc_grid", "desk_cli", "x3c_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    set_up()
    print("READY", flush=True)
    if args.setup_only:
        return

    workdir = ROOT / "perfbench" / "_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed, workdir)
    deadline = time.monotonic() + WALL_LIMIT_S
    result = {"workdir": str(workdir.relative_to(ROOT))}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced, failed, problems = measure(workload, args.seconds / 2, deadline, tracer)
        tracer.write(workdir / "trace.jsonl")
        latencies = plain + traced
        result["per_layer"] = tracer.per_layer()
        result["per_layer"]["trace.overhead_pct"] = (sum(traced) / sum(plain) - 1) * 100
    else:
        latencies, _, failed, problems = measure(workload, args.seconds, deadline)
        ordered = sorted(latencies)
        result["end_to_end"] = {
            "throughput_ops_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(ordered) * 1e3,
            "latency_p90_ms": statistics.quantiles(ordered, n=10)[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    for problem in problems[:20]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    result.update(
        attempted=len(latencies), failed=failed, wrong=len(problems), **workload.summary()
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
