"""Run one workload of the dimdiff benchmark and print its figures.

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 30 --trace 0

Workloads: mc_grid, desk_cli, x3c_sweep (see README.md).  The program is
imported from ``src/`` of the checkout this file sits in; without it the run
fails.  Each run starts fresh interpreters one after another: several that
only set up, timed from start to ``READY``, then the one that runs the
workload.  The median of these set-up times is ``setup_s``.

With ``--trace 0`` the run prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` every per-layer metric, including the tracing overhead
and the import and cold-start times, measured in further fresh
interpreters.  The last line of the output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
PROBE_SAMPLES = 3
RUN_LIMIT_S = 170


class RunFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, setup_only):
    """Start a worker; return it with the seconds it took to print READY."""
    argv = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    worker = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    line = worker.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        worker.kill()
        worker.communicate()
        raise RunFailed(f"worker did not get ready (exit {worker.returncode})")
    return worker, setup


def finish(worker, deadline):
    """Wait for a worker to end and return its output; kill it at the deadline."""
    try:
        out, _ = worker.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.communicate()
        raise RunFailed("worker ran out of time") from None
    if worker.returncode != 0:
        raise RunFailed(f"worker exited {worker.returncode}")
    return out


def run_python(argv, timeout):
    """Run a fresh interpreter to its end; return (seconds, stderr)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable] + argv, env=child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RunFailed(f"{argv} exited {done.returncode}: {done.stderr[-500:]}")
    return time.perf_counter() - start, done.stderr


def import_probes(deadline):
    """Cumulative -X importtime of dimdiff, numpy and networkx, and the wall
    time of ``python -m dimdiff.cli --help``, each a median of fresh runs."""
    samples = {"import.dimdiff.ms": [], "import.numpy.ms": [], "import.networkx.ms": []}
    cold = []
    for _ in range(PROBE_SAMPLES):
        _, stderr = run_python(
            ["-X", "importtime", "-c", "import dimdiff"], deadline - time.monotonic()
        )
        for line in stderr.splitlines():
            match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if match and f"import.{match.group(2)}.ms" in samples:
                samples[f"import.{match.group(2)}.ms"].append(int(match.group(1)) / 1e3)
        seconds, _ = run_python(["-m", "dimdiff.cli", "--help"], deadline - time.monotonic())
        cold.append(seconds * 1e3)
    if any(len(values) != PROBE_SAMPLES for values in samples.values()):
        raise RunFailed("-X importtime did not report dimdiff, numpy and networkx")
    medians = {name: statistics.median(values) for name, values in samples.items()}
    medians["cli.cold_start.ms"] = statistics.median(cold)
    return medians


def run(args, declared):
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            worker, setup = start_worker(args, setup_only=True)
            finish(worker, deadline)
            setups.append(setup)
    worker, setup = start_worker(args, setup_only=False)
    setups.append(setup)
    result = json.loads(finish(worker, deadline).strip().splitlines()[-1])
    if args.trace:
        measured = dict(result["per_layer"], **import_probes(deadline))
    else:
        measured = dict(result["end_to_end"], setup_s=statistics.median(setups))
    if set(measured) != set(declared):
        raise RunFailed(f"measured {sorted(measured)} but BENCHMARK.json declares {sorted(declared)}")
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()}
    report = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    (ROOT / result["workdir"] / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    return result, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["mc_grid", "desk_cli", "x3c_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dimdiff" / "__init__.py").is_file():
        sys.exit(f"no dimdiff sources under {ROOT / 'src'}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {metric["name"]: metric["unit"] for metric in section}
    try:
        result, report = run(args, declared)
    except (RunFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        sys.exit(f"benchmark run failed: {exc}")

    for name, metric in report["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {report['attempted']} requests, {report['failed']} failed, "
          f"{result['wrong']} wrong answers")
    if result.get("csv_sha256"):
        print(f"mc_grid round 0 CSV sha256 {result['csv_sha256']}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
