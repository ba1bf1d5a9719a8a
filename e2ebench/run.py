"""End-to-end and per-layer benchmark of the scenario, live-runtime and planner paths.

Run from the repository root::

    python3 e2ebench/run.py --workload diurnal_mix --seed 1 --seconds 20 --trace 0

Each run starts every measurement in a fresh interpreter (``child.py``),
one at a time, with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned to
one thread:

1. one untimed set-up, so bytecode compilation and the OS file cache
   are warm before anything is timed;
2. ``SETUP_SAMPLES`` set-up-only interpreters, for ``setup_s``;
3. timed interpreters, repeated while the next is predicted to end by
   half an interpreter past ``--seconds``; the first one also runs the
   workload's correctness checks.  With ``--trace 1``
   each timed interpreter is followed by a traced one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` (medians over the timed interpreters, their times
scaled to a reference host speed by ``hostspeed.py``) with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before
it holds the details: environment, fingerprint, every sample and every
check.  See ``README.md`` beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

WORKLOADS = ("diurnal_mix", "autoscale_faults_live", "planner_grid")
#: Seed used when ``--seed`` is omitted (README.md names the held-out one).
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
#: A run must finish within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0
#: Traced runs whose layer self times cover less of the traced wall
#: time than this are flagged as failed.
MIN_TRACE_COVERAGE = 0.9
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """A child interpreter failed or the run ran out of time."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def run_child(request: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run one ``child.py`` measurement to completion and parse its line."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(request)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
            check=False,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{request['mode']} child timed out") from error
    if proc.returncode != 0:
        raise BenchError(
            f"{request['mode']} child exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """All children of one run, in order; returns the raw samples."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    request = {"workload": workload, "seed": seed}
    run_child({**request, "mode": "setup"}, deadline)
    setups = [run_child({**request, "mode": "setup"}, deadline) for _ in range(SETUP_SAMPLES)]
    timed: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    # Start another round while it is predicted to end no later than half
    # a round past ``seconds``; the checks are not part of measuring.
    measured_s = round_s = 0.0
    while measured_s + round_s / 2 < seconds:
        began = time.perf_counter()
        timed.append(run_child({**request, "mode": "time", "check": not timed}, deadline))
        if trace:
            traced.append(run_child({**request, "mode": "trace"}, deadline))
        round_s = time.perf_counter() - began - timed[-1].get("check_s", 0.0)
        measured_s += round_s
    return {"setups": setups, "timed": timed, "traced": traced}


def summarize_run(
    samples: Dict[str, Any], trace: bool, benchmark: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold the children's samples into the result line and its details."""
    timed, traced = samples["timed"], samples["traced"]
    checks = timed[0]["checks"]
    reference = timed[0]["fingerprint"]
    attempted = sum(child["attempted"] for child in timed)
    failed = sum(child["failed"] for child in timed)
    mismatched = 0
    for child in timed[1:] + traced:
        if child["fingerprint"] != reference:
            mismatched += 1
            failed += child["attempted"]
    failed += sum(1 for ok in checks.values() if not ok)

    coverage = [child["layers"]["trace.covered_s"] / child["traced_s"] for child in traced]
    failed += sum(1 for share in coverage if share < MIN_TRACE_COVERAGE)

    if trace:
        values = {
            name: median([child["layers"][name] for child in traced])
            for name in traced[0]["layers"]
        }
        values["trace.wall_s"] = median([c["wall_s"] for c in traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - median(
            [c["wall_s"] for c in timed]
        )
        values["trace.coverage"] = median(coverage)
        declared = benchmark["per_layer"]
    else:
        values = {
            "wall_s": median([c["wall_s"] for c in timed]),
            "sim_req_per_s": median([c["offered_requests"] / c["wall_s"] for c in timed]),
            "setup_s": median(
                [c["setup_s"] for c in samples["setups"]] + [c["setup_s"] for c in timed]
            ),
            "peak_rss_mb": median([c["peak_rss_mb"] for c in timed]),
        }
        declared = benchmark["end_to_end"]
    # A layer that never ran on this workload reads 0.
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in declared
    }
    details = {
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": timed[0]["numpy"],
            "threads": {name: "1" for name in THREAD_VARS},
        },
        "fingerprint": reference,
        "fingerprint_mismatches": mismatched,
        "checks": checks,
        "trace_coverage": coverage,
        "samples": {
            "setup_s": [c["setup_s"] for c in samples["setups"]],
            "raw_setup_s": [c["raw_setup_s"] for c in samples["setups"]],
            "wall_s": [c["wall_s"] for c in timed],
            "raw_wall_s": [c["raw_wall_s"] for c in timed],
            "kernel_s": [c["kernel_s"] for c in timed],
            "traced_wall_s": [c["wall_s"] for c in traced],
            "peak_rss_mb": [c["peak_rss_mb"] for c in timed],
        },
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"details": details, "result": result}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    summary = summarize_run(samples, bool(args.trace), benchmark)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary["details"]}))
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
