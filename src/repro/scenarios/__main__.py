"""Command-line runner for the scenario catalogue.

::

    python -m repro.scenarios list
    python -m repro.scenarios run <name> [--json] [--chaos-seed N]
    python -m repro.scenarios run --all
    python -m repro.scenarios write-golden [--dir tests/golden] [names ...]

``write-golden`` regenerates the canonical JSON reports the golden-report
regression suite asserts byte identity against; run it only when a change
*intends* to move scenario numbers, and commit the diff.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from ..serving.fleet import RUNTIMES
from ..serving.runtime import SupervisionConfig
from .compile import compile_chaos_schedule
from .registry import available_scenarios, get_scenario
from .report import format_scenario_report
from .runner import run_scenario, run_scenario_live
from .spec import ChaosSpec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run declarative serving scenarios on EdgeMM fleets.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered scenarios")

    run = commands.add_parser("run", help="run one scenario (or all)")
    run.add_argument("name", nargs="?", help="registered scenario name")
    run.add_argument("--all", action="store_true", help="run every scenario")
    run.add_argument(
        "--json", action="store_true", help="emit the canonical JSON report"
    )
    run.add_argument(
        "--runtime", choices=RUNTIMES, default="batch",
        help="execution plane: 'live' streams the trace through the "
        "asyncio actor runtime (reports are runtime-independent)",
    )
    run.add_argument(
        "--chaos-seed", type=int, default=None, metavar="N",
        help="run on the live runtime with a chaos schedule drawn from "
        "seed N (instead of the spec-hash-derived seed); the report "
        "stays byte-identical modulo the incidents block",
    )
    run.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="override the supervisor's per-job retry budget (implies "
        "the live runtime)",
    )

    golden = commands.add_parser(
        "write-golden", help="(re)write golden reports for the regression suite"
    )
    golden.add_argument(
        "names", nargs="*", help="scenarios to write (default: all registered)"
    )
    golden.add_argument(
        "--dir",
        default="tests/golden",
        help="directory the <name>.json files are written to",
    )
    return parser


def _run(
    name: str,
    as_json: bool,
    runtime: str = "batch",
    chaos_seed: Optional[int] = None,
    max_retries: Optional[int] = None,
) -> None:
    spec = get_scenario(name)
    if chaos_seed is not None or max_retries is not None:
        report = _run_chaos(spec, chaos_seed, max_retries)
    else:
        report = run_scenario(spec, runtime=runtime)
    if as_json:
        sys.stdout.write(report.to_json())
    else:
        print(format_scenario_report(report))


def _run_chaos(spec, chaos_seed, max_retries):
    if spec.chaos is None:
        # A bare --chaos-seed gets the default plan (one chip crash).
        spec = replace(spec, chaos=ChaosSpec())
    if max_retries is None:
        max_retries = spec.chaos.max_retries
    return run_scenario_live(
        spec,
        chaos=compile_chaos_schedule(spec, seed=chaos_seed),
        supervision=SupervisionConfig(
            seed=spec.derive_seed("supervision"), max_retries=max_retries
        ),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.scenarios`` (``argv`` overrides)."""
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in available_scenarios():
            spec = get_scenario(name)
            print(f"{name:<24} {spec.description}")
        return 0

    if args.command == "run":
        if args.all == (args.name is not None):
            print("run takes exactly one of <name> or --all", file=sys.stderr)
            return 2
        names = available_scenarios() if args.all else [args.name]
        for index, name in enumerate(names):
            if index and not args.json:
                print()
            _run(
                name,
                args.json,
                args.runtime,
                args.chaos_seed,
                args.max_retries,
            )
        return 0

    # write-golden
    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    names = args.names or available_scenarios()
    for name in names:
        report = run_scenario(get_scenario(name))
        path = directory / f"{get_scenario(name).name}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
