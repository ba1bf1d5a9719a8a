"""Command-line capacity planner.

::

    python -m repro.planner plan <scenario> [--slo-p99-ttft 5.0] [--json]
    python -m repro.planner plan <scenario> --min-chips 1 --max-chips 6 --jobs 4
    python -m repro.planner plan <scenario> --groups 1,2,4,8 --mixes 2:2,3:1 \\
        --dram-gbps 51.2,102.4,204.8 --keep-fractions 0.5,0.75,1.0 \\
        --search bnb --store .plan-store
    python -m repro.planner write-golden [--dir tests/golden/planner] [names ...]
    python -m repro.planner store-validate .plan-store
    python -m repro.planner store-gc .plan-store [--keep-spec HASH ...]

``plan`` searches fleet topologies × chip design points for the cheapest
configuration meeting the scenario's SLOs (optionally overridden on the
command line) and prints the Pareto frontier; ``--json`` emits the
canonical :class:`~repro.planner.report.PlanReport` instead.  The axis
flags (``--groups``, ``--mixes``, ``--dram-gbps``, ``--keep-fractions``,
``--policies``) expand the candidate space without code edits;
``--search bnb`` prunes it by branch-and-bound (identical plan, far fewer
bound evaluations) and ``--store PATH`` re-uses exact outcomes across runs
through the content-addressed plan store.

``write-golden`` regenerates the canonical plan reports the golden-plan
regression suite asserts byte identity against; run it only when a change
*intends* to move planner numbers, and commit the diff.

``store-validate`` audits every object of a plan store; ``store-gc``
removes defective objects and, with ``--keep-spec``, outcomes of retired
scenario specs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from ..scenarios.registry import get_scenario
from .plan import GOLDEN_PLAN_SCENARIOS, SEARCH_MODES, plan_scenario, resolve_slo
from .report import format_plan_report
from .space import PlannerConfig, parse_mixes
from .store import PlanStore


def _parse_floats(text: str) -> Tuple[float, ...]:
    """Parse a comma-separated float list CLI value."""
    return tuple(float(token) for token in text.split(",") if token.strip())


def _parse_ints(text: str) -> Tuple[int, ...]:
    """Parse a comma-separated int list CLI value."""
    return tuple(int(token) for token in text.split(",") if token.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.planner",
        description="SLO-aware capacity planning over the EdgeMM design grid.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser(
        "plan", help="find the cheapest SLO-meeting fleet for a scenario"
    )
    plan.add_argument("scenario", help="registered scenario name")
    plan.add_argument(
        "--slo-p99-ttft", type=float, default=None, metavar="S",
        help="override the p99 TTFT objective (seconds)",
    )
    plan.add_argument(
        "--slo-p95-latency", type=float, default=None, metavar="S",
        help="override the p95 end-to-end latency objective (seconds)",
    )
    plan.add_argument(
        "--slo-p99-queue-wait", type=float, default=None, metavar="S",
        help="override the p99 queue-wait objective (seconds)",
    )
    plan.add_argument(
        "--min-chips", type=int, default=1, help="smallest fleet size considered"
    )
    plan.add_argument(
        "--max-chips", type=int, default=4, help="largest fleet size considered"
    )
    plan.add_argument(
        "--groups", type=_parse_ints, default=None, metavar="N,N,…",
        help="cluster-group counts of the chip grid (e.g. 1,2,4,8)",
    )
    plan.add_argument(
        "--mixes", type=parse_mixes, default=None, metavar="CC:MC,…",
        help="CC:MC cluster mixes of the chip grid (e.g. 2:2,3:1)",
    )
    plan.add_argument(
        "--dram-gbps", type=_parse_floats, default=None, metavar="G,G,…",
        help="DRAM bandwidth tiers in GB/s (default: the base tier only)",
    )
    plan.add_argument(
        "--keep-fractions", type=_parse_floats, default=None, metavar="F,F,…",
        help="FFN channel-pruning keep fractions (default: pruning off)",
    )
    plan.add_argument(
        "--policies", default=None, metavar="P,P,…",
        help="dispatch policies of the static fleet options "
        "(comma-separated; default: least_loaded)",
    )
    plan.add_argument(
        "--static-only", action="store_true",
        help="skip the autoscaled fleet candidates",
    )
    plan.add_argument(
        "--no-prune", action="store_true",
        help="skip analytic pruning and simulate the whole space (slow)",
    )
    plan.add_argument(
        "--search", choices=SEARCH_MODES, default="flat",
        help="pruning strategy: flat bounds every design, bnb "
        "branch-and-bounds subgrids (identical plan, far fewer bound evals)",
    )
    plan.add_argument(
        "--store", default=None, metavar="PATH",
        help="content-addressed plan store: stored candidate outcomes skip "
        "exact simulation, fresh ones are written back",
    )
    plan.add_argument(
        "--require-chip-loss", action="store_true",
        help="require the best plan to survive one chip permanently "
        "failing mid-trace (SLO-meeting candidates are chaos-probed)",
    )
    plan.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="simulate surviving candidates across N processes",
    )
    plan.add_argument(
        "--json", action="store_true", help="emit the canonical JSON report"
    )

    golden = commands.add_parser(
        "write-golden",
        help="(re)write golden plan reports for the regression suite",
    )
    golden.add_argument(
        "names", nargs="*",
        help=f"scenarios to plan (default: {', '.join(GOLDEN_PLAN_SCENARIOS)})",
    )
    golden.add_argument(
        "--dir", default="tests/golden/planner",
        help="directory the <name>.json files are written to",
    )

    validate = commands.add_parser(
        "store-validate", help="audit every object of a plan store"
    )
    validate.add_argument("store", help="plan-store directory")

    gc = commands.add_parser(
        "store-gc",
        help="remove defective (and, with --keep-spec, stale) store objects",
    )
    gc.add_argument("store", help="plan-store directory")
    gc.add_argument(
        "--keep-spec", action="append", default=None, metavar="HASH",
        help="spec hash to keep (repeatable); healthy objects of other "
        "specs are collected too",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.planner`` (``argv`` overrides)."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "plan":
        if args.jobs is not None and args.jobs < 1:
            parser.error("--jobs must be >= 1")
        spec = get_scenario(args.scenario)
        axis_flags = (args.groups, args.mixes, args.dram_gbps, args.keep_fractions)
        policies = (
            tuple(p.strip() for p in args.policies.split(",") if p.strip())
            if args.policies is not None
            else ("least_loaded",)
        )
        if any(flag is not None for flag in axis_flags) or args.policies:
            from .space import DEFAULT_CHIP_MIXES, DEFAULT_GROUP_COUNTS

            config = PlannerConfig.from_axes(
                groups=args.groups or DEFAULT_GROUP_COUNTS,
                mixes=args.mixes or DEFAULT_CHIP_MIXES,
                dram_gbps=args.dram_gbps or (None,),
                keep_fractions=args.keep_fractions or (None,),
                min_chips=args.min_chips,
                max_chips=args.max_chips,
                policies=policies,
                include_autoscaled=not args.static_only,
            )
        else:
            config = PlannerConfig(
                min_chips=args.min_chips,
                max_chips=args.max_chips,
                include_autoscaled=not args.static_only,
            )
        report = plan_scenario(
            spec,
            config,
            slo=resolve_slo(
                spec,
                ttft_p99_s=args.slo_p99_ttft,
                latency_p95_s=args.slo_p95_latency,
                queue_wait_p99_s=args.slo_p99_queue_wait,
            ),
            prune=not args.no_prune,
            processes=args.jobs,
            search=args.search,
            store=None if args.store is None else PlanStore(Path(args.store)),
            require_chip_loss=args.require_chip_loss,
        )
        if args.json:
            sys.stdout.write(report.to_json())
        else:
            print(format_plan_report(report))
        return 0 if report.feasible else 1

    if args.command == "store-validate":
        store = PlanStore(Path(args.store))
        problems = store.validate()
        stats = store.stats()
        print(
            f"{stats['n_objects']} objects, {stats['total_bytes']} bytes, "
            f"{len(stats['by_spec'])} scenario specs"
        )
        for problem in problems:
            print(f"  BAD {problem.path}: {problem.reason}")
        print(f"{len(problems)} problems")
        return 0 if not problems else 1

    if args.command == "store-gc":
        store = PlanStore(Path(args.store))
        keep = None if args.keep_spec is None else set(args.keep_spec)
        removed = store.gc(keep_specs=keep)
        for path in removed:
            print(f"removed {path}")
        print(f"{len(removed)} objects collected, {len(store)} kept")
        return 0

    # write-golden
    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    names = args.names or list(GOLDEN_PLAN_SCENARIOS)
    for name in names:
        spec = get_scenario(name)
        report = plan_scenario(spec)
        path = directory / f"{spec.name}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
