"""The benchmark's three workloads, driven through public entry points.

Each workload builds its inputs from the run's seed (passed to every
spec as ``seed_salt``), times one public call from the in-memory spec to
the canonical report JSON, runs its named correctness checks outside the
timed region, and has a traced variant that records per-layer spans
(see ``tracer.py``).  This module is imported only in a fresh child
interpreter (``child.py``); importing it is part of the measured set-up.

Sizes are chosen so one untraced call takes a few seconds to ~15 s on a
2-core x86 container, which lets a run repeat it inside ``--seconds``.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Any, Dict, Tuple

from repro.scenarios.compile import compile_scenario
from repro.scenarios.registry import DIURNAL_WEEK, TEXT_CHAT, VIDEO_FRAMES
from repro.scenarios.runner import (
    build_fleet,
    price_offered_load,
    run_scenario,
    scenario_report,
    scenario_run_kwargs,
)
from repro.scenarios.spec import (
    ArrivalSpec,
    AutoscalerSpec,
    FaultsSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
)
from repro.serving.queue import ContinuousBatchingSimulator

from tracer import Tracer

#: Requests of ``diurnal_mix``.  Pricing and precompute cost per unique
#: shape, and all ~1530 shapes of the mix already appear at this size;
#: compile, assignment and the engine scale with it.
DIURNAL_MIX_REQUESTS = 40_000
#: Requests of the ``diurnal_mix`` prefix replayed through the step oracle.
STEP_ORACLE_PREFIX = 1_500
#: Requests of ``autoscale_faults_live``.
AUTOSCALE_REQUESTS = 30_000
#: Requests of the trace every ``planner_grid`` candidate replays.  The
#: cost is mostly per candidate, so the run keeps the full 540-candidate
#: space and shortens the trace instead.  The time follows the trace's
#: count of multi-image requests, which varies less across seeds the
#: longer the trace is.
PLANNER_REQUESTS = 120


def report_digest(text: str) -> Tuple[str, int]:
    """SHA-256 of a report's canonical JSON, plus its first 48 bits as a number."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digest, int(digest[:12], 16)


class EngineProbe:
    """Counts ``ContinuousBatchingSimulator.run`` calls and their decode steps.

    With ``keep_chips`` it also keeps every chip it saw, so the traced
    run can read the chips' step memos and op caches afterwards.
    """

    def __init__(self, keep_chips: bool) -> None:
        self.keep_chips = keep_chips
        self.reset()

    def reset(self) -> None:
        self.runs = 0
        self.decode_steps = 0
        self.chips: Dict[int, ContinuousBatchingSimulator] = {}

    def __call__(self, args: tuple, result) -> None:
        self.runs += 1
        self.decode_steps += result.decode_steps
        if self.keep_chips:
            self.chips[id(args[0])] = args[0]

    def step_memo_entries(self) -> int:
        return sum(len(chip.cost_model.step_cache()) for chip in self.chips.values())

    def opcache_hit_ratio(self) -> float:
        simulators = {id(chip.simulator): chip.simulator for chip in self.chips.values()}
        infos = [simulator.cache_info() for simulator in simulators.values()]
        hits = sum(info.op_hits for info in infos)
        lookups = hits + sum(info.op_misses for info in infos)
        return hits / lookups if lookups else 0.0


def count_engine_runs(tracer: Tracer, probe: EngineProbe) -> None:
    """Hook ``probe`` onto every engine run without reading any clock."""
    tracer.wrap_method(ContinuousBatchingSimulator, "run", None, after=probe)


def install_layers(tracer: Tracer, probe: EngineProbe) -> None:
    """Wrap each layer's entry points in spans named after the layer."""
    import repro.serving.runtime  # noqa: F401  (bind its imports before wrapping)
    from repro.models.mllm import MLLMConfig
    from repro.planner import bnb, evaluate, pareto
    from repro.serving import metrics
    from repro.serving.autoscale import AutoscalingFleetSimulator
    from repro.serving.fleet import FleetSimulator

    def fleet_plane(args: tuple, kwargs: dict) -> str:
        return "runtime" if kwargs.get("runtime", "batch") != "batch" else "controller"

    tracer.wrap_method(MLLMConfig, "build_workload", "lowering")
    tracer.wrap_method(MLLMConfig, "decode_step", "lowering")
    tracer.wrap_method(FleetSimulator, "precompute_service_times", "precompute")
    tracer.wrap_method(FleetSimulator, "assign", "assign")
    tracer.wrap_method(FleetSimulator, "_assign", "assign")
    tracer.wrap_method(FleetSimulator, "run", fleet_plane)
    tracer.wrap_method(AutoscalingFleetSimulator, "run", fleet_plane)
    tracer.wrap_method(ContinuousBatchingSimulator, "run", "engine", after=probe)
    tracer.wrap_function(metrics.summarize, "summarize")
    tracer.wrap_function(price_offered_load, "pricing")
    tracer.wrap_function(compile_scenario, "compile")
    tracer.wrap_function(bnb.bnb_prune_designs, "plan.bound")
    tracer.wrap_function(evaluate.evaluate_candidate, "plan.simulate")
    tracer.wrap_function(pareto.pareto_frontier, "plan.pareto")


def layer_metrics(tracer: Tracer, probe: EngineProbe) -> Dict[str, float]:
    """The span-derived per-layer metrics common to every workload."""
    inclusive, self_s = tracer.inclusive, tracer.self_s
    engine_s = inclusive["engine"]
    return {
        "compile.s": inclusive["compile"],
        "lowering.calls": tracer.calls["lowering"],
        "lowering.s": inclusive["lowering"],
        "pricing.s": inclusive["pricing"],
        "precompute.s": inclusive["precompute"],
        "assign.s": inclusive["assign"],
        "engine.s": engine_s,
        "engine.runs": probe.runs,
        "engine.decode_steps": probe.decode_steps,
        "engine.steps_per_s": probe.decode_steps / engine_s if engine_s else 0.0,
        "engine.step_memo_entries": probe.step_memo_entries(),
        "opcache.hit_ratio": probe.opcache_hit_ratio(),
        "summarize.s": inclusive["summarize"],
        "controller.s": self_s["controller"],
        "report.s": inclusive["report"],
        "report.self_s": self_s["report"],
        "plan.bound_s": inclusive["plan.bound"],
        "plan.simulate_s": inclusive["plan.simulate"],
        "plan.pareto_s": inclusive["plan.pareto"],
        "plan.self_s": self_s["plan"],
        "trace.covered_s": sum(self_s.values()),
    }


# ----------------------------------------------------------------------
# Scenario workloads (run_scenario)
# ----------------------------------------------------------------------
class ScenarioWorkload:
    """A scenario spec timed through ``run_scenario`` on one runtime plane."""

    runtime = "batch"

    def __init__(self, seed: int) -> None:
        self.spec = self.build_spec(seed)

    def build_spec(self, seed: int) -> ScenarioSpec:
        raise NotImplementedError

    def timed(self) -> Tuple[Any, str]:
        report = run_scenario(self.spec, runtime=self.runtime)
        return report, report.to_json()

    def traced(self, tracer: Tracer) -> Tuple[Any, str]:
        """``run_scenario``'s public calls, one span per step."""
        spec = self.spec
        with tracer.span("compile"):
            compiled = compile_scenario(spec)
        with tracer.span("build"):
            fleet = build_fleet(spec)
        result = fleet.run(
            list(compiled.trace),
            runtime=self.runtime,
            **scenario_run_kwargs(compiled, fleet),
        )
        with tracer.span("report"):
            report = scenario_report(spec, compiled, result)
            text = report.to_json()
        return report, text

    def trace_extras(self, tracer: Tracer, probe: EngineProbe) -> Dict[str, float]:
        return {}

    def outcome(self, report, text: str, decode_steps: int) -> Dict[str, Any]:
        """Ops, fingerprint and modelled outputs of one finished call."""
        data = report.to_dict()
        autoscale = data.get("autoscale") or {}
        rejected = autoscale.get("n_rejected", 0)
        digest, digest48 = report_digest(text)
        return {
            "attempted": report.n_requests,
            "failed": report.n_requests - report.n_completed - rejected,
            "offered_requests": report.n_requests,
            "fingerprint": {
                "requests": report.n_requests,
                "unique_shapes": report.pricing.unique_shapes,
                "decode_steps": decode_steps,
                "scale_events": len(autoscale.get("events", ())),
                "bound_evals": 0,
                "simulated": 0,
                "report_sha256": digest,
            },
            "layers": {
                "pricing.unique_shapes": report.pricing.unique_shapes,
                "autoscale.scale_events": len(autoscale.get("events", ())),
                "admission.rejected": rejected,
                "faults.redispatched": (data.get("faults") or {}).get(
                    "n_redispatched", 0
                ),
                "sim.report_sha256": digest48,
                "sim.ttft_p99_s": report.ttft.p99,
                "sim.makespan_s": report.makespan_s,
                "sim.decode_steps": decode_steps,
            },
        }


class DiurnalMix(ScenarioWorkload):
    """The registered ``diurnal-week`` mix, scaled up, on the CLI path."""

    def build_spec(self, seed: int) -> ScenarioSpec:
        return replace(
            DIURNAL_WEEK,
            name="diurnal-mix",
            description=(
                "diurnal-week's 3:1:1 chat/multi-image/long-context mix at "
                "2.5 rps over hour-long days on the static 2-chip fleet"
            ),
            n_requests=DIURNAL_MIX_REQUESTS,
            arrival=ArrivalSpec(kind="diurnal", rate_rps=2.5, period_s=3600.0),
            seed_salt=seed,
        )

    def checks(self, report, text: str) -> Dict[str, bool]:
        prefix = list(compile_scenario(self.spec).trace[:STEP_ORACLE_PREFIX])
        default = build_fleet(self.spec).run(prefix)
        oracle = build_fleet(self.spec, engine="step").run(prefix)
        counts = dict(report.component_counts)
        return {
            "step_oracle_prefix": default.records == oracle.records
            and [r.request_id for r in default.records]
            == [r.request_id for r in prefix],
            "requests_conserved": report.n_completed
            == report.n_requests
            == sum(counts.values()),
        }


class AutoscaleFaultsLive(ScenarioWorkload):
    """Two tenants on an autoscaled, faulted fleet through the live runtime."""

    runtime = "live"

    def build_spec(self, seed: int) -> ScenarioSpec:
        # Prompts of 32-40 tokens: with video_frames' shapes, ~63 unique
        # request shapes, so lowering stays small next to the controller.
        chat = replace(TEXT_CHAT, prompt_token_range=(32, 40))
        return ScenarioSpec(
            name="autoscale-faults-live",
            description=(
                "Premium and free tenants in bursts on a 1-4 chip "
                "autoscaled fleet that rejects past a shallow queue and "
                "loses two chips and one DRAM tier mid-trace"
            ),
            n_requests=AUTOSCALE_REQUESTS,
            mix=(
                replace(chat, name="premium_chat", tenant="premium", priority=2.0),
                replace(chat, name="free_chat", weight=2.0, tenant="free"),
                replace(VIDEO_FRAMES, tenant="free"),
            ),
            arrival=ArrivalSpec(
                kind="bursty",
                rate_rps=1.5,
                burst_multiplier=6.0,
                mean_calm_arrivals=600.0,
                mean_burst_arrivals=300.0,
            ),
            fleet=FleetSpec(
                max_batch_size=8,
                autoscaler=AutoscalerSpec(
                    min_chips=1,
                    max_chips=4,
                    window=32,
                    min_observations=8,
                    cooldown_s=1.0,
                    scale_down_ratio=0.3,
                    max_queue_depth=16,
                    admission="reject",
                ),
            ),
            slo=SLOSpec(ttft_p99_s=2.0),
            faults=FaultsSpec(
                n_chip_failures=2,
                n_dram_degrades=1,
                window=(0.2, 0.8),
                outage_s=120.0,
                drain_policy="drain",
            ),
            seed_salt=seed,
        )

    def checks(self, report, text: str) -> Dict[str, bool]:
        batch = run_scenario(self.spec, runtime="batch").to_json()
        rejected = report.to_dict()["autoscale"]["n_rejected"]
        return {
            "live_equals_batch": batch == text,
            "requests_conserved": report.n_completed + rejected == report.n_requests,
        }

    def trace_extras(self, tracer: Tracer, probe: EngineProbe) -> Dict[str, float]:
        """The batch plane on the same compiled trace, after the live run.

        ``controller.s`` is the batch-plane ``fleet.run`` self time and
        ``runtime.overhead_s`` what the live plane adds on top of it.
        """
        live_s = tracer.inclusive["runtime"]
        tracer.reset()
        probe.reset()
        compiled = compile_scenario(self.spec)
        fleet = build_fleet(self.spec)
        fleet.run(list(compiled.trace), **scenario_run_kwargs(compiled, fleet))
        return {
            "controller.s": tracer.self_s["controller"],
            "runtime.overhead_s": live_s - tracer.inclusive["controller"],
        }


# ----------------------------------------------------------------------
# Planner workload (plan_scenario)
# ----------------------------------------------------------------------
class PlannerGrid:
    """``python -m repro.planner plan diurnal-week --search bnb`` on a 540-candidate space."""

    def __init__(self, seed: int) -> None:
        from repro.planner.plan import plan_scenario
        from repro.planner.space import PlannerConfig

        self.plan_scenario = plan_scenario
        self.spec = replace(DIURNAL_WEEK, n_requests=PLANNER_REQUESTS, seed_salt=seed)
        self.config = PlannerConfig.from_axes(
            groups=(1, 2, 4, 8),
            mixes=((1, 3), (2, 2), (3, 1)),
            dram_gbps=(51.2, 102.4, 204.8),
            keep_fractions=(0.4, 0.7, 1.0),
        )

    def timed(self) -> Tuple[Any, str]:
        report = self.plan_scenario(self.spec, self.config, search="bnb")
        return report, report.to_json()

    def traced(self, tracer: Tracer) -> Tuple[Any, str]:
        with tracer.span("plan"):
            report = self.plan_scenario(self.spec, self.config, search="bnb")
        with tracer.span("report"):
            text = report.to_json()
        return report, text

    def trace_extras(self, tracer: Tracer, probe: EngineProbe) -> Dict[str, float]:
        return {}

    def checks(self, report, text: str) -> Dict[str, bool]:
        flat = self.plan_scenario(self.spec, self.config, search="flat")

        def entries(plan) -> Any:
            best = None if plan.best is None else plan.best.to_dict()
            return best, [entry.to_dict() for entry in plan.frontier]

        return {
            "bnb_equals_flat": entries(report) == entries(flat),
            "candidates_accounted": report.n_pruned_candidates + report.n_simulated
            == report.n_candidates,
        }

    def outcome(self, report, text: str, decode_steps: int) -> Dict[str, Any]:
        digest, digest48 = report_digest(text)
        best = report.best
        unique_shapes = len(compile_scenario(self.spec).unique_shapes)
        scale_events = sum(entry.n_scale_events for entry in report.frontier)
        return {
            "attempted": report.n_candidates,
            "failed": report.n_candidates
            - report.n_pruned_candidates
            - report.n_simulated,
            "offered_requests": report.n_requests * report.n_simulated,
            "fingerprint": {
                "requests": report.n_requests,
                "unique_shapes": unique_shapes,
                "decode_steps": decode_steps,
                "scale_events": scale_events,
                "bound_evals": report.n_bound_evals,
                "simulated": report.n_simulated,
                "report_sha256": digest,
            },
            "layers": {
                "pricing.unique_shapes": unique_shapes,
                "autoscale.scale_events": scale_events,
                "plan.bound_evals": report.n_bound_evals,
                "plan.pruned_ratio": report.n_pruned_candidates / report.n_candidates,
                "plan.simulated": report.n_simulated,
                "sim.report_sha256": digest48,
                "sim.ttft_p99_s": 0.0 if best is None else best.ttft_p99_s,
                "sim.makespan_s": 0.0 if best is None else best.makespan_s,
                "sim.decode_steps": decode_steps,
            },
        }


WORKLOADS = {
    "diurnal_mix": DiurnalMix,
    "autoscale_faults_live": AutoscaleFaultsLive,
    "planner_grid": PlannerGrid,
}
