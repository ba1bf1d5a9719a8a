"""One measurement in a fresh interpreter; prints one JSON line.

Started by ``run.py`` as ``python3 e2ebench/child.py '<request JSON>'``
from the checkout root, with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP
pinned to one thread.  The request names a ``mode``:

* ``setup``: import ``repro`` and build the workload's spec and config;
* ``time``: set up, then time the workload's public call with tracing
  off (only a clock-free counter of engine decode steps is hooked in),
  then, with ``check``, run the workload's correctness checks;
* ``trace``: set up, then run the traced variant with every layer's
  entry points wrapped in spans.

Every mode reports ``setup_s``, the seconds from the first statement of
this file to the built spec and config.  ``setup_s`` and the timed or
traced call's ``wall_s`` are scaled to the reference host speed by the
:mod:`hostspeed` probe, which samples while they run; ``raw_setup_s``
and ``raw_wall_s`` are the same intervals unscaled.  The traced run's
spans read plain host seconds, the probe's handler included; its
``traced_s`` is the plain host seconds they cover.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(request: dict, speed: HostSpeedProbe) -> dict:
    import numpy
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[request["workload"]](request["seed"])
    setup = speed.lap()
    out = {
        "setup_s": setup["scaled_s"],
        "raw_setup_s": setup["raw_s"],
        "numpy": numpy.__version__,
    }
    mode = request["mode"]
    if mode == "setup":
        speed.stop()
        return out

    tracer = Tracer()
    probe = workloads.EngineProbe(keep_chips=mode == "trace")
    if mode == "time":
        workloads.count_engine_runs(tracer, probe)
        speed.lap()
        report, text = workload.timed()
        timed = speed.lap()
        speed.stop()
        out["wall_s"] = timed["scaled_s"]
        out["raw_wall_s"] = timed["raw_s"]
        out["kernel_s"] = timed["kernel_s"]
        out["peak_rss_mb"] = peak_rss_mb()
        out.update(workload.outcome(report, text, probe.decode_steps))
        if request.get("check"):
            start = time.perf_counter()
            out["checks"] = workload.checks(report, text)
            out["check_s"] = time.perf_counter() - start
        return out

    workloads.install_layers(tracer, probe)
    speed.lap()
    start = time.perf_counter()
    report, text = workload.traced(tracer)
    out["traced_s"] = time.perf_counter() - start
    traced = speed.lap()
    speed.stop()
    out["wall_s"] = traced["scaled_s"]
    out["raw_wall_s"] = traced["raw_s"]
    out.update(workload.outcome(report, text, probe.decode_steps))
    out["layers"].update(workloads.layer_metrics(tracer, probe))
    out["layers"].update(workload.trace_extras(tracer, probe))
    return out


if __name__ == "__main__":
    speed = HostSpeedProbe()
    speed.start(START)
    print(json.dumps(main(json.loads(sys.argv[1]), speed)))
