"""In-process probe of how fast the host runs Python right now.

The benchmark's host is a few vCPUs of a shared machine whose speed
swings by up to 2x over tens of seconds, on the CPU the measured code
runs on.  A timed interval alone then measures the neighbours as much as
the program.  :class:`HostSpeedProbe` measures the host at the same
moment and on the same CPU: every :data:`INTERVAL_S` a ``SIGALRM``
handler runs one fixed pure-Python :func:`kernel` and records how long it
took.  :meth:`HostSpeedProbe.lap` closes a phase and returns its seconds
scaled to the reference speed, at which one kernel takes
:data:`NOMINAL_KERNEL_S`::

    scaled_s = (elapsed_s - probe_s) * NOMINAL_KERNEL_S / mean_kernel_s

``probe_s`` is the time the handler itself took inside the phase.  The
kernel is part of the benchmark, never of ``repro``, so a change to the
program moves ``elapsed_s`` and leaves the kernel's duration alone.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, List

#: Seconds between probe kernels; the handler costs ~2% of a phase.
INTERVAL_S = 0.05
#: Iterations of one kernel: ~1 ms on a 2-vCPU 2.1 GHz Xeon.
KERNEL_ITERATIONS = 4_000
#: Kernel seconds that define the reference host speed.
NOMINAL_KERNEL_S = 0.001


def kernel(n: int = KERNEL_ITERATIONS) -> int:
    """Integer arithmetic, dict and list traffic, like the simulator's loops."""
    table: Dict[int, int] = {}
    items: List[int] = []
    total = 0
    for i in range(n):
        key = i % 257
        table[key] = table.get(key, 0) + i
        items.append(i * 3 % 11)
        if len(items) > 64:
            total += sum(items)
            items.clear()
    return total + len(table)


class HostSpeedProbe:
    """Samples :func:`kernel` on a real-time interval timer."""

    def __init__(self) -> None:
        self._kernels: List[float] = []
        self._probe_s = 0.0
        self._phase_start = time.perf_counter()

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self._kernels.append(took)
        self._probe_s += took

    def start(self, since: float) -> None:
        """Start sampling; the first phase began at ``since`` (``perf_counter``)."""
        self._phase_start = since
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # Ignored, not the default action, which would end the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def lap(self) -> Dict[str, float]:
        """Close the current phase and open the next one.

        One extra kernel runs after the phase's clock stops, so even a
        phase shorter than :data:`INTERVAL_S` has a speed sample.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            net = time.perf_counter() - self._phase_start - self._probe_s
            self._sample()
            kernels, self._kernels = self._kernels, []
            self._probe_s = 0.0
            self._phase_start = time.perf_counter()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        mean_kernel = sum(kernels) / len(kernels)
        return {
            "raw_s": net,
            "scaled_s": net * NOMINAL_KERNEL_S / mean_kernel,
            "kernel_s": mean_kernel,
            "kernels": len(kernels),
        }
