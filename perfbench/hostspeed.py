"""How fast the host runs Python right now, sampled while a pass runs.

On a shared host the CPU speed can move by tens of per cent within seconds and
across minutes (on a 2-vCPU Xeon VM a fixed pure-Python loop did, with CPU
time equal to wall time and no steal), far more than the changes the benchmark
has to resolve. So a daemon thread runs a
fixed reference kernel every PERIOD_S seconds and times it. The process is
pinned to one CPU first, so the kernel runs on the core the pass runs on.
`factor` over a window is REFERENCE_S / the kernel's mean time, leaving out
the slowest 2% of samples: a time multiplied by it reads as seconds on a host
where the kernel takes REFERENCE_S.

The time scaled is `work`: the CPU time of the process and of the children it
waited for (`cpu_seconds`), less the sampler's own. It leaves out the time the
sampler held the GIL and the time other tasks had the CPU; with the CPU to
itself a pass's work is its wall time less the sampler's share.

The kernel (dict updates, big-int arithmetic) depends on nothing in
trailcounts and is the same on every commit. It allocates no container the
garbage collector tracks, so it never runs a collection of the pass's objects.
"""

from __future__ import annotations

import os
import resource
import statistics
import threading
import time

PERIOD_S = 0.01
REFERENCE_S = 0.0005  # nominal kernel time, close to the uncontended time on a 2-vCPU Xeon VM
OUTLIER_SHARE = 0.02  # slowest samples left out: GIL hand-overs, interrupts
_COUNTS = dict.fromkeys(range(112), 0)


def _children_cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


# what a shell waited for before it exec'd this process is not ours
_CHILDREN_CPU_BEFORE = _children_cpu()


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    return time.process_time() + _children_cpu() - _CHILDREN_CPU_BEFORE


def kernel() -> int:
    counts = _COUNTS
    acc = 1
    for i in range(1800):
        counts[(i & 15) * 7 + i % 7] += i
        acc = acc * 3 + i
    return acc & 0xFF


class HostSpeed:
    """Samples of the reference kernel until stop(): (start, duration, CPU
    time of the sampler thread since the sample before)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def start(self) -> HostSpeed:
        """Pin this process to one CPU, then start sampling."""
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def stop(self) -> None:
        self._halt.set()
        self._thread.join()

    def _run(self) -> None:
        clock, cpu, samples = time.perf_counter, time.thread_time, self.samples
        last = cpu()
        while not self._halt.wait(PERIOD_S):
            start = clock()
            kernel()
            end, now = clock(), cpu()
            samples.append((start, end - start, now - last))
            last = now

    def work(self, start: float, end: float, cpu_start: float, cpu_end: float) -> float:
        """CPU seconds (cpu_seconds) from cpu_start to cpu_end, taken at wall
        times start and end, less the sampler's share."""
        return cpu_end - cpu_start - sum(c for t, d, c in list(self.samples) if start <= t < end)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S / mean kernel time in [start, end) without its slowest
        samples; 1.0 when no sample fell in the window."""
        window = sorted(d for t, d, c in list(self.samples) if start <= t < end)
        if not window:
            return 1.0
        kept = window[: len(window) - int(len(window) * OUTLIER_SHARE)]
        return REFERENCE_S / statistics.fmean(kept)
