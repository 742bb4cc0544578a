"""Host-speed probe: a fixed micro-kernel timed inside each experiment.

A shared host does not run at one speed.  On the 2-vCPU VM this benchmark
was tuned on, the same piece of work runs at one of two speeds about 1.5x
apart, switching many times a second, and the share of slow time drifts
over minutes; back to back, the same flow-2d experiment took from 3.4 s to
6.5 s.  The probe measures that speed over the same interval as the
experiment: while an experiment runs, a SIGALRM handler in its main thread
runs kernel() every INTERVAL_S of wall time (about 1% of the run) and
records the kernel's thread CPU time.  CPU time, because on this host a
slow period stretches CPU time as much as wall time, while time spent
waiting for the experiment's own pool threads does not count.  run.py
divides the experiment's wall times by the host slowdown

    slowdown = mean kernel time / REF_KERNEL_S

(after taking the probe's own time out of the run), which gives its times
on a host where one kernel call takes REF_KERNEL_S, the kernel's time on
that VM at full speed.  The kernel is an interpreted loop and numpy calls
on tiny arrays; its inputs are fixed and it uses nothing from peierls_lab,
so a change to the program cannot move it.  The handler runs between
bytecodes, so it is deferred while a long BLAS call runs; the samples then
lean towards the interpreted parts of a run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REF_KERNEL_S = 3.0e-4

_V = np.arange(4.0)


def kernel():
    s = 0.0
    for i in range(1500):
        s += (i * 0.5) % 3.0
    x = _V
    for _ in range(40):
        x = np.sin(x) * 0.5 + x[::-1]


class Probe:
    """Context manager that samples kernel() while the block runs, and once
    more when it ends, so even a short block has a sample."""

    def __init__(self):
        self.cpu_s = []
        self.wall_s = []

    def _sample(self, signum=None, frame=None):
        w0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        self.cpu_s.append(time.thread_time() - c0)
        self.wall_s.append(time.perf_counter() - w0)

    def __enter__(self):
        kernel()  # warm-up, not recorded
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def summary(self):
        return {"probe_n": len(self.cpu_s), "probe_wall_s": sum(self.wall_s),
                "probe_kernel_s": statistics.fmean(self.cpu_s)}
