"""Host-speed probe.

The reference host is a shared 2-core VM whose speed drifts by up to 2x
within minutes: the same trial has measured 3.1 s and 5.8 s in
consecutive runs, with CPU time equal to wall time. The drift is host
speed, not scheduling. To keep run-to-run spreads inside the bounds, the
end-to-end times are reported in *reference seconds*:

    reference seconds = host seconds x mean(REF / probe duration)

A SIGALRM handler runs fixed micro-tasks every ``PERIOD_S`` of wall time
while an interval is measured, each with its own reference duration:
interpreter work (dict updates), a run of small numpy calls (the shape of
per-gate kernel dispatch) and wide bitwise passes. Code slows unevenly
when the host does: trials, dominated by per-call dispatch, track
``interp`` + ``calls``; profiling, dominated by wide array work, also
needs ``wide``. Each workload names its mix in ``workloads.PROBE``. With
the matching mix, the per-operation spread within one input fell from
15-30% to 3-5%; random gathers and object chasing tracked no better.
Samples fall evenly in wall time, so the mean of the speed ratios
weights each stretch of the interval by how long it lasted. The probe
costs about 1% of the interval. It does not depend on axsec, so a
change to the program moves reference seconds exactly as it moves host
seconds.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02

_small_a = np.arange(16, dtype=np.uint64)
_small_b = _small_a[::-1].copy()
_wide_a = np.arange(1 << 15, dtype=np.uint64)
_wide_b = _wide_a[::-1].copy()


def _interp(table={}):
    for i in range(400):
        table[i & 31] = table.get(i & 15, 0) + i


def _calls():
    for _ in range(40):
        np.bitwise_and(_small_a, _small_b, out=_small_a)
        np.bitwise_or(_small_a, _small_b, out=_small_a)


def _wide():
    for _ in range(4):
        np.bitwise_xor(_wide_a, _wide_b, out=_wide_a)


# micro-task and its duration on the reference host at its usual fast speed
TASKS = {"interp": (_interp, 50e-6), "calls": (_calls, 44e-6),
         "wide": (_wide, 83e-6)}


class SpeedProbe:
    """Samples host speed while running; :meth:`factor` converts host
    seconds measured since a :meth:`mark` into reference seconds.
    ``tasks`` names the micro-tasks whose mean speed ratio is the host
    speed."""

    def __init__(self, tasks):
        self.tasks = [TASKS[t] for t in tasks]
        self.samples = []

    def _sample(self, *_):
        ratio = 0.0
        for task, ref in self.tasks:
            t0 = time.perf_counter()
            task()
            ratio += ref / (time.perf_counter() - t0)
        self.samples.append(ratio / len(self.tasks))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self):
        return len(self.samples)

    def factor(self, since):
        """Mean host speed relative to the reference over the samples
        taken since ``since``; an interval shorter than one period is
        sampled once at its end."""
        if len(self.samples) == since:
            self._sample()
        return statistics.fmean(self.samples[since:])
