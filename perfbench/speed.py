"""The machine's speed, from a fixed kernel timed before, during and after a step.

The benchmark runs on a shared host whose speed changes by up to half
within seconds as neighbours come and go, so a wall time alone says as
much about the neighbours as about the program. `Gauge` times a fixed
kernel made of the same kinds of work as the program (small numpy ops in
Python loops, a dense pairwise-distance block, rows formatted and parsed).
The kernel belongs to the benchmark, so no change to the program moves it.

`Gauge.timed` runs a step with the kernel timed just before and just after
it and, from a SIGALRM timer, every `PROBE_EVERY` seconds during it. The
probes' own time is taken out of the step's wall time. The step's
reference seconds are those busy seconds scaled by `REF_SECONDS` over
the middle mean of its kernel times: the time the step would have taken
on a machine where the kernel takes `REF_SECONDS`. A probe only runs the
kernel on the gauge's own arrays; it touches nothing of the program.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time

import numpy as np

REF_SECONDS = 0.0041  # the kernel's median time on the reference host in a quiet phase
REPS = 9  # a sample before or after a step is the median of this many kernel runs
PROBE_EVERY = 0.25  # seconds between probes during a step


class Gauge:
    def __init__(self, probe_every: float | None = PROBE_EVERY) -> None:
        """probe_every=None times a step between its two samples only."""
        rng = np.random.default_rng(7)
        self._X = rng.standard_normal((400, 16))
        self._y = (rng.random(400) < 0.4).astype(float)
        self._A = rng.standard_normal((150, 16))
        self.probe_every = probe_every
        self.samples: list[float] = []  # kernel seconds, every sample and probe
        self._probes: list[float] = []

    def _kernel(self) -> float:
        X, y, acc = self._X, self._y, 0.0
        # split search of a small tree: sorts, prefix sums, Gini per feature
        mask = np.ones(len(y), dtype=bool)
        for depth in range(4):
            Xm, ym = X[mask], y[mask]
            n = len(ym)
            best = (np.inf, 0, 0.0)
            for f in range(X.shape[1]):
                order = np.argsort(Xm[:, f], kind="stable")
                left = np.cumsum(ym[order])[:-1]
                k = np.arange(1, n)
                gini = left * (1 - left / k) + (left[-1] - left) * (1 - (left[-1] - left) / (n - k))
                i = int(np.argmin(gini))
                if gini[i] < best[0]:
                    best = (float(gini[i]), f, float(Xm[order[i], f]))
            mask &= X[:, best[1]] <= best[2] if depth % 2 else X[:, best[1]] > best[2]
            acc += best[0]
        # pairwise distances of a small block, as in clustering and resampling
        A = self._A
        sq = (A * A).sum(1)
        D = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (A @ A.T), 0.0))
        acc += float((D < 4.0).sum())
        # rows formatted and parsed, as in report writing and checkpoints
        rows = [{"id": f"P{i:03d}", "v": [round(float(x), 6) for x in X[i, :8]]} for i in range(200)]
        acc += len(json.loads(json.dumps(rows)))
        acc += len(",".join(f"{r['id']}:{r['v'][0]:.4f}" for r in rows))
        return acc

    def _run(self) -> float:
        # no garbage collection inside the kernel: it would scan the
        # program's objects and charge the program's heap to the gauge.
        # No array of the kernel passes 200 KB, so a probe neither moves
        # the peak memory nor fragments the program's heap by much.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def sample(self) -> float:
        """Median seconds of REPS kernel runs, now."""
        seconds = statistics.median(self._run() for _ in range(REPS))
        self.samples.append(seconds)
        return seconds

    def _probe(self, signum, frame) -> None:
        self._probes.append(self._run())

    def timed(self, fn, *args):
        """Run fn(*args); return (busy wall s, reference s, its result)."""
        before = self.sample()
        self._probes = []
        if self.probe_every:
            previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, self.probe_every, self.probe_every)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            if self.probe_every:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        probes, self._probes = self._probes, []
        self.samples.extend(probes)
        after = self.sample()
        busy = wall - sum(probes)
        return busy, busy * REF_SECONDS / middle_mean([before, *probes, after]), result


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half: follows a mix of fast and slow phases, while
    a kernel run stretched by a preemption or page faults is dropped."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut : len(values) - cut])
