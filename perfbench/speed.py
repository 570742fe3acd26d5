"""Machine-speed probe: express operation times at a fixed reference speed.

On a shared host the same code can run up to twice as fast or as slow from one
minute to the next, and all code slows together, so raw pass times of the same
program spread more between runs than the changes the benchmark must detect.
`SpeedProbe` times a fixed reference computation (pure Python and numpy, no
``loopgas`` code, so no change to the package can move it) right before and
after each operation and, from a SIGALRM timer, every ``interval`` seconds
during it. Each probe gives a speed factor ``REF_PROBE_S / probe time``; an
operation's time at reference speed is its wall time, less the time its timer
probes took, times the mean speed factor of the probes around and inside it.
Probes are uniform in time, so that mean is the operation's time-averaged
machine speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Probe time on the reference host (2-vCPU Intel Xeon at 2.0 GHz, Python 3.11,
# numpy 2.4) in its fast state. Any fixed value would do: bounds are relative.
REF_PROBE_S = 1.4e-3

_VECTOR = np.random.default_rng(0).random(2048)


def _reference() -> float:
    """A fixed mix of interpreter work (dicts, tuples, sets) and small numpy calls."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(1200):
        key = ((i * 7919) % 811, i & 7)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted((v, k) for k, v in counts.items())
    chosen = frozenset(k for _, k in ranked[::2])
    total = float(sum(1 for k in counts if k in chosen))
    x = _VECTOR
    for _ in range(8):
        x = np.tanh(0.5 * x) + np.log1p(x)
        x = x / x.sum()
    return total + float(x[0])


def probe_s() -> float:
    """Time of one reference run.

    Never a minimum or median of several: a disturbance that slows a probe
    slows the program too, so the probe must not filter it out.
    """
    start = time.perf_counter()
    _reference()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples machine speed around and, while active, during operations."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.factors: list[float] = []  # REF_PROBE_S / probe time, in sample order
        self._timer_cost = 0.0  # wall time spent in timer probes so far
        self._busy = False
        self._previous = None

    def _sample(self) -> None:
        self._busy = True
        try:
            self.factors.append(REF_PROBE_S / probe_s())
        finally:
            self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if self._busy:  # fired inside a probe: that probe already samples now
            return
        start = time.perf_counter()
        self._sample()
        self._timer_cost += time.perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def open(self) -> tuple[int, float]:
        """Probe before an operation; returns the mark that `close` needs."""
        self._sample()
        return len(self.factors) - 1, self._timer_cost

    def close(self, mark: tuple[int, float], wall_s: float) -> float:
        """Probe after an operation that took wall_s; its time at reference speed."""
        first, cost_before = mark
        busy_s = wall_s - (self._timer_cost - cost_before)
        self._sample()
        return busy_s * statistics.fmean(self.factors[first:])
