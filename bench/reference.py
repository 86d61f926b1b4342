"""A speed probe: a fixed reference kernel timed at intervals during a pass.

Why: this benchmark runs on a few cores of a shared host whose speed
drifts by up to about 1.5x, on both cores together, for seconds to
minutes at a time, most likely through other tenants on the same
physical cores (the process's CPU time tracks its wall time, so it is
not descheduling). Wall times of runs made minutes apart differ by more
than any bound worth setting. The probe measures that speed beside the program: every ``INTERVAL_S`` a
SIGALRM handler, which runs in the main thread between bytecodes, times
``kernel``, a fixed mix of numpy work like the program's own. A pass's
wall time divided by the mean kernel time during that pass is its time in
units of the kernel, which follows the program's cost and not the host's
state.

``clock`` is ``time.perf_counter`` minus the time spent inside the
handler, so the probe's own work is never part of a pass time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25

_rng = np.random.default_rng(12345)
_SMALL = _rng.random((33, 33))
_FRAMES = _rng.random((17, 17, 4, 4))
_U = _rng.random((65, 65))
_V = _rng.random((65, 65))
_BIG_FRAMES = _rng.random((28, 257, 4, 4))
_BIG_OUT = np.empty_like(_BIG_FRAMES)  # preallocated: no megabyte transient


def _diff(f: np.ndarray, axis: int) -> np.ndarray:
    out = np.full_like(f, np.nan)
    if axis == 0:
        out[1:-1, :] = (f[2:, :] - f[:-2, :]) * 32.0
    else:
        out[:, 1:-1] = (f[:, 2:] - f[:, :-2]) * 32.0
    return out


def kernel() -> float:
    """Fixed work of about 11 ms on a 2-vCPU Xeon VM; returns a checksum.

    Three parts of about equal time, because the host's drift slows each
    kind of work by a different amount: small-array numpy calls where
    per-call overhead dominates (as in ``refine_ladder``), an explicit
    finite-difference update on a 65x65 grid (as in ``flow_relax_n65``)
    and one contraction over megabyte-sized frame arrays (as in
    ``verify_n257``). Of the mixes tried, this one tracked all three
    workloads' drift about as well as any.
    """
    a = _SMALL
    for _ in range(16):
        a = 0.25 * (np.roll(a, 1, 0) + np.roll(a, -1, 0)
                    + np.roll(a, 1, 1) + np.roll(a, -1, 1))
        np.einsum("...ij,...jk->...ik", _FRAMES, _FRAMES)
    u, v = _U, _V
    for _ in range(18):
        ux, uy, vx, vy = _diff(u, 0), _diff(u, 1), _diff(v, 0), _diff(v, 1)
        r2 = 4.0 / (1.0 - 0.1 * (u * u + v * v)) ** 2
        g11 = 1.0 + r2 * (ux * ux + vx * vx)
        g12 = r2 * (ux * uy + vx * vy)
        g22 = 1.0 + r2 * (uy * uy + vy * vy)
        det = g11 * g22 - g12 * g12
        t1 = (g22 * ux - g12 * uy) / det
        t2 = (g11 * vy - g12 * vx) / det
        ok = np.isfinite(t1) & np.isfinite(t2)
        u = np.where(ok, u + 1e-6 * t1, u)
        v = np.where(ok, v + 1e-6 * t2, v)
    big = np.einsum("...ij,...jk->...ik", _BIG_FRAMES, _BIG_FRAMES, out=_BIG_OUT)
    return float(a.sum()) + float(u.sum() + v.sum()) + float(big.sum())


class Probe:
    """Times ``kernel`` every ``INTERVAL_S`` while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0      # seconds spent inside the handler

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.paused += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, since: int) -> float:
        """Mean kernel time of the samples taken after the first ``since``;
        a pass too short to be sampled takes one sample right after it."""
        if len(self.samples) == since:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
        return statistics.fmean(self.samples[since:])


PROBE = Probe()
clock = PROBE.clock
