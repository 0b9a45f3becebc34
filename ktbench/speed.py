"""Machine-speed probe, so that report times from a noisy box can be compared.

On the 2-vCPU KVM guest the benchmark was built on, the speed of a vCPU drifts
by 20-40 % in spells of 5-20 s, independently on each vCPU (measured with a
fixed NumPy loop pinned to each vCPU in turn).  A run of a few dozen seconds
can fall entirely into a slow spell, and medians over more reports do not
remove that.

The probe times two fixed kernels that run no ``ktgeo`` code: small-array
NumPy dispatch, and a many-operand ``einsum`` contraction.  The spells slow
the two by different amounts, as they slow dispatch-bound and kernel-bound
reports by different amounts.  It samples both while a report runs (every
``INTERVAL_S``, from a ``SIGALRM`` handler in the same thread) and once right
after it.  The report's slowdown is the mix of the two kernels' slowdowns
against their reference times, weighted by the workload's share of time in
``einsum``; ``SpeedProbe.scale`` divides the report's wall time, less the
probe's own time, by it.  A slower program still reads slower; a slower vCPU
does not.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# kernel times that define the reference speed: about the kernels' medians on
# the reference machine (Intel Xeon, 2-vCPU KVM guest, NumPy 2.4.6); only
# ratios between runs on one machine carry meaning
REFERENCE_DISPATCH_S = 0.8e-3
REFERENCE_CONTRACTION_S = 1.5e-3
INTERVAL_S = 0.25

_X = np.linspace(0.1, 1.0, 32).reshape(8, 4)
_J = np.linspace(0.1, 1.0, 4 * 36).reshape(4, 6, 6)
_D = np.linspace(0.2, 1.0, 4 * 216).reshape(4, 6, 6, 6)
_EINSUM = np.einsum  # bound once, so a traced run does not count the probe


def _dispatch():
    for _ in range(20):
        m = np.stack([np.sin(_X), np.cos(_X)], axis=-1) @ np.ones((2, 4))
        g = np.swapaxes(m, -1, -2) @ m + np.eye(4)
        np.linalg.solve(g, np.swapaxes(m, -1, -2))
        np.moveaxis(np.broadcast_to(g, (3,) + g.shape), 0, -1).copy()


def _contraction():
    _EINSUM("...ai,...bj,...ck,...abc->...ijk", _J, _J, _J, _D)


def _timed(kernel) -> float:
    """One timed run, after an untimed run that brings the kernel back into
    the caches a report has just used."""
    kernel()
    start = perf_counter()
    kernel()
    return perf_counter() - start


def slowdown_sample(einsum_share: float) -> float:
    """Current slowdown against the reference speed, for a workload that
    spends ``einsum_share`` of its time in ``einsum``."""
    return ((1.0 - einsum_share) * _timed(_dispatch) / REFERENCE_DISPATCH_S
            + einsum_share * _timed(_contraction) / REFERENCE_CONTRACTION_S)


class SpeedProbe:
    """Context manager that samples the slowdown during and after a report."""

    def __init__(self, einsum_share: float):
        self.einsum_share = einsum_share

    def __enter__(self):
        self.samples = []
        self.inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append(slowdown_sample(self.einsum_share))
        self.inside_s += perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(slowdown_sample(self.einsum_share))
        return False

    def scale(self, wall_s: float) -> float:
        """Wall seconds of the report at the reference speed."""
        return (wall_s - self.inside_s) / statistics.median(self.samples)


def current_slowdown(einsum_share: float, n: int = 5) -> float:
    return statistics.median(slowdown_sample(einsum_share) for _ in range(n))
