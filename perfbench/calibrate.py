"""Host-speed calibration.

On a shared machine the speed of this process's CPU changes by up to ~1.8x
for seconds at a time, with whatever else runs beside it; on a 2-vCPU Xeon
VM that made the median latency of a run spread by 15-35% from run to
run.  A fixed kernel timed between requests tracks that speed: per second,
its time followed request latency at a correlation of 0.95 on
map_small_mixed and 0.83 on map_large_factor, and scaling by it brought the
spread of ten 20 s runs down to 4-12%.  Times are reported at the reference
speed, at which the kernel takes ``REF_MS`` (about its typical time on that
VM, so reference times read close to that VM's wall clock):

    reference time = measured time * REF_MS / (kernel time nearby)

The kernel mixes what the library spends its time on: a Python loop of
small numpy calls, outer products accumulated into a 96 x 96 array, and
one LAPACK eigensolve.  It never calls the library, so no change to the
library can change it.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

REF_MS = 2.0

_rng = np.random.default_rng(20191108)
_A = _rng.standard_normal((8, 8))
_V = _rng.standard_normal((96, 96))
_M = _V[:48, :48] + _V[:48, :48].T
# bound at import: a traced run wraps numpy.linalg.eigh afterwards
_eigh = np.linalg.eigh


def kernel_ms() -> float:
    """Wall time of one run of the calibration kernel, in ms."""
    t0 = perf_counter_ns()
    s = 0.0
    for i in range(300):
        s += float(_A[i % 8] @ _A[(i + 1) % 8])
    acc = np.zeros((96, 96))
    for i in range(24):
        acc = acc + np.outer(_V[:, i], _V[:, i])
    w, _ = _eigh(_M)
    if not np.isfinite(s + acc[0, 0] + w[0]):
        raise FloatingPointError("calibration kernel produced a non-finite value")
    return (perf_counter_ns() - t0) / 1e6


def speed_factor(samples_ms) -> float:
    """Scale from measured time to reference time, from kernel samples."""
    return REF_MS / float(np.median(samples_ms))
