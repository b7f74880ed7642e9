"""Host speed probe: a fixed computation, independent of fflab, timed between units.

The shared 2-vCPU host the benchmark was tuned on runs the same code at
speeds that drift by up to 2x over minutes, with CPU time equal to wall
time, so the drift is the host's and not the scheduler's.  A run samples
this probe before its first unit and after every unit, on as many
processes at once as its units use, and scales its median unit times by
REFERENCE_S over the median sample.  Times scaled so read as seconds on
the reference host at its usual speed.  The probe never calls fflab, so
a change to fflab moves the scaled times exactly as it moves the raw ones.

The probe is rank mod 3 by row operations on int64 rows in NumPy, the
kind of work fflab.gfp does; its per-call overhead is that of the Python
and NumPy calls that most of fflab's time goes to.  On the tuning host
it tracked the run-to-run drift of both listed workloads better than a
GF(2) elimination on Python integers did, alone or added to it.
"""
from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

# About the median of Probe(processes).sample() on the reference host (2
# vCPUs of an Intel Xeon, Python 3.11.7, NumPy 2.4.6) at its usual speed;
# two processes at once run slower there than one.  Each is a common
# factor of the scaled times of the workloads with that many workers, so
# its value only sets their scale.
REFERENCE_S = {1: 0.022, 2: 0.032}
SAMPLE_REPEATS = 7

_MOD3 = np.random.default_rng(20260809).integers(0, 3, size=(192, 192), dtype=np.int64)


def _mod3_rank(m: np.ndarray) -> int:
    a = m.copy()
    r = 0
    for c in range(a.shape[1]):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r, c:] = (a[r, c:] * a[r, c]) % 3   # x * x = 1 for x in {1, 2}
        below = a[r + 1:, c:]
        f = below[:, 0]
        nzf = np.nonzero(f)[0]
        below[nzf] = (below[nzf] - np.multiply.outer(f[nzf], a[r, c:])) % 3
        r += 1
        if r == a.shape[0]:
            break
    return r


EXPECTED = _mod3_rank(_MOD3)


def _timed_runs(_: int) -> list[float]:
    times = []
    for _ in range(SAMPLE_REPEATS):
        t0 = time.perf_counter()
        rank = _mod3_rank(_MOD3)
        times.append(time.perf_counter() - t0)
        if rank != EXPECTED:
            raise RuntimeError(f"host speed probe computed rank {rank}, not {EXPECTED}")
    return times


class Probe:
    """Runs the probe in as many processes at once as the workload has
    workers, so that it loads the host as the workload's units do."""

    def __init__(self, processes: int) -> None:
        self.processes = processes
        self._pool = multiprocessing.get_context("fork").Pool(processes)

    def sample(self) -> float:
        """Median seconds of SAMPLE_REPEATS runs of the probe in each process."""
        runs = self._pool.map(_timed_runs, range(self.processes))
        return statistics.median(t for times in runs for t in times)

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


def factor(samples: list[float], processes: int) -> float:
    """Multiplier from this host's seconds to the reference host's."""
    return REFERENCE_S[processes] / statistics.median(samples)
