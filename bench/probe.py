"""Fixed reference work that scales the benchmark's timings to one CPU speed.

On the 2-vCPU host the benchmark was written on, one vCPU or both slow down
by up to 2x for seconds to tens of seconds at a time. Process CPU time slows
with wall time, so this is co-tenant load on the core, not descheduling, and
it moved the median round time of back-to-back runs by 20-45%. Two steps keep
it out of the figures:

* before each round, :meth:`Probe.pin_fastest` times the probe on every CPU
  the process may use and pins the process to the fastest one;
* the round's wall time is multiplied by ``PROBE_REF_S / probe time``.

The probe is a frozen miniature of a sweep: one instance per small dim
(state, eigh, rotation, kernel traces, a json record), then einsum calls on a
4x4 array and a pure-Python loop. That is the numpy dispatch and interpreter
mix that dominates a sweep's per-record cost; the last two parts also track
the wide and audit workloads, whose slowdown under load is smaller. It does
not touch skewcal, so a change to the program moves the scaled figures by
the full amount it moves the raw ones.
"""

import json
import os
import time

import numpy as np

# Probe time on the baseline host (Intel Xeon vCPU at 2.1 GHz, Python 3.11,
# numpy 2.4.6) while no co-tenant slowed it. Scaled times read as seconds on
# that CPU.
PROBE_REF_S = 0.0032


class Probe:
    """Times the reference work and pins the process to its fastest CPU.

    Use as a context manager: leaving it restores the CPUs the process was
    allowed to run on.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        rng = np.random.default_rng(0)
        self.mats = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (2, 3, 4, 6, 8)
        ]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self.cpus)

    def once(self) -> float:
        start = time.perf_counter()
        for g in self.mats * 2:
            rho = g @ g.conj().T
            rho = rho / np.trace(rho).real
            lam, u = np.linalg.eigh(rho)
            at = u.conj().T @ (g + g.conj().T) @ u
            for _ in range(5):
                kernel = np.sqrt(lam[:, None] * lam[None, :])
                value = np.einsum("i,ij,ji->", lam, at, at) - np.einsum("ij,ij,ji->", kernel, at, at)
                json.dumps({"value": float(value.real), "lam": lam[:2].tolist()})
        small = self.mats[2]  # 4x4
        for _ in range(200):
            np.einsum("ij,ji->", small, small)
        total = 0
        for i in range(20000):
            total += i * i
        return time.perf_counter() - start

    def seconds(self, repeats: int = 2) -> float:
        """Fastest of ``repeats`` probe runs, so an interrupt does not count."""
        return min(self.once() for _ in range(repeats))

    def pin_fastest(self) -> float:
        """Pin to the allowed CPU where the probe runs fastest; return that probe time."""
        best_s, best_cpu = None, None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            probe_s = self.seconds()
            if best_s is None or probe_s < best_s:
                best_s, best_cpu = probe_s, cpu
        os.sched_setaffinity(0, {best_cpu})
        return best_s
