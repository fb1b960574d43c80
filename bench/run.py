#!/usr/bin/env python3
"""Benchmark of skewcal verification sweeps.

Run from the repository root:

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

A workload is a closed loop of rounds in this one process: each round is one
``skewcal.harness.run_sweep`` call with the workload's fixed SweepConfig and a
seed derived from ``--seed`` and the round index, and the next round starts
when the previous one returns. BLAS threads are pinned to 1.

``--trace 0`` times untraced rounds for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` alternates untraced and traced rounds on
the same seeds (see ``tracing.py``), then times each dimension of the
workload alone, and reports the per-layer metrics. Either way every round is
checked outside its timed region, a fixed seed is run twice per record
format to compare digests, and the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans of a
traced run are written to ``.bench_out/`` at the end.

See NOTES.md beside this file for why each workload exists and for the
baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The acceptance sweep's catalog keys; every workload evaluates all five.
KEYS = ("wyd:0.1", "wyd:0.5", "wyd:0.9", "sld", "harmonic")


@dataclass(frozen=True)
class Workload:
    dims: tuple[int, ...]
    trials: int
    gns_audit: bool
    format: str | None  # record stream written to a file, or None for no output

    @property
    def records_per_round(self) -> int:
        return len(self.dims) * self.trials * len(KEYS)


# Why each workload exists is in NOTES.md and BENCHMARK.json. Trials are sized
# so that a round takes 0.06-0.2 s, which gives about 100 rounds or more in a
# 20 s run.
WORKLOADS = {
    "sweep-small": Workload((2, 3, 4, 6, 8), 20, False, "jsonl"),
    "audit-small": Workload((2, 3, 4, 6, 8), 4, True, None),
    "sweep-wide": Workload((16, 32, 64), 12, False, "csv"),
    "audit-wide": Workload((16, 24, 32), 1, True, None),
}

ALL_DIMS = sorted({d for w in WORKLOADS.values() for d in w.dims})

# Records cross-checked against a recomputation by direct traces per round,
# and the relative tolerance of that comparison. The eigenbasis and direct
# routes agree to ~1e-14 relative at dim 64 in float64.
CROSS_CHECKS_PER_ROUND = 3
CROSS_RTOL = 1e-9

SETUP_REPEATS = 9
TAIL_QUANTILE = 0.9
TAIL_BEYOND = 10
MIN_ROUNDS = TAIL_BEYOND + 1

# Child script timed by setup_s: import skewcal (with numpy), then build and
# validate the SweepConfig and parse every catalog key, as `skewcal verify`
# does before its first record.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, skewcal
from skewcal.harness import SweepConfig
from skewcal.monotone import from_key
keys = sys.argv[4].split(",")
SweepConfig(dims=[int(d) for d in sys.argv[3].split(",")], trials=1, f_specs=keys,
            gns_audit=sys.argv[5] == "1")
for key in keys:
    from_key(key)
setup_s = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from probe import Probe
print(repr(setup_s), repr(Probe().seconds(3)))
"""


def round_seed(seed: int, index: int) -> int:
    """Sweep seed of round ``index`` of a run with workload seed ``seed``."""
    return seed * 2**20 + index


def tail_rank(n: int, quantile: float = TAIL_QUANTILE, beyond: int = TAIL_BEYOND):
    """Index into ``n`` sorted samples of the tail value to report, and its percentile.

    The ``quantile`` sample, moved down when needed so that at least
    ``beyond`` samples lie above it.
    """
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail value, got {n}")
    index = min(math.ceil(quantile * n) - 1, n - 1 - beyond)
    return index, 100.0 * (index + 1) / n


def sweep_config(workload: Workload, seed: int, output_path=None, dims=None, fmt=None):
    from skewcal.harness import SweepConfig

    return SweepConfig(
        dims=dims or workload.dims,
        trials=workload.trials,
        f_specs=KEYS,
        seed=seed,
        gns_audit=workload.gns_audit,
        output_path=None if output_path is None else str(output_path),
        format=fmt or workload.format or "jsonl",
    )


def reference_scalars(record: dict) -> dict:
    """Recompute a record's scalars from its seed through the direct-trace route."""
    import numpy as np
    from skewcal.harness import hash64
    from skewcal.linalg import HermitianMatrix, random_density, random_hermitian
    from skewcal.monotone import from_key
    from skewcal.qinfo import covariance, f_correlation, f_information, heisenberg_bound, variance

    dim, seed = record["dim"], record["seed"]
    rho = random_density(dim, hash64(seed, 0))
    a, b = (random_hermitian(dim, hash64(seed, k)) for k in (1, 2))
    # Frobenius normalisation, as the sweep applies by default
    a, b = (HermitianMatrix(h.matrix / np.linalg.norm(h.matrix)) for h in (a, b))
    f = from_key(record["f"])
    ref = {
        "var_a": variance(rho, a),
        "var_b": variance(rho, b),
        "cov_ab": covariance(rho, a, b),
        "info_a": f_information(rho, f, a),
        "info_b": f_information(rho, f, b),
        "corr_ab": f_correlation(rho, f, a, b),
        "heisenberg_rhs": heisenberg_bound(rho, a, b),
    }
    ref["gap"] = (ref["var_a"] * ref["var_b"] - ref["cov_ab"] ** 2) - (
        ref["info_a"] * ref["info_b"] - ref["corr_ab"] ** 2
    )
    return ref


def record_matches(record: dict, ref: dict, rtol: float = CROSS_RTOL) -> bool:
    """Whether every recomputed scalar agrees with the record within ``rtol``.

    Variances bound |cov|, info and |corr|, so ``max(var_a, var_b)`` scales
    those; its square scales the products gap and heisenberg_rhs.
    """
    scale = max(ref["var_a"], ref["var_b"], 1e-300)
    for key, value in ref.items():
        unit = scale * scale if key in ("gap", "heisenberg_rhs") else scale
        if not abs(record[key] - value) <= rtol * unit:
            return False
    return True


class Checker:
    """Correctness gate applied to every round, outside its timed region.

    A record fails when it is flagged, missing, duplicated or carries the
    wrong per-trial seed, or when it is among the few sampled per round and
    its scalars disagree with :func:`reference_scalars`.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, config, summary, records) -> None:
        from skewcal.harness import hash64

        expected = {
            (dim, f, trial)
            for dim in config.dims
            for f in config.f_specs
            for trial in range(config.trials)
        }
        bad = set()
        seen = set()
        for i, record in enumerate(records):
            key = (record["dim"], record["f"], record["trial"])
            if (
                key not in expected
                or key in seen
                or record["flags"]
                or record["seed"] != hash64(config.seed, record["dim"], record["trial"])
            ):
                bad.add(i)
            seen.add(key)
        picks = random.Random(config.seed).sample(
            range(len(records)), min(CROSS_CHECKS_PER_ROUND, len(records))
        )
        for i in picks:
            if not record_matches(records[i], reference_scalars(records[i])):
                bad.add(i)
        failed = len(bad) + len(expected - seen)
        # the summary must agree: records_total as configured, no violations
        failed = max(failed, summary.violations, abs(summary.total - len(expected)))
        self.attempted += len(expected)
        self.failed += failed


def run_round(config, checker: Checker, run=None, context=None) -> float:
    """Run one sweep inside ``context``, check it outside, and return its wall time in s."""
    from skewcal.harness import run_sweep

    records = []
    with context or nullcontext():
        start = time.perf_counter()
        summary = (run or run_sweep)(config, records.append)
        elapsed = time.perf_counter() - start
    checker.check(config, summary, records)
    return elapsed


def measure_setup(workload: Workload) -> list[float]:
    """Scaled seconds to import skewcal and validate the config, in fresh interpreters.

    The first child is discarded: it may compile the bytecode cache.
    """
    from probe import PROBE_REF_S

    argv = [
        sys.executable,
        "-c",
        SETUP_CHILD,
        str(SRC),
        str(BENCH),
        ",".join(map(str, workload.dims)),
        ",".join(KEYS),
        "1" if workload.gns_audit else "0",
    ]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        setup_s, probe_s = map(float, done.stdout.split())
        times.append(setup_s * PROBE_REF_S / probe_s)
    return times[1:]


def reproducibility(workload: Workload, seed: int, tmp: Path) -> tuple[int, int]:
    """Run one seed twice per record format; count the formats whose digests match."""
    from skewcal.harness import run_sweep

    matched = 0
    formats = ("jsonl", "csv")
    for fmt in formats:
        digests = set()
        for rep in range(2):
            path = tmp / f"repro-{rep}.{fmt}"
            run_sweep(sweep_config(workload, round_seed(seed, 0), path, fmt=fmt))
            digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
            path.unlink()
        matched += len(digests) == 1
    return matched, len(formats)


def end_to_end(workload: Workload, seed: int, seconds: float, tmp: Path, checker: Checker):
    """Closed loop of untraced rounds for ``seconds``; each round follows a probe."""
    from probe import PROBE_REF_S, Probe

    output = tmp / f"records.{workload.format}" if workload.format else None
    raw, scaled = [], []
    deadline = time.perf_counter() + seconds
    with Probe() as probe:
        while time.perf_counter() < deadline or len(raw) < MIN_ROUNDS:
            config = sweep_config(workload, round_seed(seed, len(raw)), output)
            probe_s = probe.pin_fastest()
            raw.append(run_round(config, checker))
            scaled.append(raw[-1] * PROBE_REF_S / probe_s)
    scaled.sort()
    tail, percentile = tail_rank(len(scaled))
    notes = {
        "rounds": len(raw),
        "round_s_p90_percentile": percentile,
        "raw_records_per_s": workload.records_per_round / statistics.median(raw),
        "raw_round_s_p90": sorted(raw)[tail],
    }
    metrics = {
        "records_per_s": (workload.records_per_round / statistics.median(scaled), "records/s"),
        "round_s_p90": (scaled[tail], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, notes


# Layers whose self time the traced run reports, as ``<layer>.self_s``.
TIMED_LAYERS = (
    "linalg.sample",
    "linalg.eigh",
    "linalg.rotate",
    "monotone.tilde",
    "qinfo.report",
    "qinfo.direct",
    "gns.model",
    "gns.audit",
    "gns.forms",
    "gns.mu",
    "gns.h",
    "harness.serialize",
    "harness.loop",
)


def per_layer(workload: Workload, seed: int, seconds: float, tmp: Path, checker: Checker):
    """Paired untraced and traced rounds, then each dim alone; returns per-layer metrics.

    Times are scaled by the probe like the end-to-end ones. Counts are per
    round, instance or record, so they do not depend on how many rounds fit.
    """
    from probe import PROBE_REF_S, Probe
    from skewcal.harness import run_sweep

    import tracing

    output = tmp / f"records.{workload.format}" if workload.format else None
    tracer = tracing.Tracer()
    traced_run = tracer.wrap("harness.loop", run_sweep)
    plain_s = traced_s = 0.0
    out_bytes = 0
    probes = []
    per_dim = {}
    records_per_dim = workload.trials * len(KEYS)
    with Probe() as probe:
        pairs = 0
        deadline = time.perf_counter() + seconds * 2 / 3
        while time.perf_counter() < deadline or pairs < MIN_ROUNDS:
            config = sweep_config(workload, round_seed(seed, pairs), output)
            probes.append(probe.pin_fastest())
            # alternate which side goes first so drift cancels out of the ratio
            for traced_side in ((False, True) if pairs % 2 == 0 else (True, False)):
                if traced_side:
                    traced_s += run_round(config, checker, traced_run, tracing.traced(tracer))
                    if output is not None:
                        out_bytes += output.stat().st_size
                else:
                    plain_s += run_round(config, checker)
            pairs += 1

        budget = seconds / 3 / len(workload.dims)
        for dim in workload.dims:
            times = []
            deadline = time.perf_counter() + budget
            while time.perf_counter() < deadline or len(times) < 3:
                config = sweep_config(workload, round_seed(seed, len(times)), output, dims=(dim,))
                probe_s = probe.pin_fastest()
                times.append(run_round(config, checker) * PROBE_REF_S / probe_s)
            per_dim[dim] = statistics.median(times) / records_per_dim * 1e6
    scale = PROBE_REF_S / statistics.median(probes)

    records = pairs * workload.records_per_round
    instances = records // len(KEYS)
    calls = tracer.calls()
    counts = tracer.counts
    self_ns = tracing.self_times(tracer.spans)
    metrics = {
        f"{layer}.self_s": (self_ns.get(layer, 0) / 1e9 / pairs * scale, "s/round")
        for layer in TIMED_LAYERS
    }
    metrics.update({
        "linalg.sample.calls": (calls["linalg.sample"] / pairs, "calls/round"),
        "linalg.eigh.calls_per_instance": (calls["linalg.eigh"] / instances, "calls/instance"),
        "linalg.rotate.calls_per_record": (calls["linalg.rotate"] / records, "calls/record"),
        "monotone.tilde.calls_per_record": (calls["monotone.tilde"] / records, "calls/record"),
        "monotone.tilde.elements": (counts["monotone.tilde.elements"] / records, "elements/record"),
        "monotone.tilde.clamps": (counts["monotone.tilde.clamps"] / pairs, "clamps/round"),
        "qinfo.report.calls": (calls["qinfo.report"] / pairs, "calls/round"),
        "qinfo.direct.calls": (calls["qinfo.direct"] / pairs, "calls/round"),
        "gns.h.atom_pairs": (counts["gns.h.atom_pairs"] / records, "pairs/record"),
        "harness.serialize.bytes": (out_bytes / records, "B/record"),
    })
    for dim in ALL_DIMS:
        metrics[f"harness.us_per_record.d{dim}"] = (per_dim.get(dim, 0.0), "us")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    notes = {"pairs": pairs, "spans": len(tracer.spans), "probe_scale": scale}
    return metrics, notes, tracer.spans


def environment(skewcal) -> dict:
    import numpy

    config = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{config['blas'].get('name')} {config['blas'].get('version')}",
        "lapack": f"{config['lapack'].get('name')} {config['lapack'].get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "skewcal").glob("*.py"))
        ),
        "public_names": len(skewcal.__all__),
    }


def git_commit() -> str:
    """The checked-out commit read from .git, or 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_program():
    """Import skewcal from this checkout's src/, or exit with status 1."""
    if not (SRC / "skewcal" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'skewcal'} not found; run from a skewcal checkout")
    sys.path.insert(0, str(SRC))
    import skewcal

    if Path(skewcal.__file__).resolve().parent != (SRC / "skewcal").resolve():
        sys.exit(f"error: imported skewcal from {skewcal.__file__}, not from {SRC}")
    return skewcal


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads, here and in set-up children
        os.environ[var] = "1"
    skewcal = load_program()
    workload = WORKLOADS[args.workload]
    checker = Checker()

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        env = environment(skewcal)
        matched, formats = reproducibility(workload, args.seed, tmp)
        if args.trace:
            metrics, notes, spans = per_layer(workload, args.seed, args.seconds, tmp, checker)
            trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with open(trace_path, "w") as fh:
                fh.writelines(json.dumps(span) + "\n" for span in spans)
            notes["spans_file"] = str(trace_path.relative_to(ROOT))
        else:
            setup = measure_setup(workload)
            metrics, notes = end_to_end(workload, args.seed, args.seconds, tmp, checker)
            metrics["setup_s"] = (statistics.median(setup), "s")
            notes["setup_runs"] = len(setup)
    finally:
        shutil.rmtree(tmp)

    correct = checker.failed == 0 and matched == formats
    print(f"# skewcal benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env: {json.dumps(env)}")
    print(f"# run: {json.dumps(notes)}")
    print(f"# records_total={checker.attempted} records_failed={checker.failed} "
          f"repro_digests_matched={matched}/{formats}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
