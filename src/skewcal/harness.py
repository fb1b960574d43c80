"""Randomized verification sweeps, single-instance checks, and report emission.

Reproducibility contract: every trial derives its seed as
hash64(seed, dim, trial) where hash64 absorbs each 64-bit word into one
splitmix64 step (h starts at 0; for each word, h becomes the splitmix64
output of state h XOR word). The state and the two observables draw from
the streams of ``default_rng(hash64(trial seed, k))`` for k = 0, 1, 2, so
they, and therefore every record, are functions of that per-trial seed
alone; rerunning a configuration reproduces the output stream byte for
byte. Records are written in (dim, f, trial) order, and the sweep
summarizes them through ``summarize_records``, whose reductions are order
independent, so the summary is invariant under shuffling of the record
stream.

Stacked evaluation: a sweep runs each dimension n in chunks of up to
T = max(1, _STACK_ENTRIES // n**2) trials. Every seed of the sweep is
derived once, before the first chunk, in one array pass: hash64 over
arrays of (dim, trial) and then of (trial seed, k), and numpy's
SeedSequence hash of each stream seed, into one (dims, trials, 3, 4)
table of the words that PCG64 takes from it (``_sweep_seeds``). Each
trial draws from its own generators, seeded by ISeedSequences that hand
over its rows (``linalg._preset_seeds``), so every stream is that of
``default_rng`` of its integer seed bit for bit; the samplers take the
chunk's seeds and return validated stacks. Sampling, validation
(with one batched eigh) and the Frobenius normalisation (two BLAS dots over
the whole stack, each matrix's norm bit for bit ``np.linalg.norm``) run
once per chunk. The chunk's observables are then rotated into the states'
eigenbases once, and tilde is evaluated on the eigenvalue ratios in one
catalog call for every entry, with the kernels built from it once
(``eigenbasis_terms``); one stacked report and, optionally, one G = H
audit read those arrays side by side. Each covers the chunk's (trial,
entry) grid in one call and returns (T, F) columns, the audit's
residual and flags appended to the report's. Each entry's records are
built from those columns in one pass per chunk. A sweep that writes a
file also turns the same columns into the records' text, one repr pass
per column block: the scalars that do not depend on f once per trial, the
others and the residuals once per (trial, entry). Only the draws run per
trial. A rejected trial is reported
with its (dim, trial, seed). The stacks and the report's temporaries hold
O(_STACK_ENTRIES) numbers whatever the trial count; the seed table holds
O(dims x trials) words, 104 B per (dim, trial) for the trial seed and its
three streams' words, for the whole sweep (it is built in blocks of
_SEED_BLOCK pairs, whose temporaries take about 400 B per pair); the
records of one dimension,
with their text when there is output, are kept until it is written.
Every stacked operation and reduction acts on one trial's entries, so a
record's bits do not depend on the chunk its trial fell in, and equal
those of ``evaluate_inequalities`` on the regenerated instance.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .gns import AUDIT_FLAGS, GnsModel, audit_G_equals_H
from .linalg import (
    StackRejection,
    _frobenius_norms,
    _preset_seeds,
    _seed_sequence_words,
    load_density,
    load_hermitian,
    random_density,
    random_hermitian,
)
from .monotone import from_key
from .qinfo import (
    _FLAGS,
    _SCALARS,
    DEFAULT_TOL,
    UncertaintyReport,
    _flag_names,
    _report_in_eigenbasis,
    eigenbasis_terms,
    validate_tol,
)

__all__ = [
    "CSV_COLUMNS",
    "MAX_SWEEP_DIM",
    "SweepConfig",
    "SweepSummary",
    "check_instance",
    "emit_gap_histogram",
    "hash64",
    "read_records",
    "run_sweep",
    "splitmix64",
    "summarize_records",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

MAX_SWEEP_DIM = 64

# A sweep evaluates trials in chunks of at most this many matrix entries per
# (T, n, n) stack, so T = max(1, _STACK_ENTRIES // n**2) trials per chunk.
_STACK_ENTRIES = 8192

# A sweep hashes its (dim, trial) pairs' seeds in blocks of this many pairs,
# about 3 MB of temporaries per block; every bench workload fits in one.
_SEED_BLOCK = 8192

# A record's fields in order, which is also the csv header.
CSV_COLUMNS = ("dim", "f", "trial", "seed", *_SCALARS, "residuals", "flags")

# Positions in _SCALARS of the report's scalars that do not depend on f,
# whose (T, F) columns _report_in_eigenbasis fills with one value per trial,
# and of the others.
_SHARED = [_SCALARS.index(name) for name in ("var_a", "var_b", "cov_ab", "lhs", "heisenberg_rhs")]
_PER_ENTRY = [_SCALARS.index(name) for name in ("info_a", "info_b", "corr_ab", "rhs", "gap")]

# json's spelling of the floats whose repr is nan, inf and -inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def splitmix64(state):
    """One step of the splitmix64 stream: (next_state, output).

    ``state`` is an int below 2**64 or a uint64 array, whose arithmetic
    wraps at 64 bits as the masks do for an int.
    """
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def hash64(*words):
    """Deterministic 64-bit hash of integer words via chained splitmix64 steps.

    Integer words give a Python int. A word may also be an integer array:
    the hash then runs elementwise on uint64 arrays, broadcast over the
    words, and equals the integer hash of each element's words. Words are
    taken modulo 2^64, so -1 hashes as 2^64 - 1. A bool, a float or any
    other non-integer word, and an array of such a dtype, raise ValueError
    rather than being truncated to an integer.
    """
    h = 0
    for w in words:
        if isinstance(w, np.ndarray):
            if w.dtype.kind not in "iu":
                raise ValueError(f"hash64 word must be an integer array, got dtype {w.dtype}")
            w = w.astype(np.uint64)
        else:
            w = _integer(w, "hash64 word") & _MASK64
        _, h = splitmix64(h ^ w)
    return h


def _integer(value, name: str) -> int:
    """``value`` as an int; ValueError for a bool or a non-integer, never a truncation."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _flag(value, name: str) -> bool:
    """``value`` as a bool; ValueError for anything but a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _sequence(value, name: str) -> tuple:
    """``value`` as a tuple; ValueError for a bare string or a non-iterable."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise ValueError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one verification sweep.

    ``dims`` is normalized to a sorted deduplicated tuple; ``f_specs`` to
    the catalog names of its keys (``from_key(key).name``), deduplicated in
    first-seen order, which also fixes the record ordering within a
    dimension. Malformed fields raise ValueError: ``dims`` and ``f_specs``
    must be sequences (a bare int or string is not), the integer fields
    integers, the two switches bools, numpy ones included, and
    ``output_path`` None or a non-empty str or os.PathLike (``open`` takes
    an int or a bool as a file descriptor).
    """

    dims: tuple[int, ...]
    trials: int
    f_specs: tuple[str, ...]
    seed: int = 0
    tol: float = DEFAULT_TOL
    normalize_observables: bool = True
    gns_audit: bool = False
    output_path: str | os.PathLike | None = None
    format: str = "jsonl"

    def __post_init__(self):
        dims = tuple(sorted(set(_integer(d, "dims entry") for d in _sequence(self.dims, "dims"))))
        if not dims:
            raise ValueError("dims must be non-empty")
        if dims[0] < 1 or dims[-1] > MAX_SWEEP_DIM:
            raise ValueError(f"dims must lie in [1, {MAX_SWEEP_DIM}], got {dims}")
        object.__setattr__(self, "dims", dims)
        trials = _integer(self.trials, "trials")
        if trials < 1:
            raise ValueError("trials must be at least 1")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        keys = _sequence(self.f_specs, "f_specs")
        specs = tuple(dict.fromkeys(from_key(str(key)).name for key in keys))
        if not specs:
            raise ValueError("f_specs must be non-empty")
        object.__setattr__(self, "f_specs", specs)
        object.__setattr__(self, "tol", validate_tol(self.tol))
        for name in ("normalize_observables", "gns_audit"):
            object.__setattr__(self, name, _flag(getattr(self, name), name))
        path = self.output_path
        if not (path is None or (isinstance(path, (str, os.PathLike)) and os.fspath(path))):
            raise ValueError(f"output_path must be None or a non-empty str or path, got {path!r}")
        if self.format not in ("jsonl", "csv"):
            raise ValueError(f"format must be 'jsonl' or 'csv', got {self.format!r}")


@dataclass(frozen=True)
class SweepSummary:
    """Order-independent reduction of a record stream.

    total = passes + boundary_cases + violations. A record counts as a
    violation when it carries flags or its gap is not finite, as a boundary
    case when unflagged with |gap| inside the effective tolerance, and as a
    pass otherwise. ``min_gap`` ranges over the finite gaps only (None when
    there are none); ``max_residual`` is NaN once any residual is NaN.
    """

    total: int
    passes: int
    boundary_cases: int
    violations: int
    min_gap: float | None
    min_gap_instance: dict | None
    max_residual: float

    def to_dict(self) -> dict:
        return asdict(self)


def summarize_records(records, tol: float = DEFAULT_TOL) -> SweepSummary:
    """Reduce an iterable of record dicts to a SweepSummary, order independently."""
    tol = validate_tol(tol)
    total = passes = boundary = violations = 0
    min_gap = min_key = min_instance = None
    max_residual = 0.0
    for record in records:
        total += 1
        gap = record["gap"]
        finite = math.isfinite(gap)
        tol_eff = tol * max(1.0, record["var_a"] * record["var_b"])
        if record["flags"] or not finite:
            violations += 1
        elif abs(gap) <= tol_eff:
            boundary += 1
        else:
            passes += 1
        for residual in record["residuals"]:
            # max() keeps the old value against a NaN; here a NaN sticks
            if math.isnan(residual) or residual > max_residual:
                max_residual = residual
        if not finite:
            continue
        key = (record["dim"], record["f"], record["trial"])
        if min_gap is None or gap < min_gap or (gap == min_gap and key < min_key):
            min_gap, min_key = gap, key
            min_instance = {
                "dim": record["dim"],
                "f": record["f"],
                "trial": record["trial"],
                "seed": record["seed"],
            }
    return SweepSummary(
        total=total,
        passes=passes,
        boundary_cases=boundary,
        violations=violations,
        min_gap=min_gap,
        min_gap_instance=min_instance,
        max_residual=max_residual,
    )


def _normalize(stack: np.ndarray) -> None:
    """Scale each matrix of a (T, n, n) stack to unit Frobenius norm, in place.

    The norms come from one pass over the stack (``linalg._frobenius_norms``),
    each bit for bit ``np.linalg.norm`` of its own matrix, so they do not
    depend on the stack; a matrix of norm below 1e-300 is left as it is.
    """
    norms = _frobenius_norms(stack)
    norms[norms < 1e-300] = 1.0
    stack /= norms[:, None, None]


def _sweep_seeds(config: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every seed of a sweep: (trial seeds (D, N), stream words (D, N, 3, 4)).

    Trial seed [d, t] is hash64(seed, dims[d], t); its streams k = 0, 1, 2
    (the state, then the two observables) are seeded by hash64(trial seed,
    k), and words [d, t, k] are that stream seed's SeedSequence words. The
    (dim, trial) pairs are hashed in blocks of _SEED_BLOCK rows, one array
    pass each, written into the preallocated tables, so the hashes'
    temporaries stay O(_SEED_BLOCK) whatever the sweep's size.
    """
    dims = np.array(config.dims, dtype=np.uint64)
    trials = config.trials
    trial_seeds = np.empty((len(dims), trials), dtype=np.uint64)
    words = np.empty((len(dims), trials, 3, 4), dtype=np.uint64)
    flat_seeds, flat_words = trial_seeds.reshape(-1), words.reshape(-1, 3, 4)
    for start in range(0, flat_seeds.size, _SEED_BLOCK):
        block = slice(start, min(start + _SEED_BLOCK, flat_seeds.size))
        rows = np.arange(block.start, block.stop)
        seeds = hash64(config.seed, dims[rows // trials], (rows % trials).astype(np.uint64))
        flat_seeds[block] = seeds
        streams = hash64(seeds[:, None], np.arange(3, dtype=np.uint64))
        flat_words[block] = _seed_sequence_words(streams)
    return trial_seeds, words


def _chunk_instances(config: SweepConfig, dim: int, trials: range, trial_seeds, words):
    """Draw, validate and normalise the instances of one chunk of trials.

    ``trial_seeds`` (N,) and ``words`` (N, 3, 4) are the dimension's rows
    of the sweep's seed table. Returns the chunk's trial seeds as ints,
    the states as one stacked DensityMatrix and both observables as
    (T, n, n) standard-basis stacks. A rejected instance raises ValueError
    naming (dim, trial, seed).
    """
    seeds = trial_seeds[trials.start : trials.stop].tolist()
    streams = words[trials.start : trials.stop]
    try:
        rho = random_density(dim, _preset_seeds(streams[:, 0]))
        a = random_hermitian(dim, _preset_seeds(streams[:, 1])).matrix
        b = random_hermitian(dim, _preset_seeds(streams[:, 2])).matrix
    except StackRejection as exc:
        k = exc.index
        raise ValueError(f"dim {dim}, trial {trials[k]}, seed {seeds[k]}: {exc}") from exc
    if config.normalize_observables:
        _normalize(a)
        _normalize(b)
    return seeds, rho, a, b


def _records(config: SweepConfig, functions):
    """Yield (record, text) pairs in (dim, f, trial) order: every f on each drawn instance.

    The text is the record's jsonl line or csv row when the sweep writes
    ``config.output_path``, and None when it writes nothing.
    """
    fmt = None if config.output_path is None else config.format
    trial_seeds, words = _sweep_seeds(config)
    for dim, dim_seeds, dim_words in zip(config.dims, trial_seeds, words):
        chunk = min(config.trials, max(1, _STACK_ENTRIES // (dim * dim)))
        by_f = [[] for _ in functions]
        for start in range(0, config.trials, chunk):
            trials = range(start, min(start + chunk, config.trials))
            seeds, rho, a, b = _chunk_instances(config, dim, trials, dim_seeds, dim_words)
            # one rotation and one catalog tilde call, read by one report and
            # one audit that each cover the chunk's (trial, f) grid
            terms = eigenbasis_terms(rho, functions, a, b)
            columns = _report_in_eigenbasis(terms, config.tol)
            residuals, masks, names = columns["residuals"], columns["flags"], _FLAGS
            if config.gns_audit:
                audit = audit_G_equals_H(GnsModel(rho), terms)
                residuals = [
                    np.concatenate((r, col[:, None]), axis=1)
                    for r, col in zip(residuals, audit["residual"].T)
                ]
                masks = np.concatenate((masks, audit["flags"]), axis=2)
                names = _FLAGS + AUDIT_FLAGS
            flags = _flag_names(masks, names)
            # the chunk's (T, F, n, n) tilde values and kernels are done with:
            # free them before its text and the next chunk's stacks are built
            del terms
            # (F, T, len(_SCALARS)): the _SCALARS values of each (entry, trial)
            scalars = np.array([columns[name] for name in _SCALARS]).transpose(2, 1, 0)
            if fmt is None:
                texts = [[None] * len(trials)] * len(functions)
            else:
                texts = _chunk_texts(fmt, dim, functions, trials, seeds, scalars, residuals, flags)
            for f, rows, res, f_flags, f_texts, pairs in zip(
                functions, scalars.tolist(), residuals, flags, texts, by_f
            ):
                # the keys of CSV_COLUMNS, in its order
                records = [
                    {
                        "dim": dim,
                        "f": f.name,
                        "trial": trial,
                        "seed": seed,
                        "var_a": va,
                        "var_b": vb,
                        "cov_ab": cov,
                        "info_a": ia,
                        "info_b": ib,
                        "corr_ab": ca,
                        "lhs": lhs,
                        "rhs": rhs,
                        "gap": gap,
                        "heisenberg_rhs": heis,
                        "residuals": r,
                        "flags": names,
                    }
                    for trial, seed, (va, vb, cov, ia, ib, ca, lhs, rhs, gap, heis), r, names in zip(
                        trials, seeds, rows, res.tolist(), f_flags
                    )
                ]
                pairs.extend(zip(records, f_texts))
        for pairs in by_f:
            yield from pairs


def _chunk_texts(fmt, dim, functions, trials, seeds, scalars, residuals, flags) -> list[list]:
    """The jsonl line or csv row of each record of one chunk, as [f][t] lists.

    ``scalars`` holds the (F, T, len(_SCALARS)) values. The _SHARED ones
    are printed once per trial, from the first entry's rows, and the
    _PER_ENTRY ones once per (entry, trial); each block, and each entry's
    residuals, in one ``_float_texts`` pass.
    """
    count = len(trials)
    shared = list(_grouped(_float_texts(scalars[0][:, _SHARED], fmt), len(_SHARED), count))
    own = _float_texts(scalars[:, :, _PER_ENTRY], fmt)
    own = list(_grouped(own, len(_PER_ENTRY), len(functions) * count))
    texts = []
    for k, (f, res, f_flags) in enumerate(zip(functions, residuals, flags)):
        res_texts = _grouped(_float_texts(res, fmt), res.shape[1], count)
        rows = zip(trials, seeds, shared, own[k * count : (k + 1) * count], res_texts, f_flags)
        if fmt == "csv":
            texts.append([_csv_row((dim, f.name, trial, seed), *rest) for trial, seed, *rest in rows])
            continue
        head = f'{{"dim": {dim}, "f": {json.dumps(f.name)}, "trial": '
        texts.append(
            [
                f'{head}{trial}, "seed": {seed}, "var_a": {va}, "var_b": {vb}, "cov_ab": {cov}, '
                f'"info_a": {ia}, "info_b": {ib}, "corr_ab": {ca}, "lhs": {lhs}, "rhs": {rhs}, '
                f'"gap": {gap}, "heisenberg_rhs": {heis}, "residuals": [{", ".join(r)}], '
                f'"flags": {json.dumps(names) if names else "[]"}}}\n'
                for trial, seed, (va, vb, cov, lhs, heis), (ia, ib, ca, rhs, gap), r, names in rows
            ]
        )
    return texts


def _float_texts(values: np.ndarray, fmt: str) -> list[str]:
    """The text of each float of ``values``, in C order, as one repr pass over the block.

    Both formats spell a float as its repr; jsonl spells nan, inf and -inf
    as json does (NaN, Infinity, -Infinity), csv keeps repr's spelling.
    """
    if not values.size:
        return []
    texts = repr(values.ravel().tolist())[1:-1].split(", ")
    if fmt == "jsonl" and not np.isfinite(values).all():
        texts = [_JSON_NONFINITE.get(text, text) for text in texts]
    return texts


def _grouped(texts: list[str], width: int, count: int):
    """``texts`` as ``count`` consecutive tuples of ``width`` texts each."""
    return zip(*[iter(texts)] * width) if width else [()] * count


def _csv_row(head, shared, own, residuals, flags) -> list:
    """One csv record in CSV_COLUMNS order from its texts.

    ``head`` is (dim, f, trial, seed), ``shared`` and ``own`` the texts of
    the _SHARED and _PER_ENTRY scalars, ``residuals`` the residuals' texts
    and ``flags`` the flag names.
    """
    var_a, var_b, cov_ab, lhs, heisenberg_rhs = shared
    info_a, info_b, corr_ab, rhs, gap = own
    scalars = (var_a, var_b, cov_ab, info_a, info_b, corr_ab, lhs, rhs, gap, heisenberg_rhs)
    return [*head, *scalars, ";".join(residuals), ";".join(flags)]


def _emitted(records, record_sink, out=None, fmt="jsonl"):
    """Pass each record to ``record_sink`` (if given), write its text to ``out`` (if given), yield it.

    ``records`` holds (record, text) pairs; the sink sees a record before
    its text is written.
    """
    if out is not None:
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            write = writer.writerow
        else:
            write = out.write
    for record, text in records:
        if record_sink is not None:
            record_sink(record)
        if out is not None:
            write(text)
        yield record


def run_sweep(config: SweepConfig, record_sink=None) -> SweepSummary:
    """Run the configured random-instance sweep and reduce it to a summary.

    Each record goes to ``record_sink`` (if given), then to
    ``config.output_path`` (if given), then to ``summarize_records``.
    A jsonl line holds the bytes of ``json.dumps(record)`` and a csv row
    what ``csv.writer`` writes for the record's values, but both are built
    from the chunk's column arrays; a sweep without output builds no text.
    Inequality violations are recorded and flagged, never raised. An
    exception from the sink propagates; the file then holds the records
    before the one that raised.
    """
    records = _records(config, [from_key(k) for k in config.f_specs])
    if config.output_path is None:
        return summarize_records(_emitted(records, record_sink), config.tol)
    with open(config.output_path, "w", newline="") as out:
        return summarize_records(_emitted(records, record_sink, out, config.format), config.tol)


def check_instance(rho_path, a_path, b_path, f_spec: str, tol: float = DEFAULT_TOL):
    """Evaluate one instance from matrix JSON files.

    Returns (payload, exit_code): 0 on pass, 2 on any flagged tolerance
    violation, 1 on input errors (malformed files, non-Hermitian input,
    unfaithful state, shape mismatch). The payload carries the full report
    plus the identity audit (G, H, residual, mu_min_atom, gform_min and the
    audit flags' names). One rotation and one tilde pass serve both.
    """
    try:
        rho = load_density(rho_path)
        a = load_hermitian(a_path)
        b = load_hermitian(b_path)
        terms = eigenbasis_terms(rho, [from_key(f_spec)], a, b)
        report = UncertaintyReport._from_terms(terms, tol)
        audit = audit_G_equals_H(GnsModel(rho), terms)
    except (OSError, ValueError) as exc:
        return {"error": str(exc)}, 1
    # each audit column holds the one state and the one entry
    names = ("G", "H", "residual", "mu_min_atom", "gform_min")
    ((flags,),) = _flag_names(audit["flags"], AUDIT_FLAGS)
    payload = {
        "report": report.to_dict(),
        "audit": {**{name: audit[name].item() for name in names}, "flags": flags},
    }
    code = 2 if (report.flags or flags) else 0
    return payload, code


def read_records(path) -> list[dict]:
    """Load a jsonl record stream written by run_sweep."""
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{line_no}: a record must be a JSON object")
            records.append(record)
    return records


def emit_gap_histogram(records, n_buckets: int = 20, out_path=None) -> list[tuple[float, float, int]]:
    """Bucket record gaps into a log-spaced histogram table.

    Positive gaps get ``n_buckets`` log-spaced buckets over their observed
    range; any nonpositive gaps (boundary hits) are collected in one leading
    bucket ending at 0. Bucket counts always sum to the record count; a
    non-finite gap fits no bucket and raises ValueError, as does a record
    without a gap or with one that is not a real number (a bool is not), and
    an ``n_buckets`` that is not an integer of at least 1. Rows are
    (gap_lo, gap_hi, count); with ``out_path`` they are also written as
    CSV with that header.
    """
    gaps = []
    for k, record in enumerate(records):
        if "gap" not in record:
            raise ValueError(f"records[{k}] has no 'gap'")
        gap = record["gap"]
        if isinstance(gap, bool) or not isinstance(gap, numbers.Real):
            raise ValueError(f"records[{k}]: gap {gap!r} is not a real number")
        if not math.isfinite(gap):
            raise ValueError(f"records[{k}]: gap {gap!r} is non-finite; no bucket holds it")
        gaps.append(float(gap))
    if not gaps:
        raise ValueError("no records to bucket")
    if _integer(n_buckets, "n_buckets") < 1:
        raise ValueError("n_buckets must be at least 1")
    nonpos = [g for g in gaps if g <= 0.0]
    pos = [g for g in gaps if g > 0.0]
    rows: list[tuple[float, float, int]] = []
    if nonpos:
        rows.append((min(nonpos), 0.0, len(nonpos)))
    if pos:
        lo, hi = min(pos), max(pos)
        if lo == hi:
            rows.append((lo, hi, len(pos)))
        else:
            edges = np.geomspace(lo, hi, n_buckets + 1)
            edges[0], edges[-1] = lo, hi  # guard round-off at the ends
            idx = np.clip(np.searchsorted(edges, pos, side="right") - 1, 0, n_buckets - 1)
            counts = np.bincount(idx, minlength=n_buckets)
            rows.extend(
                (float(edges[i]), float(edges[i + 1]), int(counts[i]))
                for i in range(n_buckets)
            )
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("gap_lo", "gap_hi", "count"))
            writer.writerows(rows)
    return rows
