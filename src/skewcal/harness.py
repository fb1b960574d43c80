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

Errors: ``run_sweep``, ``check_instance``, ``read_records`` and
``emit_gap_histogram`` return their results and raise ValueError or
OSError on bad input, ``SweepConfig`` on a bad field; none of them sets
an exit code, which is ``skewcal.cli``'s policy alone. ``SweepConfig`` and
``check_instance`` refuse a catalog key whose entry
``validate_catalog_entry`` rejects, naming the key and its violations.

Stacked evaluation: a sweep runs each dimension n in chunks of up to
T = max(1, _STACK_ENTRIES // n**2) trials. Every seed of the sweep is
derived once, before the first chunk, in one array pass: hash64 over
arrays of (dim, trial) and then of (trial seed, k), and numpy's
SeedSequence hash of each stream seed, into one (dims, trials, 3, 4)
table of the words that PCG64 takes from it (``_sweep_seeds``). Each
trial draws from its own generators, seeded by ISeedSequences that hand
over its rows (``linalg._preset_seeds``), so every stream is that of
``default_rng`` of its integer seed bit for bit. A chunk makes two draws,
each validated as one stack: its states, with one batched eigh, and its
(2, T, n, n) pair of observables, a's T matrices and then b's, with one
Frobenius normalisation (two BLAS dots, each norm bit for bit
``np.linalg.norm``). One batched matmul rotates the pair into the states'
eigenbases, and one catalog call evaluates tilde on the eigenvalue
ratios for every entry (``qinfo._pair_terms``); one stacked report and,
optionally, one G = H audit read those arrays, each over the chunk's
(trial, entry) grid in one call, returning (T, F) columns, the audit's
residual and flags appended to the report's. Each entry's records are
built from those columns in one pass per chunk. A sweep that writes a
file also turns the same columns into the records' jsonl or csv lines, in
one text pass per chunk over every (trial, entry)'s scalars and
residuals: one repr spells each distinct 64-bit pattern among them once
(``_float_texts``), so a value that does not depend on f is spelled once
for all the entries; jsonl alone respells nan and inf as json does. Only
the draws run per trial. A rejected trial is named by (dim, trial, seed).

Memory: each chunk allocates its stacks and frees them, and every array
a function returns is its caller's own. Without the audit, a chunk holds
about max(200 + 16F, 144 + 32F) bytes per entry of its (T, n, n) stacks
at its peak (the pair's draw takes about 150), 2.4 MiB at n = 64 with
five keys, and with it about 232 + 88F, 5.3 MiB; both are
O(_STACK_ENTRIES) whatever the trial count. Before its first chunk, a
sweep allocates one block of that peak size for its largest chunk and
frees it at once, without writing to it: that raises glibc's dynamic
mmap and trim thresholds above a chunk's stacks, so the heap top that a
chunk frees stays mapped for the next one instead of going back to the
kernel and faulting in again (``_records`` gives the condition). This
works only below glibc's 32 MiB ceiling on that mmap threshold, since
freeing a larger block raises no threshold, so a sweep whose block passes
it (audited from 44 keys, plain from about 124, at n = 64) faults
thousands of pages back in per chunk. The seed table holds
O(dims x trials) words, 104 B per (dim, trial) for the trial seed and
its three streams' words, for the whole sweep (built in blocks of
_SEED_BLOCK pairs, whose temporaries take about 400 B per pair); the
records of one dimension, with their lines if the sweep writes a file, are
kept until it is written. Every stacked operation and reduction acts on
one trial's entries, so a record's bits do not depend on the chunk its
trial fell in, and equal those of ``evaluate_inequalities`` on the
regenerated instance.
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

from .gns import audit_G_equals_H
# Nothing here builds a GnsModel; bench/tracing.py wraps it here by name.
from .gns import GnsModel  # noqa: F401
from .linalg import (
    StackRejection,
    _frobenius_norms,
    _integer,
    _preset_seeds,
    _seed_sequence_words,
    load_density,
    load_hermitian,
    random_density,
    random_hermitian,
)
from .monotone import MonotoneFunction, from_key, validate_catalog_entry
from .qinfo import (
    _SCALARS,
    DEFAULT_TOL,
    _flag_names,
    _instance_report,
    _pair_terms,
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


def _catalog_entry(key: str) -> MonotoneFunction:
    """``from_key(key)``; ValueError naming the key when ``validate_catalog_entry`` rejects it."""
    f = from_key(key)
    violations = validate_catalog_entry(f).violations()
    if violations:
        raise ValueError(f"catalog entry {key!r} fails validation: {'; '.join(violations)}")
    return f


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
    must be sequences (a bare int or string is not), each key's entry must
    pass ``validate_catalog_entry``, the integer fields integers, the two
    switches bools, numpy ones included, and ``output_path`` None or a
    non-empty str or os.PathLike (``open`` takes an int or a bool as a
    file descriptor).
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
        specs = tuple(dict.fromkeys(_catalog_entry(str(key)).name for key in keys))
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
    """Reduce an iterable of record dicts to a SweepSummary, order independently.

    A record that lacks a field read here raises ValueError naming it and ``records[k]``.
    """
    tol = validate_tol(tol)
    total = passes = boundary = violations = 0
    min_gap = min_key = min_instance = None
    max_residual = 0.0
    for record in records:
        total += 1
        try:
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
                min_instance = {name: record[name] for name in ("dim", "f", "trial", "seed")}
        except KeyError as exc:
            raise ValueError(f"records[{total - 1}] has no {exc.args[0]!r}") from None
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


def _chunk_trials(trials: int, dim: int) -> int:
    """Trials per chunk at ``dim``: T = max(1, _STACK_ENTRIES // n^2), at most ``trials``."""
    return min(trials, max(1, _STACK_ENTRIES // (dim * dim)))


def _chunk_instances(config: SweepConfig, dim: int, trials: range, trial_seeds, words):
    """Draw, validate and normalise the instances of one chunk of trials.

    ``trial_seeds`` (N,) and ``words`` (N, 3, 4) are the dimension's rows
    of the sweep's seed table. Returns the chunk's trial seeds as ints, the
    states as one stacked DensityMatrix and the observables as one
    (2, T, n, n) pair, drawn as one stack of 2T, a's and then b's: index k
    is trial k % T. A rejected instance raises ValueError naming (dim,
    trial, seed).
    """
    seeds = trial_seeds[trials.start : trials.stop].tolist()
    streams = words[trials.start : trials.stop]
    try:
        rho = random_density(dim, _preset_seeds(streams[:, 0]))
        # every trial's stream 1, then every trial's stream 2
        pair = random_hermitian(dim, _preset_seeds(streams[:, 1:].swapaxes(0, 1).reshape(-1, 4)))
    except StackRejection as exc:
        k = exc.index % len(seeds)
        raise ValueError(f"dim {dim}, trial {trials[k]}, seed {seeds[k]}: {exc}") from exc
    if config.normalize_observables:
        _normalize(pair.matrix)
    return seeds, rho, pair.matrix.reshape(2, len(seeds), dim, dim)


def _records(config: SweepConfig, functions):
    """Yield (record, text) pairs in (dim, f, trial) order: every f on each drawn instance.

    The text is the record's line in ``config.format`` when the sweep
    writes to ``config.output_path``, and None otherwise.
    """
    fmt = None if config.output_path is None else config.format
    trial_seeds, words = _sweep_seeds(config)
    # Freed per chunk, a chunk's stacks would leave glibc a free heap top past
    # its trim threshold, which it returns to the kernel, and the next chunk
    # would fault those pages back in. glibc mmaps a block at or above its
    # mmap threshold (128 KiB at first), and freeing such a block raises that
    # threshold to the block's size and the trim threshold to twice it (for
    # blocks up to 32 MiB on 64-bit, unless a MALLOC_*_THRESHOLD_ setting
    # fixed them). So this block, which no one writes, is allocated and freed
    # at once: sized for the largest chunk's stacks, it keeps every chunk's
    # arrays on the heap and its freed top below the trim threshold. Under
    # another allocator it costs one untouched allocation.
    # Per entry of a (T, n, n) stack, a chunk holds 112 + 16F bytes until its
    # records are built (the state, a, b, the eigenvectors, the rotated
    # observables, a conjugate, tilde and the kernels) plus the larger of the
    # samplers' 88 B and tilde's 32 + 16F B of scratch (the pair's draw, made
    # before most of those stacks, peaks at 145 B in tracemalloc at n = 32, 64).
    # The audit peaks at 232 + 88F B (tracemalloc: 314 at F = 1, 659 at F = 5),
    # above twice the plain size, so under a block of the plain size audited
    # chunks at n = 32 and 64 would trim their heap top and fault it back in.
    f = len(functions)
    per_entry = 232 + 88 * f if config.gns_audit else max(200 + 16 * f, 144 + 32 * f)
    entries = max(_chunk_trials(config.trials, dim) * dim * dim for dim in config.dims)
    np.empty(entries * per_entry, np.uint8)
    for dim, dim_seeds, dim_words in zip(config.dims, trial_seeds, words):
        chunk = _chunk_trials(config.trials, dim)
        by_f = [[] for _ in functions]
        for start in range(0, config.trials, chunk):
            trials = range(start, min(start + chunk, config.trials))
            seeds, rho, pair = _chunk_instances(config, dim, trials, dim_seeds, dim_words)
            # one pair rotation and one tilde call, for the report and the audit
            terms = _pair_terms(rho, functions, pair)
            columns = _report_in_eigenbasis(terms, config.tol)
            residuals, flags = columns["residuals"], columns["flags"]
            if config.gns_audit:
                audit = audit_G_equals_H(terms)
                residuals = [
                    np.concatenate((r, col[:, None]), axis=1)
                    for r, col in zip(residuals, audit["residual"].T)
                ]
                # the report's gates, then the audit's, each in its table's order
                flags = {**flags, **audit["flags"]}
            flags = _flag_names(flags)
            # the chunk's (T, F, n, n) tilde values and kernels are done with:
            # free them before its text and the next chunk's stacks are built
            del terms
            # (F, T, len(_SCALARS)): the _SCALARS values of each (entry, trial)
            scalars = np.array([columns[name] for name in _SCALARS]).transpose(2, 1, 0)
            if fmt:
                texts = _chunk_texts(dim, functions, trials, seeds, scalars, residuals, flags, fmt)
            else:
                texts = [[None] * len(trials)] * len(functions)
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


def _chunk_texts(dim, functions, trials, seeds, scalars, residuals, flags, fmt) -> list[list]:
    """The ``fmt`` line, jsonl or csv, of each record of one chunk, as [f][t] lists.

    ``scalars`` holds the (F, T, len(_SCALARS)) values, and each line
    unpacks its own (entry, trial) row in _SCALARS order, the row its
    record dict reads. That block and every entry's residuals are spelled
    in one ``_float_texts`` pass over their concatenation, which spells
    each distinct float of the chunk once, so a value that does not depend
    on f is spelled once however many entries repeat it; each block's
    texts are reshaped like it and read as nested lists. ``_csv_row`` joins
    a csv line.
    """
    blocks = [scalars, *residuals]
    spelled = _float_texts(np.concatenate(blocks, axis=None), fmt == "jsonl")
    ends = np.cumsum([block.size for block in blocks]).tolist()
    rows, *res_texts = (
        spelled[start:end].reshape(block.shape).tolist()
        for start, end, block in zip([0, *ends], ends, blocks)
    )
    texts = []
    for f, f_rows, f_res, f_flags in zip(functions, rows, res_texts, flags):
        fields = zip(trials, seeds, f_rows, f_res, f_flags)
        if fmt == "csv":
            # a catalog name holds no comma, quote or line break for csv to quote
            head = f"{dim},{f.name},"
            texts.append([_csv_row(head, *field) for field in fields])
            continue
        head = f'{{"dim": {dim}, "f": {json.dumps(f.name)}, "trial": '
        texts.append(
            [
                f'{head}{trial}, "seed": {seed}, "var_a": {va}, "var_b": {vb}, "cov_ab": {cov}, '
                f'"info_a": {ia}, "info_b": {ib}, "corr_ab": {ca}, "lhs": {lhs}, "rhs": {rhs}, '
                f'"gap": {gap}, "heisenberg_rhs": {heis}, "residuals": [{", ".join(r)}], '
                f'"flags": {json.dumps(names) if names else "[]"}}}\n'
                for trial, seed, (va, vb, cov, ia, ib, ca, lhs, rhs, gap, heis), r, names in fields
            ]
        )
    return texts


def _float_texts(values: np.ndarray, json_nonfinite: bool) -> np.ndarray:
    """The text of each float of ``values``, in C order, spelling each distinct float once.

    A float is spelled as its repr, as ``csv.writer`` does, and with
    ``json_nonfinite`` nan, inf and -inf as json does (NaN, Infinity,
    -Infinity). The floats are keyed on their 64-bit patterns, so 0.0 and
    -0.0 stay apart, and one repr pass spells the distinct patterns; the
    texts come back as a flat object array by one fancy index.
    """
    bits, inverse = np.unique(values.ravel().view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    spelled = repr(distinct.tolist())[1:-1].split(", ")
    if json_nonfinite and not np.isfinite(distinct).all():
        spelled = [_JSON_NONFINITE.get(text, text) for text in spelled]
    return np.array(spelled, dtype=object)[inverse]


def _csv_row(head: str, trial: int, seed: int, row: list, residuals: list, flags: list) -> str:
    """A record's csv line, as ``csv.writer`` writes its values, from its float texts.

    ``head`` is "dim,f,", ``row`` the _SCALARS texts, and the residuals'
    texts are joined by ';', as the flag names are.
    """
    return f"{head}{trial},{seed},{','.join(row)},{';'.join(residuals)},{';'.join(flags)}\n"


def _emitted(records, record_sink, out=None):
    """Pass each record to ``record_sink`` and then its text to ``out``, if given; yield it."""
    for record, text in records:
        if record_sink is not None:
            record_sink(record)
        if out is not None:
            out.write(text)
        yield record


def run_sweep(config: SweepConfig, record_sink=None) -> SweepSummary:
    """Run the configured random-instance sweep and reduce it to a summary.

    Each record goes to ``record_sink`` (if given), then to
    ``config.output_path`` (if given), then to ``summarize_records``.
    A jsonl line holds the bytes of ``json.dumps(record)``, and a csv line,
    after the CSV_COLUMNS header, those ``csv.writer`` writes for the
    record's values; both come from one text pass over the chunk's column
    arrays, and a sweep without output builds no text.
    Inequality violations are recorded and flagged, never raised. An
    exception from the sink propagates; the file then holds the records
    before the one that raised.
    """
    records = _records(config, [from_key(k) for k in config.f_specs])
    if config.output_path is None:
        return summarize_records(_emitted(records, record_sink), config.tol)
    with open(config.output_path, "w", newline="") as out:
        if config.format == "csv":
            out.write(",".join(CSV_COLUMNS) + "\n")
        return summarize_records(_emitted(records, record_sink, out), config.tol)


def check_instance(rho_path, a_path, b_path, f_spec: str, tol: float = DEFAULT_TOL) -> dict:
    """Evaluate one instance from matrix JSON files.

    Returns the payload ``{"report", "audit"}``: the report is the dict
    evaluate_inequalities returns, the audit the identity audit's G, H,
    residual, mu_min_atom, gform_min and the names of its flags. One
    rotation and one tilde pass serve both. Input errors (malformed files,
    non-Hermitian input, unfaithful state, shape mismatch, a bad tolerance,
    or an entry that validate_catalog_entry rejects) raise ValueError or
    OSError.
    """
    rho = load_density(rho_path)
    a = load_hermitian(a_path)
    b = load_hermitian(b_path)
    terms = eigenbasis_terms(rho, [_catalog_entry(f_spec)], a, b)
    report = _instance_report(terms, tol)
    audit = audit_G_equals_H(terms)
    # each audit column holds the one state and the one entry
    names = ("G", "H", "residual", "mu_min_atom", "gform_min")
    ((flags,),) = _flag_names(audit["flags"])
    return {
        "report": report,
        "audit": {**{name: audit[name].item() for name in names}, "flags": flags},
    }


def _field_ok(value, types, items=None) -> bool:
    """isinstance(value, types), and of each item against ``items`` if given; no bool passes."""
    if isinstance(value, bool) or not isinstance(value, types):
        return False
    return items is None or all(_field_ok(x, items) for x in value)


# Each record field's type: (what it must be, the value's types, its items'); NaN is a number.
_FIELD_TYPES = {
    **dict.fromkeys(("dim", "trial", "seed"), ("an integer", int, None)),
    "f": ("a string", str, None),
    **dict.fromkeys(_SCALARS, ("a number", (int, float), None)),
    "residuals": ("a list of numbers", list, (int, float)),
    "flags": ("a list of strings", list, str),
}


def read_records(path) -> list[dict]:
    """Load a jsonl record stream written by run_sweep.

    Each non-blank line must be a JSON object whose record fields, where it
    carries them, have the types of _FIELD_TYPES; a partial record loads.
    Any other line raises ValueError naming ``path:line``.
    """
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
            for name, (kind, types, items) in _FIELD_TYPES.items():
                if name in record and not _field_ok(record[name], types, items):
                    got = record[name]
                    raise ValueError(f"{path}:{line_no}: {name} must be {kind}, got {got!r}")
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
