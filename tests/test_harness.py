"""Sweep harness: seeding, record streams, summaries, file checks, and the CLI."""

import builtins
import csv
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import skewcal.harness as harness
import skewcal.linalg as linalg
import skewcal.qinfo as qinfo
from oracle import FROZEN
from skewcal.cli import main
from skewcal.harness import (
    CSV_COLUMNS,
    SweepConfig,
    check_instance,
    emit_gap_histogram,
    hash64,
    read_records,
    run_sweep,
    splitmix64,
    summarize_records,
)
from skewcal.linalg import load_density, load_hermitian, random_density, random_hermitian
from skewcal.monotone import from_key
from skewcal.qinfo import evaluate_inequalities, validate_tol

KEYS = ("wyd:0.1", "wyd:0.5", "wyd:0.9", "sld", "harmonic")
SCALARS = CSV_COLUMNS[4:-2]
PRODUCTS = ("lhs", "rhs", "gap", "heisenberg_rhs")

# Published stream values for splitmix64 from seed 0.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def _tiny_config(**overrides):
    base = dict(dims=(2, 3), trials=4, f_specs=("wyd:0.5", "sld"), seed=11)
    base.update(overrides)
    return SweepConfig(**base)


def _fixture_paths(fixtures_dir):
    return (
        os.path.join(fixtures_dir, "rho_fixture.json"),
        os.path.join(fixtures_dir, "sigma_x.json"),
        os.path.join(fixtures_dir, "sigma_y.json"),
    )


def test_splitmix64_reference_stream():
    state, outputs = 0, []
    for _ in range(3):
        state, out = splitmix64(state)
        outputs.append(out)
    assert tuple(outputs) == SPLITMIX64_SEED0
    # state advances by the golden-ratio increment and wraps at 64 bits
    state, _ = splitmix64(2**64 - 1)
    assert state == 0x9E3779B97F4A7C15 - 1


def test_hash64_chains_splitmix_steps():
    assert hash64() == 0
    _, h1 = splitmix64(0 ^ 42)
    _, h2 = splitmix64(h1 ^ 7)
    assert hash64(42) == h1
    assert hash64(42, 7) == h2
    assert hash64(42, 7) != hash64(7, 42)  # order matters
    assert hash64(2**64 + 5) == hash64(5)  # words are masked to 64 bits
    values = {hash64(i, j) for i in range(8) for j in range(8)}
    assert len(values) == 64


@pytest.mark.parametrize("seed", [-1, 0, 2**63, 2**64 - 1, 2**64 + 5])
def test_hash64_over_arrays_equals_the_int_hash_elementwise(seed):
    dims = np.array([1, 2, 3, 8, 64], dtype=np.uint64)
    trials = np.arange(40)  # an int64 array is hashed as its uint64 words
    seeds = hash64(seed, dims[:, None], trials)
    assert seeds.dtype == np.uint64 and seeds.shape == (5, 40)
    assert seeds.tolist() == [[hash64(seed, d, t) for t in range(40)] for d in dims.tolist()]
    streams = hash64(seeds[..., None], np.arange(3))
    assert streams.shape == (5, 40, 3)
    assert streams.tolist() == [[[hash64(s, k) for k in range(3)] for s in row] for row in seeds.tolist()]
    # integer words still give a Python int
    assert type(hash64(seed, 3, 7)) is int and type(hash64(np.int64(3), np.uint64(7))) is int


def test_hash64_rejects_bool_float_and_non_integer_words():
    # int() would read 1.5 as 1 and True as 1, two hashes of another word
    for word in (1.5, 1.0, np.float64(2.0), True, np.bool_(False), "7", None, 1 + 0j):
        with pytest.raises(ValueError, match="hash64 word"):
            hash64(42, word)
    for array in (np.array([1.0, 2.0]), np.array([True]), np.array(["1"]), np.array([1j])):
        with pytest.raises(ValueError, match="hash64 word"):
            hash64(array, 42)
    # integer words of every kind are taken modulo 2^64
    assert hash64(np.int64(-1)) == hash64(-1) == hash64(2**64 - 1) == hash64(np.uint64(2**64 - 1))
    assert hash64(np.array([-1], dtype=np.int8)).tolist() == [hash64(2**64 - 1)]


def test_sweep_seed_table_holds_each_streams_seed_sequence_words():
    config = _tiny_config(dims=(2, 5, 64), trials=3, seed=2**64 - 1)
    trial_seeds, words = harness._sweep_seeds(config)
    assert trial_seeds.shape == (3, 3) and words.shape == (3, 3, 3, 4)
    for d, dim in enumerate(config.dims):
        for trial in range(config.trials):
            seed = hash64(config.seed, dim, trial)
            assert trial_seeds[d, trial] == seed
            for k in range(3):
                expected = np.random.SeedSequence(hash64(seed, k)).generate_state(4, np.uint64)
                assert words[d, trial, k].tobytes() == expected.tobytes()


def test_sweep_seeds_once_and_never_hashes_an_int_seed_per_trial(monkeypatch):
    # the whole sweep's seeds come from one array pass; no stream is seeded
    # by default_rng of an int, whose SeedSequence hash runs per call
    hashes, rng_seeds = [], []
    real_hash, real_rng = harness.hash64, np.random.default_rng

    def counted_hash(*words):
        hashes.append(words)
        return real_hash(*words)

    def counted_rng(seed=None):
        rng_seeds.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(harness, "hash64", counted_hash)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    records = []
    run_sweep(_tiny_config(dims=(2, 3, 64), trials=5), records.append)
    assert len(hashes) == 2
    assert len(rng_seeds) == 3 * 3 * 5
    assert not any(isinstance(seed, (int, np.integer)) for seed in rng_seeds)
    # a record's seed is a Python int, as json and csv spell it
    assert all(type(r["seed"]) is int for r in records)
    assert records[0]["seed"] == real_hash(11, 2, 0)


def test_sweep_config_normalization_and_validation():
    config = SweepConfig(dims=(4, 2, 2, 3), trials=5, f_specs=("sld",))
    assert config.dims == (2, 3, 4)
    assert config.trials == 5
    with pytest.raises(ValueError, match="dims"):
        SweepConfig(dims=(), trials=1, f_specs=("sld",))
    with pytest.raises(ValueError, match="dims"):
        SweepConfig(dims=(0,), trials=1, f_specs=("sld",))
    with pytest.raises(ValueError, match="dims"):
        SweepConfig(dims=(65,), trials=1, f_specs=("sld",))
    with pytest.raises(ValueError, match="trials"):
        SweepConfig(dims=(2,), trials=0, f_specs=("sld",))
    with pytest.raises(ValueError, match="f_specs"):
        SweepConfig(dims=(2,), trials=1, f_specs=())
    with pytest.raises(ValueError):
        SweepConfig(dims=(2,), trials=1, f_specs=("nope",))
    with pytest.raises(ValueError, match="tol"):
        SweepConfig(dims=(2,), trials=1, f_specs=("sld",), tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        SweepConfig(dims=(2,), trials=1, f_specs=("sld",), tol=float("inf"))
    with pytest.raises(ValueError, match="tol"):
        SweepConfig(dims=(2,), trials=1, f_specs=("sld",), tol=float("nan"))
    with pytest.raises(ValueError, match="format"):
        SweepConfig(dims=(2,), trials=1, f_specs=("sld",), format="xml")
    # integers of any integer type pass; nothing is truncated or read as a bool
    config = SweepConfig(dims=(np.int64(3),), trials=np.int64(2), f_specs=("sld",), seed=np.int64(7))
    assert (config.dims, config.trials, config.seed) == ((3,), 2, 7)
    assert type(config.trials) is int and type(config.seed) is int
    for bad in (2.7, 2.0, 1.5, True, np.True_, np.float64(3.0), "2"):
        with pytest.raises(ValueError, match="dims"):
            SweepConfig(dims=(2, bad), trials=1, f_specs=("sld",))
        with pytest.raises(ValueError, match="trials"):
            SweepConfig(dims=(2,), trials=bad, f_specs=("sld",))
        with pytest.raises(ValueError, match="seed"):
            SweepConfig(dims=(2,), trials=1, f_specs=("sld",), seed=bad)
    # the switches take Python or numpy bools only; a string like "false" is truthy
    config = SweepConfig(
        dims=(2,), trials=1, f_specs=("sld",), gns_audit=np.True_, normalize_observables=np.False_
    )
    assert config.gns_audit is True and config.normalize_observables is False
    for name in ("gns_audit", "normalize_observables"):
        for bad in ("false", "no", 0, 1, None, np.int64(1)):
            with pytest.raises(ValueError, match=name):
                SweepConfig(dims=(2,), trials=1, f_specs=("sld",), **{name: bad})
    # a bare int or string is not a sequence: 'sld' would read as 's', 'l', 'd'
    for bad in (3, np.int64(3), "3"):
        with pytest.raises(ValueError, match="dims must be a sequence"):
            SweepConfig(dims=bad, trials=1, f_specs=("sld",))
    for bad in ("sld", 5):
        with pytest.raises(ValueError, match="f_specs must be a sequence"):
            SweepConfig(dims=(2,), trials=1, f_specs=bad)
    assert SweepConfig(dims=[3], trials=1, f_specs=["sld"]).f_specs == ("sld",)


def test_sweep_config_stores_each_catalog_name_once():
    # two spellings of one key are one catalog entry, kept at its first place
    config = SweepConfig(dims=(2,), trials=2, f_specs=("wyd:0.50", "wyd:.5", " sld", "sld"))
    assert config.f_specs == ("wyd:0.5", "sld")
    records = []
    run_sweep(config, records.append)
    keys = [(r["dim"], r["f"], r["trial"]) for r in records]
    assert keys == [(2, "wyd:0.5", 0), (2, "wyd:0.5", 1), (2, "sld", 0), (2, "sld", 1)]
    # the canonical spelling writes the same records
    canonical = []
    run_sweep(SweepConfig(dims=(2,), trials=2, f_specs=("wyd:0.5", "sld")), canonical.append)
    assert json.dumps(records) == json.dumps(canonical)


def test_output_path_must_be_none_a_str_or_a_path(tmp_path):
    # open() takes an int or a bool as a file descriptor: run_sweep would write
    # records into whatever file the number names (True is stdout) and close it
    target = tmp_path / "fd.txt"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        for bad in (fd, np.int64(fd), True, False, 1, 2.5, b"records.jsonl"):
            with pytest.raises(ValueError, match="output_path"):
                SweepConfig(dims=(2,), trials=2, f_specs=("sld",), output_path=bad)
        os.fstat(fd)  # still open
    finally:
        os.close(fd)
    assert target.stat().st_size == 0
    path = tmp_path / "records.jsonl"
    run_sweep(SweepConfig(dims=(2,), trials=2, f_specs=("sld",), output_path=path))
    assert len(read_records(path)) == 2


def test_empty_output_path_is_rejected(tmp_path, capsys, monkeypatch):
    # an empty path names no file: the sweep would write nothing and exit 0
    with pytest.raises(ValueError, match="output_path"):
        SweepConfig(dims=(2,), trials=2, f_specs=("sld",), output_path="")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--dims", "2", "--trials", "3", "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "output_path" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_failing_sink_propagates_and_leaves_the_records_before_it(tmp_path):
    path = tmp_path / "records.jsonl"
    seen = []

    def sink(record):
        if len(seen) == 5:
            raise RuntimeError("sink failed")
        seen.append(record)

    with pytest.raises(RuntimeError, match="sink failed"):
        run_sweep(_tiny_config(output_path=str(path)), record_sink=sink)
    # the file is closed, so every line before the failing record is on disk
    assert read_records(path) == seen
    assert len(seen) == 5
    # a csv file holds the header and the rows of the same records
    path = tmp_path / "records.csv"
    seen.clear()
    with pytest.raises(RuntimeError, match="sink failed"):
        run_sweep(_tiny_config(output_path=str(path), format="csv"), record_sink=sink)
    assert path.read_text() == _csv_text(seen)
    assert len(seen) == 5


@pytest.mark.parametrize("tol", [True, False, np.True_, np.False_])
def test_bool_tolerance_is_rejected(tol, fixtures_dir):
    # True reads as 1.0, 1e9 times the default, and would loosen every check
    with pytest.raises(ValueError, match="tol"):
        SweepConfig(dims=(2,), trials=1, f_specs=("sld",), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        summarize_records([], tol=tol)
    payload, code = check_instance(*_fixture_paths(fixtures_dir), "wyd:0.5", tol=tol)
    assert code == 1 and "tol" in payload["error"]
    # a numeric string still passes
    assert validate_tol("1e-6") == 1e-6


def test_run_sweep_record_stream_layout():
    config = _tiny_config(f_specs=("sld", "wyd:0.5"))  # not alphabetical on purpose
    records = []
    summary = run_sweep(config, record_sink=records.append)
    assert summary.total == len(records) == 2 * 4 * 2
    keys = [(r["dim"], r["f"], r["trial"]) for r in records]
    spec_order = {"sld": 0, "wyd:0.5": 1}
    assert keys == sorted(keys, key=lambda k: (k[0], spec_order[k[1]], k[2]))
    for r in records:
        assert r["seed"] == hash64(config.seed, r["dim"], r["trial"])
        assert set(r) == {"dim", "f", "trial", "seed", *CSV_COLUMNS[4:]}
        assert r["flags"] == []
    # same instance drives every f entry: scalars without f agree across specs
    by_trial = [r for r in records if r["dim"] == 2 and r["trial"] == 0]
    assert len(by_trial) == 2
    assert by_trial[0]["var_a"] == by_trial[1]["var_a"]
    assert by_trial[0]["heisenberg_rhs"] == by_trial[1]["heisenberg_rhs"]


def test_run_sweep_reruns_byte_identical(tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        run_sweep(_tiny_config(output_path=str(path)))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    other = tmp_path / "c.jsonl"
    run_sweep(_tiny_config(seed=12, output_path=str(other)))
    assert other.read_bytes() != paths[0].read_bytes()


def test_run_sweep_normalization_toggle():
    records_on, records_off = [], []
    run_sweep(_tiny_config(), record_sink=records_on.append)
    run_sweep(_tiny_config(normalize_observables=False), record_sink=records_off.append)
    assert records_on[0]["var_a"] != records_off[0]["var_a"]


def test_run_sweep_gns_audit_appends_residual():
    records_plain, records_audit = [], []
    run_sweep(_tiny_config(), record_sink=records_plain.append)
    run_sweep(_tiny_config(gns_audit=True), record_sink=records_audit.append)
    for plain, audited in zip(records_plain, records_audit):
        assert len(audited["residuals"]) == len(plain["residuals"]) + 1
        assert audited["flags"] == []
        assert audited["gap"] == plain["gap"]


def test_audited_sweep_changes_no_report_field():
    # the audit reads the report's rotation and tilde pass and appends only
    # to residuals and flags; dim 64 runs two chunks
    config = dict(dims=(2, 3, 8, 64), trials=3, f_specs=KEYS, seed=19)
    plain, audited = [], []
    run_sweep(SweepConfig(**config), plain.append)
    run_sweep(SweepConfig(**config, gns_audit=True), audited.append)
    assert len(audited) == len(plain) == 4 * 3 * len(KEYS)
    for before, after in zip(plain, audited):
        residuals, flags = after.pop("residuals"), after.pop("flags")
        assert json.dumps(residuals[:-1]) == json.dumps(before.pop("residuals"))
        assert flags == before.pop("flags") == []
        assert json.dumps(after) == json.dumps(before)


def _report_bits(record: dict) -> str:
    """Scalars, residuals and flags of a record; repr keeps every bit and the sign of zero."""
    return repr({key: record[key] for key in CSV_COLUMNS[4:]})


def test_run_sweep_names_the_rejected_trial(monkeypatch):
    # dim 64 runs two trials per chunk; trial 2 is index 0 of the second chunk
    eigh = np.linalg.eigh
    calls = []

    def perturb_second_chunk(m):
        lam, u = eigh(m)
        calls.append(len(m))
        if len(calls) == 2:
            u[0] *= 1.0 + 1e-6
        return lam, u

    monkeypatch.setattr(np.linalg, "eigh", perturb_second_chunk)
    config = SweepConfig(dims=(64,), trials=3, f_specs=("sld",), seed=5)
    seed = hash64(5, 64, 2)
    with pytest.raises(
        ValueError, match=f"^dim 64, trial 2, seed {seed}: eigendecomposition reconstruction"
    ):
        run_sweep(config)
    assert calls == [2, 1]


@pytest.mark.parametrize(
    "draw, index, trial",
    [(0, 1, 1), (0, 3, 1), (1, 0, 2), (1, 1, 2)],
    ids=["a-chunk1", "b-chunk1", "a-chunk2", "b-chunk2"],
)
def test_run_sweep_names_the_trial_of_a_rejected_observable(monkeypatch, draw, index, trial):
    # dim 64 runs T = 2 trials and then T = 1 per chunk; a chunk draws a and
    # b as one stack of 2T, a's T matrices and then b's, so pair index k is
    # trial k % T of the chunk, whichever half it falls in
    ginibre = linalg._ginibre
    sizes = []

    def poison(dim, seeds):
        g = ginibre(dim, seeds)
        sizes.append(len(seeds))
        # each chunk draws its states and then its pair: odd calls are pairs
        if len(sizes) == 2 * draw + 2:
            g[index, 3, 5] = np.nan
        return g

    monkeypatch.setattr(linalg, "_ginibre", poison)
    config = SweepConfig(dims=(64,), trials=3, f_specs=("sld",), seed=5)
    seed = hash64(5, 64, trial)
    with pytest.raises(
        ValueError, match=f"^dim 64, trial {trial}, seed {seed}: matrix entries must be finite"
    ):
        run_sweep(config)
    assert sizes == [2, 4, 1, 2][: 2 * draw + 2]


def test_chunk_pair_equals_separate_draws_and_rotations_bit_for_bit():
    # each chunk draws, normalises and rotates a and b as one (2, T, n, n)
    # pair; each half holds the bits of its own draw and its own rotation.
    # The invariance tests compare records with evaluate_inequalities, which
    # rotates through the same pair path, so they would miss a change here.
    config = SweepConfig(dims=(2, 16, 64), trials=3, f_specs=KEYS, seed=9)
    functions = [from_key(key) for key in KEYS]
    trial_seeds, words = harness._sweep_seeds(config)
    chunks = []
    for dim, dim_seeds, dim_words in zip(config.dims, trial_seeds, words):
        step = harness._chunk_trials(config.trials, dim)
        for start in range(0, config.trials, step):
            trials = range(start, min(start + step, config.trials))
            _, rho, pair = harness._chunk_instances(config, dim, trials, dim_seeds, dim_words)
            assert pair.shape == (2, len(trials), dim, dim)
            terms = qinfo._pair_terms(rho, functions, pair)
            streams = dim_words[trials.start : trials.stop]
            for k, (x, xt) in enumerate(((terms.a, terms.at), (terms.b, terms.bt))):
                alone = random_hermitian(dim, linalg._preset_seeds(streams[:, k + 1])).matrix
                harness._normalize(alone)
                assert x.tobytes() == alone.tobytes(), (dim, start, k)
                assert xt.tobytes() == rho.to_eigenbasis(alone).tobytes(), (dim, start, k)
            chunks.append((dim, len(trials)))
    # dim 64 runs a full chunk of two trials and then a partial one
    assert chunks == [(2, 3), (16, 3), (64, 2), (64, 1)]


def _regenerated(record: dict):
    """The state and the observables of a record's trial, drawn on their own and normalised."""
    seed, dim = record["seed"], record["dim"]
    rho = random_density(dim, hash64(seed, 0))
    a, b = (random_hermitian(dim, hash64(seed, k)).matrix for k in (1, 2))
    return rho, a / np.linalg.norm(a), b / np.linalg.norm(b)


def test_record_bits_are_a_function_of_the_trial_alone(fixtures_dir):
    dim = 64
    # two trials fill a dim-64 chunk, so trial 2 of 3 starts a second, partial one
    assert max(1, harness._STACK_ENTRIES // dim**2) == 2
    sweeps = {}
    for trials in (1, 3, 4):
        records = []
        run_sweep(SweepConfig(dims=(dim,), trials=trials, f_specs=KEYS, seed=7), records.append)
        sweeps[trials] = {(r["f"], r["trial"]): r for r in records}
    for (key, trial), record in sweeps[3].items():
        rho, a, b = _regenerated(record)
        single = evaluate_inequalities(rho, from_key(key), a, b)
        # the report is the record's fields after (dim, f, trial, seed), in order
        assert tuple(single) == CSV_COLUMNS[4:], (key, trial)
        assert _report_bits(single) == _report_bits(record), (key, trial)
        for other in (sweeps[1], sweeps[4]):
            if (key, trial) in other:
                assert _report_bits(other[key, trial]) == _report_bits(record), (key, trial)
    # check's report is that dict too, with no round trip
    paths = _fixture_paths(fixtures_dir)
    rho, a, b = load_density(paths[0]), load_hermitian(paths[1]), load_hermitian(paths[2])
    for key in KEYS:
        payload, code = check_instance(*paths, key)
        assert code == 0, key
        assert repr(payload["report"]) == repr(evaluate_inequalities(rho, from_key(key), a, b)), key


@pytest.mark.parametrize("gns_audit", [False, True])
def test_records_do_not_depend_on_the_chunks_or_dims_beside_them(gns_audit):
    # chunks of 27 to 8192 entries in one sweep, and at dim 64 a full chunk
    # followed by a partial one. Each record must equal the sweep of its dim
    # alone and the evaluation of its instance alone
    dims = (3, 16, 32, 64)
    assert [min(3, max(1, harness._STACK_ENTRIES // d**2)) * d**2 for d in dims] == [
        27, 768, 3072, 8192
    ]
    config = dict(trials=3, f_specs=KEYS, seed=23, gns_audit=gns_audit)
    together, alone = [], []
    run_sweep(SweepConfig(dims=dims, **config), together.append)
    for dim in dims:
        run_sweep(SweepConfig(dims=(dim,), **config), alone.append)
    assert len(together) == len(dims) * 3 * len(KEYS)
    assert [_report_bits(r) for r in together] == [_report_bits(r) for r in alone]
    for record in together:
        rho, a, b = _regenerated(record)
        f = from_key(record["f"])
        single = evaluate_inequalities(rho, f, a, b)
        if gns_audit:
            terms = qinfo.eigenbasis_terms(rho, [f], a, b)
            audit = harness.audit_G_equals_H(terms)
            single["residuals"].append(audit["residual"].item())
        assert _report_bits(single) == _report_bits(record), record


def test_a_sweep_leaves_arrays_returned_before_it_alone():
    # evaluate_inequalities and eigenbasis_terms return arrays of their own,
    # which no later sweep's chunks write into
    rho = random_density(16, 41)
    a, b = (random_hermitian(16, seed).matrix for seed in (42, 43))
    functions = [from_key(key) for key in KEYS]
    report = evaluate_inequalities(rho, functions[0], a, b)
    terms = qinfo.eigenbasis_terms(rho, functions, a, b)
    names = ("a", "b", "at", "bt", "tilde", "kernels")
    before = repr(report), [getattr(terms, name).tobytes() for name in names]
    state = rho.matrix.tobytes(), rho.eigenvectors.tobytes()
    for gns_audit in (False, True):
        run_sweep(SweepConfig(dims=(16, 64), trials=3, f_specs=KEYS, gns_audit=gns_audit))
    assert (repr(report), [getattr(terms, name).tobytes() for name in names]) == before
    assert (rho.matrix.tobytes(), rho.eigenvectors.tobytes()) == state


# One sweep in a fresh interpreter: the minor page faults it takes per chunk.
FAULT_CHILD = """\
import resource, sys
from skewcal.harness import SweepConfig, run_sweep
config = SweepConfig(
    dims=(64,), trials=int(sys.argv[1]), f_specs=sys.argv[2].split(","),
    gns_audit=sys.argv[3] == "1",
)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_sweep(config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# Several 40-trial sweeps at dim 32 and then at dim 64 in one interpreter:
# the minor page faults of the last sweep at each dim.
LOOP_FAULT_CHILD = """\
import resource, sys
from skewcal.harness import SweepConfig, run_sweep
for dim in (32, 64):
    config = SweepConfig(
        dims=(dim,), trials=40, f_specs=sys.argv[1].split(","), gns_audit=sys.argv[2] == "1",
    )
    for _ in range(int(sys.argv[3])):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_sweep(config)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(dim, faults)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the bound is set against glibc's malloc, which returns a freed heap top to the kernel",
)
@pytest.mark.parametrize("gns_audit", [False, True])
def test_sweep_faults_few_pages_per_chunk(gns_audit):
    # Allocated and freed per chunk, the dim-64 stacks (about 2 MB, more
    # with the audit) leave glibc a heap top past its default trim
    # threshold, which it returns to the kernel, and the next chunk faults
    # it back in: about 180 to 280 minor faults per chunk, about 1500 with
    # the audit. The block a sweep frees before its first chunk raises that
    # threshold; of the few faults per chunk left at 400 trials (200 chunks
    # of T = 2), most are the first chunk's: numpy's and LAPACK's first calls.
    # The block is sized for the sweep's own chunks, audited or not. A loop
    # of short sweeps checks that where the first chunk's faults do not
    # spread over hundreds of chunks: there, under a block sized for the
    # plain chunk, each audited chunk takes hundreds of faults at dim 32 and
    # about a hundred at dim 64.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

    def child(script, *args):
        done = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    trials = 400
    chunks = trials // max(1, harness._STACK_ENTRIES // 64**2)
    assert int(child(FAULT_CHILD, trials, ",".join(KEYS), int(gns_audit))) / chunks < 40
    for line in child(LOOP_FAULT_CHILD, ",".join(KEYS), int(gns_audit), 4).splitlines():
        dim, faults = map(int, line.split())
        chunks = math.ceil(40 / max(1, harness._STACK_ENTRIES // dim**2))
        assert faults / chunks < 40, (dim, faults)


def test_sweep_matches_golden_stream(fixtures_dir):
    # reference stream of the record-at-a-time evaluator: stacked evaluation
    # may move a record's last bits, never its keys, seed or flags
    golden = read_records(os.path.join(fixtures_dir, "golden_seed42.jsonl"))
    config = SweepConfig(dims=(2, 3, 4, 8, 16), trials=3, f_specs=KEYS, seed=42, gns_audit=True)
    records = []
    run_sweep(config, records.append)
    assert len(records) == len(golden) == 5 * 3 * len(KEYS)
    for new, old in zip(records, golden):
        for key in ("dim", "f", "trial", "seed", "flags"):
            assert new[key] == old[key], (key, new, old)
        scale = max(old["var_a"], old["var_b"])
        for key in SCALARS:
            unit = scale * scale if key in PRODUCTS else scale
            assert abs(new[key] - old[key]) <= 1e-12 * unit, (key, new, old)
        assert len(new["residuals"]) == len(old["residuals"])
        for r_new, r_old in zip(new["residuals"], old["residuals"]):
            assert abs(r_new - r_old) <= 1e-12 * scale, (new, old)


def test_summary_matches_streamed_records_and_shuffling():
    config = _tiny_config()
    records = []
    summary = run_sweep(config, record_sink=records.append)
    recomputed = summarize_records(records, tol=config.tol)
    assert recomputed.to_dict() == summary.to_dict()
    shuffled = list(records)
    random.Random(0).shuffle(shuffled)
    assert summarize_records(shuffled, tol=config.tol).to_dict() == summary.to_dict()
    assert summary.passes + summary.boundary_cases + summary.violations == summary.total
    assert summary.min_gap_instance["dim"] in config.dims


def test_summary_counts_boundary_and_violation_records():
    base = {
        "dim": 2,
        "f": "sld",
        "trial": 0,
        "seed": 1,
        "var_a": 1.0,
        "var_b": 1.0,
        "residuals": [],
        "flags": [],
    }
    passing = dict(base, gap=0.5)
    boundary = dict(base, trial=1, gap=1e-12)
    violating = dict(base, trial=2, gap=-1.0, flags=["main_inequality_violation"])
    summary = summarize_records([passing, boundary, violating], tol=1e-9)
    assert summary.passes == 1
    assert summary.boundary_cases == 1
    assert summary.violations == 1
    assert summary.min_gap == -1.0
    assert summary.min_gap_instance["trial"] == 2


def test_summary_min_gap_tie_break_is_order_free():
    base = {
        "f": "sld",
        "seed": 1,
        "var_a": 1.0,
        "var_b": 1.0,
        "gap": 0.25,
        "residuals": [],
        "flags": [],
    }
    a = dict(base, dim=3, trial=5)
    b = dict(base, dim=2, trial=9)
    first = summarize_records([a, b], tol=1e-9).min_gap_instance
    second = summarize_records([b, a], tol=1e-9).min_gap_instance
    assert first == second == {"dim": 2, "f": "sld", "trial": 9, "seed": 1}


def _summary_record(**fields):
    record = {
        "dim": 2, "f": "sld", "trial": 0, "seed": 1, "var_a": 1.0, "var_b": 1.0,
        "gap": 0.5, "residuals": [], "flags": [],
    }
    record.update(fields)
    return record


def test_summary_max_residual_keeps_nan():
    nan = float("nan")
    for residuals in ([1e-15, nan], [nan, 1e-15]):
        summary = summarize_records([_summary_record(residuals=residuals)])
        assert math.isnan(summary.max_residual), residuals
    records = [_summary_record(residuals=[nan]), _summary_record(trial=1, residuals=[1.0])]
    for order in (records, records[::-1]):
        assert math.isnan(summarize_records(order).max_residual)
    assert summarize_records(records[1:]).max_residual == 1.0


def test_summary_nonfinite_gap_is_a_violation_outside_min_gap():
    gaps = (0.5, float("nan"), 0.25, float("inf"), float("-inf"))
    records = [_summary_record(trial=i, gap=g) for i, g in enumerate(gaps)]
    for order in itertools.permutations(records):
        summary = summarize_records(order)
        assert (summary.passes, summary.boundary_cases, summary.violations) == (2, 0, 3)
        assert summary.min_gap == 0.25
        assert summary.min_gap_instance["trial"] == 2
    summary = summarize_records([_summary_record(gap=float("nan"))])
    assert summary.violations == 1
    assert summary.min_gap is None and summary.min_gap_instance is None


def test_csv_output_round_trips(tmp_path):
    path = tmp_path / "records.csv"
    config = _tiny_config(output_path=str(path), format="csv")
    summary = run_sweep(config)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) - 1 == summary.total
    sample = dict(zip(CSV_COLUMNS, rows[1]))
    assert int(sample["dim"]) == 2
    assert float(sample["gap"]) >= 0.0
    assert sample["flags"] == ""
    assert all(float(part) >= 0.0 for part in sample["residuals"].split(";"))


def test_jsonl_output_matches_sink(tmp_path):
    path = tmp_path / "records.jsonl"
    records = []
    run_sweep(_tiny_config(output_path=str(path)), record_sink=records.append)
    assert read_records(path) == records


def _csv_text(records) -> str:
    """The csv stream of ``records`` as csv.writer writes each record's dict-based row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        residuals = ";".join(repr(x) for x in r["residuals"])
        writer.writerow([r[c] for c in CSV_COLUMNS[:-2]] + [residuals, ";".join(r["flags"])])
    return out.getvalue()


def _written_as_dumped(config, tmp_path) -> list[dict]:
    """Run ``config`` to a jsonl and a csv file; each must hold the sink's records as dumped per record."""
    streams = {}
    for fmt in ("jsonl", "csv"):
        path = tmp_path / f"records.{fmt}"
        records = []
        run_sweep(
            SweepConfig(**{**vars(config), "output_path": str(path), "format": fmt}),
            record_sink=records.append,
        )
        streams[fmt] = (path, records)
    (jsonl, records), (csv_path, csv_records) = streams["jsonl"], streams["csv"]
    assert repr(csv_records) == repr(records)
    assert jsonl.read_bytes() == "".join(json.dumps(r) + "\n" for r in records).encode()
    assert csv_path.read_bytes() == _csv_text(records).encode()
    # json reads NaN and the infinities back; repr compares NaN and -0.0 exactly
    assert repr(read_records(jsonl)) == repr(records)
    return records


@pytest.mark.parametrize("gns_audit", [False, True])
def test_sweep_text_equals_per_record_dumps(gns_audit, monkeypatch, tmp_path):
    # a small stack size splits the dim-3 trials over chunks; dim 64 takes
    # one trial per chunk
    monkeypatch.setattr(harness, "_STACK_ENTRIES", 18)
    config = SweepConfig(dims=(2, 3, 64), trials=4, f_specs=KEYS, seed=5, gns_audit=gns_audit)
    assert len(_written_as_dumped(config, tmp_path)) == 3 * 4 * len(KEYS)


def test_sweep_text_of_forged_columns_equals_per_record_dumps(monkeypatch, tmp_path):
    # the sampled instances reach no non-finite value or flag, so the report
    # and the audit are fed them. The report gives an f-independent column
    # one value per trial across the entries; here one such cell of each
    # chunk differs between two entries of a trial, and each line must read
    # its own entry's row, as its record dict does. Every chunk holds 0.0
    # beside -0.0, NaN with and without its sign bit, both infinities,
    # 5e-324, and 1e16 among the f-independent values, an entry's own values
    # and a residual; its text pass spells each distinct bit pattern once.
    real_report, real_audit = harness._report_in_eigenbasis, harness.audit_G_equals_H
    real_texts = harness._chunk_texts
    negative_nan = np.copysign(np.nan, -1.0)

    def forged_report(terms, tol):
        columns = real_report(terms, tol)
        last = len(columns["gap"]) - 1
        columns["var_a"][0] = np.nan
        columns["var_a"][0, 1] = 0.375
        columns["var_b"][last] = 0.0
        columns["cov_ab"][last] = -0.0
        columns["lhs"][last] = -np.inf
        columns["heisenberg_rhs"][0] = 1e16
        columns["info_a"][0, 0] = np.inf
        columns["info_b"][0, 1] = 1e-5
        columns["corr_ab"][last, -1] = -0.0
        columns["rhs"][0, -1] = 5e-324
        columns["rhs"][last, 0] = 1e16
        columns["gap"][last, 1] = negative_nan
        columns["residuals"][0][last] = (np.nan, -0.0, 5e-324)
        columns["residuals"][1][0, 2] = -np.inf
        columns["residuals"][1][last, 0] = 1e16
        columns["flags"][0, :, 1] = True
        columns["flags"][last, 0] = True
        return columns

    def forged_audit(terms):
        audit = real_audit(terms)
        audit["residual"][0, -1] = np.inf
        audit["residual"][-1, 0] = np.nan
        audit["flags"][0, 0, 0] = True
        return audit

    spelled = []  # per jsonl chunk, the float lists its text pass passed to repr

    def counted_texts(*args):
        spelled.append([])
        return real_texts(*args)

    def counted_repr(value):
        if isinstance(value, list):  # the text pass's; _csv_row spells floats one by one
            spelled[-1].append(value)
        return builtins.repr(value)

    monkeypatch.setattr(harness, "_report_in_eigenbasis", forged_report)
    monkeypatch.setattr(harness, "audit_G_equals_H", forged_audit)
    monkeypatch.setattr(harness, "_chunk_texts", counted_texts)
    monkeypatch.setattr(harness, "repr", counted_repr, raising=False)
    monkeypatch.setattr(harness, "_STACK_ENTRIES", 18)
    edges = np.array([0.0, -0.0, np.nan, negative_nan, np.inf, -np.inf, 5e-324, 1e16])
    for gns_audit in (False, True):
        spelled.clear()
        config = SweepConfig(dims=(2, 3), trials=4, f_specs=KEYS, seed=5, gns_audit=gns_audit)
        records = _written_as_dumped(config, tmp_path)
        texts = {repr(r[c]) for r in records for c in SCALARS} | {
            repr(x) for r in records for x in r["residuals"]
        }
        assert {"nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e+16", "1e-05"} <= texts
        # the first trial of each chunk reads var_a 0.375 under its second
        # entry alone, and NaN under the others
        firsts = [r for r in records if (r["dim"], r["trial"]) in ((2, 0), (3, 0), (3, 2))]
        assert [r["var_a"] for r in firsts if r["f"] == KEYS[1]] == [0.375] * 3
        assert all(math.isnan(r["var_a"]) for r in firsts if r["f"] != KEYS[1])
        # one chunk of 4 trials at dim 2 and two of 2 at dim 3, one repr each,
        # of pairwise distinct bit patterns
        assert len(spelled) == 3
        for calls in spelled:
            assert len(calls) == 1
            bits = np.array(calls[0]).view(np.uint64)
            assert np.unique(bits).size == bits.size
            assert set(edges.view(np.uint64).tolist()) <= set(bits.tolist())
        assert any(r["residuals"] == [] for r in records) != gns_audit
        flags = [set(r["flags"]) for r in records]
        assert any("main_inequality_violation" in names for names in flags)
        assert any("g_h_mismatch" in names for names in flags) == gns_audit
        assert any(
            {"main_inequality_violation", "g_h_mismatch"} <= names for names in flags
        ) == gns_audit
        # the report's flags come first, then the audit's, each in its own order
        order = harness._FLAGS + harness.AUDIT_FLAGS
        assert all(r["flags"] == sorted(r["flags"], key=order.index) for r in records)


def test_sweep_without_output_builds_no_text(monkeypatch, tmp_path):
    # only a jsonl sweep takes the column text pass: a sweep without output
    # builds no text, and a csv sweep writes csv.writer's rows of the records
    def no_text(values):
        raise AssertionError("a sweep without jsonl output built jsonl text")

    monkeypatch.setattr(harness, "_float_texts", no_text)
    path = tmp_path / "records.csv"
    for gns_audit in (False, True):
        assert run_sweep(_tiny_config(gns_audit=gns_audit)).total == 2 * 4 * 2
        records = []
        config = _tiny_config(gns_audit=gns_audit, output_path=str(path), format="csv")
        assert run_sweep(config, record_sink=records.append).total == 2 * 4 * 2
        assert path.read_text() == _csv_text(records)


def test_check_instance_passes_on_fixture(fixtures_dir):
    rho_path, a_path, b_path = _fixture_paths(fixtures_dir)
    payload, code = check_instance(rho_path, a_path, b_path, "wyd:0.5")
    assert code == 0
    assert payload["report"]["gap"] == pytest.approx(FROZEN["fixture_gap_wyd_half"], abs=1e-10)
    assert payload["report"]["flags"] == []
    assert payload["audit"]["residual"] <= 1e-10
    assert payload["audit"]["flags"] == []


def test_check_instance_decomposes_the_state_once(monkeypatch, fixtures_dir):
    # the report and the audit both reuse the loaded state's eigendecomposition
    real, calls = linalg.eigendecompose, []
    monkeypatch.setattr(linalg, "eigendecompose", lambda h: calls.append(h) or real(h))
    payload, code = check_instance(*_fixture_paths(fixtures_dir), "wyd:0.5")
    assert code == 0 and payload["audit"]["flags"] == []
    assert len(calls) == 1


def test_check_instance_error_paths(tmp_path, fixtures_dir):
    rho_path, a_path, b_path = _fixture_paths(fixtures_dir)
    bad_trace = os.path.join(fixtures_dir, "bad_trace.json")
    non_herm = os.path.join(fixtures_dir, "non_hermitian.json")
    unfaithful = os.path.join(fixtures_dir, "unfaithful.json")

    for args in (
        (bad_trace, a_path, b_path, "wyd:0.5"),
        (unfaithful, a_path, b_path, "wyd:0.5"),
        (rho_path, non_herm, b_path, "wyd:0.5"),
        (rho_path, a_path, b_path, "wyd:oops"),
        (str(tmp_path / "missing.json"), a_path, b_path, "wyd:0.5"),
    ):
        payload, code = check_instance(*args)
        assert code == 1
        assert "error" in payload

    # shape mismatch between the state and an observable
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}))
    payload, code = check_instance(rho_path, str(wide), b_path, "wyd:0.5")
    assert code == 1 and "shape" in payload["error"]


def test_check_instance_flag_exit_code(monkeypatch, fixtures_dir):
    rho_path, a_path, b_path = _fixture_paths(fixtures_dir)
    real = qinfo._report_in_eigenbasis

    def forged(terms, tol):
        columns = real(terms, tol)
        flags = columns["flags"].copy()
        flags[..., qinfo._FLAGS.index("main_inequality_violation")] = True
        return {**columns, "flags": flags}

    monkeypatch.setattr(qinfo, "_report_in_eigenbasis", forged)
    payload, code = check_instance(rho_path, a_path, b_path, "wyd:0.5")
    assert code == 2
    assert payload["report"]["flags"] == ["main_inequality_violation"]


def test_read_records_handles_blank_and_bad_lines(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text('{"gap": 1.0}\n\n{"gap": 2.0}\n')
    assert [r["gap"] for r in read_records(path)] == [1.0, 2.0]
    path.write_text('{"gap": 1.0}\nnot json\n')
    with pytest.raises(ValueError, match=":2:"):
        read_records(path)
    # a line must be an object whose record fields have their types: a JSON
    # true read as a gap would count as a pass with min_gap True
    objects = ("[1, 2]", "3.5", '"gap"', "null")
    fields = (
        ("gap", "true"),
        ("var_a", '"1.0"'),
        ("heisenberg_rhs", "null"),
        ("dim", "2.0"),
        ("trial", "false"),
        ("seed", '"7"'),
        ("f", "0.5"),
        ("residuals", "0.0"),
        ("residuals", "[0.0, true]"),
        ("flags", '"negative_lhs"'),
        ("flags", "[1]"),
    )
    for line, error in itertools.chain(
        ((line, ":3: a record must be a JSON object") for line in objects),
        ((f'{{"{name}": {value}}}', f":3: {name} must be ") for name, value in fields),
    ):
        path.write_text(f'{{"gap": 1.0}}\n\n{line}\n')
        with pytest.raises(ValueError, match=error):
            read_records(path)
        assert main(["hist", "--in", str(path), "--out", str(tmp_path / "gaps.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")
    # non-finite numbers, integer scalars, unknown fields and partial records load
    path.write_text(
        '{"dim": 2, "f": "sld", "trial": 0, "seed": 18446744073709551615, "gap": NaN, '
        '"lhs": -Infinity, "rhs": 0, "residuals": [Infinity, 1], "flags": ["negative_lhs"]}\n'
        '{"gap": 1.0, "note": true}\n'
    )
    first, second = read_records(path)
    assert math.isnan(first["gap"]) and first["lhs"] == -math.inf and second["note"] is True


def test_gap_histogram_buckets(tmp_path):
    records = [{"gap": g} for g in (1e-6, 1e-4, 1e-2, 1.0, 0.0, -1e-12)]
    out = tmp_path / "hist.csv"
    rows = emit_gap_histogram(records, n_buckets=5, out_path=str(out))
    assert sum(count for _, _, count in rows) == len(records)
    assert rows[0] == (-1e-12, 0.0, 2)  # nonpositive gaps pool in the leading bucket
    assert rows[1][0] == pytest.approx(1e-6)
    assert rows[-1][1] == pytest.approx(1.0)
    with open(out, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["gap_lo", "gap_hi", "count"]
    assert len(parsed) == len(rows) + 1


def test_gap_histogram_edge_cases(tmp_path, capsys):
    with pytest.raises(ValueError, match="records"):
        emit_gap_histogram([])
    with pytest.raises(ValueError, match="n_buckets"):
        emit_gap_histogram([{"gap": 1.0}], n_buckets=0)
    for bad in (True, 2.5, "3", None):
        with pytest.raises(ValueError, match="n_buckets must be an integer"):
            emit_gap_histogram([{"gap": 1.0}, {"gap": 2.0}], n_buckets=bad)
    assert emit_gap_histogram([{"gap": 2.0}] * 3) == [(2.0, 2.0, 3)]
    assert emit_gap_histogram([{"gap": -1.0}, {"gap": 0.0}]) == [(-1.0, 0.0, 2)]
    assert emit_gap_histogram([{"gap": 1}, {"gap": np.float64(1.0)}]) == [(1.0, 1.0, 2)]
    with pytest.raises(ValueError, match=r"records\[1\] has no 'gap'"):
        emit_gap_histogram([{"gap": 1.0}, {"var_a": 1.0}])
    for bad in (True, False, "1.0", None, [1.0]):
        with pytest.raises(ValueError, match=r"records\[1\]: gap .* is not a real number"):
            emit_gap_histogram([{"gap": 1.0}, {"gap": bad}])
    # a record without a gap loads and fails in the histogram; a gap of
    # another type fails at the read, which names the line
    path = tmp_path / "records.jsonl"
    for line, error in (
        ('{"lhs": 1.0}', "records[1]"),
        ('{"gap": true}', f"{path}:2: gap must be a number"),
        ('{"gap": "1.0"}', f"{path}:2: gap must be a number"),
    ):
        path.write_text(f'{{"gap": 1.0}}\n{line}\n')
        assert main(["hist", "--in", str(path), "--out", str(tmp_path / "gaps.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {error}")


def test_gap_histogram_rejects_nonfinite_gaps(tmp_path, capsys):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            emit_gap_histogram([{"gap": 1.0}, {"gap": 2.0}, {"gap": bad}])
    path = tmp_path / "records.jsonl"
    path.write_text('{"gap": 1.0}\n{"gap": 2.0}\n{"gap": NaN}\n')
    assert main(["hist", "--in", str(path), "--out", str(tmp_path / "gaps.csv")]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_cli_catalog_lists_entries(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "sld" in out and "harmonic" in out and "wyd:0.5" in out
    assert "f(0) = 0.25" in out  # wyd:0.5 limit
    # the kind column of every default key: the wyd entries are parametric
    kinds = dict(line.split("\t")[:2] for line in out.splitlines())
    assert kinds == {
        "sld": "fixed",
        "harmonic": "fixed",
        **{f"wyd:{beta}": "parametric" for beta in ("0.1", "0.25", "0.5", "0.75", "0.9")},
    }


def test_python_dash_m_skewcal_runs_the_cli(capsys, tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "skewcal", "catalog"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert main(["catalog"]) == 0
    assert done.stdout == capsys.readouterr().out


def test_cli_catalog_validate(capsys):
    assert main(["catalog", "--validate", "--f", "wyd:0.5,sld"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in reports] == ["wyd:0.5", "sld"]
    assert all(r["ok"] for r in reports)
    assert main(["catalog", "--f", "wyd:nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_verify_runs_and_reports(capsys, tmp_path):
    out_path = tmp_path / "records.jsonl"
    code = main(
        ["verify", "--dims", "2,3", "--trials", "3", "--f", "wyd:0.5,sld",
         "--seed", "5", "--out", str(out_path)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["total"] == 2 * 3 * 2
    assert summary["violations"] == 0
    assert len(read_records(out_path)) == summary["total"]


def test_cli_verify_rejects_bad_config(capsys):
    assert main(["verify", "--dims", "0", "--trials", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_verify_counts_a_repeated_key_once(capsys):
    assert main(["verify", "--dims", "2", "--trials", "3", "--f", "sld", "--f", "sld"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 3


@pytest.mark.parametrize("keys", [",", " ", " , "])
@pytest.mark.parametrize("validate", [[], ["--validate"]])
def test_cli_catalog_rejects_an_empty_key_list(keys, validate, capsys):
    # no keys is an error, as for verify, not an empty listing that passes
    assert main(["catalog", *validate, "--f", keys]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_cli_check_and_hist(capsys, tmp_path, fixtures_dir):
    rho_path, a_path, b_path = _fixture_paths(fixtures_dir)
    assert main(["check", "--rho", rho_path, "--a", a_path, "--b", b_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["gap"] == pytest.approx(FROZEN["fixture_gap_wyd_half"], abs=1e-10)

    records_path = tmp_path / "records.jsonl"
    main(["verify", "--dims", "2", "--trials", "5", "--out", str(records_path)])
    capsys.readouterr()
    hist_path = tmp_path / "hist.csv"
    assert main(["hist", "--in", str(records_path), "--out", str(hist_path), "--buckets", "4"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert hist_path.exists()
    assert main(["hist", "--in", str(tmp_path / "nope.jsonl"), "--out", str(hist_path)]) == 1


def test_cli_tolerance_comes_from_tol_alone(monkeypatch, tmp_path, capsys):
    # an exported variable must not change a run its command line reproduces:
    # 1e3 would turn every pass into a boundary case, nan would end the run
    def run(name):
        path = tmp_path / name
        code = main(["verify", "--dims", "2", "--trials", "5", "--f", "sld", "--out", str(path)])
        return code, capsys.readouterr().out, path.read_bytes()

    monkeypatch.delenv("SKEWCAL_TOL", raising=False)
    unset = run("unset.jsonl")
    assert unset[0] == 0 and json.loads(unset[1])["passes"] == 5
    for value in ("1e3", "nan"):
        monkeypatch.setenv("SKEWCAL_TOL", value)
        assert run(f"{value}.jsonl") == unset, value


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_cli_rejects_invalid_tolerance(tol, capsys, fixtures_dir):
    # NaN compares False against every gap, so an unvalidated tolerance
    # would pass every instance with exit code 0
    rho_path, a_path, b_path = _fixture_paths(fixtures_dir)
    check = ["check", "--rho", rho_path, "--a", a_path, "--b", b_path]
    assert main([*check, f"--tol={tol}"]) == 1
    assert "tol" in capsys.readouterr().err
    assert main(["verify", "--dims", "2", "--trials", "1", f"--tol={tol}"]) == 1
    assert "tol" in capsys.readouterr().err
    payload, code = check_instance(rho_path, a_path, b_path, "wyd:0.5", tol=float(tol))
    assert code == 1 and "tol" in payload["error"]
    with pytest.raises(ValueError, match="tol"):
        summarize_records([], tol=float(tol))


def test_cli_usage_errors_exit_1_and_help_exits_0(capsys, fixtures_dir):
    # exit code 2 is reserved for a flagged violation
    rho_path, a_path, b_path = _fixture_paths(fixtures_dir)
    usage_errors = (
        ["check", "--rho", rho_path, "--a", a_path, "--b", b_path, "--tol", "abc"],
        ["verify", "--trials", "x"],
    )
    for argv in usage_errors:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "invalid" in capsys.readouterr().err
    for argv in (["--help"], ["check", "--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
        assert "usage" in capsys.readouterr().out


def test_cli_check_rejects_a_bool_matrix_size(tmp_path, capsys):
    # a bool is an int, so {"n": true} would read as n = 1: a valid 1 x 1 instance
    path = tmp_path / "bool_n.json"
    path.write_text(json.dumps({"n": True, "re": [[1.0]], "im": [[0.0]]}))
    assert main(["check", "--rho", str(path), "--a", str(path), "--b", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "'n'" in captured.err
    assert captured.out == ""


def test_cli_check_rejects_bool_matrix_entries(tmp_path, capsys, fixtures_dir):
    # sigma_x written with true/false; numpy would read it as [[0, 1], [1, 0]]
    path = tmp_path / "bool_sigma_x.json"
    sigma_x = {"n": 2, "re": [[False, True], [True, False]], "im": [[0, 0], [0, 0]]}
    path.write_text(json.dumps(sigma_x))
    rho_path, _, b_path = _fixture_paths(fixtures_dir)
    assert main(["check", "--rho", rho_path, "--a", str(path), "--b", b_path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not a JSON number" in captured.err
    assert captured.out == ""


def test_batched_norms_are_each_matrix_s_np_linalg_norm():
    # one pass over the stack gives every matrix's np.linalg.norm, by repr,
    # whatever the dimension and the stack size
    rng = np.random.default_rng(53)
    for n in range(1, 65):
        for count in (1, 3, 20, 128):
            stack = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
            stack *= 10.0 ** rng.uniform(-8.0, 8.0, (count, 1, 1))
            expected = [float(np.linalg.norm(m)) for m in stack]
            assert repr(linalg._frobenius_norms(stack).tolist()) == repr(expected), (n, count)


def test_normalize_leaves_a_zero_matrix_and_scales_the_rest_by_their_norms():
    rng = np.random.default_rng(54)
    stack = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    stack[2] = 0.0
    expected = [m if k == 2 else m / np.linalg.norm(m) for k, m in enumerate(stack)]
    harness._normalize(stack)
    assert repr(stack.tolist()) == repr(np.array(expected).tolist())


def test_sweep_seed_table_is_the_same_in_any_blocks(monkeypatch):
    # blocks of 7 pairs cut across dims; the table is the one-block table
    config = _tiny_config(dims=(2, 5, 64), trials=5, seed=2**63)
    whole = harness._sweep_seeds(config)
    calls = []
    real_hash = harness.hash64
    monkeypatch.setattr(harness, "hash64", lambda *w: calls.append(w) or real_hash(*w))
    monkeypatch.setattr(harness, "_SEED_BLOCK", 7)
    blocked = harness._sweep_seeds(config)
    assert len(calls) == 2 * 3  # 15 pairs in blocks of 7, 7 and 1
    for table, again in zip(whole, blocked):
        assert table.dtype == again.dtype and table.tobytes() == again.tobytes()


def test_every_bench_workload_seeds_in_one_block(monkeypatch):
    # the seed pass has a fixed cost; a workload that needed two blocks
    # would pay it twice per round. bench/run.py is loaded from its file
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "run.py")
    spec = importlib.util.spec_from_file_location("skewcal_bench_run", path)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    assert max(len(w.dims) * w.trials for w in run.WORKLOADS.values()) <= harness._SEED_BLOCK


def test_sweep_seed_table_memory_is_the_table_plus_one_block():
    # 9 dims x 20000 trials keep 104 B per (dim, trial); building them may
    # add one block's temporaries (about 400 B per pair), not the sweep's
    config = _tiny_config(dims=tuple(range(2, 11)), trials=20000)
    harness._sweep_seeds(_tiny_config())
    tracemalloc.start()
    try:
        trial_seeds, words = harness._sweep_seeds(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = trial_seeds.nbytes + words.nbytes
    assert kept == 104 * 9 * 20000
    # one block of 8192 pairs
    assert peak <= kept + 512 * 8192
    last = (8, 19999)
    seed = hash64(config.seed, config.dims[last[0]], last[1])
    assert trial_seeds[last] == seed
    assert words[last][2].tobytes() == linalg._seed_sequence_words(np.uint64(hash64(seed, 2))).tobytes()
