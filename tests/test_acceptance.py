"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

The large randomized sweep backing criteria 1 and 2 runs once per session
and is reduced on the fly; everything else is deterministic and seeded, so
this module gives the same verdicts on every run.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import oracle
from conftest import record_acceptance
from oracle import FROZEN
from skewcal.cli import main
from skewcal.gns import GnsModel, audit_G_equals_H
from skewcal.linalg import DensityMatrix, random_density, random_hermitian
from skewcal.monotone import default_grid, from_key, validate_catalog_entry, wyd
from skewcal.qinfo import DEFAULT_TOL, eigenbasis_terms, evaluate_inequalities
from skewcal.harness import SweepConfig, read_records, run_sweep, summarize_records

SWEEP_DIMS = (2, 3, 4, 6, 8)
SWEEP_TRIALS = 10_000
SWEEP_KEYS = ("wyd:0.1", "wyd:0.5", "wyd:0.9", "sld", "harmonic")
CATALOG_KEYS = ("sld", "harmonic", "wyd:0.1", "wyd:0.25", "wyd:0.5", "wyd:0.75", "wyd:0.9")


def _nan_min(current: float, value: float) -> float:
    # min() keeps the old value against a NaN; here a NaN sticks
    return value if math.isnan(value) or value < current else current


def _nan_max(current: float, value: float) -> float:
    return value if math.isnan(value) or value > current else current


class _SweepAggregate:
    """Streaming reduction of the big sweep; keeps no records in memory.

    A NaN gap, slack or residual sticks in its minimum or maximum, so it
    reaches the criterion lines instead of being dropped.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.total = 0
        self.main_flagged = 0
        self.other_flagged = 0
        self.commutator_violations = 0
        self.min_gap = np.inf
        self.min_schrodinger_slack = np.inf
        self.max_residual = 0.0
        self.elapsed = 0.0

    def consume(self, record: dict) -> None:
        self.total += 1
        flags = record["flags"]
        self.main_flagged += "main_inequality_violation" in flags
        self.other_flagged += bool(set(flags) - {"main_inequality_violation"})
        tol_eff = self.tol * max(1.0, record["var_a"] * record["var_b"])
        slack = record["lhs"] - record["heisenberg_rhs"]
        self.commutator_violations += slack < -tol_eff
        self.min_gap = _nan_min(self.min_gap, record["gap"])
        self.min_schrodinger_slack = _nan_min(self.min_schrodinger_slack, slack)
        for residual in record["residuals"]:
            self.max_residual = _nan_max(self.max_residual, residual)


def test_sweep_aggregate_keeps_nan_in_every_order():
    good = {"flags": [], "var_a": 1.0, "var_b": 1.0, "lhs": 0.5, "heisenberg_rhs": 0.25,
            "gap": 0.5, "residuals": [1e-15]}
    nan_gap = {**good, "gap": math.nan}
    nan_slack = {**good, "lhs": math.nan}
    nan_residual = {**good, "residuals": [1e-15, math.nan]}
    for bad, field in (
        (nan_gap, "min_gap"),
        (nan_slack, "min_schrodinger_slack"),
        (nan_residual, "max_residual"),
    ):
        for order in itertools.permutations((good, bad, {**good, "gap": 0.25})):
            agg = _SweepAggregate(tol=DEFAULT_TOL)
            for record in order:
                agg.consume(record)
            assert math.isnan(getattr(agg, field)), (field, order)
    agg = _SweepAggregate(tol=DEFAULT_TOL)
    for record in (good, {**good, "gap": 0.25, "residuals": [2e-15]}):
        agg.consume(record)
    assert (agg.min_gap, agg.min_schrodinger_slack, agg.max_residual) == (0.25, 0.25, 2e-15)


@pytest.fixture(scope="module")
def big_sweep():
    agg = _SweepAggregate(tol=DEFAULT_TOL)
    config = SweepConfig(dims=SWEEP_DIMS, trials=SWEEP_TRIALS, f_specs=SWEEP_KEYS, seed=0)
    start = time.perf_counter()
    summary = run_sweep(config, record_sink=agg.consume)
    agg.elapsed = time.perf_counter() - start
    return agg, summary


def test_criterion_1_main_inequality_sweep(big_sweep):
    agg, summary = big_sweep
    expected_total = len(SWEEP_DIMS) * SWEEP_TRIALS * len(SWEEP_KEYS)
    ok = (
        summary.total == expected_total
        and summary.violations == 0
        and agg.main_flagged == 0
        and agg.other_flagged == 0
        and agg.min_gap >= -DEFAULT_TOL
        and math.isfinite(agg.max_residual)
    )
    record_acceptance(
        1,
        ok,
        f"main inequality: 0 violations in {summary.total} records "
        f"(dims {','.join(map(str, SWEEP_DIMS))} x {SWEEP_TRIALS} trials x "
        f"{len(SWEEP_KEYS)} functions), min gap {agg.min_gap:.3e}, "
        f"{agg.elapsed:.0f}s",
    )
    assert ok, summary.to_dict()


def test_criterion_2_schrodinger_chain(big_sweep):
    agg, _ = big_sweep
    ok = agg.commutator_violations == 0 and np.isfinite(agg.min_schrodinger_slack)
    record_acceptance(
        2,
        ok,
        f"commutator bound: 0 violations in {agg.total} records, "
        f"min slack {agg.min_schrodinger_slack:.3e}",
    )
    assert ok, agg.commutator_violations


def test_criterion_3_kernel_vs_closed_form():
    rng = np.random.default_rng(2026)
    worst = 0.0
    trials = 1000
    for i in range(trials):
        dim = int(rng.integers(2, 9))
        beta = float(rng.uniform(0.02, 0.98))
        rho = random_density(dim, seed=3 * i)
        a = random_hermitian(dim, seed=3 * i + 1)
        b = random_hermitian(dim, seed=3 * i + 2)
        report = evaluate_inequalities(rho, wyd(beta), a, b)
        worst = max(worst, max(report.path_residuals))
    ok = worst <= 1e-9
    record_acceptance(
        3,
        ok,
        f"kernel vs power-sandwich route: max residual {worst:.3e} <= 1e-9 "
        f"over {trials} instances (dims 2-8, random beta)",
    )
    assert ok, worst


def test_criterion_4_proof_transcription_audit():
    trials = 1000
    worst_residual_ratio = 0.0
    flagged = 0
    for i in range(trials):
        dim = 2 + i % 7
        key = SWEEP_KEYS[i % len(SWEEP_KEYS)]
        rho = random_density(dim, seed=7_000 + 3 * i)
        a = random_hermitian(dim, seed=7_001 + 3 * i)
        b = random_hermitian(dim, seed=7_002 + 3 * i)
        audit = audit_G_equals_H(GnsModel(rho), eigenbasis_terms(rho, [from_key(key)], a, b))
        flagged += bool(audit["flags"].any())
        g, residual = audit["G"].item(), audit["residual"].item()
        worst_residual_ratio = max(worst_residual_ratio, residual / max(1.0, abs(g)))
    ok = flagged == 0 and worst_residual_ratio <= 1e-8
    record_acceptance(
        4,
        ok,
        f"identity audit: |G - H| <= 1e-8 rel (worst {worst_residual_ratio:.3e}), "
        f"mu atoms and G-form nonnegative on all {trials} instances",
    )
    assert ok, (flagged, worst_residual_ratio)


def test_criterion_5_fixture_exactness(fixture_rho, fixture_a, fixture_b):
    scalars = oracle.fixture_scalars_mp(0.5)
    frozen_ok = (
        scalars["var_a"] == FROZEN["fixture_var_a"]
        and scalars["info_a"] == FROZEN["fixture_info_wyd_half"]
        and scalars["gap"] == FROZEN["fixture_gap_wyd_half"]
        and scalars["heisenberg_rhs"] == FROZEN["fixture_heisenberg"]
    )
    report = evaluate_inequalities(fixture_rho, wyd(0.5), fixture_a, fixture_b)
    checks = {
        "var_a": (report.var_a, FROZEN["fixture_var_a"]),
        "var_b": (report.var_b, FROZEN["fixture_var_b"]),
        "cov_ab": (report.cov_ab, FROZEN["fixture_cov_ab"]),
        "info_a": (report.info_a, FROZEN["fixture_info_wyd_half"]),
        "info_b": (report.info_b, FROZEN["fixture_info_wyd_half"]),
        "corr_ab": (report.corr_ab, FROZEN["fixture_corr_ab"]),
        "gap": (report.gap, FROZEN["fixture_gap_wyd_half"]),
        "heisenberg_rhs": (report.heisenberg_rhs, FROZEN["fixture_heisenberg"]),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    ok = frozen_ok and worst <= 1e-10
    record_acceptance(
        5,
        ok,
        f"reference instance reproduces the brute-force oracle within 1e-10 "
        f"(worst deviation {worst:.3e})",
    )
    assert ok, checks


def test_criterion_6_catalog_validation():
    grid = default_grid(1e-6, 1e6, 241)
    reports = [validate_catalog_entry(from_key(key), grid=grid) for key in CATALOG_KEYS]
    bad = [r.name for r in reports if not r.ok]
    ok = not bad
    record_acceptance(
        6,
        ok,
        f"catalog validation on [1e-6, 1e6]: all {len(reports)} entries clean "
        f"(bounds, symmetry, monotonicity, tilde envelope)",
    )
    assert ok, bad


def test_criterion_7_degenerate_suites():
    worst = 0.0
    functions = [from_key(k) for k in SWEEP_KEYS]

    def track(*values):
        nonlocal worst
        worst = max(worst, *(abs(v) for v in values))

    for dim, seed in ((3, 100), (5, 200)):
        mixed = DensityMatrix(np.eye(dim) / dim)
        rho = random_density(dim, seed=seed)
        a = random_hermitian(dim, seed=seed + 1)
        b = random_hermitian(dim, seed=seed + 2)
        u = rho.eigenvectors
        commuting = u @ np.diag(np.arange(1.0, dim + 1.0)) @ u.conj().T
        scalar = 2.5 * np.eye(dim)
        for f in functions:
            # maximally mixed state: every skew quantity collapses
            rep = evaluate_inequalities(mixed, f, a.matrix, b.matrix)
            track(rep.info_a, rep.info_b, rep.corr_ab, rep.heisenberg_rhs, rep.gap - rep.lhs)
            # observable commuting with the state carries no skew information
            rep = evaluate_inequalities(rho, f, commuting, b.matrix)
            track(rep.info_a, rep.corr_ab)
            # equal observables: both sides factor and cancel exactly
            rep = evaluate_inequalities(rho, f, a.matrix, a.matrix)
            track(rep.lhs, rep.rhs, rep.gap, rep.heisenberg_rhs)
            # scalar observable: everything vanishes
            rep = evaluate_inequalities(rho, f, scalar, b.matrix)
            track(rep.var_a, rep.info_a, rep.cov_ab, rep.corr_ab, rep.lhs, rep.rhs,
                  rep.gap, rep.heisenberg_rhs)
    ok = worst <= 1e-10
    record_acceptance(
        7,
        ok,
        f"degenerate suites (mixed state, commuting, equal, scalar) land on "
        f"forced values within 1e-10 (worst {worst:.3e})",
    )
    assert ok, worst


def test_criterion_8_reproducibility(tmp_path, capsys):
    args = ["verify", "--seed", "42", "--dims", "2,3", "--trials", "25",
            "--f", "wyd:0.5,sld"]
    paths = [tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"]
    summaries = []
    for path in paths:
        assert main([*args, "--out", str(path)]) == 0
        summaries.append(json.loads(capsys.readouterr().out))
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    records = read_records(paths[0])
    rng = np.random.default_rng(1)
    shuffled = [records[i] for i in rng.permutation(len(records))]
    shuffle_invariant = summarize_records(shuffled, tol=DEFAULT_TOL).to_dict() == summaries[0]

    ok = identical and summaries[0] == summaries[1] and shuffle_invariant
    record_acceptance(
        8,
        ok,
        "two seed-42 verify runs are byte-identical and the summary is "
        "invariant under record shuffling",
    )
    assert ok, (identical, shuffle_invariant)
