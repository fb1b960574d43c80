"""Scalar quantities and the inequality evaluator against the frozen oracle."""

import functools
import json

import numpy as np
import pytest

import oracle
import skewcal.qinfo as qinfo
from oracle import FROZEN
from skewcal.linalg import DensityMatrix, HermitianMatrix, random_density, random_hermitian
from skewcal.monotone import MonotoneFunction, from_key, harmonic, sld, wyd, wyd_f
from skewcal.qinfo import (
    _report_in_eigenbasis,
    centered,
    covariance,
    eigenbasis_terms,
    evaluate_inequalities,
    f_correlation,
    f_information,
    heisenberg_bound,
    validate_tol,
    variance,
)

ALL_KEYS = ("wyd:0.1", "wyd:0.5", "wyd:0.9", "sld", "harmonic")


def _rows(columns):
    """The stacked report's columns as one ``evaluate_inequalities``-shaped dict per (f, t), [f][t]."""
    flags = qinfo._flag_names(columns["flags"], qinfo._FLAGS)
    return [
        [
            {
                **{name: columns[name][t, k].item() for name in qinfo._SCALARS},
                "residuals": residuals[t].tolist(),
                "flags": flags[k][t],
            }
            for t in range(len(residuals))
        ]
        for k, residuals in enumerate(columns["residuals"])
    ]


def _random_instance(dim, tag):
    rho = random_density(dim, seed=1000 * dim + tag)
    a = random_hermitian(dim, seed=1000 * dim + tag + 1)
    b = random_hermitian(dim, seed=1000 * dim + tag + 2)
    return rho, a, b


def test_oracle_generators_reproduce_frozen_literals():
    scalars = oracle.fixture_scalars_mp(0.5)
    assert scalars["var_a"] == FROZEN["fixture_var_a"]
    assert scalars["var_b"] == FROZEN["fixture_var_b"]
    assert scalars["cov_ab"] == FROZEN["fixture_cov_ab"]
    assert scalars["corr_ab"] == FROZEN["fixture_corr_ab"]
    assert scalars["info_a"] == FROZEN["fixture_info_wyd_half"]
    assert scalars["info_b"] == FROZEN["fixture_info_wyd_half"]
    assert scalars["lhs"] == FROZEN["fixture_lhs"]
    assert scalars["rhs"] == FROZEN["fixture_rhs_wyd_half"]
    assert scalars["gap"] == FROZEN["fixture_gap_wyd_half"]
    assert scalars["heisenberg_rhs"] == FROZEN["fixture_heisenberg"]
    assert float(oracle.wyd_f_mp(0.3, 2.0)) == FROZEN["wyd_f_beta03_x2"]
    assert float(oracle.wyd_f_mp(0.5, 2.0)) == FROZEN["wyd_f_beta05_x2"]
    assert float(oracle.wyd_f_mp(0.1, 10.0)) == FROZEN["wyd_f_beta01_x10"]
    assert float(oracle.wyd_tilde_mp(0.3, 2.0)) == FROZEN["wyd_tilde_beta03_x2"]
    assert float(oracle.wyd_tilde_mp(0.5, 3.0)) == FROZEN["wyd_tilde_beta05_x3"]
    assert oracle.fixture_kernel_entry_mp(0.5) == FROZEN["fixture_kernel_entry_wyd_half"]
    sld_tilde = lambda x: oracle.tilde_from_values_mp(0.5, oracle.sld_f_mp(x), x)
    harm_tilde = lambda x: oracle.tilde_from_values_mp(0.0, oracle.harmonic_f_mp(x), x)
    assert oracle.fixture_kernel_info_mp(sld_tilde) == FROZEN["fixture_info_sld"]
    assert oracle.fixture_kernel_info_mp(harm_tilde) == FROZEN["fixture_info_harmonic"]
    wyd_tilde = lambda x: oracle.wyd_tilde_mp(0.5, x)
    assert oracle.fixture_kernel_info_mp(wyd_tilde) == FROZEN["fixture_info_wyd_half"]


def test_fixture_scalars_standalone_routes(fixture_rho, fixture_a, fixture_b):
    f = wyd(0.5)
    assert variance(fixture_rho, fixture_a) == pytest.approx(FROZEN["fixture_var_a"], abs=1e-10)
    assert variance(fixture_rho, fixture_b) == pytest.approx(FROZEN["fixture_var_b"], abs=1e-10)
    assert covariance(fixture_rho, fixture_a, fixture_b) == pytest.approx(0.0, abs=1e-10)
    assert f_information(fixture_rho, f, fixture_a) == pytest.approx(
        FROZEN["fixture_info_wyd_half"], abs=1e-10
    )
    assert oracle.sandwich_correlation(
        fixture_rho.matrix, 0.5, fixture_a.matrix, fixture_a.matrix
    ) == pytest.approx(FROZEN["fixture_info_wyd_half"], abs=1e-10)
    assert f_correlation(fixture_rho, f, fixture_a, fixture_b) == pytest.approx(0.0, abs=1e-10)
    assert heisenberg_bound(fixture_rho, fixture_a, fixture_b) == pytest.approx(
        FROZEN["fixture_heisenberg"], abs=1e-10
    )


def test_fixture_report_matches_oracle(fixture_rho, fixture_a, fixture_b):
    report = evaluate_inequalities(fixture_rho, wyd(0.5), fixture_a, fixture_b)
    assert report["var_a"] == pytest.approx(FROZEN["fixture_var_a"], abs=1e-10)
    assert report["var_b"] == pytest.approx(FROZEN["fixture_var_b"], abs=1e-10)
    assert report["cov_ab"] == pytest.approx(FROZEN["fixture_cov_ab"], abs=1e-10)
    assert report["info_a"] == pytest.approx(FROZEN["fixture_info_wyd_half"], abs=1e-10)
    assert report["info_b"] == pytest.approx(FROZEN["fixture_info_wyd_half"], abs=1e-10)
    assert report["corr_ab"] == pytest.approx(FROZEN["fixture_corr_ab"], abs=1e-10)
    assert report["lhs"] == pytest.approx(FROZEN["fixture_lhs"], abs=1e-10)
    assert report["rhs"] == pytest.approx(FROZEN["fixture_rhs_wyd_half"], abs=1e-10)
    assert report["gap"] == pytest.approx(FROZEN["fixture_gap_wyd_half"], abs=1e-10)
    assert report["heisenberg_rhs"] == pytest.approx(FROZEN["fixture_heisenberg"], abs=1e-10)
    assert report["flags"] == []
    assert max(report["residuals"]) < 1e-13


def test_fixture_fixed_entry_informations(fixture_rho, fixture_a):
    assert f_information(fixture_rho, sld(), fixture_a) == pytest.approx(
        FROZEN["fixture_info_sld"], abs=1e-12
    )
    assert f_information(fixture_rho, harmonic(), fixture_a) == pytest.approx(
        FROZEN["fixture_info_harmonic"], abs=1e-12
    )


def test_harmonic_information_vanishes_identically():
    # the f(0) = 0 entry has tilde = (x + 1)/2, which collapses the
    # correlation to zero for every state and observable
    for dim in (2, 4, 6):
        rho, a, b = _random_instance(dim, tag=3)
        assert f_information(rho, harmonic(), a) == pytest.approx(0.0, abs=1e-10)
        assert f_correlation(rho, harmonic(), a, b) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("key", ALL_KEYS)
def test_report_fields_match_standalone_functions(dim, key):
    rho, a, b = _random_instance(dim, tag=11)
    f = from_key(key)
    report = evaluate_inequalities(rho, f, a, b)
    expected = {
        "var_a": variance(rho, a),
        "var_b": variance(rho, b),
        "cov_ab": covariance(rho, a, b),
        "info_a": f_information(rho, f, a),
        "info_b": f_information(rho, f, b),
        "corr_ab": f_correlation(rho, f, a, b),
        "heisenberg_rhs": heisenberg_bound(rho, a, b),
    }
    for field, value in expected.items():
        assert report[field] == pytest.approx(value, abs=1e-11 * max(1.0, abs(value)))
    assert report["gap"] == pytest.approx(report["lhs"] - report["rhs"], abs=0.0)
    assert report["flags"] == []


def _float_scalars(exp_a, exp_b, tr_aa, tr_bb, tr_ab, k_aa, k_bb, k_ab):
    # the report's expressions, in its order, on Python floats
    var_a, var_b, cov_ab = tr_aa - exp_a * exp_a, tr_bb - exp_b * exp_b, tr_ab - exp_a * exp_b
    lhs = var_a * var_b - cov_ab * cov_ab
    info_a, info_b, corr_ab = tr_aa - k_aa, tr_bb - k_bb, tr_ab - k_ab
    rhs = info_a * info_b - corr_ab * corr_ab
    return [var_a, var_b, cov_ab, info_a, info_b, corr_ab, lhs, rhs, lhs - rhs]


def test_scalars_square_by_multiplication_where_pow_differs():
    # On numpy scalars and Python floats x ** 2 is libm's pow, which can
    # differ from x * x in the last bit; on ndarrays it is np.square, x * x
    # bit for bit. The traces to scalars formula squares by x * x. Forged
    # traces put squares where pow differs into cov_ab and corr_ab, on one
    # state's shapes (numpy scalar moments and (1, 1) kernel traces, as the
    # public functions pass them) and on a stack, and every scalar must be
    # the report's float expression by repr
    rng = np.random.default_rng(2300)
    hits = [x for x in rng.standard_normal(20000).tolist() if np.float64(x) ** 2 != x * x]
    assert len(hits) >= 8, "no draw whose pow square differs from x * x"
    hits = hits[:8]
    names = qinfo._SCALARS[:-1]
    for x, (k_aa, k_bb) in zip(hits, rng.standard_normal((len(hits), 2)).tolist()):
        # zero means and second moments: cov_ab = x and lhs = -(x * x) exactly,
        # and a zero kernel trace makes corr_ab = x
        zero = np.float64(0.0)
        moments = ((zero, zero), (zero, zero), np.float64(x))
        traces = (np.array([[k_aa]]), np.array([[k_bb]]), np.array([[0.0]]))
        got = qinfo._scalars(moments, traces)
        expected = _float_scalars(0.0, 0.0, 0.0, 0.0, x, k_aa, k_bb, 0.0)
        assert [repr(np.asarray(got[k]).item()) for k in names] == list(map(repr, expected)), x
    # a stack of 8 states and 3 entries: the same formula per (state, entry)
    t, f = len(hits), 3
    exp_a, exp_b, tr_aa, tr_bb, tr_ab = rng.standard_normal((5, t))
    k_aa, k_bb, k_ab = rng.standard_normal((3, t, f))
    got = qinfo._scalars(((exp_a, exp_b), (tr_aa, tr_bb), tr_ab), (k_aa, k_bb, k_ab))
    for i in range(t):
        for k in range(f):
            traces = (exp_a[i], exp_b[i], tr_aa[i], tr_bb[i], tr_ab[i], k_aa[i, k], k_bb[i, k], k_ab[i, k])
            values = _float_scalars(*map(float, traces))
            row = [got[name][i] if got[name].ndim == 1 else got[name][i, k] for name in names]
            assert list(map(repr, map(float, row))) == list(map(repr, values)), (i, k)


@pytest.mark.parametrize("beta", [0.1, 0.35, 0.5, 0.65, 0.9])
def test_kernel_route_agrees_with_power_route(beta):
    for dim in (2, 3, 5, 7):
        rho, a, b = _random_instance(dim, tag=17)
        f = wyd(beta)
        power = lambda x, y: oracle.sandwich_correlation(rho.matrix, beta, x.matrix, y.matrix)
        assert abs(f_correlation(rho, f, a, b) - power(a, b)) <= 1e-9
        assert abs(f_information(rho, f, a) - power(a, a)) <= 1e-9


def test_expectation_and_centering():
    rho, a, _ = _random_instance(3, tag=23)
    a0 = centered(rho, a)
    assert float(np.trace(rho.matrix @ a0).real) == pytest.approx(0.0, abs=1e-13)
    assert variance(rho, a) == pytest.approx(
        float(np.trace(rho.matrix @ a0 @ a0).real), abs=1e-12
    )


@pytest.mark.parametrize("key", ALL_KEYS)
def test_scalars_invariant_under_recentering(key):
    rho, a, b = _random_instance(4, tag=29)
    f = from_key(key)
    shifted = a.matrix + 2.5 * np.eye(4)
    assert covariance(rho, shifted, b) == pytest.approx(covariance(rho, a, b), abs=1e-10)
    assert f_correlation(rho, f, shifted, b) == pytest.approx(
        f_correlation(rho, f, a, b), abs=1e-10
    )
    assert f_information(rho, f, shifted) == pytest.approx(f_information(rho, f, a), abs=1e-10)
    assert heisenberg_bound(rho, shifted, b) == pytest.approx(
        heisenberg_bound(rho, a, b), abs=1e-10
    )


def test_scalars_invariant_under_unitary_conjugation():
    rho, a, b = _random_instance(4, tag=31)
    g = np.random.default_rng(127).standard_normal((4, 4)) + 1j * np.random.default_rng(
        128
    ).standard_normal((4, 4))
    u, _ = np.linalg.qr(g)
    rho_u = DensityMatrix(u @ rho.matrix @ u.conj().T)
    a_u = u @ a.matrix @ u.conj().T
    b_u = u @ b.matrix @ u.conj().T
    f = wyd(0.3)
    assert variance(rho_u, a_u) == pytest.approx(variance(rho, a), abs=1e-9)
    assert covariance(rho_u, a_u, b_u) == pytest.approx(covariance(rho, a, b), abs=1e-9)
    assert f_correlation(rho_u, f, a_u, b_u) == pytest.approx(
        f_correlation(rho, f, a, b), abs=1e-9
    )
    assert heisenberg_bound(rho_u, a_u, b_u) == pytest.approx(
        heisenberg_bound(rho, a, b), abs=1e-9
    )


def test_covariance_and_correlation_are_symmetric():
    rho, a, b = _random_instance(5, tag=37)
    assert covariance(rho, a, b) == pytest.approx(covariance(rho, b, a), abs=1e-12)
    f = wyd(0.25)
    assert f_correlation(rho, f, a, b) == pytest.approx(f_correlation(rho, f, b, a), abs=1e-12)


def test_diagonal_aliases():
    rho, a, _ = _random_instance(3, tag=41)
    assert variance(rho, a) == covariance(rho, a, a)
    f = sld()
    assert f_information(rho, f, a) == f_correlation(rho, f, a, a)


def test_half_beta_matches_commutator_formula():
    # at beta = 1/2 the information equals -Tr([sqrt(rho), A]^2) / 2
    rho, a, _ = _random_instance(4, tag=43)
    root = oracle.rho_power(rho.matrix, 0.5)
    comm = root @ a.matrix - a.matrix @ root
    expected = -0.5 * float(np.trace(comm @ comm).real)
    assert f_information(rho, wyd(0.5), a) == pytest.approx(expected, abs=1e-9)


def test_flags_fire_on_invalid_profile(fixture_rho, fixture_a, fixture_b):
    # an inflated f(0) drives the kernel outside its envelope, producing
    # negative informations and a broken main inequality; the evaluator
    # must flag rather than raise
    bogus = MonotoneFunction("bogus", sld().evaluate, 10.0)
    report = evaluate_inequalities(fixture_rho, bogus, fixture_a, fixture_b)
    assert "main_inequality_violation" in report["flags"]
    mild = MonotoneFunction("mild", sld().evaluate, -1.0)
    report = evaluate_inequalities(fixture_rho, mild, fixture_a, fixture_b)
    assert "negative_info_a" in report["flags"]
    assert "negative_info_b" in report["flags"]


def _found_instance():
    return random_density(3, 1), random_hermitian(3, 2), random_hermitian(3, 3)


def test_report_picks_the_sandwich_route_by_evaluator():
    # an entry named like wyd:0.3 that evaluates sld has no power
    # sandwich: its residuals are empty, on one state and a stack
    impostor = MonotoneFunction("wyd:0.3", sld().evaluate, 0.5)
    rho, a, b = _found_instance()
    report = evaluate_inequalities(rho, impostor, a, b)
    assert report["residuals"] == [] and report["flags"] == []
    states = random_density(3, [1, 4])
    x, y = (random_hermitian(3, seeds).matrix for seeds in ([2, 5], [3, 6]))
    columns = _report_in_eigenbasis(eigenbasis_terms(states, [impostor, wyd(0.3)], x, y), 1e-9)
    assert columns["residuals"][0].shape == (2, 0)
    assert columns["residuals"][1].shape == (2, 3)
    # an entry labelled wyd:0.3 that evaluates wyd_f at beta 0.5 gets the
    # beta 0.5 sandwich and kernel: its report is wyd:0.5's, and its
    # information that of the public route
    mislabelled = MonotoneFunction("wyd:0.3", functools.partial(wyd_f, 0.5), 0.25)
    report = evaluate_inequalities(rho, mislabelled, a, b)
    reference = evaluate_inequalities(rho, wyd(0.5), a, b)
    assert repr(report) == repr(reference)
    assert report["info_a"] == pytest.approx(f_information(rho, mislabelled, a), abs=1e-13)
    assert max(report["residuals"]) < 1e-15 and report["flags"] == []


def test_route_disagreement_fires_alone_on_a_wrong_f_at_zero():
    # a wyd:0.5 entry whose stored f(0) is 0.3, not 0.25: the kernel route
    # reads f(0) and the power sandwich does not, so they part by ~0.15,
    # while every inequality and nonnegativity check still holds
    wrong = MonotoneFunction("wyd:0.5", functools.partial(wyd_f, 0.5), 0.3)
    rho, a, b = _found_instance()
    report = evaluate_inequalities(rho, wrong, a, b)
    assert report["flags"] == ["route_disagreement"]
    assert all(0.13 < r < 0.17 for r in report["residuals"])
    assert evaluate_inequalities(rho, wyd(0.5), a, b)["flags"] == []
    assert qinfo._FLAGS[-1] == "route_disagreement"
    # the bound is tol * max(1, var_a, var_b): it fires just below the
    # largest residual over that scale and not just above
    edge = max(report["residuals"]) / max(1.0, variance(rho, a), variance(rho, b))
    below, above = (evaluate_inequalities(rho, wrong, a, b, tol=k * edge) for k in (0.99, 1.01))
    assert below["flags"] == ["route_disagreement"]
    assert above["flags"] == []


def test_stacked_report_flags_each_instance_on_its_own(fixture_a, fixture_b):
    # the inflated f(0) breaks the inequality on a skewed state; on the
    # maximally mixed state every ratio is 1, the kernel reduces to lam and
    # nothing is flagged
    bogus = MonotoneFunction("bogus", sld().evaluate, 10.0)
    states = [
        DensityMatrix(np.diag([0.5, 0.5]).astype(complex)),
        DensityMatrix(np.diag([0.75, 0.25]).astype(complex)),
        DensityMatrix(np.diag([0.5, 0.5]).astype(complex)),
    ]
    rho = DensityMatrix(np.array([state.matrix for state in states]))
    a, b = (np.array([x.matrix] * len(states)) for x in (fixture_a, fixture_b))
    # one call covers every entry, and entry i is the call on functions[i] alone
    functions = [bogus, *(from_key(key) for key in ALL_KEYS)]
    reports = _rows(_report_in_eigenbasis(eigenbasis_terms(rho, functions, a, b), 1e-9))
    assert len(reports) == len(functions)
    for f, rows in zip(functions, reports):
        (alone,) = _rows(_report_in_eigenbasis(eigenbasis_terms(rho, [f], a, b), 1e-9))
        assert repr(rows) == repr(alone)
    rows = reports[0]
    assert [row["flags"] for row in rows][::2] == [[], []]
    assert "main_inequality_violation" in rows[1]["flags"]
    for state, row in zip(states, rows):
        single = evaluate_inequalities(state, bogus, fixture_a, fixture_b)
        assert repr(row) == repr(single)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Diagonal states whose eigenbasis is exact: the eigenvectors of
# diag(0.75, 0.25) are the identity and those of 0.5 I are the swap, so a
# standard-basis observable reaches the report's eigenbasis bit for bit
# (permuted on 0.5 I).
SKEWED = np.diag([0.75, 0.25]).astype(complex)
MIXED = np.diag([0.5, 0.5]).astype(complex)


def _nonfinite_row():
    a = SIGMA_X.copy()
    a[0, 1] = np.nan
    return SKEWED, a, SIGMA_Z


def _commutator_row():
    # b's (1, 0) entry is not the conjugate of its (0, 1) entry. The
    # variances and the covariance take real parts, which see sigma_x twice,
    # so lhs = 1 * 1 - 1^2 = 0 and the rhs cancels to 0 as well; the
    # commutator term keeps the imaginary part, |0.5i|^2 / 4 = 1/16 > lhs.
    b = np.array([[0.0, 1.0], [1.0 + 1.0j, 0.0]])
    return SKEWED, SIGMA_X, b


def _negative_lhs_row():
    # b is real but not symmetric: in the swapped eigenbasis of 0.5 I it
    # reads [[0, 1], [1 - 2 d, 0]] with d = 1e-5. On the maximally mixed
    # state var_a = 1, var_b = 1 - 2 d and cov = 1 - d, so lhs = -d^2 =
    # -1e-10: below -1e-12 (the nonnegativity slack) but above -1e-9 (the
    # tolerance), where the commutator term 0 and the gap do not flag.
    b = np.array([[0.0, 1.0 - 2e-5], [1.0, 0.0]], dtype=complex)
    return MIXED, SIGMA_X, b


@pytest.mark.parametrize("key", ALL_KEYS)
@pytest.mark.parametrize(
    "flag, bad_row",
    [
        ("nonfinite_scalar", _nonfinite_row),
        ("commutator_bound_violation", _commutator_row),
        ("negative_lhs", _negative_lhs_row),
    ],
)
def test_report_flags_fire_alone_on_the_bad_row(flag, bad_row, key):
    # the sampled instances of a sweep do not reach these flags, so the bad
    # rows feed the stacked evaluator observables that no finite Hermitian
    # pair is
    good = (SKEWED, SIGMA_X, SIGMA_Z)
    states, a, b = (np.stack(parts) for parts in zip(good, bad_row()))
    terms = eigenbasis_terms(DensityMatrix(states), [from_key(key)], a, b)
    (rows,) = _rows(_report_in_eigenbasis(terms, 1e-9))
    assert rows[0]["flags"] == []
    assert rows[1]["flags"] == [flag]


def test_evaluate_validates_inputs(fixture_rho, fixture_a, fixture_b):
    # a bool is no tolerance: True would read as 1.0
    for tol in (0.0, float("nan"), float("inf"), True, np.True_, np.False_):
        with pytest.raises(ValueError, match="tol"):
            evaluate_inequalities(fixture_rho, sld(), fixture_a, fixture_b, tol=tol)
    with pytest.raises(ValueError, match="shape"):
        evaluate_inequalities(fixture_rho, sld(), np.eye(3), fixture_b)


def test_single_instance_functions_reject_a_stacked_state():
    # a stack of T states with (T, n, n) observables lines up in shape, but
    # these functions evaluate one instance: the sweep's stacked report and
    # the stacked audit are the routes for stacks
    rho = random_density(3, [5, 6, 7])
    a = random_hermitian(3, [8, 9, 10])
    b = random_hermitian(3, [11, 12, 13])
    f = sld()
    calls = (
        lambda: centered(rho, a),
        lambda: covariance(rho, a, b),
        lambda: variance(rho, a),
        lambda: f_correlation(rho, f, a, b),
        lambda: f_information(rho, f, a),
        lambda: heisenberg_bound(rho, a, b),
        lambda: evaluate_inequalities(rho, f, a, b),
    )
    for call in calls:
        with pytest.raises(ValueError, match="single state"):
            call()


def test_single_instance_functions_reject_a_non_hermitian_observable():
    # an observable off Hermitian beyond the repair threshold is an input
    # error, never a report: unchecked, the first pair gave a clean report
    # and the second a negative var_a, flagged as a violation
    cases = (
        (
            random_density(3, 1),
            random_hermitian(3, 2).matrix + 1j * np.triu(np.ones((3, 3)), 1),
            random_hermitian(3, 3).matrix,
        ),
        (random_density(2, 1), np.array([[0.0, 1.0], [0.0, 0.0]]), SIGMA_Z),
    )
    f = sld()
    for rho, bad, good in cases:
        calls = (
            lambda: centered(rho, bad),
            lambda: covariance(rho, good, bad),
            lambda: variance(rho, bad),
            lambda: f_correlation(rho, f, good, bad),
            lambda: f_information(rho, f, bad),
            lambda: heisenberg_bound(rho, bad, good),
            lambda: evaluate_inequalities(rho, f, bad, good),
            lambda: evaluate_inequalities(rho, f, good, bad),
        )
        for call in calls:
            with pytest.raises(ValueError, match="not Hermitian"):
                call()


def test_evaluate_repairs_an_observable_within_the_threshold():
    # a deviation inside the repair threshold is round-off: the report is
    # that of the Hermitian part, bit for bit
    rho, a, b = random_density(3, 1), random_hermitian(3, 2).matrix, random_hermitian(3, 3).matrix
    nudged = a + 1e-12j * np.triu(np.ones((3, 3)), 1)
    repaired = (nudged + nudged.conj().T) / 2
    assert not np.array_equal(repaired, a)
    for f in (sld(), wyd(0.5)):
        report = evaluate_inequalities(rho, f, nudged, b)
        assert repr(report) == repr(evaluate_inequalities(rho, f, repaired, b))
        assert report["flags"] == []


def test_report_dict_layout(fixture_rho, fixture_a, fixture_b):
    # the report is a plain dict, ready for json.dumps, in record field order
    report = evaluate_inequalities(fixture_rho, wyd(0.5), fixture_a, fixture_b)
    assert type(report) is dict
    assert list(report) == [
        "var_a",
        "var_b",
        "cov_ab",
        "info_a",
        "info_b",
        "corr_ab",
        "lhs",
        "rhs",
        "gap",
        "heisenberg_rhs",
        "residuals",
        "flags",
    ]
    assert all(type(report[name]) is float for name in qinfo._SCALARS)
    assert type(report["residuals"]) is list and type(report["flags"]) is list
    assert report["flags"] == []
    assert len(report["residuals"]) == 3  # three cross-route checks per wyd entry
    assert json.loads(json.dumps(report)) == report


def test_fixed_entries_report_no_residuals(fixture_rho, fixture_a, fixture_b):
    for f in (sld(), harmonic()):
        report = evaluate_inequalities(fixture_rho, f, fixture_a, fixture_b)
        assert report["residuals"] == []
        assert report["flags"] == []


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
def test_report_over_f_entries_equals_single_entry_reports(dim):
    # the entries are an array axis: a report over F entries is, by repr on
    # every row, F reports of one entry each, whatever the stack size T
    functions = [from_key(key) for key in ALL_KEYS]
    for t in (1, 4, 20):
        seeds = [7 * dim + 100 * t + k for k in range(t)]
        rho = random_density(dim, seeds)
        a, b = (random_hermitian(dim, [s + k for s in seeds]).matrix for k in (1, 2))
        columns = _report_in_eigenbasis(eigenbasis_terms(rho, functions, a, b), 1e-9)
        assert columns["gap"].shape == (t, len(functions))
        assert columns["flags"].shape == (t, len(functions), len(qinfo._FLAGS))
        rows = _rows(columns)
        for f, f_rows in zip(functions, rows):
            (alone,) = _rows(_report_in_eigenbasis(eigenbasis_terms(rho, [f], a, b), 1e-9))
            assert repr(f_rows) == repr(alone), (dim, t, f.name)


def test_public_functions_validate_each_observable_once(monkeypatch, fixture_rho, fixture_a):
    # one HermitianMatrix per observable argument; an exact-Hermitian input
    # comes back bit for bit, so no value depends on the count
    built = []
    real_init = HermitianMatrix.__init__

    def counting(self, entries):
        built.append(entries)
        real_init(self, entries)

    monkeypatch.setattr(HermitianMatrix, "__init__", counting)
    a, b = fixture_a.matrix, random_hermitian(fixture_rho.dim, seed=31).matrix
    f = wyd(0.5)
    calls = {
        "centered": (lambda: centered(fixture_rho, a), 1),
        "variance": (lambda: variance(fixture_rho, a), 1),
        "covariance": (lambda: covariance(fixture_rho, a, b), 2),
        "f_information": (lambda: f_information(fixture_rho, f, a), 1),
        "f_correlation": (lambda: f_correlation(fixture_rho, f, a, b), 2),
        "heisenberg_bound": (lambda: heisenberg_bound(fixture_rho, a, b), 2),
    }
    for name, (call, count) in calls.items():
        built.clear()
        call()
        assert len(built) == count, name


def test_correlation_back_rotates_only_a_s_kernel_products(monkeypatch, fixture_rho, fixture_a):
    # f_correlation and f_information read k_ab (k_aa) alone, which sums a's
    # back-rotated kernel products against b; b's products are never formed,
    # and the value is corr_ab of the full direct route bit for bit
    a, b = fixture_a.matrix, random_hermitian(fixture_rho.dim, seed=31).matrix
    f = wyd(0.5)

    def full_route(x, y):
        traces = qinfo._kernel_traces(eigenbasis_terms(fixture_rho, [f], x, y))
        moments = qinfo._trace_moments(fixture_rho, np.array((x, y)))
        return qinfo._scalars(moments, traces)["corr_ab"].item()

    expected = (full_route(a, b), full_route(a, a))
    batches = []
    real = qinfo._hermitian_stack
    monkeypatch.setattr(qinfo, "_hermitian_stack", lambda m: batches.append(m) or real(m))
    got = (f_correlation(fixture_rho, f, a, b), f_information(fixture_rho, f, a))
    assert len(batches) == 2
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("tol", ["abc", None, [1e-9], "", object()])
def test_non_numeric_tolerance_is_rejected(tol):
    # float() raises TypeError or ValueError on these; both become the tol error
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        validate_tol(tol)
