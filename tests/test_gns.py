"""Modular model, sesquilinear forms, the pair measure, and the G = H audit."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import skewcal.gns as gns
import skewcal.qinfo as qinfo
from hypothesis import given
from hypothesis import strategies as st
from oracle import FROZEN, pair_integrand, pair_weights
from skewcal.gns import (
    AUDIT_FLAGS,
    G_H_RTOL,
    MU_ATOM_SLACK,
    audit_G_equals_H,
    build_mu,
    form_E1,
    form_G,
    h_from_measure,
)
from skewcal.harness import SweepConfig, hash64, run_sweep
from skewcal.linalg import FAITHFULNESS_FLOOR, DensityMatrix, random_density, random_hermitian
from skewcal.monotone import from_key, harmonic, sld, tilde_transform, wyd
from skewcal.qinfo import (
    _entry_sums,
    _flag_names,
    _trace_moments,
    centered,
    covariance,
    eigenbasis_terms,
    f_correlation,
    f_information,
    variance,
)

ALL_KEYS = ("wyd:0.1", "wyd:0.5", "wyd:0.9", "sld", "harmonic")

# the (T, F) columns of an audit; mu_min_atom is (T,)
GRID_COLUMNS = ("G", "H", "residual", "gform_min")


def _audit(rho, functions, a, b):
    # the audit reads the rotation and tilde pass the stacked report shares
    return audit_G_equals_H(eigenbasis_terms(rho, functions, a, b))


def _entries(audit):
    # one check-payload-shaped dict per catalog entry of a one-state audit
    (mu_min,) = audit["mu_min_atom"].tolist()
    flags = _flag_names(audit["flags"], AUDIT_FLAGS)
    return [
        {
            **{key: audit[key][0, k].item() for key in GRID_COLUMNS},
            "mu_min_atom": mu_min,
            "flags": names,
        }
        for k, (names,) in enumerate(flags)
    ]


def _state(dim, seed):
    return random_density(dim, seed=seed)


def _spectrum(rho):
    # the value lam_i / lam_j of each atom i * n + j, as build_mu reads it
    return gns._compute_spectrum(rho.eigenvalues)


def _ratios(rho):
    # the eigenvalue ratios lam_i / lam_j by which Delta acts entrywise
    lam = rho.eigenvalues
    return lam[:, None] / lam[None, :]


def _vector(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_inner_product_and_cyclic_vector():
    # Delta fixes the centralizer of rho, so when either argument commutes
    # with rho, E1(x, y) = 2 <x, y> = 2 Tr(rho x† y): the GNS inner product
    rho = _state(3, seed=53)
    r = rho.matrix
    x = _vector(3, seed=54)
    z = r @ r - 0.3j * r + 0.5 * np.eye(3)  # a polynomial in rho
    xt, zt = rho.to_eigenbasis(x), rho.to_eigenbasis(z)
    assert form_E1(rho, xt, zt) == pytest.approx(2.0 * np.trace(r @ x.conj().T @ z), abs=1e-13)
    assert form_E1(rho, zt, xt) == pytest.approx(2.0 * np.trace(r @ z.conj().T @ x), abs=1e-13)
    one = rho.to_eigenbasis(np.eye(3))  # the cyclic vector
    assert form_E1(rho, one, one) == pytest.approx(2.0, abs=1e-13)
    # expectation of an observable is its inner product against the cyclic vector
    a = random_hermitian(3, seed=56).matrix
    assert form_E1(rho, one, rho.to_eigenbasis(a)) == pytest.approx(
        2.0 * complex(np.trace(r @ a)), abs=1e-13
    )


def test_form_E1_is_the_modular_graph_form():
    # E1(x, y) = <x, Delta y> + <x, y> = Tr(rho x† rho y rho^-1) + Tr(rho x† y),
    # with Delta y = rho y rho^-1 taken here by matrix products and an
    # inverse. The inverse makes this reference's own round-off grow with
    # the condition number kappa = lam_max / lam_min, so the float64 bound
    # is 8 n eps kappa |x| |y| (Frobenius norms); over 40 seeds of each case
    # below, the near-floor state's kappa ~ 2e9 included, the largest error
    # was 1.5 n eps kappa |x| |y|, at dim 1
    eps = np.finfo(float).eps
    states = [random_density(dim, seed=57 + dim) for dim in (1, 2, 8, 32, 64)]
    for rho in states + [_near_floor_state(seed=58)]:
        n, r = rho.dim, rho.matrix
        x, y = _vector(n, seed=59 + n), _vector(n, seed=60 + n)
        xh = x.conj().T
        expected = np.trace(r @ xh @ r @ y @ np.linalg.inv(r)) + np.trace(r @ xh @ y)
        kappa = float(np.max(rho.eigenvalues) / np.min(rho.eigenvalues))
        bound = 8 * n * eps * kappa * np.linalg.norm(x) * np.linalg.norm(y)
        xt, yt = rho.to_eigenbasis(x), rho.to_eigenbasis(y)
        assert abs(form_E1(rho, xt, yt) - expected) <= bound, n
        # on the cyclic vector 1: <1, 1> = <1, Delta 1> = Tr rho, and
        # <1, a> = <1, Delta a> = Tr(rho a) for an observable a
        one = rho.to_eigenbasis(np.eye(n))
        a = random_hermitian(n, seed=61 + n).matrix
        assert abs(form_E1(rho, one, one) - 2.0 * np.trace(r)) <= 4 * n * eps, n
        e1_a = form_E1(rho, one, rho.to_eigenbasis(a))
        assert abs(e1_a - 2.0 * np.trace(r @ a)) <= 4 * n * eps * np.linalg.norm(a), n


def test_forms_are_sesquilinear():
    rho = _state(3, seed=61)
    x, y = _vector(3, seed=62), _vector(3, seed=63)
    xt, yt = rho.to_eigenbasis(x), rho.to_eigenbasis(y)
    c = 0.7 - 1.9j
    assert form_E1(rho, c * xt, yt) == pytest.approx(np.conj(c) * form_E1(rho, xt, yt), abs=1e-11)
    assert form_E1(rho, xt, c * yt) == pytest.approx(c * form_E1(rho, xt, yt), abs=1e-11)
    f = wyd(0.3)
    assert form_G(rho, f, c * x, y) == pytest.approx(np.conj(c) * form_G(rho, f, x, y), abs=1e-11)
    assert form_G(rho, f, x, c * y) == pytest.approx(c * form_G(rho, f, x, y), abs=1e-11)


def test_harmonic_kernel_form_is_half_the_graph_form():
    # tilde = (x + 1)/2 makes the kernel term F equal E1 / 2 and therefore G identically zero
    rho = _state(4, seed=64)
    x, y = _vector(4, seed=65), _vector(4, seed=66)
    assert form_G(rho, harmonic(), x, y) == pytest.approx(0.0, abs=1e-11)
    xt = rho.to_eigenbasis(x)
    assert abs(form_G(rho, harmonic(), x, x)) <= 1e-12 * abs(form_E1(rho, xt, xt))


@pytest.mark.parametrize("key", ALL_KEYS)
def test_form_routes_reproduce_trace_scalars(key):
    f = from_key(key)
    for dim in (2, 3, 5):
        rho = _state(dim, seed=67 + dim)
        a = random_hermitian(dim, seed=68 + dim)
        b = random_hermitian(dim, seed=69 + dim)
        a0, b0 = centered(rho, a), centered(rho, b)
        at0, bt0 = rho.to_eigenbasis(a0), rho.to_eigenbasis(b0)
        assert 0.5 * form_E1(rho, at0, bt0).real == pytest.approx(
            covariance(rho, a, b), abs=1e-10
        )
        assert form_G(rho, f, a0, b0).real == pytest.approx(
            f_correlation(rho, f, a, b), abs=1e-10
        )


@pytest.mark.parametrize("key", ALL_KEYS)
def test_gform_expansion_and_nonnegativity(key):
    # G expands as sum_ij g(lam_i / lam_j) lam_j |x_ij|^2 in the eigenbasis,
    # with g(x) = (x + 1)/2 - tilde(x) >= 0
    f = from_key(key)
    rho = _state(4, seed=71)
    x = _vector(4, seed=72)
    xt = rho.to_eigenbasis(x)
    lam = rho.eigenvalues
    ratios = _ratios(rho)
    g = 0.5 * (ratios + 1.0) - np.asarray(tilde_transform(f, ratios), dtype=float)
    expected = float(np.sum(g * lam[None, :] * np.abs(xt) ** 2))
    value = form_G(rho, f, x, x)
    assert value.real == pytest.approx(expected, abs=1e-11 * max(1.0, abs(expected)))
    assert abs(value.imag) <= 1e-11 * max(1.0, abs(expected))
    assert np.all(g > -1e-14)
    assert value.real >= -1e-12 * form_E1(rho, xt, xt).real


def _spectrum_cases():
    yield _state(5, seed=73)
    yield DensityMatrix(np.eye(4) / 4)
    yield _cluster_state(seed=307)


def test_spectrum_is_the_ratio_of_each_eigenbasis_entry():
    # atom i * n + j is entry (i, j), valued lam_i / lam_j, even where ratios repeat
    for rho in _spectrum_cases():
        assert np.array_equal(_spectrum(rho), _ratios(rho).ravel())


def test_spectrum_transpose_is_the_reciprocal():
    for rho in _spectrum_cases():
        n = rho.dim
        values = _spectrum(rho).reshape(n, n)
        assert np.allclose(values.T, 1.0 / values, rtol=1e-15, atol=0.0)


def _mu(rho, x, y):
    # the measure of two vectors given in the standard basis
    return build_mu(rho, rho.to_eigenbasis(x), rho.to_eigenbasis(y))


def test_mu_vanishes_on_equal_arguments():
    rho = _state(4, seed=76)
    a0 = centered(rho, random_hermitian(4, seed=77).matrix)
    mu = _mu(rho, a0, a0)
    w = pair_weights(*mu.marginals)
    assert np.max(np.abs(w)) <= 1e-12 * max(1.0, np.sum(np.abs(w)) + 1.0)
    assert abs(np.sum(w)) <= 1e-12 * max(1.0, np.sum(np.abs(w)) + 1.0)


def _assert_certified(mu, where):
    # against the K x K definition: the diagonal weights bit for bit and the
    # bound at or below every weight.
    # The bound holds in exact arithmetic; an off-diagonal weight whose exact
    # value is 0 (at dim 2 the two ratio-1 atoms of centered observables)
    # may round below it, by at most a few eps times the largest term
    w = pair_weights(*mu.marginals)
    assert mu.weights.shape == mu.values.shape == (w.shape[0],), where
    assert np.array_equal(mu.weights, np.diag(w)), where
    a, b, z = np.abs(mu.marginals)
    terms = np.outer(a, b) + np.outer(b, a) + 2.0 * np.outer(z, z)
    round_off = 4.0 * np.finfo(float).eps * float(np.max(terms))
    assert mu.min_weight_bound <= float(np.min(np.diag(w))), where
    assert mu.min_weight_bound <= float(np.min(w)) + round_off, where
    return w


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_mu_atoms_are_nonnegative(dim):
    rho = _state(dim, seed=78 + dim)
    a0 = centered(rho, random_hermitian(dim, seed=79 + dim).matrix)
    b0 = centered(rho, random_hermitian(dim, seed=80 + dim).matrix)
    mu = _mu(rho, a0, b0)
    w = _assert_certified(mu, dim)
    mass = max(float(np.sum(w)), 0.0)
    assert np.min(w) >= -1e-12 * mass
    assert mu.min_weight_bound >= -MU_ATOM_SLACK * mass


def test_mu_on_degenerate_state():
    n = 3
    rho = DensityMatrix(np.eye(n) / n)
    a0 = centered(rho, random_hermitian(n, seed=81).matrix)
    b0 = centered(rho, random_hermitian(n, seed=82).matrix)
    mu = _mu(rho, a0, b0)
    # every eigenbasis entry is its own atom at the ratio 1
    assert _spectrum(rho).tolist() == [1.0] * n * n
    w = _assert_certified(mu, "mixed")
    assert np.min(w) >= -1e-12 * max(float(np.sum(w)), 0.0)


def _near_floor_state(seed):
    # a random eigenbasis with the smallest eigenvalue twice the faithfulness floor
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u, _ = np.linalg.qr(g)
    lam = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
    lam[-1] = 2.0 * FAITHFULNESS_FLOOR
    lam[0] -= lam[-1]
    return DensityMatrix((u * lam) @ u.conj().T)


@given(
    family=st.sampled_from(["random", "cluster", "near-floor"]),
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_is_below_the_k2_minimum(family, dim, seed):
    rho = {
        "random": lambda: random_density(dim, seed=seed),
        "cluster": lambda: _cluster_state(seed),
        "near-floor": lambda: _near_floor_state(seed),
    }[family]()
    a0 = centered(rho, random_hermitian(rho.dim, seed=seed + 1).matrix)
    b0 = centered(rho, random_hermitian(rho.dim, seed=seed + 2).matrix)
    _assert_certified(_mu(rho, a0, b0), (family, dim, seed))


def test_pair_integrand_values():
    f = wyd(0.5)

    def tilde(x):
        return tilde_transform(f, x)

    assert pair_integrand(tilde, 1.0, 1.0) == 2.0
    s = np.array([0.5, 1.0, 3.0])
    t = np.array([2.0, 4.0, 8.0])
    direct = pair_integrand(tilde, s, t)
    # factored formulation: ((s+1) - tilde(s)) tilde(t) + ((t+1) - tilde(t)) tilde(s)
    ts = np.asarray(tilde(s), dtype=float)
    tt = np.asarray(tilde(t), dtype=float)
    factored = ((s + 1.0) - ts) * tt + ((t + 1.0) - tt) * ts
    assert np.allclose(direct, factored, atol=1e-12)
    assert np.all(direct >= 0.0)


def test_h_matches_gap_on_fixture(fixture_rho, fixture_a, fixture_b):
    f = wyd(0.5)
    a0 = centered(fixture_rho, fixture_a.matrix)
    b0 = centered(fixture_rho, fixture_b.matrix)
    mu = _mu(fixture_rho, a0, b0)
    (h,), _ = h_from_measure(mu, tilde_transform(f, mu.values)[None])
    assert h == pytest.approx(FROZEN["fixture_gap_wyd_half"], abs=1e-12)


def test_audit_fixture(fixture_rho, fixture_a, fixture_b):
    audit = _audit(fixture_rho, [wyd(0.5)], fixture_a, fixture_b)
    assert set(audit) == {"G", "H", "residual", "mu_min_atom", "gform_min", "flags"}
    assert all(audit[key].shape == (1, 1) for key in GRID_COLUMNS)
    assert audit["mu_min_atom"].shape == (1,)
    assert audit["flags"].shape == (1, 1, len(AUDIT_FLAGS))
    (entry,) = _entries(audit)
    assert entry["G"] == pytest.approx(FROZEN["fixture_gap_wyd_half"], abs=1e-10)
    assert entry["H"] == pytest.approx(FROZEN["fixture_gap_wyd_half"], abs=1e-10)
    assert entry["residual"] <= 1e-12
    assert entry["flags"] == []


@pytest.mark.parametrize("key", ALL_KEYS)
def test_audit_random_instances(key):
    f = from_key(key)
    for dim in (2, 3, 4, 6):
        rho = _state(dim, seed=83 + dim)
        a = random_hermitian(dim, seed=84 + dim)
        b = random_hermitian(dim, seed=85 + dim)
        (entry,) = _entries(_audit(rho, [f], a, b))
        assert entry["flags"] == [], (key, dim, entry)
        assert entry["residual"] <= 1e-8 * max(1.0, abs(entry["G"]))
        assert entry["H"] >= -1e-10 * max(1.0, abs(entry["G"]))
        assert entry["gform_min"] >= -1e-12


def _cluster_state(seed):
    # a 3-fold and a 2-fold eigenvalue in a random eigenbasis
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    u, _ = np.linalg.qr(g)
    lam = np.array([0.25, 0.25, 0.25, 0.1, 0.1, 0.05])
    return DensityMatrix((u * lam) @ u.conj().T)


def _near_pair_state(seed, gap):
    # a random eigenbasis with eigenvalues 2 and 3 apart by gap * max(lam), trace 1
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(g)
    lam = np.array([0.4, 0.25, 0.25, 0.1])
    lam[1:3] += (0.5 * gap * lam[0], -0.5 * gap * lam[0])
    return DensityMatrix((u * lam) @ u.conj().T)


@pytest.mark.parametrize("gap", [0.5e-12, 0.99e-12, 1.01e-12, 2e-12])
def test_audit_is_continuous_across_a_near_degenerate_pair(gap):
    # no spacing of eigenvalues changes how H is summed: a pair just apart
    # and a pair just together are audited to the same float64 accuracy
    functions = [from_key(k) for k in ALL_KEYS]
    for seed in range(50):
        rho = _near_pair_state(1000 + seed, gap)
        a = random_hermitian(4, seed=2000 + seed)
        b = random_hermitian(4, seed=3000 + seed)
        for key, entry in zip(ALL_KEYS, _entries(_audit(rho, functions, a, b))):
            where = (gap, seed, key, entry)
            assert entry["flags"] == [], where
            assert entry["residual"] <= 2e-14 * max(1.0, abs(entry["G"])), where


def _h_oracle_cases():
    for dim in (2, 3, 4, 8, 16, 24, 32):
        yield f"random-{dim}", random_density(dim, seed=300 + dim)
    yield "maximally-mixed", DensityMatrix(np.eye(4) / 4)
    yield "cluster", _cluster_state(seed=307)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_separable_h_matches_pair_sum(key):
    # the definition: (1/4) sum over atom pairs of pair_integrand * mu
    f = from_key(key)

    def tilde(x):
        return tilde_transform(f, x)

    for name, rho in _h_oracle_cases():
        a0 = centered(rho, random_hermitian(rho.dim, seed=400 + rho.dim).matrix)
        b0 = centered(rho, random_hermitian(rho.dim, seed=500 + rho.dim).matrix)
        mu = _mu(rho, a0, b0)
        s, t = mu.values[:, None], mu.values[None, :]
        terms = 0.25 * pair_integrand(tilde, s, t) * pair_weights(*mu.marginals)
        scale = float(np.sum(np.abs(terms)))
        assert scale > 0.0, name
        (h,), _ = h_from_measure(mu, tilde(mu.values)[None])
        assert abs(h - float(np.sum(terms))) <= 1e-12 * scale, name


def test_audit_at_wide_dims_one_call_per_instance():
    functions = [from_key(k) for k in ALL_KEYS]
    for dim in (16, 24, 32):
        rho = _state(dim, seed=600 + dim)
        a = random_hermitian(dim, seed=601 + dim)
        b = random_hermitian(dim, seed=602 + dim)
        entries = _entries(_audit(rho, functions, a, b))
        assert len(entries) == len(functions)
        for key, entry in zip(ALL_KEYS, entries):
            assert entry["flags"] == [], (key, dim, entry)
            assert entry["residual"] <= G_H_RTOL * max(1.0, abs(entry["G"]))
        # the f-independent work is shared, never changed, by batching entries
        singles = [_entries(_audit(rho, [f], a, b))[0] for f in functions]
        assert repr(entries) == repr(singles)


def _audit_cases():
    functions = [from_key(k) for k in ALL_KEYS]
    for dim in (2, 3, 5):
        rho = _state(dim, seed=700 + dim)
        a = random_hermitian(dim, seed=701 + dim)
        b = random_hermitian(dim, seed=702 + dim)
        yield _entries(_audit(rho, functions, a, b))


def _assert_flags(monkeypatch, expected):
    # every entry of the patched audit carries exactly the expected flags,
    # and the same audits unpatched carry none
    for entries in _audit_cases():
        assert [tuple(e["flags"]) for e in entries] == [expected(key) for key in ALL_KEYS]
    monkeypatch.undo()
    for entries in _audit_cases():
        assert [e["flags"] for e in entries] == [[]] * len(ALL_KEYS)


def test_g_h_mismatch_gate_fires(monkeypatch):
    real = gns.h_from_measure

    def offset_h(mu, q):
        h, dots = real(mu, q)
        return h + 100.0 * G_H_RTOL * np.fmax(1.0, np.abs(h)), dots

    monkeypatch.setattr(gns, "h_from_measure", offset_h)
    _assert_flags(monkeypatch, lambda key: ("g_h_mismatch",))


def _inject_marginals(monkeypatch, edit, diagonal_kept):
    # build_mu with the marginals of each state edited in place by edit(k,
    # m_xx, m_yy, m_xy) at its heaviest atom k; the former K x K gate must
    # fire on every result, and with ``diagonal_kept`` the edit leaves every
    # diagonal weight as it was. H integrates the edited marginals, so
    # G = H fails as well; the G-forms read them too, and neither edit
    # lowers a G-form
    real = gns.build_mu

    def edited(rho, xt, et):
        mu = real(rho, xt, et)
        marginals = np.array(mu.marginals)
        m_xx, m_yy, m_xy = marginals
        for x, y, z in zip(m_xx, m_yy, m_xy):
            before = np.diag(pair_weights(x, y, z))
            edit(int(np.argmax(x * y)), x, y, z)
            w = pair_weights(x, y, z)
            assert np.min(w) < -MU_ATOM_SLACK * max(float(np.sum(w)), 0.0)
            assert np.array_equal(np.diag(w), before) == diagonal_kept
        weights = 2.0 * (m_xx * m_yy - m_xy * m_xy)
        return dataclasses.replace(mu, weights=weights, marginals=marginals)

    monkeypatch.setattr(gns, "build_mu", edited)


def test_mu_negative_atom_gate_fires_on_a_negative_diagonal_weight(monkeypatch):
    # |m_xy| twice the geometric mean of m_xx and m_yy at one atom: its
    # diagonal weight 2 (m_xx m_yy - m_xy^2) turns negative
    def overlap(k, m_xx, m_yy, m_xy):
        m_xy[k] = 2.0 * np.sqrt(m_xx[k] * m_yy[k])

    _inject_marginals(monkeypatch, overlap, diagonal_kept=False)
    _assert_flags(monkeypatch, lambda key: ("g_h_mismatch", "mu_negative_atom"))


def test_mu_negative_atom_gate_fires_on_a_cauchy_schwarz_break(monkeypatch):
    # negated m_xx and m_yy at one atom: its Gram matrix
    # [[m_xx, m_xy], [m_xy, m_yy]] turns negative definite, so Cauchy-Schwarz
    # fails there, but its determinant and so every diagonal weight keeps
    # its value; only off-diagonal weights go negative
    def negate(k, m_xx, m_yy, m_xy):
        m_xx[k], m_yy[k] = -m_xx[k], -m_yy[k]

    _inject_marginals(monkeypatch, negate, diagonal_kept=True)
    _assert_flags(monkeypatch, lambda key: ("g_h_mismatch", "mu_negative_atom"))


def test_mu_negative_atom_gate_holds_where_the_mass_cancels(monkeypatch):
    # a sound dim-2 sweep instance (trial seed 17169423411046829223,
    # normalised observables) whose centered a0 and b0 are nearly parallel:
    # the mass cancels to 7.2e-6 while m_xx m_yy is about 0.01, and a
    # diagonal weight rounds to -1.4e-17. That is round-off of the weights'
    # terms, within the slack scaled by their uncancelled size, though not
    # within one scaled by the mass
    seed = 17169423411046829223
    rho = random_density(2, hash64(seed, 0))
    a, b = (random_hermitian(2, hash64(seed, k)).matrix for k in (1, 2))
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    built, real = [], gns.build_mu
    monkeypatch.setattr(gns, "build_mu", lambda *args: built.append(real(*args)) or built[-1])
    audit = _audit(rho, [from_key(key) for key in ALL_KEYS], a, b)
    (mu,) = built
    assert (audit["G"] > 3e-6).all() and (audit["G"] < 4e-6).all()
    assert audit["mu_min_atom"].item() == mu.min_weight_bound < 0.0
    mass = float(np.sum(pair_weights(*mu.marginals)))
    assert mu.min_weight_bound < -MU_ATOM_SLACK * max(mass, 0.0)
    assert mu.min_weight_bound >= -MU_ATOM_SLACK * mu.weight_scale
    assert not audit["flags"].any()


def test_gform_negative_gate_fires(monkeypatch):
    # the harmonic G-form is 0 up to round-off (tilde = (x + 1)/2), so a graph
    # form E1 read 1e-6 too small makes it negative on both centered
    # observables; E1 feeds only the G-form, so G and H do not move. The
    # gate names the failure once, however many forms fail
    real = gns.form_E1

    def shrunk_e1(*args):
        return (1.0 - 1e-6) * real(*args)

    monkeypatch.setattr(gns, "form_E1", shrunk_e1)
    _assert_flags(monkeypatch, lambda key: ("gform_negative",) if key == "harmonic" else ())


@pytest.mark.parametrize("observable", [0, 1])
def test_gform_negative_gate_fires_on_either_observable(monkeypatch, observable):
    # E1 of a0 is row 0 of the audit's one stacked call and E1 of b0 row 1;
    # shrinking one row makes only that observable's harmonic G-form negative
    real = gns.form_E1

    def shrunk_row(*args):
        e1 = real(*args)
        e1[observable] *= 1.0 - 1e-6
        return e1

    monkeypatch.setattr(gns, "form_E1", shrunk_row)
    _assert_flags(monkeypatch, lambda key: ("gform_negative",) if key == "harmonic" else ())


def test_audit_gates_fail_on_nan():
    # observables of norm ~1e150 overflow the traces and the marginals to
    # inf and then NaN: G, H, the residual and the bound on mu are NaN, and
    # at 1e160 the G-forms too. A NaN is not within any bound, so each gate
    # it reaches flags, as the report's checks do, and each flag is named once
    rho = random_density(3, 1)
    for scale, expected in ((1e150, [True, True, False]), (1e160, [True] * 3)):
        a, b = (scale * random_hermitian(3, seed).matrix for seed in (2, 3))
        with np.errstate(all="ignore"):
            audit = _audit(rho, [from_key("wyd:0.5")], a, b)
        for key in ("G", "H", "residual", "mu_min_atom"):
            assert np.isnan(audit[key]).all(), (scale, key)
        assert np.isnan(audit["gform_min"]).all() == (scale == 1e160), scale
        assert audit["flags"].tolist() == [[expected]], scale
        names = [name for name, hit in zip(AUDIT_FLAGS, expected) if hit]
        assert _flag_names(audit["flags"], AUDIT_FLAGS) == [[names]], scale
    # a NaN G-form of a0 alone fails the one gate beside b0's finite form
    a = 1e160 * random_hermitian(3, 2).matrix
    with np.errstate(all="ignore"):
        audit = _audit(rho, [from_key("wyd:0.5")], a, random_hermitian(3, 3).matrix)
    assert np.isnan(audit["gform_min"]).all()
    assert audit["flags"][0, 0, AUDIT_FLAGS.index("gform_negative")]


def test_audit_rejects_a_non_hermitian_kernel_product(monkeypatch):
    # an asymmetric kernel maps a Hermitian observable to a non-Hermitian
    # matrix; the batched validation of the applied kernels must reject it.
    # The audit builds its kernels from the tilde pass that eigenbasis_terms
    # shares with the report, so the asymmetry is injected there
    real = qinfo.tilde_transform

    def asymmetric(f, x):
        tilde = real(f, x).copy()
        tilde[..., 0, 1] += 1e-3
        return tilde

    monkeypatch.setattr(qinfo, "tilde_transform", asymmetric)
    functions = [from_key(k) for k in ALL_KEYS]
    for dim in (2, 3, 5):
        rho = _state(dim, seed=710 + dim)
        a = random_hermitian(dim, seed=711 + dim)
        b = random_hermitian(dim, seed=712 + dim)
        with pytest.raises(ValueError, match="not Hermitian"):
            _audit(rho, functions, a, b)
    monkeypatch.undo()
    assert not _audit(rho, functions, a, b)["flags"].any()


def test_audit_with_no_catalog_entries_matches_the_report():
    # no entries: (T, 0) columns for one state (T = 1) and for a stack, as
    # the stacked report gives, and no rows
    rho = random_density(3, seed=61)
    a, b = random_hermitian(3, seed=62), random_hermitian(3, seed=63)
    states = random_density(3, [64, 65, 66])
    sa, sb = (random_hermitian(3, seeds).matrix for seeds in ([67, 68, 69], [70, 71, 72]))
    for state, x, y, t in ((rho, a, b, 1), (states, sa, sb, 3)):
        audit = _audit(state, [], x, y)
        assert all(audit[key].shape == (t, 0) for key in GRID_COLUMNS)
        assert audit["flags"].shape == (t, 0, len(AUDIT_FLAGS))
        assert audit["mu_min_atom"].shape == (t,)
        columns = qinfo._report_in_eigenbasis(eigenbasis_terms(state, [], x, y), 1e-9)
        assert columns["gap"].shape == (t, 0)
        assert columns["residuals"] == ()


def test_h_from_measure_rejects_misshapen_tilde_values():
    rho = _state(3, seed=73)
    a, b = random_hermitian(3, seed=75), random_hermitian(3, seed=76)
    mu = _mu(rho, centered(rho, a), centered(rho, b))
    q = tilde_transform(sld(), mu.values)
    # one state's measure takes (F, K) tilde values: an entry axis, then the atoms
    for bad in (q, q[None, :-1], q[None, None]):
        with pytest.raises(ValueError, match="do not match"):
            h_from_measure(mu, bad)


def _g_cases():
    for dim in (1, 2, 3, 4, 6, 8, 16, 24, 32, 64):
        yield random_density(dim, seed=800 + dim)
    yield _cluster_state(seed=809)


def test_audit_g_is_the_public_direct_route():
    # G is the report's (var_a var_b - cov cov) - (I_a I_b - corr corr) on
    # the public qinfo functions' floats, bit for bit: the audit's one kernel
    # per entry, applied to each observable's batch of states and entries, is
    # their kernel application, and its scalars are qinfo._scalars, the formula
    # the report applies to its own traces
    functions = [from_key(k) for k in ALL_KEYS]
    for rho in _g_cases():
        n = rho.dim
        a = random_hermitian(n, seed=900 + n)
        b = random_hermitian(n, seed=950 + n)
        entries = _entries(_audit(rho, functions, a, b))
        var_a, var_b, cov_ab = variance(rho, a), variance(rho, b), covariance(rho, a, b)
        for f, entry in zip(functions, entries):
            info_a, info_b = f_information(rho, f, a), f_information(rho, f, b)
            corr_ab = f_correlation(rho, f, a, b)
            g = (var_a * var_b - cov_ab * cov_ab) - (info_a * info_b - corr_ab * corr_ab)
            assert repr(entry["G"]) == repr(g), (n, f.name)
            assert entry["flags"] == [], (n, f.name)


@pytest.mark.parametrize(("n", "t"), [(16, 1), (32, 1), (64, 2)])
def test_audit_working_set_is_a_few_observable_batches(n, t):
    # the audit back-rotates its kernel products one observable's
    # (T, F, n, n) complex batch at a time, and its G-forms are per-atom dots
    # of the (T, F, K) tilde values against mu's marginals, with no batch of
    # their own; the peak traced memory of one call stays within 8 such
    # batches (6.0-6.8 here), below the 10.5-11.8 that both observables'
    # products in one (T, 2F, n, n) batch take
    functions = [from_key(k) for k in ALL_KEYS]
    seeds = [1000 + 10 * n + k for k in range(t)]
    rho = random_density(n, seeds)
    a, b = (random_hermitian(n, [s + k for s in seeds]).matrix for k in (1, 2))
    terms = eigenbasis_terms(rho, functions, a, b)
    audit_G_equals_H(terms)  # a first call's one-off allocations are not the working set
    tracemalloc.start()
    try:
        audit = audit_G_equals_H(terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    batch = t * len(functions) * n * n * np.dtype(complex).itemsize
    assert peak <= 8 * batch, peak / batch
    assert not audit["flags"].any()


def test_h_from_measure_consistency():
    # the audit's H is the measure of the centered observables, integrated;
    # it centers them in the eigenbasis, u† a u - Tr(rho a) 1
    rho = _state(3, seed=90)
    a = random_hermitian(3, seed=91).matrix
    b = random_hermitian(3, seed=92).matrix
    functions = [sld(), wyd(0.3)]
    at0, bt0 = (rho.to_eigenbasis(x) - np.trace(rho.matrix @ x).real * np.eye(3) for x in (a, b))
    mu = build_mu(rho, at0, bt0)
    audit = _audit(rho, functions, a, b)
    q = np.array([tilde_transform(f, mu.values) for f in functions])
    h, dots = h_from_measure(mu, q)
    assert repr(h.tolist()) == repr(audit["H"][0].tolist())
    # its dots Q_x, Q_y, Q_z, one row per marginal, each as that marginal's own dot
    assert dots.shape == (3, len(functions))
    for got, w in zip(dots, mu.marginals):
        assert repr(got.tolist()) == repr(gns._dot(q, w).tolist())
    assert mu.min_weight_bound == audit["mu_min_atom"][0]
    # against the rotation of the standard-basis centered observables, only
    # round-off moves
    rotated = _mu(rho, centered(rho, a), centered(rho, b))
    h_rotated, _ = h_from_measure(rotated, q)
    assert np.allclose(h_rotated, audit["H"][0], rtol=1e-13, atol=1e-15)


def test_model_exposes_spectral_data():
    # the forms, the measure and the audit take the state itself, and the
    # model is left holding its state alone: the spectral data are the state's
    rho = random_density(3, seed=93)
    m = gns.GnsModel(rho)
    assert m.rho is rho
    assert [name for name in dir(m) if not name.startswith("_")] == ["rho"]
    assert np.allclose(np.diag(_ratios(rho)), 1.0, atol=0.0)
    assert rho.dim == 3 and rho.eigenvalues.shape == (3,)
    assert np.allclose(
        rho.matrix, (rho.eigenvectors * rho.eigenvalues) @ rho.eigenvectors.conj().T, atol=1e-12
    )


def _stack(states):
    return DensityMatrix(np.array([rho.matrix for rho in states]))


def _stack_cases():
    yield [random_density(3, seed=1000 + k) for k in range(7)]
    yield [random_density(8, seed=1100 + k) for k in range(7)]
    # clustered, maximally mixed and generic states share one stack
    mixed = DensityMatrix(np.eye(6) / 6)
    yield [_cluster_state(1200), random_density(6, seed=1201), mixed, _cluster_state(1203)]


def _bits(columns, keys):
    # each column's values as text, so -0.0 and every last bit count
    return {key: repr(np.asarray(columns[key]).tolist()) for key in keys}


def test_stacked_audit_equals_per_trial_audits():
    # a chunk's audit columns are each state's stack-of-one columns, by repr
    # on every column, whatever the chunk boundaries
    functions = [from_key(k) for k in ALL_KEYS]
    keys = (*GRID_COLUMNS, "mu_min_atom", "flags")
    for states in _stack_cases():
        n, t = states[0].dim, len(states)
        a = np.array([random_hermitian(n, seed=1300 + k).matrix for k in range(t)])
        b = np.array([random_hermitian(n, seed=1400 + k).matrix for k in range(t)])
        singles = [_audit(rho, functions, a[k], b[k]) for k, rho in enumerate(states)]
        expected = _bits({key: np.concatenate([s[key] for s in singles]) for key in keys}, keys)
        for cut in (1, t // 2, t - 1):
            chunks = [range(0, cut), range(cut, t)]
            audits = [
                _audit(_stack([states[k] for k in c]), functions, a[c], b[c])
                for c in chunks
            ]
            stacked = {key: np.concatenate([x[key] for x in audits]) for key in keys}
            assert _bits(stacked, keys) == expected, (n, cut)
        assert not any(s["flags"].any() for s in singles)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
def test_entry_sum_traces_do_not_depend_on_the_stack(dim):
    # the audit's Tr(k o x . y) entry sums, the real part of _entry_sums: a
    # (T, F) stack gives, bit for bit, what each (t, f) gives as a stack of
    # one; they take y's contiguous transpose
    rng = np.random.default_rng(dim)
    for t, f in ((1, 1), (3, 5), (7, 2)):
        shape = (t, 2 * f, dim, dim)
        kx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kx = kx[:, 0::2]  # strided too, as a slice of a batch is
        y = rng.standard_normal((t, dim, dim)) + 1j * rng.standard_normal((t, dim, dim))
        y_t = np.ascontiguousarray(y.swapaxes(-1, -2))
        stacked = _entry_sums(kx, y_t).real
        assert stacked.shape == (t, f)
        alone = [
            [_entry_sums(kx[i, k][None, None].copy(), y_t[i][None]).real[0, 0] for k in range(f)]
            for i in range(t)
        ]
        assert repr(stacked.tolist()) == repr(np.array(alone).tolist()), (t, f)
        exact = np.einsum("tfij,tji->tf", kx, y).real
        assert np.allclose(stacked, exact, rtol=1e-12, atol=1e-12 * dim)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
def test_trace_moments_do_not_depend_on_the_stack(dim):
    # the audit's Tr(rho x) and Re Tr(rho x y): a (T, n, n) stack gives, bit
    # for bit, what each state gives as a stack of one
    for t in (1, 3, 7):
        seeds = [50 * dim + 10 * t + k for k in range(t)]
        rho = random_density(dim, seeds)
        a, b = (random_hermitian(dim, [s + k for s in seeds]).matrix for k in (1, 2))
        stacked = _trace_moments(rho, np.array((a, b)))
        assert [x.shape for x in stacked] == [(2, t), (2, t), (t,)]
        alone = [
            _trace_moments(DensityMatrix(rho.matrix[k : k + 1]), np.array((a, b))[:, k : k + 1])
            for k in range(t)
        ]
        for got, parts in zip(stacked, zip(*alone)):
            assert repr(got.tolist()) == repr(np.concatenate(parts, axis=-1).tolist()), (t,)
        exact = np.einsum("tij,tjk,tki->t", rho.matrix, a, b).real
        assert np.allclose(stacked[2], exact, rtol=1e-12, atol=1e-12 * dim)


def test_audit_hands_on_the_pair_it_holds(monkeypatch):
    # the moments read terms.pair itself, not a restacked copy of its halves
    seen, real = [], gns._trace_moments
    monkeypatch.setattr(gns, "_trace_moments", lambda *args: seen.append(args) or real(*args))
    seeds = [71, 72, 73]
    rho = random_density(4, seeds)
    a, b = (random_hermitian(4, [s + k for s in seeds]).matrix for k in (1, 2))
    terms = eigenbasis_terms(rho, [from_key(k) for k in ALL_KEYS], a, b)
    audit_G_equals_H(terms)
    assert [len(args) for args in seen] == [2]
    ((got_rho, pair),) = seen
    assert got_rho is rho and pair is terms.pair


@pytest.mark.parametrize("dim", [1, 2, 16, 64])
def test_build_mu_marginals_equal_the_restacked_construction(dim):
    # build_mu fills its (3, T, K) marginals from xt and et directly; they
    # equal, bit for bit, those of the pair stacked from them as one array
    for t in (1, 3):
        seeds = [90 * dim + 10 * t + k for k in range(t)]
        rho = random_density(dim, seeds)
        xt, et = (
            rho.to_eigenbasis(random_hermitian(dim, [s + k for s in seeds]).matrix) for k in (1, 2)
        )
        pair = np.array((xt, et))
        entries = np.empty((3,) + pair.shape[1:])
        entries[:2] = np.abs(pair) ** 2
        entries[2] = np.real(np.conj(pair[0]) * pair[1])
        entries *= rho.eigenvalues[..., None, :]
        mu = build_mu(rho, xt, et)
        assert mu.marginals.shape == (3, t, dim * dim)
        assert mu.marginals.tobytes() == entries.reshape(3, t, -1).tobytes(), t


def test_audited_sweep_records_are_per_trial_audits():
    # dim 64 runs two trials per chunk, so trial 2 starts a second chunk
    functions = [from_key(k) for k in ALL_KEYS]
    records = []
    config = SweepConfig(dims=(64,), trials=3, f_specs=ALL_KEYS, seed=11, gns_audit=True)
    run_sweep(config, records.append)
    by_trial = {}
    for record in records:
        by_trial.setdefault(record["trial"], []).append(record)
    for trial, rows in by_trial.items():
        seed = hash64(11, 64, trial)
        rho = random_density(64, hash64(seed, 0))
        a, b = (random_hermitian(64, hash64(seed, k)).matrix for k in (1, 2))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)  # the sweep's normalisation
        entries = _entries(_audit(rho, functions, a, b))
        assert [r["f"] for r in rows] == [f.name for f in functions]
        for row, entry in zip(rows, entries):
            assert repr(row["residuals"][-1]) == repr(entry["residual"]), (trial, row["f"])
            assert row["flags"] == entry["flags"] == []


def _bound_of_each_part(mu):
    # min_weight_bound with each marginal's positive and negative parts and
    # their maxima taken on their own, one array call each
    a, b, z = mu.marginals
    a_pos, a_neg, b_pos, b_neg = (np.maximum(x, 0.0) for x in (a, -a, b, -b))
    g = np.sqrt(a_pos * b_pos)
    s = np.max(g, axis=-1)
    c = np.max(np.maximum(np.abs(z) - g, 0.0), axis=-1)
    pos_a, neg_a, pos_b, neg_b = (np.max(x, axis=-1) for x in (a_pos, a_neg, b_pos, b_neg))
    off = -2.0 * (2.0 * s * c + c * c) - 2.0 * (pos_a * neg_b + neg_a * pos_b) + 0.0
    return np.minimum(np.min(mu.weights, axis=-1), off)


def _audit_form_cases():
    yield random_density(4, seed=1500), 1
    for states in _stack_cases():
        yield _stack(states), len(states)


def test_stacked_audit_forms_equal_each_observables_own():
    # the audit computes E1 of a0 and b0 in one stacked call, mu's marginals
    # as one (3, T, K) array, the G-forms 0.5 E1 - q . m from two rows of
    # H's one stacked dot against it and the parts of its bound from that array;
    # each equals its own per-observable value, by repr
    functions = [from_key(k) for k in ALL_KEYS]
    for rho, t in _audit_form_cases():
        n = rho.dim
        seeds = list(range(1600 + 10 * n, 1600 + 10 * n + t))
        a, b = (random_hermitian(n, [s + k for s in seeds]).matrix.reshape(rho.matrix.shape) for k in (0, 5))
        terms = eigenbasis_terms(rho, functions, a, b)
        lam = rho.eigenvalues.reshape(-1, n)
        q = terms.tilde.reshape(t, len(functions), n * n)
        gforms, graph, centered_t = [], [], []
        for x, xt in ((terms.a, terms.at), (terms.b, terms.bt)):
            exp = np.trace(rho.matrix.reshape(-1, n, n) @ x, axis1=1, axis2=2).real
            xt0 = xt - exp[:, None, None] * np.eye(n)
            e1 = form_E1(rho, xt0, xt0)
            own = (np.abs(xt0) ** 2 * lam[:, None, :]).reshape(t, -1)
            gforms.append(0.5 * e1.real[:, None] - gns._dot(q, own[:, None, :]))
            graph.append(e1)
            centered_t.append(xt0)
        pair_t = np.array(centered_t)
        assert repr(form_E1(rho, pair_t, pair_t).tolist()) == repr(np.array(graph).tolist())
        at0, bt0 = centered_t
        audit = audit_G_equals_H(terms)
        assert repr(audit["gform_min"].tolist()) == repr(np.minimum(*gforms).tolist())
        mu = build_mu(rho, at0, bt0)
        assert mu.marginals.shape == (3, t, n * n)
        marginals = (np.abs(at0) ** 2, np.abs(bt0) ** 2, np.real(np.conj(at0) * bt0))
        for got, entries in zip(mu.marginals, marginals):
            assert repr(got.tolist()) == repr((entries * lam[:, None, :]).reshape(t, -1).tolist())
        assert repr(audit["mu_min_atom"].tolist()) == repr(_bound_of_each_part(mu).tolist())
        # H's six dots, each marginal on its own
        p = mu.values + 1.0
        px, py, pz = (gns._dot(p, w)[..., None] for w in mu.marginals)
        qx, qy, qz = (gns._dot(q, w[..., None, :]) for w in mu.marginals)
        h = 0.25 * (2.0 * (px * qy + py * qx) - 4.0 * (pz * qz + qx * qy - qz * qz))
        assert repr(audit["H"].tolist()) == repr(h.tolist())


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 32, 64])
def test_audit_gforms_match_the_public_form_g(dim):
    # the audit sums the kernel form atom by atom, q . m_xx, and form_G sums
    # k_ij |x0_ij|^2 over the entries of the standard-basis a0 rotated on its
    # own. Every term of either sum is nonnegative and the terms add up to at
    # most E1 / 2 (tilde(s) <= (s + 1) / 2), so each route rounds off by at
    # most about K eps E1 for K = n^2 atoms, and so does the minimum over a0
    # and b0 of their difference
    functions = [from_key(k) for k in ALL_KEYS]
    eps = np.finfo(float).eps
    for trial in range(3):
        seed = 1900 + 10 * dim + trial
        rho = _state(dim, seed=seed)
        a, b = (random_hermitian(dim, seed=seed + k).matrix for k in (1, 2))
        audit = _audit(rho, functions, a, b)
        pair0 = [centered(rho, x) for x in (a, b)]
        e1 = max(form_E1(rho, *(rho.to_eigenbasis(x0),) * 2).real for x0 in pair0)
        for k, f in enumerate(functions):
            public = min(form_G(rho, f, x0, x0).real for x0 in pair0)
            got = audit["gform_min"][0, k]
            assert abs(got - public) <= dim * dim * eps * e1, (dim, trial, ALL_KEYS[k])


def test_mu_bound_of_stacked_parts_equals_each_part_s_own():
    # negative, zero and signed-zero marginals, one state and a stack
    rng = np.random.default_rng(1700)
    for shape in ((9,), (5, 16), (3, 1)):
        for _ in range(50):
            a, b, z = (rng.standard_normal(shape) * (rng.random(shape) < 0.7) for _ in range(3))
            for x in (a, b, z):
                x[rng.random(shape) < 0.2] = -0.0
            mu = gns.AtomicPairMeasure(
                values=np.ones(shape), weights=2.0 * (a * b - z * z), marginals=np.array((a, b, z))
            )
            assert repr(np.asarray(mu.min_weight_bound).tolist()) == repr(_bound_of_each_part(mu).tolist())


def test_audit_residual_floor_is_the_states_trace_defect():
    # DensityMatrix admits |Tr rho - 1| up to TRACE_TOL = 1e-10. G's direct
    # traces and H's measure of the centered observables agree only when
    # Tr rho = 1: Re Tr(rho a0 b0) = cov_ab - <a><b> (1 - Tr rho), and so on.
    # So |G - H| carries a term of order the trace defect, here 4e-11, far
    # above round-off and far below G_H_RTOL; at trace 1 only round-off is left
    u, _ = np.linalg.qr(random_hermitian(4, seed=1800).matrix)
    functions = [from_key(k) for k in ALL_KEYS]
    worst = {}
    for name, lam in (("defect", (0.4, 0.25, 0.25 - 4e-11, 0.1)), ("trace one", (0.4, 0.25, 0.25, 0.1))):
        rho = DensityMatrix((u * np.array(lam)) @ u.conj().T)
        defect = abs(float(np.trace(rho.matrix).real) - 1.0)
        residuals = []
        for seed in range(1810, 1820):
            a, b = (random_hermitian(4, seed=seed + k).matrix for k in (0, 100))
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            audit = _audit(rho, functions, a, b)
            assert not audit["flags"].any()
            residuals.append(float(audit["residual"].max()))
        worst[name] = (max(residuals), defect)
    residual, defect = worst["defect"]
    assert 3.9e-11 < defect < 4.1e-11
    # unit Frobenius norms, so |<a><b>| and the variances are at most 1
    assert 1e-3 * defect < residual <= 4.0 * defect
    residual, defect = worst["trace one"]
    assert defect <= 4 * np.finfo(float).eps
    assert residual <= 50 * np.finfo(float).eps
