"""Independent reference values and closed forms for the test suite.

Nothing here imports the library under test. The high-precision part is
computed with mpmath at 50 significant digits using scalar arithmetic and
explicit 2x2 complex matrix operations only. ``FROZEN`` holds the reference
numbers rounded to the nearest float. The generator functions below
recompute them from scratch so a test can certify that the frozen literals
are what the high-precision arithmetic actually produces; all other tests
compare library output against the literals.

The float64 part holds the wyd closed forms for matrices of any size, in
plain numpy: the power sandwich of rho in the standard basis and the
transform (x^beta + x^(1-beta)) / 2. They are the second routes that the
library's kernel route is tested against. The last part holds the K x K
definitions of the pair measure mu and the pair integrand that the
library evaluates only in O(K) form.

Reference instance: the faithful qubit state diag(3/4, 1/4) with the two
off-diagonal Pauli observables

    A = [[0, 1], [1, 0]]      B = [[0, -i], [i, 0]]
"""

import numpy as np
from mpmath import mp, mpc, mpf, power

mp.dps = 50

# Values are the correctly rounded floats of 50-digit computations. Keys
# ending in a beta tag belong to the power-mean family at that parameter.
FROZEN = {
    "wyd_f_beta03_x2": 1.4547893659905085,
    "wyd_f_beta05_x2": 1.4571067811865475,
    "wyd_f_beta01_x10": 4.054973558065302,
    "wyd_tilde_beta03_x2": 1.4278246030286936,
    "wyd_tilde_beta05_x3": 1.7320508075688772,
    "fixture_var_a": 1.0,
    "fixture_var_b": 1.0,
    "fixture_cov_ab": 0.0,
    "fixture_corr_ab": 0.0,
    "fixture_info_wyd_half": 0.13397459621556135,
    "fixture_lhs": 1.0,
    "fixture_rhs_wyd_half": 0.017949192431122706,
    "fixture_gap_wyd_half": 0.9820508075688773,
    "fixture_heisenberg": 0.25,
    "fixture_kernel_entry_wyd_half": 0.4330127018922193,
    "fixture_info_sld": 0.25,
    "fixture_info_harmonic": 0.0,
}

FIXTURE_RHO_DIAG = (0.75, 0.25)
FIXTURE_A = ((0.0, 1.0), (1.0, 0.0))
FIXTURE_B_IMAG = ((0.0, -1.0), (1.0, 0.0))


def wyd_f_mp(beta, x):
    """Power-difference mean b(1-b)(x-1)^2 / ((x^b - 1)(x^(1-b) - 1))."""
    beta, x = mpf(beta), mpf(x)
    if x == 1:
        return mpf(1)
    num = beta * (1 - beta) * (x - 1) ** 2
    den = (power(x, beta) - 1) * (power(x, 1 - beta) - 1)
    return num / den


def wyd_tilde_mp(beta, x):
    """Closed-form transform (x^beta + x^(1-beta)) / 2."""
    beta, x = mpf(beta), mpf(x)
    return (power(x, beta) + power(x, 1 - beta)) / 2


def tilde_from_values_mp(f_at_zero, f_at_x, x):
    """Generic transform ((x + 1) - (x - 1)^2 f(0) / f(x)) / 2 from values."""
    x = mpf(x)
    return ((x + 1) - (x - 1) ** 2 * mpf(f_at_zero) / mpf(f_at_x)) / 2


def sld_f_mp(x):
    return (1 + mpf(x)) / 2


def harmonic_f_mp(x):
    x = mpf(x)
    return 2 * x / (1 + x)


def _mul2(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _tr2(x):
    return x[0][0] + x[1][1]


def _fixture_matrices():
    a = tuple(tuple(mpc(v) for v in row) for row in FIXTURE_A)
    b = tuple(tuple(mpc(0, v) for v in row) for row in FIXTURE_B_IMAG)
    return a, b


def _rho_power(p):
    l0, l1 = (mpf(str(v)) for v in FIXTURE_RHO_DIAG)
    return ((power(l0, p), mpc(0)), (mpc(0), power(l1, p)))


def fixture_scalars_mp(beta=0.5):
    """All inequality scalars of the reference instance, power-sandwich route.

    Returns a dict of floats keyed like the library's report fields. Only
    brute-force 2x2 trace arithmetic is used: the correlation is
    Re{Tr(rho A B) - Tr(rho^beta A rho^(1-beta) B)} and the rest follows the
    definitions verbatim.
    """
    a, b = _fixture_matrices()
    rho = _rho_power(mpf(1))
    pb = _rho_power(mpf(beta))
    pc = _rho_power(1 - mpf(beta))

    def expect(m):
        return _tr2(_mul2(rho, m)).real

    def corr(x, y):
        full = _tr2(_mul2(rho, _mul2(x, y)))
        sandwich = _tr2(_mul2(_mul2(pb, x), _mul2(pc, y)))
        return (full - sandwich).real

    var_a = expect(_mul2(a, a)) - expect(a) ** 2
    var_b = expect(_mul2(b, b)) - expect(b) ** 2
    cov_ab = _tr2(_mul2(rho, _mul2(a, b))).real - expect(a) * expect(b)
    info_a, info_b, corr_ab = corr(a, a), corr(b, b), corr(a, b)
    lhs = var_a * var_b - cov_ab**2
    rhs = info_a * info_b - corr_ab**2
    comm = _tr2(_mul2(rho, _mul2(a, b))) - _tr2(_mul2(rho, _mul2(b, a)))
    return {
        "var_a": float(var_a),
        "var_b": float(var_b),
        "cov_ab": float(cov_ab),
        "info_a": float(info_a),
        "info_b": float(info_b),
        "corr_ab": float(corr_ab),
        "lhs": float(lhs),
        "rhs": float(rhs),
        "gap": float(lhs - rhs),
        "heisenberg_rhs": float(abs(comm) ** 2 / 4),
    }


def fixture_kernel_info_mp(tilde):
    """Skew information of observable A on the reference instance, kernel route.

    ``tilde`` is a callable profile; the kernel entry for index pair (i, j)
    is tilde(lam_i / lam_j) * lam_j and the information is
    Tr(rho A^2) - sum_ij k_ij A_ij A_ji. Works for any catalog profile, so
    it covers the entries that have no power-sandwich form.
    """
    lam = [mpf(str(v)) for v in FIXTURE_RHO_DIAG]
    a, _ = _fixture_matrices()
    rho = _rho_power(mpf(1))
    second_moment = _tr2(_mul2(rho, _mul2(a, a))).real
    acc = mpf(0)
    for i in range(2):
        for j in range(2):
            k = tilde(lam[i] / lam[j]) * lam[j]
            acc += (k * a[i][j] * a[j][i]).real
    return float(second_moment - acc)


def fixture_kernel_entry_mp(beta=0.5):
    """Kernel entry k[0, 1] of the reference state for the power-mean family."""
    lam = [mpf(str(v)) for v in FIXTURE_RHO_DIAG]
    return float(wyd_tilde_mp(beta, lam[0] / lam[1]) * lam[1])


# --- float64 closed forms ---------------------------------------------------


def wyd_tilde_closed(beta, x):
    """Closed-form transform (x^beta + x^(1-beta)) / 2, elementwise in float64."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (np.power(x, beta) + np.power(x, 1.0 - beta))


def rho_power(rho, p):
    """rho^p of a positive definite matrix, through its eigendecomposition."""
    lam, u = np.linalg.eigh(np.asarray(rho, dtype=complex))
    return (u * np.power(lam, p)) @ u.conj().T


def power_sandwich(rho, beta, a):
    """(rho^beta a rho^(1-beta) + rho^(1-beta) a rho^beta) / 2 in the standard basis."""
    a = np.asarray(a, dtype=complex)
    pb, pc = rho_power(rho, beta), rho_power(rho, 1.0 - beta)
    return 0.5 * (pb @ a @ pc + pc @ a @ pb)


def sandwich_correlation(rho, beta, a, b):
    """Re Tr(rho a b) - Re Tr(rho^beta a rho^(1-beta) b), by standard-basis traces.

    For Hermitian a and b the two terms of the symmetrized sandwich have the
    same real trace against b, so the sandwich gives the second trace.
    """
    rho, a, b = (np.asarray(m, dtype=complex) for m in (rho, a, b))
    return float(np.trace(rho @ a @ b).real - np.trace(power_sandwich(rho, beta, a) @ b).real)


# --- the pair measure and integrand, K x K ----------------------------------


def pair_weights(m_xx, m_yy, m_xy):
    """K x K weights w[k, l] = m_xx[k] m_yy[l] + m_yy[k] m_xx[l] - 2 m_xy[k] m_xy[l].

    The definition of mu from its per-atom marginals, entry by entry in this
    order, that the library's O(K) mass, certificate and separable H are
    checked against.
    """
    m_xx, m_yy, m_xy = (np.asarray(m, dtype=float) for m in (m_xx, m_yy, m_xy))
    return (np.outer(m_xx, m_yy) + np.outer(m_yy, m_xx)) - 2.0 * np.outer(m_xy, m_xy)


def pair_integrand(tilde, s, t):
    """(s + 1) tilde(t) + (t + 1) tilde(s) - 2 tilde(s) tilde(t), elementwise.

    ``tilde`` is a callable profile. Equals
    ((s + 1) - tilde(s)) tilde(t) + ((t + 1) - tilde(t)) tilde(s), a sum of
    products of nonnegative factors for any valid catalog entry.
    """
    fs = np.asarray(tilde(s), dtype=float)
    ft = np.asarray(tilde(t), dtype=float)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return (s + 1.0) * ft + (t + 1.0) * fs - 2.0 * fs * ft
