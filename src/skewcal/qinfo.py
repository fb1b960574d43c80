"""State-level covariance, skew information, and the coupled uncertainty checks.

All scalars are real numbers built from traces against a faithful density
matrix. Two computation routes exist for the information quantities: the
kernel route (any catalog function) and the direct power-sandwich route
(wyd family only); their disagreement is surfaced as a residual, never
hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, as_matrix, matrix_power, modular_kernel_apply
from .monotone import MonotoneFunction, _require_beta, tilde_transform, wyd_parameter

__all__ = [
    "DEFAULT_TOL",
    "UncertaintyReport",
    "beta_correlation",
    "beta_information",
    "centered",
    "covariance",
    "evaluate_inequalities",
    "expectation",
    "f_correlation",
    "f_information",
    "heisenberg_bound",
    "validate_tol",
    "variance",
]

# Base tolerance for inequality checks; the effective tolerance scales with
# max(1, var_a * var_b).
DEFAULT_TOL = 1e-9

# Nonnegativity of variances, informations, and the left-hand side is
# checked to this much slack times the same scale.
INVARIANT_SLACK = 1e-12


def validate_tol(tol) -> float:
    """``tol`` as a float; ValueError unless it is a positive finite number.

    Every entry point that takes a base tolerance goes through this check:
    a NaN tolerance would otherwise compare False against every gap and
    pass every instance silently.
    """
    try:
        value = float(tol)
    except (TypeError, ValueError):
        value = math.nan
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    return value


def _observable(rho: DensityMatrix, a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape != rho.matrix.shape:
        raise ValueError(f"observable shape {m.shape} does not match state dim {rho.dim}")
    return m


def expectation(rho: DensityMatrix, a) -> float:
    """Tr(rho a) for a Hermitian observable."""
    return float(np.trace(rho.matrix @ _observable(rho, a)).real)


def centered(rho: DensityMatrix, a) -> np.ndarray:
    """a - Tr(rho a) * identity."""
    m = _observable(rho, a)
    return m - expectation(rho, a) * np.eye(rho.dim)


def covariance(rho: DensityMatrix, a, b) -> float:
    """Symmetrized covariance Re Tr(rho a b) - Tr(rho a) Tr(rho b)."""
    ma, mb = _observable(rho, a), _observable(rho, b)
    return float(np.trace(rho.matrix @ ma @ mb).real) - expectation(rho, a) * expectation(rho, b)


def variance(rho: DensityMatrix, a) -> float:
    """Variance of an observable in the state; covariance of a with itself."""
    return covariance(rho, a, a)


def beta_correlation(rho: DensityMatrix, beta: float, a, b) -> float:
    """Re { Tr(rho a b) - Tr(rho^beta a rho^(1-beta) b) } by direct traces."""
    beta = _require_beta(beta)
    ma, mb = _observable(rho, a), _observable(rho, b)
    pb = matrix_power(rho, beta).matrix
    pc = matrix_power(rho, 1.0 - beta).matrix
    value = np.trace(rho.matrix @ ma @ mb) - np.trace(pb @ ma @ pc @ mb)
    return float(value.real)


def beta_information(rho: DensityMatrix, beta: float, a) -> float:
    """Skew information of the wyd family: the beta correlation of a with itself."""
    return beta_correlation(rho, beta, a, a)


def f_correlation(rho: DensityMatrix, f: MonotoneFunction, a, b) -> float:
    """Metric-adjusted correlation Re Tr(rho a b) - Re Tr(kernel(a) b).

    ``kernel`` is the modular correlation kernel of (rho, f); for the wyd
    family this agrees with :func:`beta_correlation`.
    """
    ma, mb = _observable(rho, a), _observable(rho, b)
    ka = modular_kernel_apply(rho, f, ma).matrix
    return float(np.trace(rho.matrix @ ma @ mb).real) - float(np.trace(ka @ mb).real)


def f_information(rho: DensityMatrix, f: MonotoneFunction, a) -> float:
    """Metric-adjusted skew information: the f-correlation of a with itself."""
    return f_correlation(rho, f, a, a)


def heisenberg_bound(rho: DensityMatrix, a, b) -> float:
    """|Tr(rho [a, b])|^2 / 4, computed in complex arithmetic.

    The trace of the commutator is kept complex and its modulus taken; no
    purely-imaginary assumption is baked in.
    """
    ma, mb = _observable(rho, a), _observable(rho, b)
    comm = np.trace(rho.matrix @ (ma @ mb - mb @ ma))
    return 0.25 * float(abs(comm)) ** 2


@dataclass(frozen=True)
class UncertaintyReport:
    """All scalars of one inequality evaluation plus self-check metadata.

    ``lhs`` is var_a * var_b - cov_ab^2, ``rhs`` is
    info_a * info_b - corr_ab^2, and ``gap = lhs - rhs`` is the quantity
    the main inequality asserts to be nonnegative. ``path_residuals``
    carries cross-route disagreements; ``flags`` names any tolerance
    violations instead of raising.
    """

    var_a: float
    var_b: float
    cov_ab: float
    info_a: float
    info_b: float
    corr_ab: float
    lhs: float
    rhs: float
    gap: float
    heisenberg_rhs: float
    path_residuals: tuple[float, ...]
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "var_a": self.var_a,
            "var_b": self.var_b,
            "cov_ab": self.cov_ab,
            "info_a": self.info_a,
            "info_b": self.info_b,
            "corr_ab": self.corr_ab,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "heisenberg_rhs": self.heisenberg_rhs,
            "residuals": list(self.path_residuals),
            "flags": list(self.flags),
        }


def _report_in_eigenbasis(
    lam: np.ndarray,
    at: np.ndarray,
    bt: np.ndarray,
    f: MonotoneFunction,
    tol: float,
) -> UncertaintyReport:
    # All traces against the state collapse to weighted entry sums once the
    # observables sit in its eigenbasis: Tr(rho X Y) = sum_ij lam_i X_ij Y_ji
    # and Tr((k o X) Y) = sum_ij k_ij X_ij Y_ji.
    ratios = lam[:, None] / lam[None, :]
    kernel = np.asarray(tilde_transform(f, ratios), dtype=float) * lam[None, :]

    exp_a = float(np.einsum("i,ii->", lam, at).real)
    exp_b = float(np.einsum("i,ii->", lam, bt).real)
    tr_rho_ab = complex(np.einsum("i,ij,ji->", lam, at, bt))
    tr_rho_ba = complex(np.einsum("i,ij,ji->", lam, bt, at))
    tr_rho_aa = float(np.einsum("i,ij,ji->", lam, at, at).real)
    tr_rho_bb = float(np.einsum("i,ij,ji->", lam, bt, bt).real)

    var_a = tr_rho_aa - exp_a * exp_a
    var_b = tr_rho_bb - exp_b * exp_b
    cov_ab = tr_rho_ab.real - exp_a * exp_b
    info_a = tr_rho_aa - float(np.einsum("ij,ij,ji->", kernel, at, at).real)
    info_b = tr_rho_bb - float(np.einsum("ij,ij,ji->", kernel, bt, bt).real)
    corr_ab = tr_rho_ab.real - float(np.einsum("ij,ij,ji->", kernel, at, bt).real)
    heis = 0.25 * float(abs(tr_rho_ab - tr_rho_ba)) ** 2

    lhs = var_a * var_b - cov_ab * cov_ab
    rhs = info_a * info_b - corr_ab * corr_ab
    gap = lhs - rhs

    scale = max(1.0, var_a * var_b)
    tol_eff = tol * scale
    slack = INVARIANT_SLACK * scale

    residuals: list[float] = []
    beta = wyd_parameter(f)
    if beta is not None:
        # independent route: unsymmetrized power sandwich, real part taken last
        w_beta = np.outer(np.power(lam, beta), np.power(lam, 1.0 - beta))
        corr_beta = tr_rho_ab.real - float(np.einsum("ij,ij,ji->", w_beta, at, bt).real)
        info_beta_a = tr_rho_aa - float(np.einsum("ij,ij,ji->", w_beta, at, at).real)
        info_beta_b = tr_rho_bb - float(np.einsum("ij,ij,ji->", w_beta, bt, bt).real)
        residuals.append(abs(corr_ab - corr_beta))
        residuals.append(abs(info_a - info_beta_a))
        residuals.append(abs(info_b - info_beta_b))

    flags: list[str] = []
    scalars = (var_a, var_b, cov_ab, info_a, info_b, corr_ab, lhs, rhs, gap, heis)
    if not all(np.isfinite(s) for s in scalars):
        flags.append("nonfinite_scalar")
    if gap < -tol_eff:
        flags.append("main_inequality_violation")
    if lhs - heis < -tol_eff:
        flags.append("commutator_bound_violation")
    if lhs < -slack:
        flags.append("negative_lhs")
    if info_a < -slack:
        flags.append("negative_info_a")
    if info_b < -slack:
        flags.append("negative_info_b")

    return UncertaintyReport(
        var_a=var_a,
        var_b=var_b,
        cov_ab=cov_ab,
        info_a=info_a,
        info_b=info_b,
        corr_ab=corr_ab,
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        heisenberg_rhs=heis,
        path_residuals=tuple(residuals),
        flags=tuple(flags),
    )


def evaluate_inequalities(
    rho: DensityMatrix,
    f: MonotoneFunction,
    a,
    b,
    tol: float = DEFAULT_TOL,
) -> UncertaintyReport:
    """Evaluate both uncertainty inequalities for one (state, f, a, b) instance.

    Checks, at effective tolerance tol * max(1, var_a * var_b):

    * the main inequality  var_a var_b - cov^2 >= info_a info_b - corr^2,
    * the commutator bound var_a var_b - cov^2 >= |Tr(rho [a, b])|^2 / 4,

    plus nonnegativity of the variances, informations, and the left-hand
    side. Violations are flagged on the report, never raised. For wyd
    entries the kernel-route quantities are cross-checked against the
    power-sandwich route and the disagreements recorded as residuals.
    """
    tol = validate_tol(tol)
    ma, mb = _observable(rho, a), _observable(rho, b)
    at = rho.to_eigenbasis(ma)
    bt = rho.to_eigenbasis(mb)
    return _report_in_eigenbasis(rho.eigenvalues, at, bt, f, tol)
