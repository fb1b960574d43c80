"""State-level covariance, skew information, and the coupled uncertainty checks.

All scalars are real numbers built from traces against a faithful density
matrix. The module-level functions compute them by direct traces on the
original matrices, the information quantities through the modular kernel
of any catalog function. The stacked report takes one state or a stack
and every catalog entry at once: it rotates the observables into the
eigenbasis once, computes the f-independent half (expectations, Var, Cov,
lhs, commutator term) once, and per entry recomputes the rest as weighted
entry sums and, for the wyd family, also along the power-sandwich route
Tr(rho^beta a rho^(1-beta) b); the disagreement of the kernel and
sandwich routes is surfaced as a residual, never hidden.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, as_matrix, modular_kernel_apply
from .monotone import MonotoneFunction, tilde_transform, wyd_parameter

__all__ = [
    "DEFAULT_TOL",
    "UncertaintyReport",
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
    pass every instance silently, and a bool (Python or numpy) would read
    as 1.0. Numeric strings are accepted.
    """
    try:
        value = math.nan if isinstance(tol, (bool, np.bool_)) else float(tol)
    except (TypeError, ValueError):
        value = math.nan
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    return value


def _observable(rho: DensityMatrix, a) -> np.ndarray:
    """``a`` as an array matching the single state ``rho``; a stacked state raises ValueError."""
    if rho.matrix.ndim != 2:
        raise ValueError(f"expected a single state, got a stack of shape {rho.matrix.shape}")
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


def f_correlation(rho: DensityMatrix, f: MonotoneFunction, a, b) -> float:
    """Metric-adjusted correlation Re Tr(rho a b) - Re Tr(kernel(a) b).

    ``kernel`` is the modular correlation kernel of (rho, f); for the wyd
    family it equals Re Tr(rho a b) - Re Tr(rho^beta a rho^(1-beta) b), the
    power-sandwich route whose disagreement the report carries as residuals.
    """
    ma, mb = _observable(rho, a), _observable(rho, b)
    ka = modular_kernel_apply(rho, f, ma)
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
            **{name: getattr(self, name) for name in _SCALARS},
            "residuals": list(self.path_residuals),
            "flags": list(self.flags),
        }


# Scalar columns of a report, in record order.
_SCALARS = (
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
)

# Flag names, in the order they are reported on a record.
_FLAGS = (
    "nonfinite_scalar",
    "main_inequality_violation",
    "commutator_bound_violation",
    "negative_lhs",
    "negative_info_a",
    "negative_info_b",
)


def _report_in_eigenbasis(
    rho: DensityMatrix, functions: Sequence[MonotoneFunction], a, b, tol: float
) -> list[dict[str, np.ndarray]]:
    """Report columns per entry of ``functions`` for one state or a stack of T states.

    ``a`` and ``b`` are standard-basis observables shaped like ``rho.matrix``,
    rotated once; the f-independent half is computed once. Each dict holds
    one length-T array per name in _SCALARS (T = 1 for one state),
    ``residuals`` of shape (T, 3) for wyd entries and (T, 0) otherwise, and
    ``flags``, a (T, len(_FLAGS)) boolean mask. Every reduction runs over the
    entries of one instance only, so a trial's values do not depend on which
    other trials share its stack.
    """
    n = rho.dim
    lam = rho.eigenvalues.reshape(-1, n)
    at, bt = (rho.to_eigenbasis(x).reshape(-1, n, n) for x in (a, b))
    # All traces against the state collapse to weighted entry sums once the
    # observables sit in its eigenbasis: Tr(rho X Y) = sum_ij lam_i X_ij Y_ji
    # and Tr((k o X) Y) = sum_ij k_ij X_ij Y_ji.
    ratios = lam[:, :, None] / lam[:, None, :]
    # entrywise products X_ij Y_ji; the products of (b, a) are those of (a, b) transposed
    p_ab = at * bt.swapaxes(1, 2)
    p_aa, p_bb = ((x * x.swapaxes(1, 2)).real for x in (at, bt))

    exp_a, exp_b = (np.einsum("ti,tii->t", lam, x).real for x in (at, bt))
    tr_rho_ab = np.einsum("ti,tij->t", lam, p_ab)
    tr_rho_ba = np.einsum("tj,tij->t", lam, p_ab)
    tr_rho_aa, tr_rho_bb = (np.einsum("ti,tij->t", lam, p) for p in (p_aa, p_bb))

    var_a = tr_rho_aa - exp_a * exp_a
    var_b = tr_rho_bb - exp_b * exp_b
    cov_ab = tr_rho_ab.real - exp_a * exp_b
    heis = 0.25 * np.abs(tr_rho_ab - tr_rho_ba) ** 2
    lhs = var_a * var_b - cov_ab * cov_ab

    # fmax, like max(1.0, x), keeps the scale at 1 when the product is NaN
    scale = np.fmax(1.0, var_a * var_b)
    tol_eff, slack = tol * scale, INVARIANT_SLACK * scale

    reports = []
    for f in functions:
        kernel = np.asarray(tilde_transform(f, ratios), dtype=float) * lam[:, None, :]
        info_a = tr_rho_aa - np.einsum("tij,tij->t", kernel, p_aa)
        info_b = tr_rho_bb - np.einsum("tij,tij->t", kernel, p_bb)
        corr_ab = tr_rho_ab.real - np.einsum("tij,tij->t", kernel, p_ab.real)
        rhs = info_a * info_b - corr_ab * corr_ab
        gap = lhs - rhs

        beta = wyd_parameter(f)
        if beta is None:
            residuals = np.empty((lam.shape[0], 0))
        else:
            # independent route: unsymmetrized power sandwich, real part taken last
            w_beta = np.power(lam, beta)[:, :, None] * np.power(lam, 1.0 - beta)[:, None, :]
            corr_beta = tr_rho_ab.real - np.einsum("tij,tij->t", w_beta, p_ab.real)
            info_beta_a = tr_rho_aa - np.einsum("tij,tij->t", w_beta, p_aa)
            info_beta_b = tr_rho_bb - np.einsum("tij,tij->t", w_beta, p_bb)
            residuals = np.abs(
                np.array((corr_ab - corr_beta, info_a - info_beta_a, info_b - info_beta_b)).T
            )

        # np.array rather than np.stack: the same result with less per-call overhead
        scalars = np.array((var_a, var_b, cov_ab, info_a, info_b, corr_ab, lhs, rhs, gap, heis))
        flags = np.array(
            (
                ~np.isfinite(scalars).all(axis=0),
                gap < -tol_eff,
                lhs - heis < -tol_eff,
                lhs < -slack,
                info_a < -slack,
                info_b < -slack,
            )
        ).T
        reports.append({**dict(zip(_SCALARS, scalars)), "residuals": residuals, "flags": flags})
    return reports


def _report_rows(columns: dict[str, np.ndarray]) -> list[dict]:
    """One ``UncertaintyReport.to_dict()``-shaped dict per instance of a column report."""
    scalars = np.array([columns[name] for name in _SCALARS]).T.tolist()
    residuals = columns["residuals"].tolist()
    masks = columns["flags"]
    if masks.any():
        flags = [[name for name, hit in zip(_FLAGS, row) if hit] for row in masks.tolist()]
    else:
        flags = [[] for _ in scalars]
    return [
        {**dict(zip(_SCALARS, row)), "residuals": res, "flags": names}
        for row, res, names in zip(scalars, residuals, flags)
    ]


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
    # the sweep's stacked evaluation, on a stack of one
    (columns,) = _report_in_eigenbasis(rho, [f], _observable(rho, a), _observable(rho, b), tol)
    (row,) = _report_rows(columns)
    path_residuals, flags = tuple(row.pop("residuals")), tuple(row.pop("flags"))
    return UncertaintyReport(**row, path_residuals=path_residuals, flags=flags)
