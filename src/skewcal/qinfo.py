"""State-level covariance, skew information, and the coupled uncertainty checks.

All scalars are real numbers built from traces against a faithful density
matrix. The module-level functions compute them by direct traces on the
original matrices, the information quantities through the modular kernel
of any catalog function; each validates an observable once per call.
:func:`eigenbasis_terms` takes one state or a stack of T and F catalog
entries at once: it rotates the observables into the eigenbasis once and
evaluates tilde on the eigenvalue ratios once per entry, into one
(T, F, n, n) array that the stacked report and the G = H audit both read.
The report computes the f-independent half (expectations, Var, Cov, lhs,
commutator term) once, and the rest over the (T, F) grid as weighted
entry sums and, for the wyd family, also along the power-sandwich route
Tr(rho^beta a rho^(1-beta) b); the disagreement of the kernel and
sandwich routes is surfaced as a residual, never hidden.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    HermitianMatrix,
    _product_traces,
    as_matrix,
    modular_kernel_apply,
)
from .monotone import MonotoneFunction, tilde_transform, wyd_parameter

__all__ = [
    "DEFAULT_TOL",
    "UncertaintyReport",
    "centered",
    "covariance",
    "eigenbasis_terms",
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
    """``a`` as a Hermitian array matching the single state ``rho``.

    The HermitianMatrix rule applies: (a + a†)/2 is kept, which is ``a``
    itself when ``a`` is exactly Hermitian, and a deviation beyond the
    repair threshold raises ValueError, as do a stacked state and a shape
    mismatch.
    """
    if rho.matrix.ndim != 2:
        raise ValueError(f"expected a single state, got a stack of shape {rho.matrix.shape}")
    m = as_matrix(a)
    if m.shape != rho.matrix.shape:
        raise ValueError(f"observable shape {m.shape} does not match state dim {rho.dim}")
    return HermitianMatrix(m).matrix


def _expectation(rho: DensityMatrix, m: np.ndarray) -> float:
    return float(np.trace(rho.matrix @ m).real)


def expectation(rho: DensityMatrix, a) -> float:
    """Tr(rho a) for a Hermitian observable."""
    return _expectation(rho, _observable(rho, a))


def centered(rho: DensityMatrix, a) -> np.ndarray:
    """a - Tr(rho a) * identity."""
    m = _observable(rho, a)
    return m - _expectation(rho, m) * np.eye(rho.dim)


def _covariance(rho: DensityMatrix, ma: np.ndarray, mb: np.ndarray) -> float:
    tr_ab = float(np.trace(rho.matrix @ ma @ mb).real)
    return tr_ab - _expectation(rho, ma) * _expectation(rho, mb)


def covariance(rho: DensityMatrix, a, b) -> float:
    """Symmetrized covariance Re Tr(rho a b) - Tr(rho a) Tr(rho b)."""
    return _covariance(rho, _observable(rho, a), _observable(rho, b))


def variance(rho: DensityMatrix, a) -> float:
    """Variance of an observable in the state; covariance of a with itself."""
    m = _observable(rho, a)
    return _covariance(rho, m, m)


def _f_correlation(rho: DensityMatrix, f: MonotoneFunction, ma: np.ndarray, mb: np.ndarray):
    # Tr(kernel(a) b) as an entry sum, the G = H audit's expression on a stack of one
    ka = modular_kernel_apply(rho, f, ma)
    k_trace = _product_traces(ka[None, None], mb[None])[0, 0]
    return float(np.trace(rho.matrix @ ma @ mb).real) - float(k_trace)


def f_correlation(rho: DensityMatrix, f: MonotoneFunction, a, b) -> float:
    """Metric-adjusted correlation Re Tr(rho a b) - Re Tr(kernel(a) b).

    ``kernel`` is the modular correlation kernel of (rho, f); for the wyd
    family it equals Re Tr(rho a b) - Re Tr(rho^beta a rho^(1-beta) b), the
    power-sandwich route whose disagreement the report carries as residuals.
    """
    return _f_correlation(rho, f, _observable(rho, a), _observable(rho, b))


def f_information(rho: DensityMatrix, f: MonotoneFunction, a) -> float:
    """Metric-adjusted skew information: the f-correlation of a with itself."""
    m = _observable(rho, a)
    return _f_correlation(rho, f, m, m)


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

    @classmethod
    def _from_terms(cls, terms: EigenbasisTerms, tol) -> UncertaintyReport:
        """The report of the one state and the one catalog entry of ``terms``."""
        ((row,),) = _report_rows(_report_in_eigenbasis(terms, validate_tol(tol)))
        path_residuals, flags = tuple(row.pop("residuals")), tuple(row.pop("flags"))
        return cls(**row, path_residuals=path_residuals, flags=flags)


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


@dataclass(frozen=True, eq=False)
class EigenbasisTerms:
    """What the stacked report and the G = H audit share for one state or a stack of T.

    ``a`` and ``b`` are the standard-basis observables as (T, n, n) stacks
    (T = 1 for one state), ``at`` and ``bt`` their entries u† a u and
    u† b u in each state's eigenbasis, and ``tilde`` the (T, F, n, n) array
    of tilde(lam_i / lam_j), entry ``functions[k]`` at ``tilde[:, k]``.
    """

    rho: DensityMatrix
    functions: tuple[MonotoneFunction, ...]
    a: np.ndarray
    b: np.ndarray
    at: np.ndarray
    bt: np.ndarray
    tilde: np.ndarray


def eigenbasis_terms(
    rho: DensityMatrix, functions: Sequence[MonotoneFunction], a, b
) -> EigenbasisTerms:
    """Rotate ``a`` and ``b`` into the eigenbasis of ``rho`` once and evaluate tilde once per entry.

    ``rho`` is one state or a stack and ``a``, ``b`` are shaped like its
    matrix (ValueError otherwise). Each function sees f only through tilde on
    the eigenvalue ratios lam_i / lam_j, so one pass per entry of
    ``functions``, written into its slice of one (T, F, n, n) array, serves
    both :func:`_report_in_eigenbasis` and :func:`~skewcal.gns.audit_G_equals_H`.
    """
    n = rho.dim
    ma, mb = as_matrix(a), as_matrix(b)
    for x in (ma, mb):
        if x.shape != rho.matrix.shape:
            raise ValueError(
                f"observable shape {x.shape} does not match state shape {rho.matrix.shape}"
            )
    lam = rho.eigenvalues.reshape(-1, n)
    ratios = lam[:, :, None] / lam[:, None, :]
    functions = tuple(functions)
    tilde = np.empty((len(lam), len(functions), n, n))
    for k, f in enumerate(functions):
        tilde[:, k] = tilde_transform(f, ratios)
    return EigenbasisTerms(
        rho=rho,
        functions=functions,
        a=ma.reshape(-1, n, n),
        b=mb.reshape(-1, n, n),
        at=rho.to_eigenbasis(ma).reshape(-1, n, n),
        bt=rho.to_eigenbasis(mb).reshape(-1, n, n),
        tilde=tilde,
    )


def _entry_sums(weights: np.ndarray, products: np.ndarray) -> np.ndarray:
    """sum_ij weights[t, f, i, j] products[t, i, j] per (t, f): one instance's entries each."""
    return np.einsum("tfij,tij->tf", weights, products)


def _report_in_eigenbasis(terms: EigenbasisTerms, tol: float) -> dict:
    """Report columns over the (T, F) grid of the states and catalog entries of ``terms``.

    The f-independent half is computed once per state, the rest in one pass
    over every entry. Each name in _SCALARS maps to a (T, F) array (T = 1
    for one state; the f-independent ones repeat along F), ``residuals`` to
    a tuple of F arrays, (T, 3) for a wyd entry and (T, 0) otherwise, and
    ``flags`` to a (T, F, len(_FLAGS)) boolean mask. Every reduction runs
    over the entries of one (instance, entry) only, so a value does not
    depend on which other trials or entries share the call.
    """
    lam = terms.rho.eigenvalues.reshape(-1, terms.rho.dim)
    at, bt = terms.at, terms.bt
    # All traces against the state collapse to weighted entry sums once the
    # observables sit in its eigenbasis: Tr(rho X Y) = sum_ij lam_i X_ij Y_ji
    # and Tr((k o X) Y) = sum_ij k_ij X_ij Y_ji.
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
    tol_eff, slack = (tol * scale)[:, None], (INVARIANT_SLACK * scale)[:, None]

    # the kernel lam_j tilde(lam_i / lam_j) of every entry
    kernels = terms.tilde * lam[:, None, None, :]
    tr_aa, tr_bb, tr_ab = tr_rho_aa[:, None], tr_rho_bb[:, None], tr_rho_ab.real[:, None]
    info_a = tr_aa - _entry_sums(kernels, p_aa)
    info_b = tr_bb - _entry_sums(kernels, p_bb)
    corr_ab = tr_ab - _entry_sums(kernels, p_ab.real)
    rhs = info_a * info_b - corr_ab * corr_ab
    gap = lhs[:, None] - rhs

    # independent route for the wyd entries: unsymmetrized power sandwich,
    # real part taken last
    betas = [wyd_parameter(f) for f in terms.functions]
    k_wyd = [k for k, beta in enumerate(betas) if beta is not None]
    w_beta = np.empty((len(lam), len(k_wyd)) + p_aa.shape[1:])
    for j, k in enumerate(k_wyd):
        beta = betas[k]
        w_beta[:, j] = np.power(lam, beta)[:, :, None] * np.power(lam, 1.0 - beta)[:, None, :]
    sandwich = np.abs(
        np.array(
            (
                corr_ab[:, k_wyd] - (tr_ab - _entry_sums(w_beta, p_ab.real)),
                info_a[:, k_wyd] - (tr_aa - _entry_sums(w_beta, p_aa)),
                info_b[:, k_wyd] - (tr_bb - _entry_sums(w_beta, p_bb)),
            )
        )
    )
    residuals = [np.empty((len(lam), 0))] * len(terms.functions)
    for j, k in enumerate(k_wyd):
        residuals[k] = sandwich[:, :, j].T

    columns = (var_a[:, None], var_b[:, None], cov_ab[:, None], info_a, info_b, corr_ab)
    scalars = _grid((*columns, lhs[:, None], rhs, gap, heis[:, None]), gap.shape, float)
    flags = (
        ~np.isfinite(scalars).all(axis=0),
        gap < -tol_eff,
        (lhs - heis)[:, None] < -tol_eff,
        lhs[:, None] < -slack,
        info_a < -slack,
        info_b < -slack,
    )
    return {
        **dict(zip(_SCALARS, scalars)),
        "residuals": tuple(residuals),
        "flags": _grid(flags, gap.shape, bool).transpose(1, 2, 0),
    }


def _grid(parts, shape: tuple[int, ...], dtype) -> np.ndarray:
    """One (len(parts), *shape) array whose row k is ``parts[k]`` broadcast to ``shape``."""
    out = np.empty((len(parts),) + shape, dtype)
    for row, part in zip(out, parts):
        row[...] = part
    return out


def _flag_names(masks: np.ndarray, names: tuple[str, ...]) -> list[list[list[str]]]:
    """The names set in a (T, F, len(names)) mask, as one list per (entry, instance), [f][t]."""
    t, f = masks.shape[:2]
    if not masks.any():
        return [[[] for _ in range(t)] for _ in range(f)]
    return [
        [[name for name, hit in zip(names, row) if hit] for row in entry]
        for entry in masks.swapaxes(0, 1).tolist()
    ]


def _report_rows(columns: dict) -> list[list[dict]]:
    """One ``UncertaintyReport.to_dict()``-shaped dict per (entry, instance), as [f][t] lists."""
    scalars = np.array([columns[name] for name in _SCALARS]).transpose(2, 1, 0).tolist()
    flags = _flag_names(columns["flags"], _FLAGS)
    return [
        [
            {**dict(zip(_SCALARS, row)), "residuals": res, "flags": names}
            for row, res, names in zip(rows, residuals.tolist(), entry_flags)
        ]
        for rows, residuals, entry_flags in zip(scalars, columns["residuals"], flags)
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
    # the sweep's stacked evaluation, on a stack of one state and one entry
    terms = eigenbasis_terms(rho, [f], _observable(rho, a), _observable(rho, b))
    return UncertaintyReport._from_terms(terms, tol)
