"""State-level covariance, skew information, and the coupled uncertainty checks.

All scalars are real numbers built from traces against a faithful density
matrix. :func:`eigenbasis_terms` takes one state or a stack of T and F
catalog entries at once: it rotates the observables into the eigenbasis
once and evaluates tilde on the eigenvalue ratios in one catalog call,
into one (T, F, n, n) array, and its kernels lam_j tilde, that the
stacked report and the G = H audit both read.

This module is the home of the direct route, traces on the original
matrices, and each of its quantities has one implementation: the moments
Tr(rho x) and Re Tr(rho x y) in :func:`_trace_moments` and the kernel
traces Re Tr((k o x) y) of such terms in :func:`_kernel_traces`. The
public per-instance functions run them on one state, validating each
observable once per call; the G = H audit runs them on a chunk. The two
routes differ only in how they take traces: :func:`_scalars` turns
either's traces into Var, Cov, the informations, the correlation, lhs,
rhs and the gap by one formula, which the report applies to its
eigenbasis entry sums and the audit, for G, to the direct traces.

The report computes the f-independent half (expectations, Var, Cov, lhs,
commutator term) once, and the rest over the (T, F) grid as weighted
entry sums and, for the wyd family, also along the power-sandwich route
Tr(rho^beta a rho^(1-beta) b); the disagreement of the kernel and
sandwich routes is surfaced as a residual, never hidden, and flagged
when it passes the tolerance.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, HermitianMatrix, _as_matrix, _hermitian_stack
from .monotone import MonotoneFunction, _wyd_beta, tilde_transform

__all__ = [
    "DEFAULT_TOL",
    "UncertaintyReport",
    "centered",
    "covariance",
    "eigenbasis_terms",
    "evaluate_inequalities",
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
    m = _as_matrix(a)
    if m.shape != rho.matrix.shape:
        raise ValueError(f"observable shape {m.shape} does not match state dim {rho.dim}")
    return HermitianMatrix(m).matrix


def _trace_moments(rho: DensityMatrix, a: np.ndarray, b: np.ndarray):
    """Tr(rho x) and Re Tr(rho x x) for x = a, b as (2, ...) rows, and Re Tr(rho a b).

    ``a`` and ``b`` are shaped like the state's matrix, or (T, n, n) stacks
    over one state or a stack of T. One product rho (a, b) serves every
    trace: (rho x) x of both observables in one batched matmul, then
    (rho a) b. Each trace is summed over its own matrix, so a stack gives
    each state's stack-of-one values bit for bit.
    """
    pair = np.array((a, b))
    r = rho.matrix @ pair
    return tuple(np.trace(x, axis1=-2, axis2=-1).real for x in (r, r @ pair, r[0] @ b))


def _covariances(moments) -> tuple:
    """var_a, var_b and cov_ab from the moments of :func:`_trace_moments`."""
    (exp_a, exp_b), (tr_aa, tr_bb), tr_ab = moments
    return tr_aa - exp_a * exp_a, tr_bb - exp_b * exp_b, tr_ab - exp_a * exp_b


def centered(rho: DensityMatrix, a) -> np.ndarray:
    """a - Tr(rho a) * identity."""
    m = _observable(rho, a)
    (exp, _), _, _ = _trace_moments(rho, m, m)
    return m - exp * np.eye(rho.dim)


def covariance(rho: DensityMatrix, a, b) -> float:
    """Symmetrized covariance Re Tr(rho a b) - Tr(rho a) Tr(rho b)."""
    moments = _trace_moments(rho, _observable(rho, a), _observable(rho, b))
    return float(_covariances(moments)[2])


def variance(rho: DensityMatrix, a) -> float:
    """Variance Re Tr(rho a a) - Tr(rho a)^2 of an observable in the state."""
    m = _observable(rho, a)
    return float(_covariances(_trace_moments(rho, m, m))[0])


def _correlation(rho: DensityMatrix, f: MonotoneFunction, ma: np.ndarray, mb: np.ndarray) -> float:
    """:func:`f_correlation` of observables that :func:`_observable` has already validated."""
    traces = _kernel_traces(eigenbasis_terms(rho, [f], ma, mb))
    return _scalars(_trace_moments(rho, ma, mb), traces)["corr_ab"].item()


def f_correlation(rho: DensityMatrix, f: MonotoneFunction, a, b) -> float:
    """Metric-adjusted correlation Re Tr(rho a b) - Re Tr(kernel(a) b).

    ``kernel`` is the modular correlation kernel of (rho, f); for the wyd
    family it equals Re Tr(rho a b) - Re Tr(rho^beta a rho^(1-beta) b), the
    power-sandwich route whose disagreement the report carries as residuals.
    The traces are :func:`_trace_moments` and :func:`_kernel_traces` on
    one state, the code the G = H audit runs on a chunk, so its G carries
    this value bit for bit.
    """
    return _correlation(rho, f, _observable(rho, a), _observable(rho, b))


def f_information(rho: DensityMatrix, f: MonotoneFunction, a) -> float:
    """Metric-adjusted skew information: the f-correlation of a with itself."""
    m = _observable(rho, a)
    return _correlation(rho, f, m, m)


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
        columns = _report_in_eigenbasis(terms, validate_tol(tol))
        ((flags,),) = _flag_names(columns["flags"], _FLAGS)
        return cls(
            **{name: columns[name].item() for name in _SCALARS},
            path_residuals=tuple(columns["residuals"][0][0].tolist()),
            flags=tuple(flags),
        )


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
    "route_disagreement",
)


@dataclass(frozen=True, eq=False)
class EigenbasisTerms:
    """What the stacked report and the G = H audit share for one state or a stack of T.

    ``a`` and ``b`` are the standard-basis observables as (T, n, n) stacks
    (T = 1 for one state), ``at`` and ``bt`` their entries u† a u and
    u† b u in each state's eigenbasis, ``tilde`` the (T, F, n, n) array
    of tilde(lam_i / lam_j), entry ``functions[k]`` at ``tilde[:, k]``, and
    ``kernels`` the modular kernels lam_j tilde(lam_i / lam_j) of the same
    shape.
    """

    rho: DensityMatrix
    functions: tuple[MonotoneFunction, ...]
    a: np.ndarray
    b: np.ndarray
    at: np.ndarray
    bt: np.ndarray
    tilde: np.ndarray
    kernels: np.ndarray


def eigenbasis_terms(
    rho: DensityMatrix, functions: Sequence[MonotoneFunction], a, b
) -> EigenbasisTerms:
    """Rotate ``a`` and ``b`` into the eigenbasis of ``rho`` once and evaluate tilde once.

    ``rho`` is one state or a stack and ``a``, ``b`` are shaped like its
    matrix (ValueError otherwise). Each function sees f only through tilde on
    the eigenvalue ratios lam_i / lam_j, so one catalog call of
    :func:`~skewcal.monotone.tilde_transform` for every entry of
    ``functions``, one (T, F, n, n) array, and the kernels built from it
    serve both :func:`_report_in_eigenbasis` and
    :func:`~skewcal.gns.audit_G_equals_H`.
    """
    n = rho.dim
    ma, mb = _as_matrix(a), _as_matrix(b)
    for x in (ma, mb):
        if x.shape != rho.matrix.shape:
            raise ValueError(
                f"observable shape {x.shape} does not match state shape {rho.matrix.shape}"
            )
    lam = rho.eigenvalues.reshape(-1, n)
    functions = tuple(functions)
    tilde = tilde_transform(functions, lam[:, :, None] / lam[:, None, :])
    return EigenbasisTerms(
        rho=rho,
        functions=functions,
        a=ma.reshape(-1, n, n),
        b=mb.reshape(-1, n, n),
        at=rho.to_eigenbasis(ma).reshape(-1, n, n),
        bt=rho.to_eigenbasis(mb).reshape(-1, n, n),
        tilde=tilde,
        kernels=tilde * lam[:, None, None, :],
    )


def _kernel_traces(terms: EigenbasisTerms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re Tr((k o a) a), Re Tr((k o b) b) and Re Tr((k o a) b) as (T, F) arrays.

    k o x is the kernel of each (state, entry) of ``terms`` times the
    eigenbasis entries of x, rotated back to the standard basis: the
    direct route, Re Tr(rho x y) less these traces, of the informations
    and the correlation. The FT products of each observable go back as
    one (T, F, n, n) batch, a's and then b's, each validated finite and
    Hermitian (a failure raises ValueError), and each trace is an entry
    sum against the unrotated observable, transposed once. Each value is
    that of its state and entry alone.
    """
    kernels = terms.kernels
    u = terms.rho.eigenvectors[..., None, :, :]
    a_t, b_t = (np.ascontiguousarray(y.swapaxes(-1, -2)) for y in (terms.a, terms.b))
    ka = _kernel_apply_stack(u, kernels * terms.at[:, None])
    k_aa, k_ab = _product_traces(ka, a_t), _product_traces(ka, b_t)
    # one observable's batch at a time: k o a is freed before k o b is formed
    del ka
    kb = _kernel_apply_stack(u, kernels * terms.bt[:, None])
    return k_aa, _product_traces(kb, b_t), k_ab


def _kernel_apply_stack(u: np.ndarray, mapped: np.ndarray) -> np.ndarray:
    """Rotate a stack of kernel products k o x back: u (k o x) u† per matrix.

    ``u`` is (..., 1, n, n), each state's eigenvectors broadcast over its
    products ``mapped[..., s, :, :]``, one observable's (T, F, n, n) batch.
    Every result is validated finite and Hermitian (a failure raises the
    StackRejection a single HermitianMatrix would); returns the Hermitian
    parts, shaped like ``mapped``. One batched matmul keeps each matrix's
    bits those of a stack of one.
    """
    back = u @ mapped @ u.conj().swapaxes(-1, -2)
    n = back.shape[-1]
    return _hermitian_stack(back.reshape(-1, n, n))[0].reshape(back.shape)


def _product_traces(kx: np.ndarray, y_t: np.ndarray) -> np.ndarray:
    """Re Tr(kx[t, f] y[t]) for a (T, F, n, n) stack ``kx`` and a (T, n, n) stack ``y``.

    ``y_t`` is the contiguous transpose of ``y``, taken once by the caller
    for all the traces against it, and each trace is the entry sum
    sum_ij kx_ij y_ji: O(n^2) per trace, over one trace's entries whatever
    T and F are.
    """
    return np.einsum("tfij,tij->tf", kx, y_t).real


def _scalars(moments, kernel_traces) -> dict:
    """var_a, var_b, cov_ab, info_a, info_b, corr_ab, lhs, rhs and gap from traces.

    ``moments`` are (Tr rho a, Tr rho b), (Re Tr rho a a, Re Tr rho b b) and
    Re Tr rho a b, as :func:`_trace_moments` returns them, and
    ``kernel_traces`` the Re Tr((k o x) y) of :func:`_kernel_traces`, with
    one more (entry) axis. Both routes take their traces their own way and
    share this one formula; var_a, var_b, cov_ab and lhs come out shaped
    like the moments, the rest with the entry axis. Squares are x * x: on
    numpy scalars x ** 2 is libm's pow, which can differ in the last bit.
    """
    _, (tr_aa, tr_bb), tr_ab = moments
    k_aa, k_bb, k_ab = kernel_traces
    var_a, var_b, cov_ab = _covariances(moments)
    lhs = var_a * var_b - cov_ab * cov_ab
    info_a = tr_aa[..., None] - k_aa
    info_b = tr_bb[..., None] - k_bb
    corr_ab = tr_ab[..., None] - k_ab
    rhs = info_a * info_b - corr_ab * corr_ab
    gap = lhs[..., None] - rhs
    return dict(zip(_SCALARS, (var_a, var_b, cov_ab, info_a, info_b, corr_ab, lhs, rhs, gap)))


def _entry_sums(weights: np.ndarray, products: np.ndarray) -> np.ndarray:
    """sum_ij weights[t, f, i, j] products[t, i, j] per (t, f): one instance's entries each."""
    return np.einsum("tfij,tij->tf", weights, products)


def _report_in_eigenbasis(terms: EigenbasisTerms, tol: float) -> dict:
    """Report columns over the (T, F) grid of the states and catalog entries of ``terms``.

    The f-independent half is computed once per state, the rest in one pass
    over every entry. Each name in _SCALARS maps to a (T, F) array (T = 1
    for one state; the f-independent ones repeat along F), ``residuals`` to
    a tuple of F arrays, (T, 3) for a wyd entry and (T, 0) otherwise, and
    ``flags`` to a (T, F, len(_FLAGS)) boolean mask; ``route_disagreement``
    marks a residual above tol * max(1, var_a, var_b). A wyd entry is one
    that evaluates ``functools.partial(wyd_f, beta)``, whatever its name,
    and its sandwich takes that beta. Every reduction runs
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

    heis = 0.25 * np.abs(tr_rho_ab - tr_rho_ba) ** 2

    # the audit's formula on these traces; the kernel traces are the kernel
    # lam_j tilde(lam_i / lam_j) of every entry summed against each product
    moments = ((exp_a, exp_b), (tr_rho_aa, tr_rho_bb), tr_rho_ab.real)
    kernel_traces = [_entry_sums(terms.kernels, p) for p in (p_aa, p_bb, p_ab.real)]
    values = {**_scalars(moments, kernel_traces), "heisenberg_rhs": heis}
    var_a, var_b, lhs = values["var_a"], values["var_b"], values["lhs"]
    info_a, info_b, corr_ab, gap = (values[k] for k in ("info_a", "info_b", "corr_ab", "gap"))

    # fmax, like max(1.0, x), keeps the scale at 1 when the product is NaN
    scale = np.fmax(1.0, var_a * var_b)
    tol_eff, slack = (tol * scale)[:, None], (INVARIANT_SLACK * scale)[:, None]
    tr_aa, tr_bb, tr_ab = (x[:, None] for x in (tr_rho_aa, tr_rho_bb, tr_rho_ab.real))

    # independent route for the wyd entries: unsymmetrized power sandwich,
    # real part taken last
    betas = [_wyd_beta(f) for f in terms.functions]
    k_wyd = [k for k, beta in enumerate(betas) if beta is not None]
    # lam^beta and lam^(1 - beta) as (T, wyd entries, n) arrays, one power
    # call per beta (numpy's scalar-exponent paths fix their bits), and the
    # sandwich weights lam_i^beta lam_j^(1 - beta) in one product
    powers = np.empty((2, len(lam), len(k_wyd), lam.shape[1]))
    for j, k in enumerate(k_wyd):
        powers[0, :, j] = np.power(lam, betas[k])
        powers[1, :, j] = np.power(lam, 1.0 - betas[k])
    w_beta = powers[0][..., :, None] * powers[1][..., None, :]
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
    # a route disagreement is judged on the scale of the quantities compared
    route_bound = tol * np.fmax(1.0, np.fmax(var_a, var_b))
    disagree = np.zeros(gap.shape, bool)
    disagree[:, k_wyd] = sandwich.max(axis=0) > route_bound[:, None]

    # the per-state columns repeat along the entry axis
    scalars = _grid([values[name].reshape(len(lam), -1) for name in _SCALARS], gap.shape, float)
    flags = (
        ~np.isfinite(scalars).all(axis=0),
        gap < -tol_eff,
        (lhs - heis)[:, None] < -tol_eff,
        lhs[:, None] < -slack,
        info_a < -slack,
        info_b < -slack,
        disagree,
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
    power-sandwich route and the disagreements recorded as residuals; one
    above tol * max(1, var_a, var_b) flags ``route_disagreement``.
    """
    # the sweep's stacked evaluation, on a stack of one state and one entry
    terms = eigenbasis_terms(rho, [f], _observable(rho, a), _observable(rho, b))
    return UncertaintyReport._from_terms(terms, tol)
