"""State-level covariance, skew information, and the coupled uncertainty checks.

All scalars are real numbers built from traces against a faithful density
matrix. :func:`eigenbasis_terms` takes one state or a stack of T and F
catalog entries at once: it rotates the observables, stacked as one pair,
into the eigenbasis in one call and evaluates tilde on the eigenvalue
ratios in one catalog call, into one (T, F, n, n) array, and its kernels
lam_j tilde, that the stacked report and the G = H audit both read.

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
Tr(rho^beta a rho^(1-beta) b), :func:`_scalars` of entry sums against the
weights lam_i^beta lam_j^(1-beta) in place of the kernels; the
disagreement of the kernel and sandwich routes is surfaced as a residual,
never hidden, and flagged when it passes the tolerance.
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


def _trace_moments(rho: DensityMatrix, pair: np.ndarray):
    """Tr(rho x) and Re Tr(rho x x) for x = a, b as (2, ...) rows, and Re Tr(rho a b).

    ``pair`` holds a and b as one (2, ...) array, each half shaped like the
    state's matrix or a (T, n, n) stack over one state or a stack of T; it
    is read as it is, with no stacked copy. One product rho (a, b) serves
    every trace: (rho x) x of both observables in one batched matmul, then
    (rho a) b. Each trace is summed over its own matrix, so a stack gives
    each state's stack-of-one values bit for bit.
    """
    r = rho.matrix @ pair
    return tuple(np.trace(x, axis1=-2, axis2=-1).real for x in (r, r @ pair, r[0] @ pair[1]))


def _covariances(moments) -> tuple:
    """var_a, var_b and cov_ab from the moments of :func:`_trace_moments`."""
    (exp_a, exp_b), (tr_aa, tr_bb), tr_ab = moments
    return tr_aa - exp_a * exp_a, tr_bb - exp_b * exp_b, tr_ab - exp_a * exp_b


def centered(rho: DensityMatrix, a) -> np.ndarray:
    """a - Tr(rho a) * identity."""
    m = _observable(rho, a)
    (exp, _), _, _ = _trace_moments(rho, np.array((m, m)))
    return m - exp * np.eye(rho.dim)


def covariance(rho: DensityMatrix, a, b) -> float:
    """Symmetrized covariance Re Tr(rho a b) - Tr(rho a) Tr(rho b)."""
    moments = _trace_moments(rho, np.array((_observable(rho, a), _observable(rho, b))))
    return float(_covariances(moments)[2])


def variance(rho: DensityMatrix, a) -> float:
    """Variance Re Tr(rho a a) - Tr(rho a)^2 of an observable in the state."""
    m = _observable(rho, a)
    return float(_covariances(_trace_moments(rho, np.array((m, m))))[0])


def _correlation(rho: DensityMatrix, f: MonotoneFunction, ma: np.ndarray, mb: np.ndarray) -> float:
    """:func:`f_correlation` of validated observables: k_ab of a's back-rotated products alone."""
    terms = eigenbasis_terms(rho, [f], ma, mb)
    (k_ab,) = _kernel_sums(terms, terms.at, (np.ascontiguousarray(terms.b.swapaxes(-1, -2)),))
    return (_trace_moments(rho, terms.pair)[2][..., None] - k_ab).item()


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

    ``pair`` holds the standard-basis observables a and b as one
    (2, T, n, n) array (T = 1 for one state) and ``pair_t`` their entries
    u† a u and u† b u in each state's eigenbasis; ``a``, ``b``, ``at`` and
    ``bt`` are views of their halves. ``tilde`` is the (T, F, n, n) array of
    tilde(lam_i / lam_j), entry ``functions[k]`` at ``tilde[:, k]``, and
    ``kernels`` the modular kernels lam_j tilde(lam_i / lam_j).
    """

    rho: DensityMatrix
    functions: tuple[MonotoneFunction, ...]
    pair: np.ndarray
    pair_t: np.ndarray
    tilde: np.ndarray
    kernels: np.ndarray

    a = property(lambda self: self.pair[0])
    b = property(lambda self: self.pair[1])
    at = property(lambda self: self.pair_t[0])
    bt = property(lambda self: self.pair_t[1])


def eigenbasis_terms(
    rho: DensityMatrix, functions: Sequence[MonotoneFunction], a, b
) -> EigenbasisTerms:
    """Rotate ``a`` and ``b`` into the eigenbasis of ``rho`` once and evaluate tilde once.

    ``rho`` is one state or a stack and ``a``, ``b`` are shaped like its
    matrix (ValueError otherwise); the terms hold them copied into one pair.
    Each function sees f only through tilde on the eigenvalue ratios
    lam_i / lam_j, so one catalog call of
    :func:`~skewcal.monotone.tilde_transform` for every entry of
    ``functions``, one (T, F, n, n) array, and the kernels built from it
    serve both :func:`_report_in_eigenbasis` and
    :func:`~skewcal.gns.audit_G_equals_H`.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if not ma.shape == mb.shape == rho.matrix.shape:
        raise ValueError(
            f"observable shapes {ma.shape}, {mb.shape} do not match state shape {rho.matrix.shape}"
        )
    return _pair_terms(rho, functions, np.array((ma, mb)))


def _pair_terms(rho: DensityMatrix, functions, pair: np.ndarray) -> EigenbasisTerms:
    """:func:`eigenbasis_terms` of a (2, *rho.matrix.shape) ``pair``, uncopied, rotated in one call.

    ``to_eigenbasis`` is a batched matmul: each half keeps its own rotation's bits.
    """
    n = rho.dim
    lam = rho.eigenvalues.reshape(-1, n)
    functions = tuple(functions)
    tilde = tilde_transform(functions, lam[:, :, None] / lam[:, None, :])
    return EigenbasisTerms(
        rho=rho,
        functions=functions,
        pair=pair.reshape(2, -1, n, n),
        pair_t=rho.to_eigenbasis(pair).reshape(2, -1, n, n),
        tilde=tilde,
        kernels=tilde * lam[:, None, None, :],
    )


def _kernel_traces(terms: EigenbasisTerms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re Tr((k o a) a), Re Tr((k o b) b) and Re Tr((k o a) b) as (T, F) arrays.

    k o x is the kernel of each (state, entry) times the eigenbasis entries
    of x, rotated back: the direct route of the informations and the
    correlation is Re Tr(rho x y) less these traces. The FT products of
    each observable go back as one (T, F, n, n) batch, a's and then b's,
    validated finite and Hermitian (a failure raises ValueError); each
    Tr(kx y) is the :func:`_entry_sums` of kx against the transpose of the
    unrotated y. Each value is that of its state and entry alone.
    """
    a_t, b_t = np.ascontiguousarray(terms.pair.swapaxes(-1, -2))
    # one observable's batch at a time: k o a is freed before k o b is formed
    k_aa, k_ab = _kernel_sums(terms, terms.at, (a_t, b_t))
    return (k_aa, *_kernel_sums(terms, terms.bt, (b_t,)), k_ab)


def _kernel_sums(terms: EigenbasisTerms, xt: np.ndarray, transposes) -> list[np.ndarray]:
    """Re Tr((k o x) y) as (T, F) per contiguous transpose y_t in ``transposes``, xt = u† x u.

    The kernel products k o x of every (state, entry), one observable's
    (T, F, n, n) batch, are rotated back, u (k o x) u† with each state's
    eigenvectors, in one batched matmul, so each matrix keeps the bits of a
    stack of one. Every result is validated finite and Hermitian (a failure
    raises the StackRejection a single HermitianMatrix would), and each
    trace is the :func:`_entry_sums` of its Hermitian part against y_t.
    """
    u = terms.rho.eigenvectors[..., None, :, :]
    back = u @ (terms.kernels * xt[:, None]) @ u.conj().swapaxes(-1, -2)
    n = back.shape[-1]
    kx = _hermitian_stack(back.reshape(-1, n, n))[0].reshape(back.shape)
    return [_entry_sums(kx, y_t).real for y_t in transposes]


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
    """sum_ij weights[t, f, i, j] products[t, i, j] per (t, f): one instance's entries each.

    O(n^2) per (t, f), over that instance's entries whatever T and F are.
    With ``products`` the contiguous transpose y_t of a (T, n, n) stack y,
    it is Tr(weights[t, f] y[t]), the direct route's kernel traces.
    """
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
    at, bt = pair_t = terms.pair_t
    # All traces against the state collapse to weighted entry sums once the
    # observables sit in its eigenbasis: Tr(rho X Y) = sum_ij lam_i X_ij Y_ji
    # and Tr((k o X) Y) = sum_ij k_ij X_ij Y_ji.
    # entrywise products X_ij Y_ji; the products of (b, a) are those of (a, b) transposed
    p_ab = at * bt.swapaxes(1, 2)
    p_aa, p_bb = (pair_t * pair_t.swapaxes(-1, -2)).real

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
    info_a, info_b, gap = (values[k] for k in ("info_a", "info_b", "gap"))

    # fmax, like max(1.0, x), keeps the scale at 1 when the product is NaN
    scale = np.fmax(1.0, var_a * var_b)
    tol_eff, slack = (tol * scale)[:, None], (INVARIANT_SLACK * scale)[:, None]

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
    # the report's own formula with w_beta in place of the kernels, and
    # |kernel - sandwich| of (corr_ab, info_a, info_b)
    by_sandwich = _scalars(moments, [_entry_sums(w_beta, p) for p in (p_aa, p_bb, p_ab.real)])
    routes = ("corr_ab", "info_a", "info_b")
    sandwich = np.abs(np.array([values[k][:, k_wyd] - by_sandwich[k] for k in routes]))
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


def _instance_report(terms: EigenbasisTerms, tol) -> dict:
    """The report of the one state and entry of ``terms``: _SCALARS, residuals and flags."""
    columns = _report_in_eigenbasis(terms, validate_tol(tol))
    ((flags,),) = _flag_names(columns["flags"], _FLAGS)
    return {
        **{name: columns[name].item() for name in _SCALARS},
        "residuals": columns["residuals"][0][0].tolist(),
        "flags": flags,
    }


def evaluate_inequalities(
    rho: DensityMatrix,
    f: MonotoneFunction,
    a,
    b,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Evaluate both uncertainty inequalities for one (state, f, a, b) instance.

    Checks, at effective tolerance tol * max(1, var_a * var_b):

    * the main inequality  var_a var_b - cov^2 >= info_a info_b - corr^2,
    * the commutator bound var_a var_b - cov^2 >= |Tr(rho [a, b])|^2 / 4,

    plus nonnegativity of the variances, informations, and the left-hand
    side. Violations are flagged on the report, never raised. For wyd
    entries the kernel-route quantities are cross-checked against the
    power-sandwich route and the disagreements recorded as residuals; one
    above tol * max(1, var_a, var_b) flags ``route_disagreement``.

    Returns the dict of a sweep record's fields after (dim, f, trial, seed),
    in order and bit for bit: the ten scalars (lhs and rhs the two sides,
    gap = lhs - rhs), then the ``residuals`` and ``flags`` lists.
    """
    # the sweep's stacked evaluation, on a stack of one state and one entry
    terms = eigenbasis_terms(rho, [f], _observable(rho, a), _observable(rho, b))
    return _instance_report(terms, tol)
