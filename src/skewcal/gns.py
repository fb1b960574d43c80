"""Finite-dimensional modular model of a faithful state, with executable audits.

The carrier space is the full matrix algebra equipped with the inner
product <x, y> = Tr(rho x† y) and cyclic vector the identity matrix. The
modular operator acts as x -> rho x rho^(-1): it scales the eigenbasis
matrix unit e_i e_j† by lam_i / lam_j, so every spectral integral below is
an exact sum over n^2 atoms, the rank-one projections onto the e_i e_j†.

The centerpiece is the identity audit: the inequality gap

    G = var_a var_b - cov^2 - (info_a info_b - corr^2)

computed from plain traces must equal the atomic double integral

    H = (1/4) sum over atom pairs of
        [(s + 1) tilde(t) + (t + 1) tilde(s) - 2 tilde(s) tilde(t)] mu(s, t)

where mu is a product measure built from the spectral weights of the two
centered observables. mu is nonnegative atom by atom and the integrand is
nonnegative wherever 0 <= tilde(x) <= (x + 1)/2, which exhibits G >= 0.

Nothing here is K x K for K atoms. mu = m_xx (x) m_yy + m_yy (x) m_xx -
2 m_xy (x) m_xy is a sum of three outer products of per-atom marginals,
and the integrand p(s) q(t) + p(t) q(s) - 2 q(s) q(t), with p(s) = s + 1
and q = tilde, is a sum of three outer products of per-atom functions.
Every one of the nine products of an integrand term with a measure term
therefore factors into two inner products over the atoms, so the K x K
double sum equals

    H = (1/4) [2 (P_x Q_y + P_y Q_x) - 4 (P_z Q_z + Q_x Q_y - Q_z^2)]

with P_x = sum_k p(s_k) m_xx[k], Q_x = sum_k q(s_k) m_xx[k] (y for m_yy,
z for m_xy) exactly, up to the order of floating-point summation. That
mu is nonnegative is certified in O(K) too: the proof's projection
Cauchy-Schwarz step says that each atom's 2 x 2 Gram matrix of marginals
is positive semidefinite, and with the arithmetic-geometric mean
inequality that bounds every pair weight from below by per-atom
quantities (:func:`build_mu`).

A GnsModel holds one DensityMatrix or a stacked one of T states; the
forms, the measure and H then take (T, n, n) stacks of vectors and give
one value per state, each from that state's entries alone. The audit
runs once per stack and covers every catalog entry in the same array
pass (:func:`audit_G_equals_H`), returning (T, F) columns; a single
state's spectral arrays broadcast as a stack of one, with no second
eigendecomposition. It takes the observables' eigenbasis entries and the
(T, F, n, n) tilde values on the eigenvalue ratios from
:func:`skewcal.qinfo.eigenbasis_terms`, the one rotation and the one
tilde pass per catalog entry that the stacked report reads too. The
kernels are those tilde values times lam_j, and H reads them at the
atoms, which are the eigenbasis entries in ravel order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    _kernel_apply_stack,
    _product_traces,
    as_matrix,
    modular_kernel_matrix,
)
from .monotone import MonotoneFunction
# The audit reads its tilde values from qinfo.eigenbasis_terms and calls
# tilde_transform nowhere; bench/tracing.py wraps it here by name.
from .monotone import tilde_transform  # noqa: F401
from .qinfo import EigenbasisTerms, _grid
# The audit computes the direct route on whole stacks and calls none of
# these; bench/tracing.py wraps them here by name.
from .qinfo import centered, covariance, f_correlation, f_information, variance  # noqa: F401

__all__ = [
    "AtomicPairMeasure",
    "GnsModel",
    "audit_G_equals_H",
    "build_mu",
    "form_E1",
    "form_G",
    "h_from_measure",
]

# |G - H| is accepted up to this much relative slack.
G_H_RTOL = 1e-8

# The certified lower bound on the weights of mu may undershoot zero by
# round-off up to this fraction of the total mass; the quadratic form G may
# undershoot similarly relative to the graph form E1.
MU_ATOM_SLACK = 1e-12
GFORM_SLACK = 1e-12

# Flag of each audit mask column: G vs H, mu, and the G-form of a and of b.
AUDIT_FLAGS = ("g_h_mismatch", "mu_negative_atom", "gform_negative", "gform_negative")


def _value(x):
    """A 0-d result as a Python scalar; a stack's per-state array as it is."""
    return x.item() if np.ndim(x) == 0 else x


def _real_trace(m: np.ndarray) -> np.ndarray:
    """Re Tr of each matrix of a stack, summed as for that matrix alone."""
    return np.trace(m, axis1=-2, axis2=-1).real


class GnsModel:
    """Modular data of the state Tr(rho .), or of each state of a stack.

    Vectors of the representation are plain matrices; the cyclic vector is
    the identity. Attributes expose the state's spectral data; the modular
    operator acts entrywise in the eigenbasis by the eigenvalue ratios
    lam_i / lam_j. Over a stacked DensityMatrix of T states,
    ``eigenvalues`` and ``eigenvectors`` carry a leading trial axis,
    vectors are (T, n, n) stacks, and the inner product, the forms and the
    measure give one value per state.
    """

    __slots__ = ("rho", "dim", "eigenvalues", "eigenvectors")

    def __init__(self, rho: DensityMatrix):
        self.rho = rho
        self.dim = rho.dim
        self.eigenvalues = rho.eigenvalues
        self.eigenvectors = rho.eigenvectors

    def inner(self, x, y):
        """GNS inner product Tr(rho x† y), by direct trace."""
        xh = as_matrix(x).conj().swapaxes(-1, -2)
        return _value(np.trace(self.rho.matrix @ xh @ as_matrix(y), axis1=-2, axis2=-1))

    def to_eigenbasis(self, x) -> np.ndarray:
        return self.rho.to_eigenbasis(x)

    def spectrum(self) -> np.ndarray:
        """Value lam_i / lam_j of each atom i * n + j, (T, n^2) over a stack.

        Equal ratios stay separate atoms: merging them changes no integral.
        """
        return _compute_spectrum(self.eigenvalues)


def _weighted_form(kernel: np.ndarray, xt: np.ndarray, et: np.ndarray):
    # sum_ij kernel[i,j] * conj(xt[i,j]) * et[i,j] over eigenbasis entries
    # xt, et; the kernel carries the column weight lam[j] that realizes
    # Tr(rho x† y).
    return _value(np.sum(kernel * np.conj(xt) * et, axis=(-2, -1)))


def form_E1(m: GnsModel, xi, eta, eigenbasis=None):
    """Graph form <xi, (1 + Delta) eta>: <xi, Delta eta> plus the plain inner product.

    ``eigenbasis`` may pass the pair (u† xi u, u† eta u) that the caller
    already holds; otherwise xi is rotated once, and eta too unless it is xi.
    """
    if eigenbasis is None:
        xt = m.to_eigenbasis(xi)
        eigenbasis = (xt, xt if eta is xi else m.to_eigenbasis(eta))
    lam = m.eigenvalues
    kernel = (lam[..., :, None] / lam[..., None, :]) * lam[..., None, :]
    return _weighted_form(kernel, *eigenbasis) + m.inner(xi, eta)


def form_G(m: GnsModel, f: MonotoneFunction, xi, eta):
    """Nonnegative-difference form G^f = form_E1 / 2 - F.

    F is the kernel form <tilde(Delta)^(1/2) xi, tilde(Delta)^(1/2) eta>,
    the modular kernel of (rho, f) summed against the eigenbasis entries.
    """
    xt, et = m.to_eigenbasis(xi), m.to_eigenbasis(eta)
    kernel = modular_kernel_matrix(m.rho, f)
    return 0.5 * form_E1(m, xi, eta, (xt, et)) - _weighted_form(kernel, xt, et)


def _compute_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    lam = eigenvalues
    return (lam[..., :, None] / lam[..., None, :]).reshape(lam.shape[:-1] + (-1,))


@dataclass(frozen=True, eq=False)
class AtomicPairMeasure:
    """Signed measure on pairs of spectrum atoms, held by its per-atom marginals.

    Atom k = i * n + j is eigenbasis entry (i, j) with value lam_i / lam_j
    (:meth:`GnsModel.spectrum`), so K = n^2. The weight of the atom pair
    (k, l) is
    w[k, l] = m_xx[k] m_yy[l] + m_yy[k] m_xx[l] - 2 m_xy[k] m_xy[l]; the
    K x K array is never formed. ``weights[k]`` is the diagonal weight
    w[k, k] = 2 (m_xx[k] m_yy[k] - m_xy[k]^2) and ``values[k]`` the ratio of
    atom k. Over a stack every array carries a leading trial axis and the
    properties give one value per state.
    """

    values: np.ndarray
    weights: np.ndarray
    m_xx: np.ndarray
    m_yy: np.ndarray
    m_xy: np.ndarray

    @property
    def mass(self):
        """Total weight sum_kl w[k, l] = 2 (sum m_xx sum m_yy - (sum m_xy)^2)."""
        sx, sy, sz = (np.sum(m, axis=-1) for m in (self.m_xx, self.m_yy, self.m_xy))
        return _value(2.0 * (sx * sy - sz * sz))

    @property
    def min_weight_bound(self):
        """Lower bound on min_kl w[k, l] from the marginals, in O(K).

        With g_k = sqrt(m_xx[k]^+ m_yy[k]^+) (positive parts) and the
        Cauchy-Schwarz excess c_k = max(|m_xy[k]| - g_k, 0), every weight,
        diagonal or not, satisfies

            w[k, l] >= -2 (2 s C + C^2) - 2 (A+ B- + A- B+)

        where s = max g, C = max c, and A+, A- (B+, B-) are the largest
        positive and negative parts of m_xx (m_yy): AM-GM bounds
        m_xx[k] m_yy[l] + m_yy[k] m_xx[l] below by 2 g_k g_l less the
        negative parts, and |m_xy[k] m_xy[l]| <= (g_k + c_k)(g_l + c_l).
        The bound is the smaller of that and the exact diagonal minimum, so
        it is <= every weight in exact arithmetic on the marginals. Honest
        marginals are never negative and obey Cauchy-Schwarz up to round-off,
        so the second term is 0 and C of round-off size.
        """
        a, b, z = self.m_xx, self.m_yy, self.m_xy
        a_pos, a_neg, b_pos, b_neg = (np.maximum(m, 0.0) for m in (a, -a, b, -b))
        g = np.sqrt(a_pos * b_pos)
        s = np.max(g, axis=-1)
        c = np.max(np.maximum(np.abs(z) - g, 0.0), axis=-1)
        pos_a, neg_a, pos_b, neg_b = (np.max(m, axis=-1) for m in (a_pos, a_neg, b_pos, b_neg))
        # + 0.0 turns the -0.0 of a zero bound into 0.0
        off = -2.0 * (2.0 * s * c + c * c) - 2.0 * (pos_a * neg_b + neg_a * pos_b) + 0.0
        return _value(np.minimum(np.min(self.weights, axis=-1), off))


def build_mu(m: GnsModel, xt, et) -> AtomicPairMeasure:
    """Product measure mu = m_xx (x) m_yy + m_yy (x) m_xx - 2 m_xy (x) m_xy.

    ``xt`` and ``et`` are the entries u† xi u and u† eta u of two vectors
    in the state's eigenbasis ((T, n, n) stacks over a stacked model).
    m_xx, m_yy, m_xy are the spectral weights Re <xi, e_k xi>,
    Re <eta, e_k eta>, Re <xi, e_k eta> of the atoms e_k, the rank-one
    projections onto the matrix units e_i e_j†: for atom k = i * n + j they
    are |xt_ij|^2 lam_j, |et_ij|^2 lam_j and Re(conj(xt_ij) et_ij) lam_j.

    Each pair weight is nonnegative up to round-off: the cross term is
    bounded through the projection Cauchy-Schwarz inequality, which makes
    each atom's Gram matrix of marginals positive semidefinite, and the two
    plus terms dominate by the arithmetic-geometric mean inequality. The
    audit gates ``mu_negative_atom`` on
    :attr:`AtomicPairMeasure.min_weight_bound`, which is <= the minimum
    over all K^2 weights in exact arithmetic and never forms them: the gate
    flags bound < -MU_ATOM_SLACK * max(mass, 0), where ``mass`` equals
    sum_kl w exactly, so it fires on every instance whose smallest pair
    weight lies below -MU_ATOM_SLACK * max(sum_kl w, 0). Its diagonal part
    equals the K^2 array's diagonal bit for bit.
    """
    lead = np.shape(xt)[:-2]
    lam = m.eigenvalues[..., None, :]
    m_xx, m_yy, m_xy = (
        (entries * lam).reshape(lead + (-1,))
        for entries in (np.abs(xt) ** 2, np.abs(et) ** 2, np.real(np.conj(xt) * et))
    )
    return AtomicPairMeasure(
        values=np.broadcast_to(m.spectrum(), m_xx.shape),
        weights=2.0 * (m_xx * m_yy - m_xy * m_xy),
        m_xx=m_xx,
        m_yy=m_yy,
        m_xy=m_xy,
    )


def _dot(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """p . w over the last axis: one BLAS dot per state (and entry), whatever the stack."""
    return (p[..., None, :] @ w[..., :, None])[..., 0, 0]


def h_from_measure(mu: AtomicPairMeasure, q):
    """Integrate the pair integrand against an already-built measure, for F catalog entries.

    ``q`` holds, per entry, tilde(values), the per-atom tilde values: shaped
    like ``mu.values`` with an entry axis before the atom axis, (T, F, K)
    over a stack of T states and (F, K) for one. H depends on f only
    through them. Evaluates (1/4) sum_kl integrand(s_k, s_l) w[k, l], with
    the integrand (s + 1) tilde(t) + (t + 1) tilde(s) - 2 tilde(s) tilde(t),
    in its separable form from the marginals, in O(K) for K atoms:

        H = (1/4) [2 (P_x Q_y + P_y Q_x) - 4 (P_z Q_z + Q_x Q_y - Q_z^2)]

    with p = values + 1, P_x = p . m_xx, Q_x = q . m_xx (y for m_yy, z for
    m_xy). Both the integrand and the weights are sums of outer products of
    per-atom vectors, so the double sum factors into these inner products
    exactly; only the summation order differs. The P's are computed once
    for every entry, and each Q is its own dot per (state, entry). Returns
    one H per (state, entry); a ``q`` of another shape raises ValueError.
    """
    q = np.asarray(q, dtype=float)
    atoms = np.shape(mu.values)
    if q.ndim != len(atoms) + 1 or q.shape[:-2] + q.shape[-1:] != atoms:
        raise ValueError(f"tilde values {q.shape} do not match atoms {atoms} with an entry axis")
    p = mu.values + 1.0
    px, py, pz = (_dot(p, w)[..., None] for w in (mu.m_xx, mu.m_yy, mu.m_xy))
    qx, qy, qz = (_dot(q, w[..., None, :]) for w in (mu.m_xx, mu.m_yy, mu.m_xy))
    return 0.25 * (2.0 * (px * qy + py * qx) - 4.0 * (pz * qz + qx * qy - qz * qz))


def _gap(var_a, var_b, cov_ab, info_a, info_b, corr_ab) -> np.ndarray:
    """G = var_a var_b - cov^2 - info_a info_b + corr^2 per (state, entry).

    Evaluated on Python floats, as the public qinfo route is: its ``** 2``
    is libm's pow, which can differ in the last bit from numpy's x * x.
    """
    columns = (var_a, var_b, cov_ab, info_a, info_b, corr_ab)
    return np.array(
        [
            [va * vb - cov**2 - ia * ib + corr**2 for ia, ib, corr in zip(*entries)]
            for va, vb, cov, *entries in zip(*(c.tolist() for c in columns))
        ]
    )


def audit_G_equals_H(m: GnsModel, terms: EigenbasisTerms) -> dict[str, np.ndarray]:
    """Check the trace-route inequality gap against its spectral double integral.

    ``terms`` is :func:`~skewcal.qinfo.eigenbasis_terms` of ``m.rho``: the
    observables a and b, their eigenbasis entries u† a u and u† b u, and
    the (T, F, n, n) tilde values on the eigenvalue ratios, the arrays the
    stacked report reads too. The audit covers the (T, F) grid of states
    (T = 1 for one state) and catalog entries in one pass and returns
    columns: ``G``, ``H``, ``residual`` = |G - H| and ``gform_min`` as
    (T, F) arrays, ``mu_min_atom`` as a (T,) array (mu does not depend on
    f), and ``flags``, a (T, F, len(AUDIT_FLAGS)) boolean mask. Each value
    equals the audit of its state alone, and the state's own
    eigendecomposition is reused. G is assembled from direct traces, the
    route of the qinfo scalars; H integrates the pair measure of the
    centered observables. |G - H| beyond G_H_RTOL * max(1, |G|) is flagged,
    as are a certified lower bound on the weights of mu below
    -MU_ATOM_SLACK times its mass, and a negative quadratic form G^f on
    either centered observable.

    Once per stack: Tr(rho a), Tr(rho b), Re Tr(rho aa), Re Tr(rho bb),
    Re Tr(rho ab), so the variances and the covariance; the centered
    observables, and their eigenbasis entries u† a u - Tr(rho a) 1 (the
    centering commutes with the rotation), shared by the graph forms E1 and
    the measure mu. Over every entry at once: the modular kernels
    k = tilde * lam_j, H by :func:`h_from_measure` from the (T, K)
    marginals and the (T, F, K) per-atom tilde values, and the kernel form
    F of G^f = E1 / 2 - F. The 2FT products k o (u† a u) and k o (u† b u)
    go back to the standard basis as one batch, validated finite and
    Hermitian (a failure raises ValueError). The informations and the
    correlation are then Re Tr(rho x y) - Re Tr(kx y) against the unrotated
    observables, the last trace as an entry sum, the same operations as
    :func:`~skewcal.qinfo.f_correlation`, so G equals the public direct
    route bit for bit.
    """
    if terms.rho is not m.rho:
        raise ValueError("terms were computed for another state than the model's")
    n = m.dim
    # a single state's spectral arrays broadcast against stacks of one
    rho, ma, mb = m.rho.matrix.reshape(-1, n, n), terms.a, terms.b
    t, f = terms.tilde.shape[:2]

    # the f-independent half: Tr(rho x) and Re Tr(rho x y), each once
    ra, rb = rho @ ma, rho @ mb
    exp_a, exp_b = _real_trace(ra), _real_trace(rb)
    tr_aa, tr_bb, tr_ab = (_real_trace(r @ y) for r, y in ((ra, ma), (rb, mb), (ra, mb)))
    var_a = tr_aa - exp_a * exp_a
    var_b = tr_bb - exp_b * exp_b
    cov_ab = tr_ab - exp_a * exp_b
    shift_a, shift_b = (x[:, None, None] * np.eye(n) for x in (exp_a, exp_b))
    a0, b0 = ma - shift_a, mb - shift_b
    at0, bt0 = terms.at - shift_a, terms.bt - shift_b
    mu = build_mu(m, at0, bt0)
    mu_min = mu.min_weight_bound
    mu_negative = mu_min < -MU_ATOM_SLACK * np.maximum(mu.mass, 0.0)
    graph = [(xt, form_E1(m, x, x, (xt, xt))) for x, xt in ((a0, at0), (b0, bt0))]

    # one kernel per (state, entry), modular_kernel_matrix's expression on the
    # shared tilde values, applied to both observables in one validated
    # (T, 2F, n, n) batch ordered (k_0 o a, k_0 o b, k_1 o a, ...)
    lam = m.eigenvalues.reshape(-1, n)
    kernels = terms.tilde * lam[:, None, None, :]
    tilted = np.stack((terms.at, terms.bt), axis=1)
    mapped = (kernels[:, :, None] * tilted[:, None]).reshape(t, 2 * f, n, n)
    applied = _kernel_apply_stack(m.eigenvectors[..., None, :, :], mapped)
    ka, kb = applied[:, 0::2], applied[:, 1::2]
    # Tr(ka a), Tr(kb b) and Tr(ka b) against the unrotated observables
    info_a = tr_aa[:, None] - _product_traces(ka, ma)
    info_b = tr_bb[:, None] - _product_traces(kb, mb)
    corr_ab = tr_ab[:, None] - _product_traces(ka, mb)
    g = _gap(var_a, var_b, cov_ab, info_a, info_b, corr_ab)
    # atom i * n + j carries the ratio lam_i / lam_j, so its tilde value is
    # entry (i, j) of the shared pass, in ravel order
    h = h_from_measure(mu, terms.tilde.reshape(t, f, n * n))
    residual = np.abs(g - h)

    # form_G(m, f, x, x) with the f-independent parts reused
    mismatch = residual > G_H_RTOL * np.fmax(1.0, np.abs(g))
    masks = [mismatch, mu_negative[:, None]]
    gforms = []
    for xt, e1 in graph:
        gf = (0.5 * e1[:, None] - _weighted_form(kernels, xt[:, None], xt[:, None])).real
        gforms.append(gf)
        masks.append(gf < -GFORM_SLACK * np.maximum(e1.real, 0.0)[:, None])
    return {
        "G": g,
        "H": h,
        "residual": residual,
        "mu_min_atom": mu_min,
        "gform_min": np.minimum(*gforms),
        "flags": _grid(masks, g.shape, bool).transpose(1, 2, 0),
    }
