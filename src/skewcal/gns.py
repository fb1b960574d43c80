"""Finite-dimensional modular model of a faithful state, with executable audits.

The carrier space is the full matrix algebra equipped with the inner
product <x, y> = Tr(rho x† y) and cyclic vector the identity matrix. The
modular operator acts as x -> rho x rho^(-1): it scales the eigenbasis
matrix unit e_i e_j† by lam_i / lam_j, so every spectral integral below is
an exact sum over n^2 atoms, the rank-one projections onto the e_i e_j†.
The forms and the measure therefore take vectors by their eigenbasis
entries u† x u: there <x, y> weighs entry (i, j) of conj(x) y by lam_j and
<x, Delta y> by lam_i.

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
runs once per stack and covers every catalog entry at once
(:func:`audit_G_equals_H`), returning (T, F) columns; a single state's
spectral arrays broadcast as a stack of one, with no second
eigendecomposition. Its largest arrays are one observable's (T, F, n, n)
batch of kernel products: the G-forms and G's back-rotated kernel
products take a's batch and then b's, never both in one array. It takes
the observables' eigenbasis entries, the (T, F, n, n) tilde values on the
eigenvalue ratios and the kernels lam_j tilde from
:func:`skewcal.qinfo.eigenbasis_terms`, the one rotation and the one
catalog tilde call that the stacked report reads too; H reads the tilde
values at the atoms, which are the eigenbasis entries in ravel order.
This module holds the modular side only: G, the direct route's gap, is
:func:`skewcal.qinfo._scalars` of the direct traces of the same terms,
the report's formula, and :func:`form_G` reads its kernel from
``eigenbasis_terms`` too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, _dot
from .monotone import MonotoneFunction
# The audit reads its tilde values from qinfo.eigenbasis_terms and calls
# tilde_transform nowhere; bench/tracing.py wraps it here by name.
from .monotone import tilde_transform  # noqa: F401
from .qinfo import EigenbasisTerms, _kernel_traces, _scalars, _trace_moments, eigenbasis_terms
# The audit takes G from qinfo._scalars and calls none of these;
# bench/tracing.py wraps them here by name.
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


class GnsModel:
    """Modular data of the state Tr(rho .), or of each state of a stack.

    Vectors of the representation are plain matrices; the cyclic vector is
    the identity. Attributes expose the state's spectral data; the modular
    operator acts entrywise in the eigenbasis by the eigenvalue ratios
    lam_i / lam_j. Over a stacked DensityMatrix of T states,
    ``eigenvalues`` and ``eigenvectors`` carry a leading trial axis,
    vectors are (T, n, n) stacks, and the forms and the measure give one
    value per state.
    """

    __slots__ = ("rho", "dim", "eigenvalues", "eigenvectors")

    def __init__(self, rho: DensityMatrix):
        self.rho = rho
        self.dim = rho.dim
        self.eigenvalues = rho.eigenvalues
        self.eigenvectors = rho.eigenvectors

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


def form_E1(m: GnsModel, xt, et):
    """Graph form <xi, (1 + Delta) eta> of two vectors given by their eigenbasis entries.

    ``xt`` and ``et`` are u† xi u and u† eta u, as :func:`build_mu` takes
    them. <xi, eta> = Tr(rho xi† eta) weighs entry (i, j) of conj(xt) et by
    lam_j and <xi, Delta eta> by lam_i, so E1 is their sum against the
    kernel lam_i + lam_j.
    """
    lam = m.eigenvalues
    return _weighted_form(lam[..., :, None] + lam[..., None, :], xt, et)


def form_G(m: GnsModel, f: MonotoneFunction, xi, eta):
    """Nonnegative-difference form G^f = form_E1 / 2 - F.

    F is the kernel form <tilde(Delta)^(1/2) xi, tilde(Delta)^(1/2) eta>,
    the modular kernel of (rho, f) summed against the eigenbasis entries;
    the kernel and the entries are those of
    :func:`~skewcal.qinfo.eigenbasis_terms`.
    """
    terms = eigenbasis_terms(m.rho, [f], xi, eta)
    shape = m.rho.matrix.shape
    xt, et, kernel = (x.reshape(shape) for x in (terms.at, terms.bt, terms.kernels))
    return 0.5 * form_E1(m, xt, et) - _weighted_form(kernel, xt, et)


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
        # [[a+, b+], [a-, b-]], and their largest entries [[A+, B+], [A-, B-]]
        parts = np.maximum(np.array(((a, b), (-a, -b))), 0.0)
        (pos_a, pos_b), (neg_a, neg_b) = np.max(parts, axis=-1)
        g = np.sqrt(parts[0, 0] * parts[0, 1])
        s = np.max(g, axis=-1)
        c = np.max(np.maximum(np.abs(z) - g, 0.0), axis=-1)
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
    # the three marginals as one (3, ..., K) array: |xt|^2, |et|^2, Re(conj(xt) et)
    pair = np.array((xt, et))
    entries = np.empty((3,) + pair.shape[1:])
    entries[:2] = np.abs(pair) ** 2
    entries[2] = np.real(np.conj(pair[0]) * pair[1])
    entries *= m.eigenvalues[..., None, :]
    m_xx, m_yy, m_xy = entries.reshape((3,) + lead + (-1,))
    return AtomicPairMeasure(
        values=np.broadcast_to(m.spectrum(), m_xx.shape),
        weights=2.0 * (m_xx * m_yy - m_xy * m_xy),
        m_xx=m_xx,
        m_yy=m_yy,
        m_xy=m_xy,
    )


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
    marginals = np.array((mu.m_xx, mu.m_yy, mu.m_xy))
    px, py, pz = _dot(mu.values + 1.0, marginals)[..., None]
    qx, qy, qz = _dot(q, marginals[..., None, :])
    return 0.25 * (2.0 * (px * qy + py * qx) - 4.0 * (pz * qz + qx * qy - qz * qz))


def audit_G_equals_H(m: GnsModel, terms: EigenbasisTerms) -> dict[str, np.ndarray]:
    """Check the trace-route inequality gap against its spectral double integral.

    ``terms`` is :func:`~skewcal.qinfo.eigenbasis_terms` of ``m.rho``: the
    observables a and b, their eigenbasis entries u† a u and u† b u, the
    (T, F, n, n) tilde values on the eigenvalue ratios and the kernels
    k = tilde * lam_j, the arrays the stacked report reads too. The audit
    covers the (T, F) grid of states
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

    Once per stack, Tr(rho a) and Tr(rho b) of
    :func:`~skewcal.qinfo._trace_moments` center the observables' eigenbasis
    entries, u† a u - Tr(rho a) 1 (the centering commutes with the
    rotation); the graph forms E1 (the lam_i + lam_j kernel sum, one call
    for both) and the measure mu (its three marginals one array) read only
    these entries. Over every entry at once: H by :func:`h_from_measure`
    from the (T, K) marginals and the (T, F, K) per-atom tilde values, the
    kernel forms F of G^f = E1 / 2 - F of each centered observable, one
    observable's (T, F, n, n) batch at a time, and G by
    :func:`~skewcal.qinfo._scalars`, the report's formula, from the same
    moments and :func:`~skewcal.qinfo._kernel_traces`, which back-rotates
    a's kernel products and then b's. That
    is the code the public :func:`~skewcal.qinfo.variance`,
    :func:`~skewcal.qinfo.covariance`, :func:`~skewcal.qinfo.f_information`
    and :func:`~skewcal.qinfo.f_correlation` run on one state, so G equals
    the report's formula on the public values bit for bit; its
    back-rotated kernel products are validated finite and Hermitian (a
    failure raises ValueError).

    G = H is an identity for states of trace 1. G's traces and H's measure
    of the centered observables use Tr rho in different places (for one,
    Re Tr(rho a0 b0) = cov_ab - Tr(rho a) Tr(rho b) (1 - Tr rho)), so
    |G - H| carries a term of order |Tr rho - 1| times the observables'
    scale, which a DensityMatrix admits up to TRACE_TOL = 1e-10. That term
    lies far below G_H_RTOL and is the audit's residual floor on such
    states; at trace 1 only round-off is left.
    """
    if terms.rho is not m.rho:
        raise ValueError("terms were computed for another state than the model's")
    n = m.dim
    t, f = terms.tilde.shape[:2]
    # Tr(rho a) and Tr(rho b) center the observables; G reads every moment
    moments = _trace_moments(m.rho, terms.a, terms.b)
    shift = moments[0][:, :, None, None] * np.eye(n)
    # the eigenbasis entries of the centered a0 and b0
    pair0_t = np.array((terms.at, terms.bt)) - shift
    mu = build_mu(m, *pair0_t)
    mu_min = mu.min_weight_bound
    mu_negative = mu_min < -MU_ATOM_SLACK * np.maximum(mu.mass, 0.0)
    e1 = form_E1(m, pair0_t, pair0_t)

    # form_G(m, f, x, x) of a0 and then b0 as (2, T, F) rows, with E1 reused,
    # one observable's (T, F, n, n) batch at a time; taken before G's kernel
    # traces, the order that measured faster at dim 32
    gforms = np.array([
        (0.5 * e1x[..., None] - _weighted_form(terms.kernels, x[:, None], x[:, None])).real
        for x, e1x in zip(pair0_t, e1)
    ])

    # G by the direct route, the public qinfo functions' own code
    g = _scalars(moments, _kernel_traces(terms))["gap"]
    # atom i * n + j carries the ratio lam_i / lam_j, so its tilde value is
    # entry (i, j) of the shared pass, in ravel order
    h = h_from_measure(mu, terms.tilde.reshape(t, f, n * n))
    residual = np.abs(g - h)
    flags = np.empty((t, f, len(AUDIT_FLAGS)), bool)
    np.greater(residual, G_H_RTOL * np.fmax(1.0, np.abs(g)), out=flags[..., 0])
    flags[..., 1] = mu_negative[:, None]
    gform_floor = -GFORM_SLACK * np.maximum(e1.real, 0.0)[..., None]
    np.less(gforms, gform_floor, out=flags[..., 2:].transpose(2, 0, 1))
    return {
        "G": g,
        "H": h,
        "residual": residual,
        "mu_min_atom": mu_min,
        "gform_min": np.minimum(*gforms),
        "flags": flags,
    }
