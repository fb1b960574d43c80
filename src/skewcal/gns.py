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

The forms and the measure take the state, one DensityMatrix or a stacked
one of T states, and (T, n, n) stacks of vectors over a stack, giving one
value per state from that state's entries alone. The audit
(:func:`audit_G_equals_H`) runs once per stack for every catalog entry
and returns (T, F) columns; a single state's spectral arrays broadcast as
a stack of one. It reads one :func:`skewcal.qinfo.eigenbasis_terms`, the
rotation and the tilde call the stacked report reads too: the
observables as one (2, T, n, n) pair, a's and then b's, which
:func:`skewcal.qinfo._trace_moments` reads uncopied, their eigenbasis
entries, which it centers on a copy, and the (T, F, n, n) tilde values
and kernels. The tilde values at the atoms are those entries in ravel
order, so H and the G-forms read the same dots of the (T, F, K) tilde
values against mu's (3, T, K) marginals, taken once by
:func:`h_from_measure`: G^f(x0, x0) = E1 / 2 - sum_k tilde(s_k) m_xx[k].
Its largest arrays are G's back-rotated kernel products, one
observable's (T, F, n, n) batch at a time. G is :func:`skewcal.qinfo._scalars` of the direct traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    "audit_G_equals_H",
    "build_mu",
    "form_E1",
    "form_G",
]

# |G - H| is accepted up to this much relative slack.
G_H_RTOL = 1e-8

# The certified lower bound on the weights of mu may undershoot zero by
# round-off up to this fraction of the weights' uncancelled size
# (AtomicPairMeasure.weight_scale); the quadratic form G may undershoot
# similarly relative to the graph form E1.
MU_ATOM_SLACK = 1e-12
GFORM_SLACK = 1e-12

# Flag of each audit mask column: G vs H, mu, and the G-forms of a and b.
AUDIT_FLAGS = ("g_h_mismatch", "mu_negative_atom", "gform_negative")


def _value(x):
    """A 0-d result as a Python scalar; a stack's per-state array as it is."""
    return x.item() if np.ndim(x) == 0 else x


class GnsModel:
    """The state Tr(rho .) as ``rho``; nothing takes one, and bench/tracing.py wraps the name."""

    __slots__ = ("rho",)

    def __init__(self, rho: DensityMatrix):
        self.rho = rho


def _weighted_form(kernel: np.ndarray, xt: np.ndarray, et: np.ndarray):
    # sum_ij kernel[i,j] * conj(xt[i,j]) * et[i,j] over eigenbasis entries
    # xt, et; the kernel carries the column weight lam[j] that realizes
    # Tr(rho x† y).
    return _value(np.sum(kernel * np.conj(xt) * et, axis=(-2, -1)))


def form_E1(rho: DensityMatrix, xt, et):
    """Graph form <xi, (1 + Delta) eta> of two vectors given by their eigenbasis entries.

    ``xt`` and ``et`` are u† xi u and u† eta u, as :func:`build_mu` takes
    them. <xi, eta> = Tr(rho xi† eta) weighs entry (i, j) of conj(xt) et by
    lam_j and <xi, Delta eta> by lam_i, so E1 is their sum against the
    kernel lam_i + lam_j.
    """
    lam = rho.eigenvalues
    return _weighted_form(lam[..., :, None] + lam[..., None, :], xt, et)


def form_G(rho: DensityMatrix, f: MonotoneFunction, xi, eta):
    """Nonnegative-difference form G^f = form_E1 / 2 - F.

    F is the kernel form <tilde(Delta)^(1/2) xi, tilde(Delta)^(1/2) eta>,
    the modular kernel of (rho, f) summed against the eigenbasis entries;
    the kernel and the entries are those of
    :func:`~skewcal.qinfo.eigenbasis_terms`.
    """
    terms = eigenbasis_terms(rho, [f], xi, eta)
    shape = rho.matrix.shape
    xt, et, kernel = (x.reshape(shape) for x in (terms.at, terms.bt, terms.kernels))
    return 0.5 * form_E1(rho, xt, et) - _weighted_form(kernel, xt, et)


def _compute_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    # value lam_i / lam_j of each atom i * n + j, (T, n^2) over a stack;
    # equal ratios stay separate atoms, since merging them changes no integral
    lam = eigenvalues
    return (lam[..., :, None] / lam[..., None, :]).reshape(lam.shape[:-1] + (-1,))


@dataclass(frozen=True, eq=False)
class AtomicPairMeasure:
    """Signed measure on pairs of spectrum atoms, held by its per-atom marginals.

    Atom k = i * n + j is eigenbasis entry (i, j) with value lam_i / lam_j,
    so K = n^2. ``marginals`` is the one (3, ..., K) array of m_xx, m_yy and
    m_xy that :func:`build_mu` builds, and every reader
    (``min_weight_bound``, ``weight_scale`` and :func:`h_from_measure`,
    whose dots the audit's G-forms take too) reads its rows as views. The
    weight of the atom pair (k, l) is
    w[k, l] = m_xx[k] m_yy[l] + m_yy[k] m_xx[l] - 2 m_xy[k] m_xy[l]; the
    K x K array is never formed. ``weights[k]`` is the diagonal weight
    w[k, k] = 2 (m_xx[k] m_yy[k] - m_xy[k]^2) and ``values[k]`` the ratio of
    atom k. Over a stack every array carries a trial axis before the atom
    axis and the properties give one value per state.
    """

    values: np.ndarray
    weights: np.ndarray
    marginals: np.ndarray

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
        pos, (pos_a, pos_b) = self._positive_parts
        g = np.sqrt(pos[0] * pos[1])
        # A+, B+ are the largest positive parts; A-, B- the positive parts of -min
        neg_a, neg_b = np.maximum(-self.marginals[:2].min(axis=-1), 0.0)
        s = g.max(axis=-1)
        c = np.maximum((np.abs(self.marginals[2]) - g).max(axis=-1), 0.0)
        # + 0.0 turns the -0.0 of a zero bound into 0.0
        off = -2.0 * (2.0 * s * c + c * c) - 2.0 * (pos_a * neg_b + neg_a * pos_b) + 0.0
        return _value(np.minimum(self.weights.min(axis=-1), off))

    @property
    def weight_scale(self):
        """A+ B+: the product of the largest positive parts of m_xx and m_yy.

        The size of a weight before its terms cancel: each of the three
        terms of every w[k, l] is at most 2 A+ B+ in size, since
        |m_xy[k]| <= sqrt(m_xx[k] m_yy[k]) up to round-off, however small
        their sum, the total weight, comes out. The round-off in a weight,
        and in :attr:`min_weight_bound`, is a few eps times it; the
        ``mu_negative_atom`` gate's slack is MU_ATOM_SLACK times it.
        """
        return _value(np.multiply(*self._positive_parts[1]))

    @cached_property
    def _positive_parts(self):
        """The positive parts of m_xx and m_yy, (2, ..., K), and their maxima A+, B+, (2, ...)."""
        pos = np.maximum(self.marginals[:2], 0.0)
        return pos, pos.max(axis=-1)


def build_mu(rho: DensityMatrix, xt, et) -> AtomicPairMeasure:
    """Product measure mu = m_xx (x) m_yy + m_yy (x) m_xx - 2 m_xy (x) m_xy.

    ``xt`` and ``et`` are the entries u† xi u and u† eta u of two vectors
    in the eigenbasis of ``rho`` ((T, n, n) stacks over a stacked state).
    m_xx, m_yy, m_xy are the spectral weights Re <xi, e_k xi>,
    Re <eta, e_k eta>, Re <xi, e_k eta> of the atoms e_k, the rank-one
    projections onto the matrix units e_i e_j†: for atom k = i * n + j they
    are |xt_ij|^2 lam_j, |et_ij|^2 lam_j and Re(conj(xt_ij) et_ij) lam_j.

    Each pair weight is nonnegative up to round-off: the cross term is
    bounded through the projection Cauchy-Schwarz inequality, which makes
    each atom's Gram matrix of marginals positive semidefinite, and the two
    plus terms dominate by the arithmetic-geometric mean inequality. The
    three marginals are one (3, ..., K) array,
    :attr:`AtomicPairMeasure.marginals`, which every reader takes as it
    is. The audit gates ``mu_negative_atom`` on
    :attr:`AtomicPairMeasure.min_weight_bound`, which is <= the minimum
    over all K^2 weights in exact arithmetic and never forms them: the gate
    flags unless bound >= -MU_ATOM_SLACK * weight_scale, so it fires on
    every instance whose smallest pair weight lies below that. The slack
    scales with the size of the weights' terms, not with their sum, which
    can cancel far below the round-off of one weight. Its diagonal part
    equals the K^2 array's diagonal bit for bit.
    """
    # the three marginals as one (3, ..., K) array: |xt|^2, |et|^2, Re(conj(xt) et)
    entries = np.empty((3,) + np.shape(xt))
    entries[0] = np.abs(xt) ** 2
    entries[1] = np.abs(et) ** 2
    entries[2] = np.real(np.conj(xt) * et)
    entries *= rho.eigenvalues[..., None, :]
    marginals = entries.reshape(entries.shape[:-2] + (-1,))
    m_xx, m_yy, m_xy = marginals
    return AtomicPairMeasure(
        values=np.broadcast_to(_compute_spectrum(rho.eigenvalues), m_xx.shape),
        weights=2.0 * (m_xx * m_yy - m_xy * m_xy),
        marginals=marginals,
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
    m_xy), each a dot against a row of ``mu.marginals``, which is read as
    it is, with no stacked copy. Both the integrand and the weights are
    sums of outer products of per-atom vectors, so the double sum factors
    into these inner products exactly; only the summation order differs.
    The P's are computed once for every entry, and each Q is its own dot
    per (state, entry). Returns (H, dots): one H per (state, entry), and
    the (3, ..., F) array of the dots Q_x, Q_y and Q_z, which the audit's
    G-forms read too. A ``q`` of another shape raises ValueError.
    """
    q = np.asarray(q, dtype=float)
    atoms = np.shape(mu.values)
    if q.ndim != len(atoms) + 1 or q.shape[:-2] + q.shape[-1:] != atoms:
        raise ValueError(f"tilde values {q.shape} do not match atoms {atoms} with an entry axis")
    px, py, pz = _dot(mu.values + 1.0, mu.marginals)[..., None]
    dots = _dot(q, mu.marginals[..., None, :])
    qx, qy, qz = dots
    return 0.25 * (2.0 * (px * qy + py * qx) - 4.0 * (pz * qz + qx * qy - qz * qz)), dots


def audit_G_equals_H(terms: EigenbasisTerms) -> dict[str, np.ndarray]:
    """Check the trace-route inequality gap against its spectral double integral.

    ``terms`` is :func:`~skewcal.qinfo.eigenbasis_terms` of the state or
    stack ``terms.rho`` (T = 1 for one state). The audit covers the (T, F)
    grid of states and catalog entries in one pass and returns columns:
    ``G``, ``H``, ``residual`` = |G - H| and ``gform_min`` as (T, F)
    arrays, ``mu_min_atom`` as a (T,) array (mu does not depend on f), and
    ``flags``, a (T, F, len(AUDIT_FLAGS)) boolean mask. Each value equals
    the audit of its state alone. G is assembled from direct traces; H
    integrates the pair measure of the centered observables. Flagged are
    |G - H| beyond G_H_RTOL * max(1, |G|), a certified lower bound on the
    weights of mu below -MU_ATOM_SLACK times their uncancelled size
    (:attr:`AtomicPairMeasure.weight_scale`), and a negative G^f on either
    centered observable (one ``gform_negative`` for both). Each gate flags
    unless its value is within bound, so a NaN G, H, bound or form is
    flagged.

    Tr(rho a) and Tr(rho b) of :func:`~skewcal.qinfo._trace_moments`
    of ``terms.pair``, which it reads uncopied, center the observables in
    the eigenbasis (centering commutes with the rotation): they come off
    the diagonal of a copy of ``terms.pair_t``, the audit's one copy of a
    pair. The graph forms E1 and mu's three marginals read only these
    centered entries, each one call for both observables. Over every entry
    at once, :func:`h_from_measure` gives H and the dots q . m_xx and
    q . m_yy of the (T, F, K) per-atom tilde values q, and the G-forms
    G^f = E1 / 2 - q . m_xx of a0 (m_yy of b0) follow; they equal
    :func:`form_G` up to summation order. G is
    :func:`~skewcal.qinfo._scalars` of the same moments and
    :func:`~skewcal.qinfo._kernel_traces`: the code the public variance,
    covariance, f_information and f_correlation run on one state, so G is
    the report's formula on their values bit for bit. The back-rotated
    kernel products are validated finite and Hermitian (a failure raises
    ValueError).

    G = H is an identity for states of trace 1. G's traces and H's measure
    of the centered observables use Tr rho in different places (for one,
    Re Tr(rho a0 b0) = cov_ab - Tr(rho a) Tr(rho b) (1 - Tr rho)), so
    |G - H| carries a term of order |Tr rho - 1| times the observables'
    scale, which a DensityMatrix admits up to TRACE_TOL = 1e-10. That term
    lies far below G_H_RTOL and is the audit's residual floor on such
    states; at trace 1 only round-off is left.
    """
    rho = terms.rho
    n = rho.dim
    t, f = terms.tilde.shape[:2]
    # Tr(rho a) and Tr(rho b) center a0 and b0 in the eigenbasis, off the
    # diagonal of a copy and nothing else; G reads every moment
    moments = _trace_moments(rho, terms.pair)
    pair0_t = terms.pair_t.copy()
    pair0_t.reshape(2, t, n * n)[..., :: n + 1] -= moments[0][..., None]
    mu = build_mu(rho, *pair0_t)
    mu_min = mu.min_weight_bound
    e1 = form_E1(rho, pair0_t, pair0_t).real
    # atom i * n + j carries the ratio lam_i / lam_j, so its tilde value is
    # entry (i, j) of the shared pass, in ravel order
    q = terms.tilde.reshape(t, f, n * n)

    # G by the direct route, the public qinfo functions' own code
    g = _scalars(moments, _kernel_traces(terms))["gap"]
    h, dots = h_from_measure(mu, q)
    # form_G(rho, f, x, x) of a0 and then b0 as (2, T, F) rows, with E1 reused:
    # the kernel form sum_ij k_ij |x_ij|^2 is q . m_xx (m_yy for b0), H's dots
    gforms = 0.5 * e1[..., None] - dots[:2]
    residual = np.abs(g - h)
    # each gate is written so that a NaN fails it: not (x within its bound)
    flags = np.empty((t, f, len(AUDIT_FLAGS)), bool)
    np.less_equal(residual, G_H_RTOL * np.fmax(1.0, np.abs(g)), out=flags[..., 0])
    flags[..., 1] = (mu_min >= -MU_ATOM_SLACK * mu.weight_scale)[:, None]
    # one gate for both G-forms: it holds only if each is within its floor
    gform_floor = -GFORM_SLACK * np.maximum(e1, 0.0)[..., None]
    (gforms >= gform_floor).all(axis=0, out=flags[..., 2])
    np.logical_not(flags, out=flags)
    return {
        "G": g,
        "H": h,
        "residual": residual,
        "mu_min_atom": mu_min,
        "gform_min": np.minimum(*gforms),
        "flags": flags,
    }
