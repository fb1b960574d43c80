"""Finite-dimensional modular model of a faithful state, with executable audits.

The carrier space is the full matrix algebra equipped with the inner
product <x, y> = Tr(rho x† y) and cyclic vector the identity matrix. The
modular operator acts as x -> rho x rho^(-1); its spectrum is the finite
set of eigenvalue ratios, so every spectral integral below collapses to an
exact sum over ratio atoms.

The centerpiece is the identity audit: the inequality gap

    G = var_a var_b - cov^2 - (info_a info_b - corr^2)

computed from plain traces must equal the atomic double integral

    H = (1/4) sum over atom pairs of
        [(s + 1) tilde(t) + (t + 1) tilde(s) - 2 tilde(s) tilde(t)] mu(s, t)

where mu is a product measure built from the spectral weights of the two
centered observables. mu is nonnegative atom by atom and the integrand is
nonnegative wherever 0 <= tilde(x) <= (x + 1)/2, which exhibits G >= 0.

H is evaluated in separable form, in O(K) per catalog entry for K atoms.
mu = m_xx (x) m_yy + m_yy (x) m_xx - 2 m_xy (x) m_xy is a sum of three
outer products of per-atom marginals, and the integrand
p(s) q(t) + p(t) q(s) - 2 q(s) q(t), with p(s) = s + 1 and q = tilde, is a
sum of three outer products of per-atom functions. Every one of the nine
products of an integrand term with a measure term therefore factors into
two inner products over the atoms, so the K x K double sum equals

    H = (1/4) [2 (P_x Q_y + P_y Q_x) - 4 (P_z Q_z + Q_x Q_y - Q_z^2)]

with P_x = sum_k p(s_k) m_xx[k], Q_x = sum_k q(s_k) m_xx[k] (y for m_yy,
z for m_xy) exactly, up to the order of floating-point summation.

The audit does the f-independent work once per instance: variances,
covariance, the centered observables with their graph forms and mu, and
the state traces Re Tr(rho x y) and eigenbasis entries of both observables
that the direct route needs. Per catalog entry it builds the modular kernel
once and uses it for both informations, the correlation and the G-form;
the kernel products of all entries are rotated back and validated
Hermitian as one stack, and H is evaluated in separable form.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    _kernel_apply_stack,
    as_matrix,
    group_spectrum,
    modular_kernel_matrix,
)
from .monotone import MonotoneFunction, tilde_transform
# f_correlation and f_information go unused here; bench/tracing.py wraps them by name
from .qinfo import centered, covariance, f_correlation, f_information, variance  # noqa: F401

__all__ = [
    "AtomicPairMeasure",
    "GnsAuditReport",
    "GnsModel",
    "ModularSpectrum",
    "audit_G_equals_H",
    "build_mu",
    "form_E1",
    "form_F",
    "form_G",
    "h_from_measure",
    "pair_integrand",
]

# |G - H| is accepted up to this much relative slack.
G_H_RTOL = 1e-8

# Atom weights of mu may undershoot zero by round-off up to this fraction of
# the total mass; the quadratic form G may undershoot similarly relative to
# the graph form E1.
MU_ATOM_SLACK = 1e-12
GFORM_SLACK = 1e-12

# Entries per row block when build_mu fills its K x K weights (256 KiB).
_MU_BLOCK_ENTRIES = 32768


class GnsModel:
    """Modular data of the state Tr(rho .) on the full matrix algebra.

    Vectors of the representation are plain matrices; the cyclic vector is
    the identity. Attributes expose the state's spectral data and the
    matrix of eigenvalue ratios lam_i / lam_j that represents the modular
    operator entrywise in the eigenbasis.
    """

    __slots__ = ("rho", "dim", "eigenvalues", "eigenvectors", "ratios", "_spectrum")

    def __init__(self, rho: DensityMatrix):
        self.rho = rho
        self.dim = rho.dim
        self.eigenvalues = rho.eigenvalues
        self.eigenvectors = rho.eigenvectors
        self.ratios = rho.eigenvalues[:, None] / rho.eigenvalues[None, :]
        self._spectrum = None

    def inner(self, x, y) -> complex:
        """GNS inner product Tr(rho x† y), by direct trace."""
        return complex(np.trace(self.rho.matrix @ as_matrix(x).conj().T @ as_matrix(y)))

    def to_eigenbasis(self, x) -> np.ndarray:
        return self.rho.to_eigenbasis(x)

    def spectrum(self) -> "ModularSpectrum":
        """Atomic spectrum of the modular operator (cached; value-identical to uncached)."""
        if self._spectrum is None:
            self._spectrum = _compute_spectrum(self.eigenvalues)
        return self._spectrum


def _weighted_form(kernel: np.ndarray, xt: np.ndarray, et: np.ndarray) -> complex:
    # sum_ij kernel[i,j] * conj(xt[i,j]) * et[i,j] over eigenbasis entries
    # xt, et; the kernel carries the column weight lam[j] that realizes
    # Tr(rho x† y).
    return complex(np.sum(kernel * np.conj(xt) * et))


def form_E1(m: GnsModel, xi, eta) -> complex:
    """Graph form <xi, (1 + Delta) eta>: <xi, Delta eta> plus the plain inner product."""
    kernel = m.ratios * m.eigenvalues[None, :]
    return _weighted_form(kernel, m.to_eigenbasis(xi), m.to_eigenbasis(eta)) + m.inner(xi, eta)


def form_F(m: GnsModel, f: MonotoneFunction, xi, eta) -> complex:
    """Kernel form <tilde(Delta)^(1/2) xi, tilde(Delta)^(1/2) eta>."""
    kernel = modular_kernel_matrix(m.rho, f)
    return _weighted_form(kernel, m.to_eigenbasis(xi), m.to_eigenbasis(eta))


def form_G(m: GnsModel, f: MonotoneFunction, xi, eta) -> complex:
    """Nonnegative-difference form: form_E1 / 2 - form_F."""
    return 0.5 * form_E1(m, xi, eta) - form_F(m, f, xi, eta)


@dataclass(frozen=True, eq=False)
class ModularSpectrum:
    """Atomic decomposition of the modular operator's spectrum.

    ``labels[i, j]`` is the atom index of eigenbasis entry (i, j) and
    ``values[k]`` the ratio of atom k; every index pair lies in exactly one
    atom, and ``labels.T`` maps each atom to the atom of the inverse ratio.
    """

    labels: np.ndarray
    values: np.ndarray


def _compute_spectrum(eigenvalues: np.ndarray) -> ModularSpectrum:
    cluster = group_spectrum(eigenvalues)
    # cluster means, summed in spectrum order
    reps = np.bincount(cluster, weights=eigenvalues) / np.bincount(cluster)

    labels = cluster[:, None] * reps.size + cluster[None, :]
    values = (reps[:, None] / reps[None, :]).ravel()
    return ModularSpectrum(labels=labels, values=values)


@dataclass(frozen=True, eq=False)
class AtomicPairMeasure:
    """Signed measure on pairs of spectrum atoms; nonnegative up to round-off.

    ``weights[k, l]`` belongs to the value pair (values[k], values[l]) and
    equals m_xx[k] m_yy[l] + m_yy[k] m_xx[l] - 2 m_xy[k] m_xy[l] for the
    per-atom marginals carried alongside it.
    """

    values: np.ndarray
    weights: np.ndarray
    m_xx: np.ndarray
    m_yy: np.ndarray
    m_xy: np.ndarray

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def min_weight(self) -> float:
        return float(np.min(self.weights))


def build_mu(m: GnsModel, xi, eta) -> AtomicPairMeasure:
    """Product measure mu = m_xx (x) m_yy + m_yy (x) m_xx - 2 m_xy (x) m_xy.

    m_xx, m_yy, m_xy are the spectral weights Re <xi, e_k xi>,
    Re <eta, e_k eta>, Re <xi, e_k eta> of the atoms e_k. Each resulting
    atom weight is nonnegative up to round-off: the cross term is bounded
    through the projection Cauchy-Schwarz inequality and the two plus terms
    dominate by the arithmetic-geometric mean inequality.
    """
    spec = m.spectrum()
    xt = m.to_eigenbasis(as_matrix(xi))
    et = m.to_eigenbasis(as_matrix(eta))
    w = m.eigenvalues[None, :]
    k = spec.values.size
    flat = spec.labels.ravel()
    m_xx = np.bincount(flat, weights=(np.abs(xt) ** 2 * w).ravel(), minlength=k)
    m_yy = np.bincount(flat, weights=(np.abs(et) ** 2 * w).ravel(), minlength=k)
    m_xy = np.bincount(flat, weights=(np.real(np.conj(xt) * et) * w).ravel(), minlength=k)
    # (m_xx m_yy^T + m_yy m_xx^T) - 2 (m_xy m_xy^T), entry by entry in this
    # order, written in row blocks whose temporaries stay in cache: at
    # K = dim^2 atoms, whole K x K temporaries outgrow it from dim ~20 on.
    weights = np.empty((k, k))
    step = max(1, _MU_BLOCK_ENTRIES // k)
    for lo in range(0, k, step):
        rows = weights[lo : lo + step]
        np.multiply(m_xx[lo : lo + step, None], m_yy, out=rows)
        rows += m_yy[lo : lo + step, None] * m_xx
        rows -= 2.0 * (m_xy[lo : lo + step, None] * m_xy)
    return AtomicPairMeasure(
        values=spec.values, weights=weights, m_xx=m_xx, m_yy=m_yy, m_xy=m_xy
    )


def pair_integrand(f: MonotoneFunction, s, t):
    """(s + 1) tilde(t) + (t + 1) tilde(s) - 2 tilde(s) tilde(t), elementwise.

    Equals ((s + 1) - tilde(s)) tilde(t) + ((t + 1) - tilde(t)) tilde(s),
    a sum of products of nonnegative factors for any valid catalog entry.
    """
    fs = np.asarray(tilde_transform(f, s), dtype=float)
    ft = np.asarray(tilde_transform(f, t), dtype=float)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return (s + 1.0) * ft + (t + 1.0) * fs - 2.0 * fs * ft


def h_from_measure(mu: AtomicPairMeasure, f: MonotoneFunction) -> float:
    """Integrate the pair integrand against an already-built measure.

    Evaluates (1/4) sum_kl pair_integrand(f, s_k, s_l) weights[k, l] in its
    separable form from the marginals, in O(K) for K atoms:

        H = (1/4) [2 (P_x Q_y + P_y Q_x) - 4 (P_z Q_z + Q_x Q_y - Q_z^2)]

    with p = values + 1, q = tilde(values), P_x = p . m_xx, Q_x = q . m_xx
    (y for m_yy, z for m_xy). Both the integrand and the weights are sums
    of outer products of per-atom vectors, so the double sum factors into
    these inner products exactly; only the summation order differs.
    """
    p = mu.values + 1.0
    q = np.asarray(tilde_transform(f, mu.values), dtype=float)
    px, py, pz = (float(p @ w) for w in (mu.m_xx, mu.m_yy, mu.m_xy))
    qx, qy, qz = (float(q @ w) for w in (mu.m_xx, mu.m_yy, mu.m_xy))
    return 0.25 * (2.0 * (px * qy + py * qx) - 4.0 * (pz * qz + qx * qy - qz * qz))


@dataclass(frozen=True)
class GnsAuditReport:
    """Outcome of the G = H identity audit for one instance and catalog entry."""

    g_value: float
    h_value: float
    residual: float
    mu_min_atom: float
    gform_min: float
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "G": self.g_value,
            "H": self.h_value,
            "residual": self.residual,
            "mu_min_atom": self.mu_min_atom,
            "gform_min": self.gform_min,
            "flags": list(self.flags),
        }


def audit_G_equals_H(
    m: GnsModel, functions: Sequence[MonotoneFunction], a, b
) -> list[GnsAuditReport]:
    """Check the trace-route inequality gap against its spectral double integral.

    Audits one instance (state of ``m``, observables ``a`` and ``b``) for
    each catalog entry in ``functions`` and returns one report per entry,
    in order. G is assembled from direct traces, the route of the qinfo
    scalars; H integrates the pair measure of the centered observables.
    |G - H| beyond G_H_RTOL * max(1, |G|) is flagged, as are negative mu
    atoms beyond round-off slack and a negative quadratic form G^f on
    either centered observable.

    Per instance: the variances, the covariance, the centered observables,
    their graph forms E1, the measure mu, Re Tr(rho aa), Re Tr(rho bb),
    Re Tr(rho ab) and the eigenbasis entries u† a u and u† b u. Per entry:
    one modular kernel k, H by :func:`h_from_measure` in separable form and
    the kernel form F of G^f = E1 / 2 - F. The 2F products k o (u† a u) and
    k o (u† b u) of all F entries go back to the standard basis as one
    (2F, n, n) stack, validated finite and Hermitian (a failure raises
    ValueError). The informations and the correlation are then
    Re Tr(rho x y) - Re Tr(kx y) against the unrotated observables, the same
    operations as :func:`~skewcal.qinfo.f_correlation`, so G equals the
    public direct route bit for bit.
    """
    rho = m.rho
    var_a = variance(rho, a)
    var_b = variance(rho, b)
    cov_ab = covariance(rho, a, b)
    a0 = centered(rho, a)
    b0 = centered(rho, b)
    mu = build_mu(m, a0, b0)
    mu_min = mu.min_weight
    mu_negative = mu_min < -MU_ATOM_SLACK * max(mu.mass, 0.0)
    # eigenbasis entries and complex E1 of each centered observable
    graph = [(m.to_eigenbasis(x), form_E1(m, x, x)) for x in (a0, b0)]

    # the f-independent half of the direct route: the state traces of
    # f_correlation and both observables in the state's eigenbasis
    ma, mb = as_matrix(a), as_matrix(b)
    tr_aa, tr_bb, tr_ab = (
        float(np.trace(rho.matrix @ x @ y).real) for x, y in ((ma, ma), (mb, mb), (ma, mb))
    )
    tilted = np.array((m.to_eigenbasis(ma), m.to_eigenbasis(mb)))

    # one kernel per entry, applied to both observables in one validated
    # (2F, n, n) stack ordered (k_0 o a, k_0 o b, k_1 o a, ...)
    kernels = [modular_kernel_matrix(rho, f) for f in functions]
    mapped = (np.array(kernels)[:, None] * tilted).reshape(-1, m.dim, m.dim)
    applied, _ = _kernel_apply_stack(m.eigenvectors, mapped)
    ka, kb = applied[0::2], applied[1::2]
    # Tr(ka a), Tr(kb b) and Tr(ka b) against the unrotated observables
    tr_ka_a, tr_kb_b, tr_ka_b = (
        np.trace(k @ y, axis1=1, axis2=2).real.tolist() for k, y in ((ka, ma), (kb, mb), (ka, mb))
    )

    reports = []
    for f, kernel, ka_a, kb_b, ka_b in zip(functions, kernels, tr_ka_a, tr_kb_b, tr_ka_b):
        info_a = tr_aa - ka_a
        info_b = tr_bb - kb_b
        corr_ab = tr_ab - ka_b
        g = var_a * var_b - cov_ab**2 - info_a * info_b + corr_ab**2
        h = h_from_measure(mu, f)
        residual = abs(g - h)

        flags: list[str] = []
        if residual > G_H_RTOL * max(1.0, abs(g)):
            flags.append("g_h_mismatch")
        if mu_negative:
            flags.append("mu_negative_atom")

        # form_G(m, f, x, x) with the f-independent parts reused
        gform_values = []
        for xt, e1 in graph:
            gf = (0.5 * e1 - _weighted_form(kernel, xt, xt)).real
            gform_values.append(gf)
            if gf < -GFORM_SLACK * max(e1.real, 0.0):
                flags.append("gform_negative")

        reports.append(
            GnsAuditReport(
                g_value=g,
                h_value=h,
                residual=residual,
                mu_min_atom=mu_min,
                gform_min=min(gform_values),
                flags=tuple(flags),
            )
        )
    return reports
