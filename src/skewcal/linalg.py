"""Dense Hermitian and density-matrix types plus the modular correlation kernel.

Everything here is desk-scale dense numerics: validated constructors, a
cached eigendecomposition per state, fractional matrix powers, the
entrywise kernel built from a monotone-function transform, and the JSON
wire format for matrices.
"""

from __future__ import annotations

import json

import numpy as np

from .monotone import MonotoneFunction, _require_beta, tilde_transform

__all__ = [
    "DEGENERACY_RTOL",
    "DENSITY_REGULARIZATION",
    "FAITHFULNESS_FLOOR",
    "HERMITICITY_REPAIR_THRESHOLD",
    "DensityMatrix",
    "HermitianMatrix",
    "as_matrix",
    "eigendecompose",
    "group_spectrum",
    "load_density",
    "load_hermitian",
    "matrix_from_json",
    "matrix_power",
    "matrix_to_json",
    "modular_kernel_apply",
    "modular_kernel_matrix",
    "random_density",
    "random_hermitian",
    "save_matrix",
    "wyd_sandwich",
]

# Inputs may carry round-off off Hermiticity; repairs up to this max-abs
# deviation times max(1, max|m|) are accepted and recorded, larger ones
# rejected.
HERMITICITY_REPAIR_THRESHOLD = 1e-9

# States with an eigenvalue below this floor are rejected: modular ratios
# and inverse powers need a faithful (strictly positive) spectrum.
FAITHFULNESS_FLOOR = 1e-10

TRACE_TOL = 1e-10
RECONSTRUCTION_RTOL = 1e-9

# Eigenvalues closer than DEGENERACY_RTOL * max(lam) count as degenerate
# when grouping spectra into clusters.
DEGENERACY_RTOL = 1e-12

# Random states are mixed with this amount of the maximally mixed state so
# the faithfulness floor always holds.
DENSITY_REGULARIZATION = 1e-8


def as_matrix(a) -> np.ndarray:
    """Complex ndarray view of a HermitianMatrix, DensityMatrix, or array-like."""
    if isinstance(a, (HermitianMatrix, DensityMatrix)):
        return a.matrix
    return np.asarray(a, dtype=complex)


class HermitianMatrix:
    """Square complex matrix forced Hermitian on construction.

    The constructor keeps (M + M†)/2 and records how far the input sat from
    that repair; deviations beyond HERMITICITY_REPAIR_THRESHOLD times
    max(1, max|M|) raise, so the threshold scales with the data.
    Treat instances as immutable.
    """

    __slots__ = ("matrix", "dim", "herm_residual")

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("matrix entries must be finite")
        sym = 0.5 * (m + m.conj().T)
        residual = float(np.max(np.abs(m - sym)))
        # the scale is at least 1, so it is only needed past the bare threshold
        if residual > HERMITICITY_REPAIR_THRESHOLD:
            limit = HERMITICITY_REPAIR_THRESHOLD * max(1.0, float(np.max(np.abs(m))))
            if residual > limit:
                raise ValueError(
                    f"matrix is not Hermitian: max deviation {residual:.3e} exceeds "
                    f"repair threshold {limit:.1e}"
                )
        self.matrix = sym
        self.dim = int(m.shape[0])
        self.herm_residual = residual

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim}, herm_residual={self.herm_residual:.2e})"


def eigendecompose(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix.

    Returns (lam, u) with h = u @ diag(lam) @ u†; the reconstruction is
    verified to RECONSTRUCTION_RTOL relative Frobenius error.
    """
    m = as_matrix(h)
    try:
        lam, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigendecomposition did not converge: {exc}") from exc
    lam = np.ascontiguousarray(lam[::-1])
    u = np.ascontiguousarray(u[:, ::-1])
    residual = float(np.linalg.norm((u * lam) @ u.conj().T - m))
    scale = max(float(np.linalg.norm(m)), np.finfo(float).tiny)
    if residual > RECONSTRUCTION_RTOL * scale:
        raise ValueError(
            f"eigendecomposition reconstruction residual {residual:.3e} exceeds "
            f"{RECONSTRUCTION_RTOL:.1e} * ||h||"
        )
    return lam, u


class DensityMatrix:
    """Faithful state: Hermitian, unit trace, spectrum above the floor.

    Spectral data is computed once here; every kernel and power downstream
    reuses ``eigenvalues`` (descending) and ``eigenvectors``.
    """

    __slots__ = ("base", "eigenvalues", "eigenvectors")

    def __init__(self, entries):
        base = entries if isinstance(entries, HermitianMatrix) else HermitianMatrix(entries)
        trace = float(np.trace(base.matrix).real)
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace!r} is not 1 within {TRACE_TOL:.1e}")
        lam, u = eigendecompose(base)
        if lam[-1] < FAITHFULNESS_FLOOR:
            raise ValueError(
                f"state is not faithful: smallest eigenvalue {lam[-1]:.3e} is below "
                f"the floor {FAITHFULNESS_FLOOR:.1e}"
            )
        self.base = base
        self.eigenvalues = lam
        self.eigenvectors = u

    @property
    def matrix(self) -> np.ndarray:
        return self.base.matrix

    @property
    def dim(self) -> int:
        return self.base.dim

    def to_eigenbasis(self, a) -> np.ndarray:
        """Entries of ``a`` in the eigenbasis of the state: u† a u."""
        u = self.eigenvectors
        return u.conj().T @ as_matrix(a) @ u

    def from_eigenbasis(self, a) -> np.ndarray:
        u = self.eigenvectors
        return u @ as_matrix(a) @ u.conj().T

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, spectrum={np.array2string(self.eigenvalues, precision=4)})"


def matrix_power(rho: DensityMatrix, p: float) -> HermitianMatrix:
    """Fractional power rho^p through the cached eigendecomposition."""
    lam = np.power(rho.eigenvalues, float(p))
    u = rho.eigenvectors
    return HermitianMatrix((u * lam) @ u.conj().T)


def modular_kernel_matrix(rho: DensityMatrix, f: MonotoneFunction) -> np.ndarray:
    """Kernel k[i, j] = tilde(lam_i / lam_j) * lam_j over the state's eigenbasis.

    Symmetric in (i, j) because tilde(x) = x * tilde(1/x).
    """
    lam = rho.eigenvalues
    ratios = lam[:, None] / lam[None, :]
    return np.asarray(tilde_transform(f, ratios), dtype=float) * lam[None, :]


def modular_kernel_apply(rho: DensityMatrix, f: MonotoneFunction, a) -> HermitianMatrix:
    """Apply the modular correlation kernel of (rho, f) to an observable.

    In the eigenbasis of rho the observable's entries are scaled entrywise
    by the kernel; the result is rotated back and is Hermitian up to
    round-off by kernel symmetry.
    """
    m = as_matrix(a)
    if m.shape != rho.matrix.shape:
        raise ValueError(f"observable shape {m.shape} does not match state dim {rho.dim}")
    u = rho.eigenvectors
    tilted = u.conj().T @ m @ u
    mapped = modular_kernel_matrix(rho, f) * tilted
    return HermitianMatrix(u @ mapped @ u.conj().T)


def wyd_sandwich(rho: DensityMatrix, beta: float, a) -> HermitianMatrix:
    """Symmetrized power sandwich (rho^b a rho^(1-b) + rho^(1-b) a rho^b) / 2.

    Closed form of the kernel action for the wyd family; kept as an
    independent computation path for cross-checking.
    """
    beta = _require_beta(beta)
    m = as_matrix(a)
    if m.shape != rho.matrix.shape:
        raise ValueError(f"observable shape {m.shape} does not match state dim {rho.dim}")
    pb = matrix_power(rho, beta).matrix
    pc = matrix_power(rho, 1.0 - beta).matrix
    return HermitianMatrix(0.5 * (pb @ m @ pc + pc @ m @ pb))


def random_hermitian(dim: int, seed: int) -> HermitianMatrix:
    """GUE-type draw (G + G†)/2 with G i.i.d. standard complex Gaussian."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(0.5 * (g + g.conj().T))


def random_density(dim: int, seed: int) -> DensityMatrix:
    """Wishart-type draw G G† / Tr, mixed slightly toward the maximally mixed state."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    rho = w / float(np.trace(w).real)
    rho = (1.0 - DENSITY_REGULARIZATION) * rho + DENSITY_REGULARIZATION * np.eye(dim) / dim
    return DensityMatrix(rho)


def group_spectrum(eigenvalues) -> np.ndarray:
    """Cluster labels of a descending spectrum's near-degenerate eigenvalues.

    Consecutive values closer than DEGENERACY_RTOL * max|lam| share a
    cluster; labels count up from 0 in spectrum order.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("expected a non-empty eigenvalue vector")
    tol = DEGENERACY_RTOL * float(np.max(np.abs(lam)))
    labels = np.zeros(lam.size, dtype=int)
    np.cumsum(np.abs(np.diff(lam)) > tol, out=labels[1:])
    return labels


# --- JSON wire format -------------------------------------------------------
#
# A matrix is {"n": int, "re": [[...]], "im": [[...]]} with n x n float
# arrays. repr-level float serialization round-trips bit-exactly.


def matrix_to_json(m) -> dict:
    arr = as_matrix(m)
    return {
        "n": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def matrix_from_json(data: dict) -> np.ndarray:
    if not isinstance(data, dict):
        raise ValueError("matrix JSON must be an object")
    missing = {"n", "re", "im"} - set(data)
    if missing:
        raise ValueError(f"matrix JSON is missing keys: {sorted(missing)}")
    n = data["n"]
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix JSON field 'n' must be a positive integer, got {n!r}")
    try:
        re = np.array(data["re"], dtype=float)
        im = np.array(data["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix JSON entries are not numeric: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(
            f"matrix JSON arrays must be {n} x {n}, got re {re.shape} and im {im.shape}"
        )
    return re + 1j * im


def save_matrix(path, m) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")


def _load_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def load_hermitian(path) -> HermitianMatrix:
    """Read a matrix JSON file and validate Hermiticity."""
    return HermitianMatrix(matrix_from_json(_load_json(path)))


def load_density(path) -> DensityMatrix:
    """Read a matrix JSON file and validate it as a faithful state."""
    return DensityMatrix(matrix_from_json(_load_json(path)))
