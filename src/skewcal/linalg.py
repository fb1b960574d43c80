"""Dense Hermitian and density-matrix types plus the modular correlation kernel.

Everything here is desk-scale dense numerics: validated constructors, a
cached eigendecomposition per state, the entrywise kernel built from a monotone-function transform, and the JSON
wire format for matrices.

HermitianMatrix and DensityMatrix take one (n, n) matrix or a (T, n, n)
stack of T matrices of one dimension. Validation is written once, for
stacks, and checks every matrix of a stack on its own; a single matrix is
a stack of one. Slice k of a validated stack holds exactly what the
constructor computes for matrix k alone, and a stacked DensityMatrix is
decomposed by one batched eigh. Every rejection is a StackRejection: a
ValueError whose message is the reason alone and whose ``index`` names
the failing matrix, so a single matrix fails at index 0 with the text
that matrix k of a stack gets. The samplers take one seed or a sequence
of per-matrix seeds and return the same type either way: a sequence
gives a stack whose slices equal the one-seed draws bit for bit.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

import numpy as np

from .monotone import MonotoneFunction, tilde_transform

__all__ = [
    "DENSITY_REGULARIZATION",
    "FAITHFULNESS_FLOOR",
    "HERMITICITY_REPAIR_THRESHOLD",
    "DensityMatrix",
    "HermitianMatrix",
    "StackRejection",
    "as_matrix",
    "eigendecompose",
    "load_density",
    "load_hermitian",
    "matrix_from_json",
    "matrix_to_json",
    "modular_kernel_apply",
    "modular_kernel_matrix",
    "random_density",
    "random_hermitian",
    "save_matrix",
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

# Random states are mixed with this amount of the maximally mixed state so
# the faithfulness floor always holds.
DENSITY_REGULARIZATION = 1e-8


def as_matrix(a) -> np.ndarray:
    """Complex ndarray view of a HermitianMatrix, DensityMatrix, or array-like."""
    if isinstance(a, (HermitianMatrix, DensityMatrix)):
        return a.matrix
    return np.asarray(a, dtype=complex)


class StackRejection(ValueError):
    """A validator rejected the matrix at ``index`` of its (T, n, n) stack; the message is the reason."""

    def __init__(self, index: int, reason: str):
        super().__init__(reason)
        self.index = index


def _require(ok: np.ndarray, reason) -> None:
    """Raise StackRejection for the first False entry of the per-matrix mask ``ok``.

    ``reason(k)`` says why matrix k failed.
    """
    if not ok.all():
        index = int(np.argmin(ok))
        raise StackRejection(index, reason(index))


def _hermitian_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (T, n, n) complex stack; return ((M + M†)/2, max|M - (M + M†)/2|) per matrix.

    Rejects a matrix with a non-finite entry, or whose repair residual
    exceeds HERMITICITY_REPAIR_THRESHOLD * max(1, max|M|).
    """
    _require(np.isfinite(m).all(axis=(1, 2)), lambda k: "matrix entries must be finite")
    sym = m + m.conj().swapaxes(1, 2)
    sym *= 0.5
    residual = np.abs(m - sym).max(axis=(1, 2))
    # the scale is at least 1, so it is only needed past the bare threshold
    if (residual > HERMITICITY_REPAIR_THRESHOLD).any():
        limit = HERMITICITY_REPAIR_THRESHOLD * np.maximum(1.0, np.abs(m).max(axis=(1, 2)))
        _require(
            residual <= limit,
            lambda k: f"matrix is not Hermitian: max deviation {residual[k]:.3e} exceeds "
            f"repair threshold {limit[k]:.1e}",
        )
    return sym, residual


def _faithful_spectrum(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (T, n) and eigenvectors (T, n, n) of a stack of Hermitian states.

    Rejects a matrix whose trace is not 1 within TRACE_TOL, whose
    eigendecomposition fails its reconstruction check, or whose smallest
    eigenvalue lies below FAITHFULNESS_FLOOR.
    """
    trace = np.trace(sym, axis1=1, axis2=2).real
    _require(
        np.abs(trace - 1.0) <= TRACE_TOL,
        lambda k: f"density matrix trace {float(trace[k])!r} is not 1 within {TRACE_TOL:.1e}",
    )
    lam, u = eigendecompose(sym)
    _require(
        lam[:, -1] >= FAITHFULNESS_FLOOR,
        lambda k: f"state is not faithful: smallest eigenvalue {lam[k, -1]:.3e} is below "
        f"the floor {FAITHFULNESS_FLOOR:.1e}",
    )
    return lam, u


class HermitianMatrix:
    """Square complex matrix, or (T, n, n) stack of them, forced Hermitian on construction.

    The constructor keeps (M + M†)/2 and records how far the input sat from
    that repair; deviations beyond HERMITICITY_REPAIR_THRESHOLD times
    max(1, max|M|) raise, so the threshold scales with the data. For a
    stack, ``herm_residual`` is the (T,) array of per-matrix residuals.
    Treat instances as immutable.
    """

    __slots__ = ("matrix", "dim", "herm_residual")

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or 0 in m.shape:
            raise ValueError(f"expected a non-empty square matrix or stack, got shape {m.shape}")
        sym, residual = _hermitian_stack(m.reshape((-1,) + m.shape[-2:]))
        self.matrix, self.dim = sym.reshape(m.shape), int(m.shape[-1])
        self.herm_residual = residual if m.ndim == 3 else float(residual[0])

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim}, herm_residual={np.max(self.herm_residual):.2e})"


def eigendecompose(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix or stack.

    Returns (lam, u) with h = u @ diag(lam) @ u†; the reconstruction is
    verified to RECONSTRUCTION_RTOL relative Frobenius error. A (T, n, n)
    stack gives (T, n) and (T, n, n) arrays from one batched ``eigh``, each
    matrix checked on its own and a failure a StackRejection at its index.
    """
    m = as_matrix(h)
    stacked = m.ndim == 3
    if not stacked:
        m = m[None]
    try:
        lam, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigendecomposition did not converge: {exc}") from exc
    lam = np.ascontiguousarray(lam[:, ::-1])
    u = np.ascontiguousarray(u[:, :, ::-1])
    recon = (u * lam[:, None, :]) @ u.conj().swapaxes(1, 2)
    recon -= m
    residual = np.linalg.norm(recon, axis=(1, 2))
    scale = np.maximum(np.linalg.norm(m, axis=(1, 2)), np.finfo(float).tiny)
    _require(
        residual <= RECONSTRUCTION_RTOL * scale,
        lambda k: f"eigendecomposition reconstruction residual {residual[k]:.3e} exceeds "
        f"{RECONSTRUCTION_RTOL:.1e} * ||h||",
    )
    return (lam, u) if stacked else (lam[0], u[0])


class DensityMatrix:
    """Faithful state, or (T, n, n) stack of them: Hermitian, unit trace, spectrum above the floor.

    Spectral data is computed once here; every kernel downstream reuses
    ``eigenvalues`` (descending) and ``eigenvectors``, which over a stack
    carry a leading trial axis.
    """

    __slots__ = ("base", "eigenvalues", "eigenvectors")

    def __init__(self, entries):
        base = entries if isinstance(entries, HermitianMatrix) else HermitianMatrix(entries)
        shape = base.matrix.shape
        lam, u = _faithful_spectrum(base.matrix.reshape((-1,) + shape[-2:]))
        self.base = base
        self.eigenvalues, self.eigenvectors = lam.reshape(shape[:-1]), u.reshape(shape)

    @property
    def matrix(self) -> np.ndarray:
        return self.base.matrix

    @property
    def dim(self) -> int:
        return self.base.dim

    def to_eigenbasis(self, a) -> np.ndarray:
        """Entries of ``a`` in the eigenbasis of the state: u† a u, or u_k† a_k u_k over a stack."""
        u = self.eigenvectors
        return u.conj().swapaxes(-1, -2) @ as_matrix(a) @ u

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, spectrum={np.array2string(self.eigenvalues, precision=4)})"


def modular_kernel_matrix(rho: DensityMatrix, f: MonotoneFunction) -> np.ndarray:
    """Kernel k[i, j] = tilde(lam_i / lam_j) * lam_j over the state's eigenbasis.

    Symmetric in (i, j) because tilde(x) = x * tilde(1/x). A stacked state
    gives the (T, n, n) stack of its states' kernels, entry for entry
    those of each state alone.
    """
    lam = rho.eigenvalues
    ratios = lam[..., :, None] / lam[..., None, :]
    return np.asarray(tilde_transform(f, ratios), dtype=float) * lam[..., None, :]


def _kernel_apply_stack(u: np.ndarray, mapped: np.ndarray) -> np.ndarray:
    """Rotate a stack of kernel products k o x back: u (k o x) u† per matrix.

    ``mapped[..., s, :, :]`` is a kernel times an observable's eigenbasis
    entries, and ``u`` the eigenvectors of its state: (n, n) for one state,
    or (..., 1, n, n) to broadcast each state's over its products. Every
    result is validated finite and Hermitian by _hermitian_stack (a failure
    raises the StackRejection a single HermitianMatrix would); returns the
    Hermitian parts, shaped like ``mapped``. One batched matmul keeps each
    matrix's bits those of a stack of one.
    """
    back = u @ mapped @ u.conj().swapaxes(-1, -2)
    n = back.shape[-1]
    return _hermitian_stack(back.reshape(-1, n, n))[0].reshape(back.shape)


def _product_traces(kx: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re Tr(kx[t, f] y[t]) for a (T, F, n, n) stack ``kx`` and a (T, n, n) stack ``y``.

    Each trace is the entry sum sum_ij kx_ij y_ji, taken against a
    contiguous transpose of ``y``: O(n^2) per trace instead of a matmul,
    and the same reduction over one trace's entries whatever T and F are.
    """
    y_t = np.ascontiguousarray(y.swapaxes(-1, -2))
    return np.einsum("tfij,tij->tf", kx, y_t).real


def modular_kernel_apply(rho: DensityMatrix, f: MonotoneFunction, a) -> np.ndarray:
    """Apply the modular correlation kernel of (rho, f) to an observable.

    In the eigenbasis of rho the observable's entries are scaled entrywise
    by the kernel; the result is rotated back and is Hermitian up to
    round-off by kernel symmetry. Returns its validated Hermitian part as
    an (n, n) array: the G = H audit's batched kernel application on a
    stack of one.
    """
    m = as_matrix(a)
    if m.shape != rho.matrix.shape:
        raise ValueError(f"observable shape {m.shape} does not match state dim {rho.dim}")
    mapped = modular_kernel_matrix(rho, f) * rho.to_eigenbasis(m)
    return _kernel_apply_stack(rho.eigenvectors, mapped[None])[0]


def _is_seed(seed) -> bool:
    return isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)


def _seed_list(seed: int | Sequence[int]) -> tuple[list, bool]:
    """(seeds, stacked): an integer seed is a stack of one, a sequence one seed per matrix.

    A seed is a Python or numpy integer, never a bool; anything else, an
    empty sequence or a string (bytes would read as their character codes)
    raises ValueError.
    """
    if _is_seed(seed):
        return [seed], False
    try:
        seeds = None if isinstance(seed, (str, bytes, bytearray)) else list(seed)
    except TypeError:
        seeds = None
    if not seeds or not all(_is_seed(s) for s in seeds):
        raise ValueError(f"seed must be an integer or a non-empty sequence of integers, got {seed!r}")
    return seeds, True


def _ginibre(dim: int, seeds: list) -> np.ndarray:
    """(T, n, n) stack of i.i.d. standard complex Gaussian matrices, one per seed.

    Matrix k takes its real parts, then its imaginary parts, from one
    ``standard_normal((2, n, n))`` draw of ``default_rng(seeds[k])``: the
    same stream as two (n, n) draws.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    raw = np.empty((len(seeds), 2, dim, dim))
    for k, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=raw[k])
    g = np.empty((len(seeds), dim, dim), dtype=complex)
    g.real = raw[:, 0]
    g.imag = raw[:, 1]
    return g


def random_hermitian(dim: int, seed: int | Sequence[int]) -> HermitianMatrix:
    """GUE-type draw (G + G†)/2 with G i.i.d. standard complex Gaussian.

    An integer ``seed`` gives one matrix; a sequence of T seeds gives the
    (T, n, n) stack whose matrix k is ``random_hermitian(dim, seed[k]).matrix``.
    """
    seeds, stacked = _seed_list(seed)
    g = _ginibre(dim, seeds)
    h = g + g.conj().swapaxes(1, 2)
    h *= 0.5
    return HermitianMatrix(h if stacked else h[0])


def random_density(dim: int, seed: int | Sequence[int]) -> DensityMatrix:
    """Wishart-type draw G G† / Tr, mixed slightly toward the maximally mixed state.

    An integer ``seed`` gives one state; a sequence of T seeds gives the
    stack whose state k is ``random_density(dim, seed[k])``, validated and
    decomposed with one batched eigh.
    """
    seeds, stacked = _seed_list(seed)
    g = _ginibre(dim, seeds)
    w = g @ g.conj().swapaxes(1, 2)
    w /= np.trace(w, axis1=1, axis2=2).real[:, None, None]
    w *= 1.0 - DENSITY_REGULARIZATION
    w += DENSITY_REGULARIZATION * np.eye(dim) / dim
    return DensityMatrix(w if stacked else w[0])


# --- JSON wire format -------------------------------------------------------
#
# A matrix is {"n": int, "re": [[...]], "im": [[...]]} with n x n arrays
# of JSON numbers. repr-level float serialization round-trips bit-exactly.


def matrix_to_json(m) -> dict:
    arr = as_matrix(m)
    if arr.ndim != 2:
        raise ValueError(f"matrix JSON holds one matrix, got shape {arr.shape}")
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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix JSON field 'n' must be a positive integer, got {n!r}")
    try:
        re = np.array(data["re"], dtype=float)
        im = np.array(data["im"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix JSON entries are not numeric: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(
            f"matrix JSON arrays must be {n} x {n}, got re {re.shape} and im {im.shape}"
        )
    for x in (x for part in (data["re"], data["im"]) for row in part for x in row):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"matrix JSON entries are not numeric: {x!r} is not a JSON number")
    return re + 1j * im


def save_matrix(path, m) -> None:
    data = matrix_to_json(m)
    with open(path, "w") as fh:
        json.dump(data, fh)
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
