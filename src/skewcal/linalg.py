"""Dense Hermitian and density-matrix types, seeded samplers and the JSON wire format.

Everything here is desk-scale dense numerics: validated constructors, a
cached eigendecomposition per state, and the JSON wire format for
matrices.

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
gives a stack whose slices equal the one-seed draws bit for bit. A seed
is an integer or an ISeedSequence; ``_seed_sequence_words`` and
``_preset_seeds`` turn an array of integer seeds into ISeedSequences that
draw the integers' streams in one hash pass.
"""

from __future__ import annotations

import functools
import json
import numbers

import numpy as np

# Nothing here calls tilde_transform; bench/tracing.py wraps it here by name.
from .monotone import tilde_transform  # noqa: F401

__all__ = [
    "DENSITY_REGULARIZATION",
    "FAITHFULNESS_FLOOR",
    "HERMITICITY_REPAIR_THRESHOLD",
    "DensityMatrix",
    "HermitianMatrix",
    "StackRejection",
    "load_density",
    "load_hermitian",
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

# Floor of a reconstruction check's scale, so that a zero matrix divides nothing.
_TINY = np.finfo(float).tiny


def _as_matrix(a) -> np.ndarray:
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
    exceeds HERMITICITY_REPAIR_THRESHOLD * max(1, max|M|); non-finite
    entries are named first, as the first such matrix of the stack.
    """
    # a non-finite entry leaves a NaN (or an infinite) residual, so finite
    # entries need checking only when some residual is off the bare threshold
    with np.errstate(invalid="ignore"):
        # halved before the sum, so entries near the float maximum do not overflow
        sym = 0.5 * m
        sym += sym.conj().swapaxes(1, 2)
        residual = np.abs(m - sym).max(axis=(1, 2))
    # the scale is at least 1, so it is only needed past the bare threshold
    if not (residual <= HERMITICITY_REPAIR_THRESHOLD).all():
        _require(np.isfinite(m).all(axis=(1, 2)), lambda k: "matrix entries must be finite")
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


def eigendecompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a (T, n, n) Hermitian stack.

    Returns the (T, n) and (T, n, n) arrays (lam, u) of one batched ``eigh``,
    with m[k] = u[k] @ diag(lam[k]) @ u[k]†. Each reconstruction is verified
    to RECONSTRUCTION_RTOL relative Frobenius error on its own, a failure a
    StackRejection at its index.
    """
    try:
        lam, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigendecomposition did not converge: {exc}") from exc
    lam = np.ascontiguousarray(lam[:, ::-1])
    u = np.ascontiguousarray(u[:, :, ::-1])
    recon = (u * lam[:, None, :]) @ u.conj().swapaxes(1, 2)
    recon -= m
    residual, norm = _frobenius_norms(recon), _frobenius_norms(m)
    _require(
        residual <= RECONSTRUCTION_RTOL * np.maximum(norm, _TINY),
        lambda k: f"eigendecomposition reconstruction residual {residual[k]:.3e} exceeds "
        f"{RECONSTRUCTION_RTOL:.1e} * ||h||",
    )
    return lam, u


class DensityMatrix:
    """Faithful state, or (T, n, n) stack of them: Hermitian, unit trace, spectrum above the floor.

    ``matrix``, ``dim`` and ``herm_residual`` are those of the validated
    HermitianMatrix. Spectral data is computed once here; every kernel
    downstream reuses ``eigenvalues`` (descending) and ``eigenvectors``,
    which over a stack carry a leading trial axis.
    """

    __slots__ = ("matrix", "dim", "herm_residual", "eigenvalues", "eigenvectors")

    def __init__(self, entries):
        h = entries if isinstance(entries, HermitianMatrix) else HermitianMatrix(entries)
        self.matrix, self.dim, self.herm_residual = h.matrix, h.dim, h.herm_residual
        shape = h.matrix.shape
        lam, u = _faithful_spectrum(h.matrix.reshape((-1,) + shape[-2:]))
        self.eigenvalues, self.eigenvectors = lam.reshape(shape[:-1]), u.reshape(shape)

    def to_eigenbasis(self, a) -> np.ndarray:
        """Entries of ``a`` in the eigenbasis of the state: u† a u, or u_k† a_k u_k over a stack."""
        u = self.eigenvectors
        return u.conj().swapaxes(-1, -2) @ _as_matrix(a) @ u

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, spectrum={np.array2string(self.eigenvalues, precision=4)})"


def _dot(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """p . w over the last axis: one BLAS dot per row (and entry), whatever the stack."""
    return (p[..., None, :] @ w[..., :, None])[..., 0, 0]


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each matrix of a complex (T, n, n) stack, bit for bit.

    That norm is sqrt(re . re + im . im) over the ravelled matrix, two BLAS
    dots on strided views; here each is one ``_dot`` over the whole stack.
    """
    flat = stack.reshape(len(stack), -1)
    re, im = flat.real, flat.imag
    return np.sqrt(_dot(re, re) + _dot(im, im))


def _integer(value, name: str) -> int:
    """``value`` as an int; ValueError for a bool or a non-integer, never a truncation."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_seed(seed) -> bool:
    if isinstance(seed, (int, np.integer)):
        return not isinstance(seed, bool)
    return isinstance(seed, np.random.bit_generator.ISeedSequence)


def _seed_list(seed) -> tuple[list, bool]:
    """(seeds, stacked): one seed is a stack of one, a sequence one seed per matrix.

    A seed is a Python or numpy integer, never a bool, or an
    ``np.random.bit_generator.ISeedSequence``; anything else, an empty
    sequence or a string (bytes would read as their character codes)
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, pool size 4):
# every word is a uint32 and every product wraps mod 2**32. Its hash
# constant runs through a fixed sequence whatever the entropy, so each
# step's constants are precomputed here, as (steps, 1) columns.
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and the multiply constant of each of ``steps`` consecutive hashmix steps."""
    xors, mults = [], []
    for _ in range(steps):
        xors.append(init)
        init = init * mult & 0xFFFFFFFF
        mults.append(init)
    return np.array(xors, dtype=np.uint32)[:, None], np.array(mults, dtype=np.uint32)[:, None]


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 ``words`` with ``xor`` and ``mult`` broadcast; a new array."""
    out = words ^ xor
    out *= mult
    out ^= out >> 16
    return out


# mix_entropy: steps 0-3 hash the pool's 4 words (2 entropy words, then 0
# twice), then 3 steps for each source word's mix into the other words
_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
# generate_state(4, np.uint64): 8 uint32 words, from pool words 0-3 twice
_OUT_XOR, _OUT_MULT = (c.reshape(2, 4, 1) for c in _hash_constants(0x8B51F9DD, 0x58F38DED, 8))


def _seed_sequence_words(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every s of a uint64 array, in one pass.

    Returns the (*seeds.shape, 4) uint64 words that ``PCG64(s)`` takes
    from numpy's SeedSequence hash, so ``_preset_seeds`` of them draws the
    integer seeds' streams bit for bit. A seed below 2**32 is one entropy
    word and a larger one two, but SeedSequence fills the rest of its pool
    by hashing 0 words, so both are hashed as their (low, high) words here.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    flat = seeds.ravel()
    entropy = np.zeros((4, flat.size), dtype=np.uint32)
    np.bitwise_and(flat, 0xFFFFFFFF, out=entropy[0], casting="unsafe")
    np.right_shift(flat, 32, out=entropy[1], casting="unsafe")
    pool = _hashmix(entropy, _POOL_XOR[:4], _POOL_MULT[:4])
    # each source word's hashmix, mixed into the other three words at once
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        h = _hashmix(pool[src], _POOL_XOR[steps], _POOL_MULT[steps])
        mixed = pool[dst] * _MIX_MULT_L - h * _MIX_MULT_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    out = _hashmix(pool, _OUT_XOR, _OUT_MULT).reshape(8, -1)
    # uint64 word j is uint32 words 2j (low half) and 2j + 1, as numpy's
    # little-endian view makes them
    words = np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    return words.reshape(seeds.shape + (4,))


@functools.cache
def _preset_seed_type() -> type:
    """The ISeedSequence that hands PCG64 precomputed words; built on first use.

    ``import skewcal`` does not load numpy.random, so the class is defined
    when a sweep first needs it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PresetSeed(ISeedSequence):
        """A seed whose ``generate_state(4, np.uint64)`` returns its four stored words."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"a preset seed holds generate_state(4, np.uint64) only, "
                    f"got ({n_words!r}, {dtype!r})"
                )
            return self.words

    return PresetSeed


def _preset_seeds(words: np.ndarray) -> list:
    """One ISeedSequence per row of a (T, 4) uint64 table of ``_seed_sequence_words``.

    ``default_rng`` of seed k draws the stream of the integer whose words
    are row k. Any other ``generate_state`` request raises ValueError.
    """
    preset = _preset_seed_type()
    return [preset(row) for row in np.ascontiguousarray(words, dtype=np.uint64)]


def _ginibre(dim: int, seeds: list) -> np.ndarray:
    """(T, n, n) stack of i.i.d. standard complex Gaussian matrices, one per seed.

    Matrix k takes its real parts, then its imaginary parts, from one
    ``standard_normal((2, n, n))`` draw of ``default_rng(seeds[k])``: the
    same stream as two (n, n) draws. A seed is an integer or an
    ISeedSequence: ``_preset_seeds(_seed_sequence_words(seeds))`` draws the
    integer seeds' streams bit for bit, and saves ``default_rng`` numpy's
    SeedSequence hash of each integer.
    """
    dim = _integer(dim, "dim")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    raw = np.empty((len(seeds), 2, dim, dim))
    for k, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=raw[k])
    g = np.empty((len(seeds), dim, dim), dtype=complex)
    g.real = raw[:, 0]
    g.imag = raw[:, 1]
    return g


def random_hermitian(dim: int, seed) -> HermitianMatrix:
    """GUE-type draw (G + G†)/2 with G i.i.d. standard complex Gaussian.

    One ``seed``, an integer or an ISeedSequence, gives one matrix; a
    sequence of T seeds gives the (T, n, n) stack whose matrix k is
    ``random_hermitian(dim, seed[k]).matrix``.
    """
    seeds, stacked = _seed_list(seed)
    h = _ginibre(dim, seeds)
    # in place: h.conj() is a new array, so no entry is read after it is written
    h += h.conj().swapaxes(1, 2)
    h *= 0.5
    return HermitianMatrix(h if stacked else h[0])


def random_density(dim: int, seed) -> DensityMatrix:
    """Wishart-type draw G G† / Tr, mixed slightly toward the maximally mixed state.

    One ``seed``, an integer or an ISeedSequence, gives one state; a
    sequence of T seeds gives the stack whose state k is
    ``random_density(dim, seed[k])``, validated and decomposed with one
    batched eigh.
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


def _matrix_to_json(m) -> dict:
    arr = _as_matrix(m)
    if arr.ndim != 2:
        raise ValueError(f"matrix JSON holds one matrix, got shape {arr.shape}")
    return {
        "n": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def _matrix_from_json(data: dict) -> np.ndarray:
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
    data = _matrix_to_json(m)
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
    return HermitianMatrix(_matrix_from_json(_load_json(path)))


def load_density(path) -> DensityMatrix:
    """Read a matrix JSON file and validate it as a faithful state."""
    return DensityMatrix(_matrix_from_json(_load_json(path)))
