"""Matrix types, spectral utilities, kernels, and the JSON wire format.

The modular kernel is built by ``qinfo.eigenbasis_terms`` and applied by
``qinfo._kernel_traces``, whose back-rotated products pass through
``qinfo._hermitian_stack``; its tests read both.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import skewcal.linalg as linalg
import skewcal.qinfo as qinfo
from oracle import FROZEN, power_sandwich
from skewcal.linalg import (
    FAITHFULNESS_FLOOR,
    HERMITICITY_REPAIR_THRESHOLD,
    DensityMatrix,
    HermitianMatrix,
    StackRejection,
    _as_matrix,
    _matrix_from_json,
    _matrix_to_json,
    eigendecompose,
    load_density,
    load_hermitian,
    random_density,
    random_hermitian,
    save_matrix,
)
from skewcal.monotone import from_key, harmonic, sld, wyd
from skewcal.qinfo import _kernel_traces, eigenbasis_terms, f_correlation, f_information


def test_hermitian_accepts_and_repairs_roundoff():
    m = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 2.0]])
    m[0, 1] += 1e-12  # asymmetric perturbation within the repair threshold
    h = HermitianMatrix(m)
    assert 0.0 < h.herm_residual < 1e-11
    assert np.array_equal(h.matrix, h.matrix.conj().T)
    assert h.dim == 2


def test_hermitian_repair_threshold_scales_with_the_data():
    base = 1e8 * np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 2.0]])
    m = base.copy()
    m[0, 1] += 1e-11 * 1e8  # 1e-11 relative asymmetry at norm 1e8
    h = HermitianMatrix(m)
    assert h.herm_residual == pytest.approx(0.5e-3, rel=1e-4)
    assert np.array_equal(h.matrix, h.matrix.conj().T)
    m = base.copy()
    m[0, 1] += 1e-6 * 1e8  # 1e-6 relative asymmetry is no round-off
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix(m)
    # entries of size <= 1 keep the bare threshold: 5e-9 > 1e-9 is rejected
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix([[1.0, 0.5], [0.5 + 1e-8, 0.25]])


def test_hermitian_repair_does_not_overflow_near_the_float_maximum():
    # (M + M†)/2 is formed as M/2 + M†/2: the sum of two entries near the
    # float maximum would overflow to inf before the halving
    h = HermitianMatrix([[1e308, 0], [0, 1]])
    assert h.herm_residual == 0.0
    assert np.array_equal(h.matrix, np.array([[1e308, 0], [0, 1]], dtype=complex))
    huge = np.array([[1e308, 1.5e308 + 1e308j], [1.5e308 - 1e308j, -1.7e308]])
    stack = HermitianMatrix(np.array([huge, huge.conj().T]))
    assert np.array_equal(stack.herm_residual, [0.0, 0.0])
    assert np.array_equal(stack.matrix[0], huge)


def test_hermitian_rejects_bad_input():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        HermitianMatrix(np.zeros((0, 0)))
    for shape in ((2, 2, 3), (0, 2, 2), (1, 1, 2, 2), (2,)):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros(shape))
    with pytest.raises(ValueError, match="finite"):
        HermitianMatrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        HermitianMatrix([[1.0, 1j * np.inf], [0.0, 1.0]])


def test_eigendecompose_descending_and_reconstructs():
    h = random_hermitian(5, STACK_SEEDS).matrix
    lam, u = eigendecompose(h)
    assert lam.shape == (len(STACK_SEEDS), 5) and u.shape == h.shape
    assert np.all(np.diff(lam) <= 0)
    assert np.allclose((u * lam[:, None, :]) @ u.conj().swapaxes(1, 2), h, atol=1e-12)
    assert np.allclose(u.conj().swapaxes(1, 2) @ u, np.eye(5), atol=1e-12)


def test_density_validation():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.8, 0.3]))
    with pytest.raises(ValueError, match="faithful"):
        DensityMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="faithful"):
        DensityMatrix(np.diag([1.0 - 1e-12, 1e-12]))
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    assert rho.dim == 3
    assert np.all(np.diff(rho.eigenvalues) <= 0)
    assert float(np.sum(rho.eigenvalues)) == pytest.approx(1.0, abs=1e-14)


def test_eigenbasis_roundtrip():
    rho = random_density(4, seed=9)
    a = random_hermitian(4, seed=10).matrix
    u = rho.eigenvectors
    back = u @ rho.to_eigenbasis(a) @ u.conj().T
    assert np.allclose(back, a, atol=1e-13)


def _kernel(rho, f):
    """The (n, n) modular kernel of one state and one entry, as eigenbasis_terms builds it."""
    zero = np.zeros_like(rho.matrix)
    return eigenbasis_terms(rho, [f], zero, zero).kernels[0, 0]


def _applied(monkeypatch, rho, f, a, b):
    """_kernel_traces of (rho, f, a, b) and the back-rotated products (k o a, k o b), each (n, n).

    The kernels go back one observable at a time: k o a is the Hermitian
    part the first _hermitian_stack check returns and k o b the second's,
    each a (1, n, n) stack for one state and one entry.
    """
    seen = []
    real = qinfo._hermitian_stack

    def spy(stack):
        result = real(stack)
        seen.append(result[0])
        return result

    monkeypatch.setattr(qinfo, "_hermitian_stack", spy)
    traces = _kernel_traces(eigenbasis_terms(rho, [f], a, b))
    monkeypatch.undo()
    ka, kb = seen
    return traces, (ka[0], kb[0])


def test_kernel_matrix_fixture_entry(fixture_rho):
    k = _kernel(fixture_rho, wyd(0.5))
    assert k[0, 1] == pytest.approx(FROZEN["fixture_kernel_entry_wyd_half"], rel=1e-13)
    assert k[1, 0] == pytest.approx(FROZEN["fixture_kernel_entry_wyd_half"], rel=1e-13)
    # diagonal entries reduce to the eigenvalues because tilde(1) = 1
    assert np.allclose(np.diag(k), fixture_rho.eigenvalues, atol=0.0)


@pytest.mark.parametrize("key", ["wyd:0.2", "wyd:0.5", "sld", "harmonic"])
def test_kernel_matrix_symmetric_positive(key):
    rho = random_density(6, seed=21)
    k = _kernel(rho, from_key(key))
    assert np.all(k > 0.0)
    assert np.max(np.abs(k - k.T)) < 1e-12 * np.max(k)


@pytest.mark.parametrize("beta", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_kernel_apply_matches_power_sandwich(dim, beta, monkeypatch):
    # the applied kernel is the power sandwich rho^beta a rho^(1 - beta),
    # Hermitian-symmetrized, as a matrix and in the public traces
    rho = random_density(dim, seed=dim * 101 + 7)
    a = random_hermitian(dim, seed=dim * 101 + 8)
    b = random_hermitian(dim, seed=dim * 101 + 9)
    _, (via_kernel, _) = _applied(monkeypatch, rho, wyd(beta), a.matrix, b.matrix)
    via_powers = power_sandwich(rho.matrix, beta, a.matrix)
    scale = max(1.0, float(np.linalg.norm(a.matrix)))
    assert float(np.linalg.norm(via_kernel - via_powers)) <= 1e-9 * scale
    tr_ab = float(np.trace(rho.matrix @ a.matrix @ b.matrix).real)
    tr_aa = float(np.trace(rho.matrix @ a.matrix @ a.matrix).real)
    corr = tr_ab - float(np.trace(via_powers @ b.matrix).real)
    info = tr_aa - float(np.trace(via_powers @ a.matrix).real)
    scale *= max(1.0, float(np.linalg.norm(b.matrix)))
    assert abs(f_correlation(rho, wyd(beta), a, b) - corr) <= 1e-9 * scale
    assert abs(f_information(rho, wyd(beta), a) - info) <= 1e-9 * scale


def test_kernel_apply_is_linear_and_hermitian(monkeypatch):
    rho = random_density(4, seed=33)
    a = random_hermitian(4, seed=34).matrix
    b = random_hermitian(4, seed=35).matrix
    f = sld()
    (k_aa, k_bb, k_ab), (ka, kb) = _applied(monkeypatch, rho, f, a, b)
    _, (combo, _) = _applied(monkeypatch, rho, f, 2.0 * a + b, b)
    assert np.allclose(combo, 2.0 * ka + kb, atol=1e-12)
    # the products come back exactly Hermitian: the validated Hermitian parts
    assert np.array_equal(ka, ka.conj().T) and np.array_equal(kb, kb.conj().T)
    # the traces are entry sums of those products against the observables
    for trace, kx, y in ((k_aa, ka, a), (k_bb, kb, b), (k_ab, ka, b)):
        assert trace.shape == (1, 1)
        assert trace[0, 0] == pytest.approx(float(np.trace(kx @ y).real), abs=1e-12)
    # the kernel is self-adjoint: Tr((k o a) b) = Tr((k o b) a)
    (_, _, k_ba), _ = _applied(monkeypatch, rho, f, b, a)
    assert k_ab[0, 0] == pytest.approx(k_ba[0, 0], abs=1e-12)


def test_kernel_apply_on_maximally_mixed_state(monkeypatch):
    n = 5
    rho = DensityMatrix(np.eye(n) / n)
    a = random_hermitian(n, seed=77).matrix
    b = random_hermitian(n, seed=78).matrix
    for key in ("wyd:0.3", "sld", "harmonic"):
        _, (ka, kb) = _applied(monkeypatch, rho, from_key(key), a, b)
        assert np.allclose(ka, a / n, atol=1e-14)
        assert np.allclose(kb, b / n, atol=1e-14)


def test_kernel_apply_rejects_shape_mismatch():
    rho = random_density(3, seed=2)
    a = random_hermitian(4, seed=2)
    with pytest.raises(ValueError, match="shape"):
        eigenbasis_terms(rho, [sld()], a, a)
    with pytest.raises(ValueError, match="shape"):
        f_information(rho, sld(), a)


def test_random_draws_are_deterministic():
    assert np.array_equal(random_hermitian(4, seed=5).matrix, random_hermitian(4, seed=5).matrix)
    assert not np.array_equal(
        random_hermitian(4, seed=5).matrix, random_hermitian(4, seed=6).matrix
    )
    rho1, rho2 = random_density(4, seed=5), random_density(4, seed=5)
    assert np.array_equal(rho1.matrix, rho2.matrix)
    assert float(np.trace(rho1.matrix).real) == pytest.approx(1.0, abs=1e-12)
    assert rho1.eigenvalues[-1] >= FAITHFULNESS_FLOOR
    with pytest.raises(ValueError):
        random_hermitian(0, seed=1)
    with pytest.raises(ValueError):
        random_density(0, seed=1)


def test_stacked_draws_equal_single_draws_bit_for_bit():
    seeds = [11, 12, 13]
    states = random_density(4, seeds)
    observables = random_hermitian(4, seeds)
    # one type per matrix kind, whatever the seed form
    assert isinstance(states, DensityMatrix) and isinstance(observables, HermitianMatrix)
    assert states.matrix.shape == observables.matrix.shape == (3, 4, 4)
    assert (states.dim, observables.dim) == (4, 4)
    assert states.eigenvalues.shape == (3, 4) and observables.herm_residual.shape == (3,)
    rotated = states.to_eigenbasis(observables)
    for k, seed in enumerate(seeds):
        rho = random_density(4, seed)
        for single, stacked in (
            (rho.matrix, states.matrix[k]),
            (rho.eigenvalues, states.eigenvalues[k]),
            (rho.eigenvectors, states.eigenvectors[k]),
            (random_hermitian(4, seed).matrix, observables.matrix[k]),
            (rho.to_eigenbasis(observables.matrix[k]), rotated[k]),
        ):
            assert single.tobytes() == stacked.tobytes()
        assert rho.herm_residual == states.herm_residual[k]
    with pytest.raises(ValueError, match="non-empty"):
        random_density(4, [])


def test_stacked_constructors_equal_single_constructors_bit_for_bit():
    # slice k of a stack is what the constructor builds from matrix k alone,
    # also for inputs that need a Hermiticity repair
    raw = np.array([random_hermitian(3, seed=s).matrix for s in STACK_SEEDS])
    raw[1, 0, 2] += 1e-12
    herm = HermitianMatrix(raw)
    states = DensityMatrix(np.array([random_density(3, seed=s).matrix for s in STACK_SEEDS]))
    for k in range(len(STACK_SEEDS)):
        h = HermitianMatrix(raw[k])
        assert h.matrix.tobytes() == herm.matrix[k].tobytes()
        assert h.herm_residual == herm.herm_residual[k]
        rho = DensityMatrix(states.matrix[k])
        assert rho.eigenvalues.tobytes() == states.eigenvalues[k].tobytes()
        assert rho.eigenvectors.tobytes() == states.eigenvectors[k].tobytes()
    assert herm.herm_residual[1] > 0.0


@pytest.mark.parametrize("sampler", [random_hermitian, random_density])
def test_samplers_reject_seeds_that_are_not_integers(sampler):
    # a bool is no seed, and every bad seed is a ValueError, never a TypeError
    bad_seeds = (True, False, np.bool_(True), 1.5, "ab", b"ab", "", None)
    for bad in bad_seeds + ([], [1, True], [1, 2.0], [[1]]):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sampler(3, bad)
    seeds = (7, np.int64(7), np.uint32(7), [7], (np.int16(7),), np.array([7]))
    draws = [sampler(3, seed).matrix for seed in seeds]
    for draw in draws[1:]:
        assert draw.reshape(3, 3).tobytes() == draws[0].tobytes()


# Seeds at every word boundary of SeedSequence's entropy (one uint32 word
# below 2**32, two from 2**32 on), then small, 32-bit and full 64-bit ones.
EDGE_SEEDS = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1]


def _word_test_seeds() -> np.ndarray:
    rng = np.random.default_rng(20081)
    return np.concatenate(
        [
            np.array(EDGE_SEEDS, dtype=np.uint64),
            np.arange(3, 1000, dtype=np.uint64),
            rng.integers(0, 2**32, 1000, dtype=np.uint64),
            rng.integers(0, 2**64 - 1, 1000, dtype=np.uint64, endpoint=True),
        ]
    )


def test_seed_sequence_words_equal_numpy_seed_sequence():
    seeds = _word_test_seeds()
    assert len(seeds) >= 3000 and (seeds < 2**32).sum() >= 1000
    words = linalg._seed_sequence_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    for seed, row in zip(seeds.tolist(), words):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert row.tobytes() == expected.tobytes(), seed
    # any shape of seeds: one row of words per seed, in place
    shaped = linalg._seed_sequence_words(seeds[:24].reshape(2, 4, 3))
    assert shaped.shape == (2, 4, 3, 4)
    assert shaped.reshape(-1, 4).tobytes() == words[:24].tobytes()


def test_preset_seeds_draw_the_integer_streams_bit_for_bit():
    seeds = _word_test_seeds()[::15]
    presets = linalg._preset_seeds(linalg._seed_sequence_words(seeds))
    for seed, preset in zip(seeds.tolist(), presets):
        mine, theirs = np.random.default_rng(preset), np.random.default_rng(seed)
        assert mine.standard_normal((2, 5, 5)).tobytes() == theirs.standard_normal((2, 5, 5)).tobytes()
        # the generators stay in step past the first draw
        assert mine.integers(0, 2**63, 8).tobytes() == theirs.integers(0, 2**63, 8).tobytes()
    # the samplers take them, one or a sequence, next to the integers
    ints = seeds[:6].tolist()
    for sampler in (random_hermitian, random_density):
        assert sampler(4, presets[:6]).matrix.tobytes() == sampler(4, ints).matrix.tobytes()
        assert sampler(4, presets[0]).matrix.tobytes() == sampler(4, ints[0]).matrix.tobytes()


def test_preset_seed_holds_only_pcg64s_request():
    (preset,) = linalg._preset_seeds(linalg._seed_sequence_words(np.array([7], dtype=np.uint64)))
    assert preset.generate_state(4, np.uint64).tobytes() == (
        np.random.SeedSequence(7).generate_state(4, np.uint64).tobytes()
    )
    for request in ((4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64), (4,)):
        with pytest.raises(ValueError, match="generate_state"):
            preset.generate_state(*request)
    # a bit generator that asks for other words fails instead of seeding wrong
    with pytest.raises(ValueError, match="generate_state"):
        np.random.MT19937(preset)


def test_import_skewcal_does_not_load_numpy_random():
    # numpy.random costs ~10 ms of import; a sweep loads it on its first draw
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, skewcal; print('numpy.random' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# Every stack rejection below is checked with the bad matrix at each position
# of a stack of otherwise good ones: the validators test every trial, and the
# rejection names the bad one's index and its message is the reason alone.
STACK_SEEDS = [101, 102, 103, 104]


def _with_bad(good: np.ndarray, k: int, bad: np.ndarray) -> np.ndarray:
    stack = good.copy()
    stack[k] = bad
    return stack


def _rejected(k: int, reason: str, call, *args) -> None:
    with pytest.raises(StackRejection, match=f"^{reason}") as info:
        call(*args)
    assert info.value.index == k


def test_stacked_samplers_reject_nonfinite_draws_by_index(monkeypatch):
    ginibre = linalg._ginibre
    for k in range(len(STACK_SEEDS)):

        def poisoned(dim, seeds, k=k):
            g = ginibre(dim, seeds)
            g[k, 1, 0] = np.nan
            return g

        monkeypatch.setattr(linalg, "_ginibre", poisoned)
        _rejected(k, "matrix entries must be finite", random_hermitian, 3, STACK_SEEDS)
        with np.errstate(invalid="ignore"):  # the NaN reaches the trace normalisation
            _rejected(k, "matrix entries must be finite", random_density, 3, STACK_SEEDS)


def test_stack_rejects_non_hermitian_matrix_by_index():
    good = random_hermitian(2, STACK_SEEDS).matrix
    # each matrix gets its own scaled threshold: 1e-11 relative asymmetry at
    # norm 1e8 is accepted next to the rejected one
    large = 1e8 * good[0]
    large[0, 1] += 1e-11 * 1e8
    for k in range(len(STACK_SEEDS)):
        bad = good[k].copy()
        bad[0, 1] += 1e-7  # a deviation of 5e-8, far past 1e-9 * max|m| at entries ~1
        stack = _with_bad(good, k, bad)
        stack[(k + 1) % len(STACK_SEEDS)] = large
        _rejected(k, "matrix is not Hermitian", HermitianMatrix, stack)


def test_stack_rejects_trace_by_index():
    good = random_density(3, STACK_SEEDS).matrix
    for k in range(len(STACK_SEEDS)):
        stack = _with_bad(good, k, 1.1 * good[k])
        _rejected(k, "density matrix trace", DensityMatrix, stack)


def test_stack_rejects_unfaithful_state_by_index():
    good = random_density(3, STACK_SEEDS).matrix
    below_floor = np.diag([1.0 - 2e-11, 1e-11, 1e-11]).astype(complex)
    for k in range(len(STACK_SEEDS)):
        stack = _with_bad(good, k, below_floor)
        _rejected(k, "state is not faithful", DensityMatrix, stack)


def test_stack_rejects_failed_reconstruction_by_index(monkeypatch):
    eigh = np.linalg.eigh
    for k in range(len(STACK_SEEDS)):

        def perturbed(m, k=k):
            lam, u = eigh(m)
            u[k] *= 1.0 + 1e-6  # reconstructs (1 + 1e-6)^2 times the matrix
            return lam, u

        monkeypatch.setattr(linalg.np.linalg, "eigh", perturbed)
        _rejected(k, "eigendecomposition reconstruction", random_density, 3, STACK_SEEDS)
    # a single state is a stack of one, rejected at index 0
    monkeypatch.setattr(linalg.np.linalg, "eigh", lambda m: perturbed(m, k=0))
    _rejected(0, "eigendecomposition reconstruction", DensityMatrix, np.diag([0.6, 0.4]))


def test_single_matrix_rejection_equals_stack_rejection():
    # the fixtures' four rejections: a constructor raises for one matrix
    # what it raises for the same matrix at index k of a stack, at index 0
    herm = random_hermitian(3, STACK_SEEDS).matrix
    states = random_density(3, STACK_SEEDS).matrix
    nonfinite = herm[2].copy()
    nonfinite[1, 0] = np.inf
    asymmetric = herm[2].copy()
    asymmetric[0, 1] += 1e-7
    below_floor = np.diag([1.0 - 2e-11, 1e-11, 1e-11]).astype(complex)
    cases = (
        (HermitianMatrix, herm, nonfinite),
        (HermitianMatrix, herm, asymmetric),
        (DensityMatrix, states, 1.1 * states[2]),
        (DensityMatrix, states, below_floor),
    )
    for constructor, good, bad in cases:
        for k in range(len(STACK_SEEDS)):
            with pytest.raises(StackRejection) as alone:
                constructor(bad)
            with pytest.raises(StackRejection) as stacked:
                constructor(_with_bad(good, k, bad))
            assert (stacked.value.index, alone.value.index) == (k, 0)
            assert str(alone.value) == str(stacked.value)


def test_as_matrix_views():
    h = random_hermitian(3, seed=4)
    assert _as_matrix(h) is h.matrix
    rho = random_density(3, seed=4)
    assert _as_matrix(rho) is rho.matrix
    arr = _as_matrix([[1.0, 0.0], [0.0, 1.0]])
    assert arr.dtype == complex


def test_json_roundtrip_is_exact(tmp_path):
    h = random_hermitian(5, seed=12)
    path = tmp_path / "h.json"
    save_matrix(path, h)
    back = load_hermitian(path)
    assert np.array_equal(back.matrix, h.matrix)

    rho = random_density(3, seed=13)
    rho_path = tmp_path / "rho.json"
    save_matrix(rho_path, rho)
    assert np.array_equal(load_density(rho_path).matrix, rho.matrix)

    # the format holds one matrix: a stack is refused before any file is written
    stack_path = tmp_path / "stack.json"
    with pytest.raises(ValueError, match="one matrix"):
        save_matrix(stack_path, random_hermitian(3, [1, 2]))
    assert not stack_path.exists()


def test_matrix_json_field_validation():
    good = _matrix_to_json(np.eye(2))
    assert set(good) == {"n", "re", "im"}
    assert np.array_equal(_matrix_from_json(good), np.eye(2, dtype=complex))

    with pytest.raises(ValueError, match="object"):
        _matrix_from_json([1, 2, 3])
    with pytest.raises(ValueError, match="missing"):
        _matrix_from_json({"n": 2, "re": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError, match="positive integer"):
        _matrix_from_json({"n": 0, "re": [], "im": []})
    with pytest.raises(ValueError, match="positive integer"):
        _matrix_from_json({"n": "2", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})
    # a bool is an int in Python, but True is no matrix size
    with pytest.raises(ValueError, match="positive integer"):
        _matrix_from_json({"n": True, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(ValueError, match="numeric"):
        _matrix_from_json({"n": 2, "re": [[1, 0], [0, "x"]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(ValueError, match="2 x 2"):
        _matrix_from_json({"n": 2, "re": [[1, 0, 0], [0, 1, 0]], "im": [[0, 0], [0, 0]]})
    # numpy reads true as 1.0 and "1.5" as 1.5, but neither is a JSON number
    for re, im in (([[True]], [[0]]), ([["1.5"]], [[0]]), ([[1.0]], [[False]])):
        with pytest.raises(ValueError, match="not a JSON number"):
            _matrix_from_json({"n": 1, "re": re, "im": im})
    # an integer beyond float range is a rejected entry, not an OverflowError
    with pytest.raises(ValueError, match="numeric"):
        _matrix_from_json({"n": 1, "re": [[10**400]], "im": [[0]]})


def test_load_rejects_bad_files(tmp_path, fixtures_dir):
    with pytest.raises(ValueError, match="not Hermitian"):
        load_hermitian(os.path.join(fixtures_dir, "non_hermitian.json"))
    with pytest.raises(ValueError, match="trace"):
        load_density(os.path.join(fixtures_dir, "bad_trace.json"))
    with pytest.raises(ValueError, match="faithful"):
        load_density(os.path.join(fixtures_dir, "unfaithful.json"))
    with pytest.raises(OSError):
        load_hermitian(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_hermitian(garbled)


def test_fixture_files_load(fixtures_dir):
    rho = load_density(os.path.join(fixtures_dir, "rho_fixture.json"))
    assert np.allclose(rho.eigenvalues, [0.75, 0.25], atol=0.0)
    a = load_hermitian(os.path.join(fixtures_dir, "sigma_x.json"))
    b = load_hermitian(os.path.join(fixtures_dir, "sigma_y.json"))
    assert np.array_equal(a.matrix @ a.matrix, np.eye(2, dtype=complex))
    assert np.array_equal(b.matrix @ b.matrix, np.eye(2, dtype=complex))


def test_matrix_json_serializes_with_plain_json(tmp_path):
    # the wire format must survive a plain json round trip bit for bit
    h = random_hermitian(4, seed=44)
    text = json.dumps(_matrix_to_json(h))
    assert np.array_equal(_matrix_from_json(json.loads(text)), h.matrix)


def test_nonfinite_entries_are_named_first_and_warn_nothing():
    # the finiteness check runs only once some residual is off the bare
    # threshold, as every non-finite entry makes it (NaN, or inf where
    # inf + 0j meets inf j across the diagonal); it still names the first
    # non-finite matrix ahead of an earlier non-Hermitian one, and no
    # RuntimeWarning escapes (the suite turns one into an error)
    herm = random_hermitian(3, STACK_SEEDS).matrix
    asymmetric = herm[0].copy()
    asymmetric[0, 1] += 1e-7
    poisoned = []
    for value in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.inf, -np.inf), complex(np.nan, 1.0)):
        for at in ((0, 0), (0, 1), (1, 0)):
            bad = herm[2].copy()
            bad[at] = value
            poisoned.append(bad)
    crossed = herm[2].copy()
    crossed[0, 1], crossed[1, 0] = np.inf, complex(0.0, np.inf)
    poisoned.append(crossed)
    for bad in poisoned:
        _rejected(0, "matrix entries must be finite", HermitianMatrix, bad)
        for k in range(1, len(STACK_SEEDS)):
            stack = _with_bad(herm, k, bad)
            stack[0] = asymmetric
            _rejected(k, "matrix entries must be finite", HermitianMatrix, stack)
    stack = _with_bad(herm, 2, asymmetric)
    _rejected(2, "matrix is not Hermitian: max deviation 5.000e-08", HermitianMatrix, stack)
