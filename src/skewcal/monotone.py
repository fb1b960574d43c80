"""Catalog and calculus of the operator monotone functions behind correlation kernels.

Every catalog entry is positive on (0, inf), symmetric in the sense
f(x) = x * f(1/x), and normalized so f(1) = 1; each carries its analytic
limit f(0+) as stored data. The associated transform

    tilde(x) = ((x + 1) - (x - 1)**2 * f(0) / f(x)) / 2

is the scalar profile later evaluated on modular spectra to build
correlation kernels. For a valid entry it satisfies
0 <= tilde(x) <= (x + 1) / 2 and inherits the symmetry
tilde(x) = x * tilde(1/x).
"""

from __future__ import annotations

import functools
import logging
import numbers
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MonotoneFunction",
    "ValidationReport",
    "default_grid",
    "from_key",
    "harmonic",
    "sld",
    "tilde_transform",
    "validate_catalog_entry",
    "wyd",
    "wyd_f",
]

logger = logging.getLogger(__name__)

# Direct evaluation of the wyd quotient carries roughly
# 1e-16 / (beta * (1 - beta) * |x - 1|) relative noise, so near x = 1 the
# quotient is replaced by its expansion; at this window the series
# truncation (~|x-1|**3) and the quotient noise are both far below 1e-10.
WYD_SERIES_WINDOW = 1e-4

# Negative tilde values no lower than this are treated as round-off and
# clamped to zero; anything below passes through as a genuine violation.
TILDE_CLAMP_FLOOR = -1e-14

NORMALIZATION_TOL = 1e-12
SYMMETRY_RTOL = 1e-10
MONOTONICITY_TOL = 1e-12
TILDE_UPPER_TOL = 1e-12
TILDE_SYMMETRY_RTOL = 1e-9


def _require_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie strictly inside (0, 1), got {beta!r}")
    return beta


def _as_positive_array(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():  # before the sign test, which a NaN fails too
        raise ValueError(f"{name} must be finite")
    if arr.size and not np.all(arr > 0.0):
        raise ValueError(f"{name} must be strictly positive")
    return arr


def _match_input(out: np.ndarray, like) -> float | np.ndarray:
    return float(out) if np.ndim(like) == 0 else out


def wyd_f(beta: float, x) -> float | np.ndarray:
    """Evaluate the power-difference mean f(x) = b(1-b)(x-1)^2 / ((x^b - 1)(x^(1-b) - 1)).

    Accepts scalars or arrays of strictly positive x. The removable
    singularity at x = 1 is filled by the second-order expansion
    1 + u/2 - (1 - b(1-b)) u^2 / 12 with u = x - 1, which keeps the two
    branches consistent to well below 1e-10 across the switch.
    """
    beta = _require_beta(beta)
    arr = _as_positive_array(x)
    u = arr - 1.0
    (out,) = _wyd_values([beta], arr, u, np.square(u))
    return _match_input(out, x)


def _wyd_values(betas, arr: np.ndarray, u: np.ndarray, u_sq: np.ndarray) -> np.ndarray:
    """wyd_f of each beta on the positive array ``arr``, as a (len(betas), *arr.shape) array.

    ``u`` is arr - 1 and ``u_sq`` its square. Only the powers x^b and
    x^(1-b) depend on the exponent: each distinct exponent of the call is
    taken once, in the call a lone entry makes, so that numpy's
    scalar-exponent paths (sqrt for 0.5) give the same bits, and an entry
    whose exponent came up before copies that power (1 - 0.5 is 0.5, and
    1 - 0.1 is 0.9, in float64). The window, the quotient and the series
    run once over every beta.
    """
    near = np.abs(u) < WYD_SERIES_WINDOW
    safe = np.where(near, 2.0, arr)
    b = np.array(betas, dtype=float).reshape((-1,) + (1,) * arr.ndim)
    den = np.empty(b.shape[:1] + arr.shape)
    values = np.empty_like(den)
    powers = {}
    for k, beta in enumerate(betas):
        for dest, exponent in ((den[k, ...], beta), (values[k, ...], 1.0 - beta)):
            if exponent in powers:
                np.copyto(dest, powers[exponent])
            else:
                powers[exponent] = np.power(safe, exponent, out=dest)
    den -= 1.0
    values -= 1.0
    den *= values
    gamma = b * (1.0 - b)
    np.multiply(gamma, np.square(safe - 1.0), out=values)
    values /= den
    # the series, in den: (1 + u/2) - ((1 - gamma) / 12) u^2
    np.multiply((1.0 - gamma) / 12.0, u_sq, out=den)
    np.subtract(1.0 + 0.5 * u, den, out=den)
    np.copyto(values, den, where=near)
    return values


def _wyd_beta(f: "MonotoneFunction") -> float | None:
    """beta when ``f`` evaluates ``functools.partial(wyd_f, beta)``, else None.

    Not read from the name, so the shared wyd pass and the
    report's power sandwich use the beta that ``f(x)`` itself uses.
    """
    ev = f.evaluate
    if isinstance(ev, functools.partial) and ev.func is wyd_f and len(ev.args) == 1:
        return _require_beta(ev.args[0])
    return None


def tilde_transform(f, x, clamp: bool = True) -> float | np.ndarray:
    """Apply tilde(x) = ((x + 1) - (x - 1)^2 * f(0) / f(x)) / 2 elementwise.

    ``f`` is one catalog entry, and the result is shaped like ``x``, or a
    sequence of F entries: ``x`` is then a (..., n, n) stack of ratio
    matrices and the result the (..., F, n, n) array whose [..., k, :, :]
    is entry k's transform. One entry is the catalog of one over ``x`` as
    one row. A catalog call checks positivity and forms x + 1, (x - 1)^2
    and the wyd series window once for every entry, and the entries built
    by :func:`wyd` share one pass; each value has the bits of the entry's
    own call. An entry with f(0) = 0 is not evaluated: its transform is
    (x + 1)/2, exact for every finite x.

    Round-off can push the mathematically nonnegative result a hair below
    zero; values in [TILDE_CLAMP_FLOOR, 0) are clamped to 0 in place and
    logged (one count per call) when ``clamp`` is set. Larger negatives are
    returned untouched so validation can see them.
    """
    arr = _as_positive_array(x)
    if isinstance(f, MonotoneFunction):
        values = tilde_transform([f], arr.reshape(1, -1), clamp).reshape(arr.shape)
        return _match_input(values, x)
    entries = tuple(f)
    if arr.ndim < 2:
        raise ValueError(f"a catalog takes a stack of ratio matrices, got shape {arr.shape}")
    f0 = np.array([e.f_at_zero for e in entries])
    live = f0 != 0.0
    # each entry's (x - 1)^2 f(0) / f(x), then the formula, in place. The
    # term is 0 for f(0) = 0, so those entries take neither f nor (x - 1)^2:
    # their f slot holds 1, the divide gives 0, and the masked multiply
    # keeps it, even where (x - 1)^2 overflows
    values = np.ones(arr.shape[:-2] + (len(entries),) + arr.shape[-2:])
    if live.any():
        u = arr - 1.0
        u_sq = np.square(u)
        betas = [_wyd_beta(entry) for entry in entries]
        wyd_at = [k for k, beta in enumerate(betas) if beta is not None]
        if wyd_at:
            wyd_fx = _wyd_values([betas[k] for k in wyd_at], arr, u, u_sq)
            values[..., wyd_at, :, :] = np.moveaxis(wyd_fx, 0, -3)
        for k, entry in enumerate(entries):
            if live[k] and k not in wyd_at:
                values[..., k, :, :] = entry(arr)
        np.divide(f0[:, None, None], values, out=values)
        np.multiply(values, u_sq[..., None, :, :], out=values, where=live[:, None, None])
    else:
        values.fill(0.0)
    np.subtract((arr + 1.0)[..., None, :, :], values, out=values)
    values *= 0.5
    if clamp:
        neg = (values < 0.0) & (values >= TILDE_CLAMP_FLOOR)
        count = int(np.count_nonzero(neg))
        if count:
            logger.debug("clamped %d tilde round-off value(s) to zero", count)
            values[neg] = 0.0
    return values


@dataclass(frozen=True)
class MonotoneFunction:
    """A catalog entry: its name, its evaluator and the stored limit at zero.

    ``f_at_zero`` is data rather than a computed limit so that entries with
    f(0) = 0 (where the tilde transform degenerates to (x + 1)/2) stay exact.
    A wyd entry's beta is read from its evaluator (:func:`_wyd_beta`), so
    no field can disagree with the beta ``f(x)`` uses.
    """

    name: str
    evaluate: Callable[[float | np.ndarray], float | np.ndarray]
    f_at_zero: float

    def __call__(self, x) -> float | np.ndarray:
        return self.evaluate(x)


def _sld_profile(x):
    arr = np.asarray(x, dtype=float)
    return _match_input(0.5 * (arr + 1.0), x)


def _harmonic_profile(x):
    arr = np.asarray(x, dtype=float)
    return _match_input(2.0 * arr / (arr + 1.0), x)


def wyd(beta: float) -> MonotoneFunction:
    """Member of the one-parameter wyd family, key ``wyd:<beta>``."""
    beta = _require_beta(beta)
    return MonotoneFunction(
        name=f"wyd:{beta!r}",
        evaluate=functools.partial(wyd_f, beta),
        f_at_zero=beta * (1.0 - beta),
    )


def sld() -> MonotoneFunction:
    """Arithmetic-mean entry f(x) = (1 + x)/2 with f(0) = 1/2."""
    return MonotoneFunction("sld", _sld_profile, 0.5)


def harmonic() -> MonotoneFunction:
    """Harmonic-mean entry f(x) = 2x/(x + 1) with f(0) = 0.

    Its tilde transform is identically (x + 1)/2, exercising the f(0) = 0
    branch of the formula.
    """
    return MonotoneFunction("harmonic", _harmonic_profile, 0.0)


def from_key(key: str) -> MonotoneFunction:
    """Parse a catalog key: ``sld``, ``harmonic``, or ``wyd:<beta>``."""
    text = key.strip()
    if text == "sld":
        return sld()
    if text == "harmonic":
        return harmonic()
    if text.startswith("wyd:"):
        raw = text[len("wyd:"):]
        try:
            beta = float(raw)
        except ValueError:
            raise ValueError(f"malformed wyd parameter {raw!r} in key {key!r}") from None
        return wyd(beta)
    raise ValueError(f"unknown monotone function key {key!r}")


def default_grid(lo: float = 1e-6, hi: float = 1e6, points: int = 241) -> np.ndarray:
    """Log-spaced validation grid; the default hits x = 1 exactly."""
    if isinstance(points, bool) or not isinstance(points, numbers.Integral):
        raise ValueError(f"points must be an integer, got {points!r}")
    if not (0.0 < lo < hi < np.inf) or points < 2:
        raise ValueError("grid needs 0 < lo < hi < inf and at least two points")
    return np.logspace(np.log10(lo), np.log10(hi), points)


@dataclass(frozen=True)
class ValidationReport:
    """Worst observed deviations of a catalog entry over a sample grid.

    Violations are reported, never raised, so broken candidate entries can
    be inspected.
    """

    name: str
    grid_size: int
    normalization_error: float
    max_symmetry_violation: float
    max_monotonicity_drop: float
    min_value: float
    min_tilde: float
    max_tilde_excess: float
    max_tilde_symmetry_violation: float
    clamped_points: int

    def violations(self) -> list[str]:
        # each bound is written so that a NaN field fails it
        out = []
        if not np.isfinite(self.min_value) or self.min_value <= 0.0:
            out.append(
                f"nonpositive or non-finite value on grid: min {self.min_value:.3e}"
            )
        if not self.normalization_error <= NORMALIZATION_TOL:
            out.append(f"f(1) off by {self.normalization_error:.3e}")
        if not self.max_symmetry_violation <= SYMMETRY_RTOL:
            out.append(f"symmetry f(x) = x f(1/x) off by {self.max_symmetry_violation:.3e} (relative)")
        if not self.max_monotonicity_drop <= MONOTONICITY_TOL:
            out.append(f"monotonicity drop of {self.max_monotonicity_drop:.3e}")
        if not self.min_tilde >= TILDE_CLAMP_FLOOR:
            out.append(f"tilde dips to {self.min_tilde:.3e}")
        if not self.max_tilde_excess <= TILDE_UPPER_TOL:
            out.append(f"tilde exceeds (x + 1)/2 by {self.max_tilde_excess:.3e}")
        if not self.max_tilde_symmetry_violation <= TILDE_SYMMETRY_RTOL:
            out.append(f"tilde symmetry off by {self.max_tilde_symmetry_violation:.3e} (relative)")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok, "violations": self.violations()}


def validate_catalog_entry(f: MonotoneFunction, grid: np.ndarray | None = None) -> ValidationReport:
    """Check normalization, symmetry, monotonicity, and the tilde bounds on a grid."""
    xs = default_grid() if grid is None else _as_positive_array(grid, "grid")
    if xs.size == 0:
        raise ValueError("grid must be non-empty")
    xs = np.sort(xs.ravel())

    values = np.asarray(f(xs), dtype=float)
    # 1 / x overflows to inf below about 1e-308, where f and tilde reject it:
    # the mirrored values are NaN there
    with np.errstate(over="ignore"):
        inv = 1.0 / xs
    mirror = np.isfinite(inv)
    inv[~mirror] = 1.0
    mirrored = np.where(mirror, xs * np.asarray(f(inv), dtype=float), np.nan)
    scale = np.maximum(np.abs(values), np.finfo(float).tiny)
    symmetry = float(np.max(np.abs(values - mirrored) / scale))

    # worst drop over all ordered grid pairs, via the running maximum
    drops = np.maximum.accumulate(values) - values
    monotonicity = float(np.max(drops))

    raw_tilde = np.asarray(tilde_transform(f, xs, clamp=False), dtype=float)
    round_off = (raw_tilde < 0.0) & (raw_tilde >= TILDE_CLAMP_FLOOR)
    clamped = int(np.count_nonzero(round_off))
    excess = float(np.max(raw_tilde - 0.5 * (xs + 1.0)))
    tilde_clamped = np.where(round_off, 0.0, raw_tilde)
    mirrored_tilde = np.where(mirror, xs * np.asarray(tilde_transform(f, inv), dtype=float), np.nan)
    # absolute floor keeps clamped-to-zero points from dividing by zero
    tilde_scale = np.maximum(np.abs(tilde_clamped), 1e-12)
    tilde_symmetry = float(np.max(np.abs(tilde_clamped - mirrored_tilde) / tilde_scale))

    return ValidationReport(
        name=f.name,
        grid_size=int(xs.size),
        normalization_error=float(abs(f(1.0) - 1.0)),
        max_symmetry_violation=symmetry,
        max_monotonicity_drop=monotonicity,
        min_value=float(np.min(values)),
        min_tilde=float(np.min(raw_tilde)),
        max_tilde_excess=excess,
        max_tilde_symmetry_violation=tilde_symmetry,
        clamped_points=clamped,
    )
