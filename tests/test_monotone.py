"""Catalog functions: closed forms, the tilde transform, and grid validation."""

import dataclasses
import functools
import logging
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import FROZEN, wyd_f_mp, wyd_tilde_closed, wyd_tilde_mp
from skewcal.monotone import (
    MonotoneFunction,
    TILDE_CLAMP_FLOOR,
    WYD_SERIES_WINDOW,
    _wyd_beta,
    _wyd_values,
    default_grid,
    from_key,
    harmonic,
    sld,
    tilde_transform,
    validate_catalog_entry,
    wyd,
    wyd_f,
)

CATALOG_KEYS = ("sld", "harmonic", "wyd:0.1", "wyd:0.25", "wyd:0.5", "wyd:0.75", "wyd:0.9")

# log-uniform positive arguments spanning the validation range
positive_x = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)
betas = st.floats(min_value=0.05, max_value=0.95)


def test_wyd_values_match_oracle():
    assert wyd_f(0.3, 2.0) == pytest.approx(FROZEN["wyd_f_beta03_x2"], rel=1e-12)
    assert wyd_f(0.5, 2.0) == pytest.approx(FROZEN["wyd_f_beta05_x2"], rel=1e-12)
    assert wyd_f(0.1, 10.0) == pytest.approx(FROZEN["wyd_f_beta01_x10"], rel=1e-12)


def test_wyd_is_exactly_one_at_one():
    assert wyd_f(0.3, 1.0) == 1.0
    assert wyd_f(0.77, np.array([1.0]))[0] == 1.0


@pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.3, float("nan")])
def test_wyd_rejects_bad_beta(beta):
    with pytest.raises(ValueError):
        wyd_f(beta, 2.0)
    with pytest.raises(ValueError):
        wyd(beta)


def test_wyd_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        wyd_f(0.5, 0.0)
    with pytest.raises(ValueError):
        wyd_f(0.5, np.array([2.0, -1.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_catalog_functions_reject_non_finite_input(bad):
    # computed on, an inf gives NaN with a RuntimeWarning, and a NaN or an inf
    # in a grid is not the nonpositive point a sign test would call it; each
    # is a ValueError that says finite, raised before any arithmetic can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: wyd_f(0.5, bad),
            lambda: wyd_f(0.5, np.array([2.0, bad])),
            lambda: tilde_transform(wyd(0.5), bad),
            lambda: tilde_transform(sld(), np.array([bad, 2.0])),
            lambda: tilde_transform([sld(), wyd(0.5)], np.full((1, 2, 2), bad)),
        ):
            with pytest.raises(ValueError, match="x must be finite"):
                call()
        for f in (sld(), wyd(0.5), harmonic()):
            with pytest.raises(ValueError, match="grid must be finite"):
                validate_catalog_entry(f, grid=[bad, 2.0])


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.5, 0.9, 0.95])
def test_series_branch_is_continuous_with_quotient(beta):
    # probe both sides of the switch at |x - 1| = WYD_SERIES_WINDOW; the
    # quotient side carries ~1e-16 / (beta (1-beta) |x-1|) relative noise,
    # which stays below 1e-10 at this window even for the extreme betas
    for offset in (0.5, 0.99, 1.01, 2.0):
        for sign in (+1.0, -1.0):
            x = 1.0 + sign * offset * WYD_SERIES_WINDOW
            expected = float(wyd_f_mp(beta, x))
            assert wyd_f(beta, x) == pytest.approx(expected, rel=1e-10)


def test_tilde_closed_form_matches_transform():
    grid = default_grid(1e-5, 1e5, 101)
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
        closed = wyd_tilde_closed(beta, grid)
        generic = tilde_transform(wyd(beta), grid)
        assert np.max(np.abs(closed - generic) / np.abs(closed)) < 1e-10


def test_tilde_frozen_values():
    assert wyd_tilde_closed(0.3, 2.0) == pytest.approx(FROZEN["wyd_tilde_beta03_x2"], rel=1e-13)
    assert wyd_tilde_closed(0.5, 3.0) == pytest.approx(FROZEN["wyd_tilde_beta05_x3"], rel=1e-13)
    assert tilde_transform(wyd(0.3), 2.0) == pytest.approx(
        FROZEN["wyd_tilde_beta03_x2"], rel=1e-12
    )
    assert float(wyd_tilde_mp(0.3, 2.0)) == FROZEN["wyd_tilde_beta03_x2"]


def test_sld_harmonic_transform_duality():
    # tilde swaps the two fixed entries: tilde(sld) = harmonic, tilde(harmonic) = sld
    grid = default_grid(1e-6, 1e6, 121)
    # cancellation in the transform is absolute at the envelope scale (x + 1)
    scaled = np.abs(tilde_transform(sld(), grid) - harmonic()(grid)) / (grid + 1.0)
    assert np.max(scaled) < 1e-14
    # the f(0) = 0 branch short-circuits, so this direction is exact
    assert np.array_equal(tilde_transform(harmonic(), grid), sld()(grid))


def test_harmonic_tilde_is_exact_where_the_square_overflows():
    # f(0) = 0 drops the (x - 1)^2 f(0) / f(x) term, so (x - 1)^2, which
    # overflows above about 1.3e154, is not formed, and tilde is (x + 1) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tilde_transform(harmonic(), 1e300) == 5e299
        assert validate_catalog_entry(harmonic(), grid=[1e-300, 1e300]).ok


# tilde = ((x + 1) - (x - 1)^2 f(0) / f(x)) / 2 subtracts two terms of size
# x / 2 that cancel at extreme ratios, so far from x = 1 it keeps no digit.
# These two points pin that open defect; they pass once tilde is computed
# by a cancellation-free route, and strict turns that into an XPASS failure.
# Neither point raises a numpy warning: each fails on its assertion alone.
CANCELS = "tilde cancels at extreme ratios"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"{CANCELS}: symmetry off by 1.1e12")
def test_sld_validates_clean_at_extreme_ratios():
    assert validate_catalog_entry(sld(), grid=[1e-16, 1e16]).ok


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"{CANCELS}: -4.27e135, not 5.0e134")
def test_wyd_tilde_matches_the_oracle_at_an_extreme_ratio():
    value = tilde_transform(wyd(0.1), 1e150)
    assert value == pytest.approx(float(wyd_tilde_mp(0.1, 1e150)), rel=1e-12)


def test_tilde_is_one_at_one():
    for key in CATALOG_KEYS:
        assert tilde_transform(from_key(key), 1.0) == 1.0


def test_scalar_in_scalar_out():
    assert isinstance(wyd_f(0.5, 2.0), float)
    assert isinstance(tilde_transform(sld(), 2.0), float)
    out = wyd_f(0.5, np.array([[2.0, 3.0]]))
    assert out.shape == (1, 2)


def test_f_at_zero_stored_limits():
    assert wyd(0.25).f_at_zero == 0.25 * 0.75
    assert sld().f_at_zero == 0.5
    assert harmonic().f_at_zero == 0.0
    assert wyd(0.3).f_at_zero == pytest.approx(0.21, rel=1e-15)


def test_from_key_roundtrip():
    for key in CATALOG_KEYS:
        f = from_key(key)
        assert from_key(f.name).name == f.name
    assert from_key(" sld ").name == "sld"
    assert _wyd_beta(from_key("wyd:0.3")) == 0.3
    assert _wyd_beta(sld()) is None
    assert _wyd_beta(harmonic()) is None
    # a wyd name with another evaluator is no wyd entry, and an evaluator
    # partial(wyd_f, beta) gives its own beta whatever the name says
    assert _wyd_beta(MonotoneFunction("wyd:0.3", sld().evaluate, 0.21)) is None
    assert _wyd_beta(MonotoneFunction("wyd:0.3", functools.partial(wyd_f, 0.5), 0.25)) == 0.5
    assert _wyd_beta(MonotoneFunction("plain", functools.partial(wyd_f, 0.7), 0.21)) == 0.7


@pytest.mark.parametrize("key", ["", "wyd", "wyd:", "wyd:abc", "wyd:1.5", "wyd:0", "bures"])
def test_from_key_rejects_malformed(key):
    with pytest.raises(ValueError):
        from_key(key)


def test_clamp_absorbs_roundoff_negatives(caplog):
    # a slightly inflated f(0) pushes tilde just below zero near x = 0
    bumped = MonotoneFunction("bumped", sld().evaluate, 0.5 + 5e-15)
    x = 1e-15
    raw = tilde_transform(bumped, x, clamp=False)
    assert TILDE_CLAMP_FLOOR <= raw < 0.0
    with caplog.at_level(logging.DEBUG, logger="skewcal.monotone"):
        clamped = tilde_transform(bumped, x)
    assert clamped == 0.0
    assert any("clamped" in r.message for r in caplog.records)


def test_clamp_leaves_genuine_violations_visible():
    broken = MonotoneFunction("broken", sld().evaluate, 10.0)
    assert tilde_transform(broken, 3.0) < TILDE_CLAMP_FLOOR


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_catalog_entries_validate_clean(key):
    report = validate_catalog_entry(from_key(key))
    assert report.ok, report.violations()
    assert report.grid_size == 241
    assert report.to_dict()["violations"] == []


def test_validation_flags_symmetry_breakage():
    crooked = MonotoneFunction("crooked", lambda x: 0.5 * (1.0 + np.square(x)), 0.5)
    report = validate_catalog_entry(crooked)
    assert not report.ok
    assert any("symmetry" in v for v in report.violations())


def test_validation_flags_decreasing_entry():
    fading = MonotoneFunction("fading", lambda x: 2.0 / (1.0 + np.asarray(x, dtype=float)), 2.0)
    report = validate_catalog_entry(fading)
    assert report.max_monotonicity_drop > 0.0
    assert not report.ok


def test_validation_flags_an_entry_off_normalization():
    # 2 sld keeps symmetry, monotonicity and the tilde bounds, but f(1) = 2
    doubled = MonotoneFunction("doubled", lambda x: 2.0 * sld().evaluate(x), 1.0)
    assert validate_catalog_entry(doubled).violations() == ["f(1) off by 1.000e+00"]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("min_value", 0.0, "nonpositive or non-finite value on grid: min 0.000e+00"),
        ("min_value", np.nan, "nonpositive or non-finite value on grid: min nan"),
        ("normalization_error", np.nan, "f(1) off by nan"),
    ],
)
def test_validation_flags_a_broken_value_or_normalization_field(field, value, message):
    # a clean report with one field broken, a NaN included, fails that bound alone
    clean = validate_catalog_entry(sld())
    report = dataclasses.replace(clean, **{field: value})
    assert report.violations() == [message]
    assert not report.ok


def test_validation_grid_handling():
    with pytest.raises(ValueError):
        validate_catalog_entry(sld(), grid=np.array([]))
    with pytest.raises(ValueError):
        validate_catalog_entry(sld(), grid=np.array([1.0, -2.0]))
    report = validate_catalog_entry(sld(), grid=np.array([4.0, 0.25, 1.0]))
    assert report.grid_size == 3
    assert report.ok
    # a point whose mirror 1 / x overflows to inf leaves the symmetry fields
    # NaN, which fail their bounds, and warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_catalog_entry(wyd(0.5), grid=[1e-320, 1.0])
    assert np.isnan(report.max_symmetry_violation) and np.isnan(report.max_tilde_symmetry_violation)
    assert report.min_value == 0.25 and not report.ok


@pytest.mark.parametrize(
    "f, grid",
    [
        (wyd(0.5), [1e-300, 1e300]),
        (sld(), [1e-300, 1e300]),
        (wyd(0.5), [1e-320, 1.0]),
        # NaN below x = 2, so min_value and normalization_error are NaN too
        (
            MonotoneFunction("sqrt(x - 2)", lambda x: np.sqrt(np.asarray(x) - 2.0), 0.0),
            [1.0, 4.0],
        ),
    ],
)
def test_validation_fails_every_nan_field(f, grid):
    # overflow at the grid's ends, or an entry undefined on part of the grid,
    # turns fields into NaN, and NaN passes no bound; every such message prints nan
    with np.errstate(all="ignore"):
        report = validate_catalog_entry(f, grid=grid)
    fields = report.to_dict()
    nan_fields = [k for k, v in fields.items() if isinstance(v, float) and np.isnan(v)]
    assert nan_fields, fields
    assert not report.ok
    assert sum("nan" in v for v in report.violations()) == len(nan_fields), fields
    assert ("min_value" in nan_fields) == (f.name == "sqrt(x - 2)")


def test_default_grid_shape():
    grid = default_grid()
    assert grid.size == 241
    assert grid[0] == pytest.approx(1e-6) and grid[-1] == pytest.approx(1e6)
    assert np.all(np.diff(grid) > 0)
    assert np.any(grid == 1.0)  # default point count lands on x = 1 exactly
    with pytest.raises(ValueError):
        default_grid(1.0, 0.5)
    with pytest.raises(ValueError):
        default_grid(points=1)
    for lo, hi in ((1e-3, np.inf), (np.nan, 1.0), (1e-3, np.nan)):
        with pytest.raises(ValueError, match="0 < lo < hi < inf"):
            default_grid(lo, hi, 5)
    for points in (True, 2.5, 5.0, "5"):
        with pytest.raises(ValueError, match="points must be an integer"):
            default_grid(1e-3, 1e3, points)
    assert default_grid(1e-3, 1e3, np.int64(3)).tolist() == [1e-3, 1.0, 1e3]


@given(beta=betas, x=positive_x)
def test_wyd_symmetry_property(beta, x):
    value = wyd_f(beta, x)
    assert value > 0.0
    assert abs(value - x * wyd_f(beta, 1.0 / x)) <= 1e-10 * value


@given(beta=betas, x=positive_x, y=positive_x)
def test_wyd_monotone_property(beta, x, y):
    lo, hi = min(x, y), max(x, y)
    f_lo, f_hi = wyd_f(beta, lo), wyd_f(beta, hi)
    assert f_lo <= f_hi + 1e-12 * max(1.0, f_hi)


@given(beta=betas, x=positive_x)
def test_tilde_envelope_property(beta, x):
    f = wyd(beta)
    t = tilde_transform(f, x)
    assert t >= 0.0
    assert t <= 0.5 * (x + 1.0) + 1e-12 * (x + 1.0)
    assert abs(t - x * tilde_transform(f, 1.0 / x)) <= 1e-9 * max(t, 1e-12)


@given(x=positive_x)
def test_fixed_entries_envelope_property(x):
    for f in (sld(), harmonic()):
        t = tilde_transform(f, x)
        assert 0.0 <= t <= 0.5 * (x + 1.0) * (1.0 + 1e-12)


def _catalog_ratio_grids():
    # ratio matrices that hit x = 1 exactly, both sides of the wyd series
    # window |x - 1| < WYD_SERIES_WINDOW and just past it, 1e-15 (where the
    # bumped entry below clamps) and the validation range
    offsets = np.array([-1.01, -0.99, -0.5, -1e-3, 1e-3, 0.5, 0.99, 1.01]) * WYD_SERIES_WINDOW
    x = np.concatenate((default_grid(), 1.0 + offsets, [1.0, 1e-15, 1e15]))
    yield x.reshape(1, -1)
    yield x[:250].reshape(2, 5, 25)
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 8, 32):
        lam = rng.dirichlet(np.ones(n), 3) + 1e-10
        lam[0, -1] = lam[0, 0] * (1.0 + 0.5 * WYD_SERIES_WINDOW)
        yield lam[:, :, None] / lam[:, None, :]


def _catalog_entries():
    bumped = MonotoneFunction("bumped", sld().evaluate, 0.5 + 5e-15)
    # named like a wyd entry but evaluated by its own function (sld's)
    impostor = MonotoneFunction("wyd:0.3", sld().evaluate, 0.21)
    # named and parametrized wyd:0.3 but evaluating wyd_f at beta 0.5
    mislabelled = MonotoneFunction("wyd:0.3", functools.partial(wyd_f, 0.5), 0.25)
    keys = ("wyd:0.1", "wyd:0.5", "wyd:0.9", "sld", "harmonic", "wyd:0.25", "wyd:0.75")
    return [from_key(key) for key in keys] + [bumped, impostor, mislabelled]


def _plain_tilde(f, x):
    # tilde with no clamp, each step one numpy call on x alone: wyd_f's
    # formula with a scalar exponent for wyd entries, f itself otherwise
    # (the impostor carries a wyd name but sld's function)
    beta = _wyd_beta(f)
    if beta is None:
        fx = f(x)
    else:
        u = x - 1.0
        near = np.abs(u) < WYD_SERIES_WINDOW
        safe = np.where(near, 2.0, x)
        num = beta * (1.0 - beta) * np.square(safe - 1.0)
        den = (np.power(safe, beta) - 1.0) * (np.power(safe, 1.0 - beta) - 1.0)
        series = 1.0 + 0.5 * u - (1.0 - beta * (1.0 - beta)) / 12.0 * np.square(u)
        fx = np.where(near, series, num / den)
    return 0.5 * ((x + 1.0) - np.square(x - 1.0) * (f.f_at_zero / fx))


def _clamp_counts(caplog, call) -> tuple[object, list[int]]:
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="skewcal.monotone"):
        out = call()
    return out, [r.args[0] for r in caplog.records if r.msg.startswith("clamped")]


def test_catalog_tilde_equals_one_call_per_entry_bit_for_bit(caplog):
    # a catalog call gives each entry's own values at [..., k, :, :], by
    # repr, and logs one clamp count: the sum of the entries' own counts
    entries = _catalog_entries()
    clamped = 0
    for x in _catalog_ratio_grids():
        for chosen in (entries, entries[3:5], entries[1:2], entries[::-1]):
            both, logged = _clamp_counts(caplog, lambda: tilde_transform(chosen, x))
            assert both.shape == x.shape[:-2] + (len(chosen),) + x.shape[-2:]
            counts = []
            for k, f in enumerate(chosen):
                alone, own = _clamp_counts(caplog, lambda: tilde_transform(f, x))
                assert repr(both[..., k, :, :].tolist()) == repr(alone.tolist()), (f.name, x.shape)
                counts += own
            assert len(logged) <= 1 and sum(logged) == sum(counts)
            clamped += sum(counts)
            raw = tilde_transform(chosen, x, clamp=False)
            for k, f in enumerate(chosen):
                alone = tilde_transform(f, x, clamp=False)
                assert repr(raw[..., k, :, :].tolist()) == repr(alone.tolist())
                assert repr(alone.tolist()) == repr(_plain_tilde(f, x).tolist()), f.name
    assert clamped > 0  # the grids do reach the clamp


def test_catalog_takes_one_power_pass_per_distinct_exponent(monkeypatch):
    # the acceptance catalog's wyd entries take x^0.1, x^0.9, x^0.5 twice,
    # x^0.9 and x^(1 - 0.9): in float64 1 - 0.5 is 0.5 and 1 - 0.1 is 0.9,
    # while 1 - 0.9 is 0.09999999999999998, so the six powers are four passes
    entries = [from_key(key) for key in ("wyd:0.1", "wyd:0.5", "wyd:0.9", "sld", "harmonic")]
    power, exponents = np.power, []

    def counting(base, exponent, *args, **kwargs):
        exponents.append(exponent)
        return power(base, exponent, *args, **kwargs)

    for x in _catalog_ratio_grids():
        exponents.clear()
        monkeypatch.setattr(np, "power", counting)
        catalog = tilde_transform(entries, x)
        monkeypatch.undo()
        assert sorted(exponents) == [1.0 - 0.9, 0.1, 0.5, 0.9]
        # each entry's values are its lone call's, bit for bit
        for k, f in enumerate(entries):
            assert catalog[..., k, :, :].tobytes() == tilde_transform(f, x).tobytes(), f.name
        u = x - 1.0
        for row, beta in zip(_wyd_values([0.1, 0.5, 0.9], x, u, np.square(u)), (0.1, 0.5, 0.9)):
            assert row.tobytes() == wyd_f(beta, x).tobytes(), beta


def test_catalog_tilde_follows_the_beta_an_entry_evaluates():
    # the catalog pass once took beta from a params field: this entry's catalog
    # values were then those of wyd:0.3, up to 0.2 off its own call
    mislabelled = MonotoneFunction("wyd:0.3", functools.partial(wyd_f, 0.5), 0.25)
    x = np.concatenate((default_grid(), [1.0, 1.0 + 0.5 * WYD_SERIES_WINDOW])).reshape(1, -1)
    catalog = tilde_transform([sld(), mislabelled, wyd(0.3)], x)[1]
    alone = tilde_transform(mislabelled, x)
    assert catalog.tobytes() == alone.tobytes()
    assert catalog.tobytes() == tilde_transform(wyd(0.5), x).tobytes()


def test_catalog_tilde_takes_ratio_matrices_and_positive_values():
    x = np.full((2, 3, 3), 2.0)
    assert tilde_transform([], x).shape == (2, 0, 3, 3)
    with pytest.raises(ValueError, match="ratio matrices"):
        tilde_transform([sld()], np.ones(4))
    with pytest.raises(ValueError, match="strictly positive"):
        tilde_transform([sld(), wyd(0.5)], -x)

