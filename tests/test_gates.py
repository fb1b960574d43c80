"""Every gate of the report's and the audit's tables has a negative control that fires it.

A control builds an instance that one gate must flag and returns the flag
names its route gives it. The walk below reads the gate names from the
tables themselves, so a gate added to either table without a control
registered here fails the walk.
"""

import dataclasses
import functools

import numpy as np
import pytest

import skewcal.gns as gns
from skewcal.gns import G_H_RTOL, audit_G_equals_H
from skewcal.linalg import DensityMatrix, random_density, random_hermitian
from skewcal.monotone import MonotoneFunction, from_key, sld, wyd_f
from skewcal.qinfo import DEFAULT_TOL, _flag_names, _report_in_eigenbasis, eigenbasis_terms

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SKEWED = np.diag([0.75, 0.25]).astype(complex)
MIXED = np.diag([0.5, 0.5]).astype(complex)

# gate name -> (control, the exact flags it gives)
CONTROLS = {}


def control(gate, *expected):
    """Register the decorated function as ``gate``'s negative control, which flags ``expected``."""

    def register(make):
        CONTROLS[gate] = (make, list(expected))
        return make

    return register


def _terms(rho, f, a, b):
    return eigenbasis_terms(DensityMatrix(rho), [f], a, b)


def _report_flags(rho, f, a, b):
    # the report's flag names of one instance
    ((names,),) = _flag_names(_report_in_eigenbasis(_terms(rho, f, a, b), DEFAULT_TOL)["flags"])
    return names


def _audit_flags(f):
    # the audit's flag names of a fixed random instance
    rho = random_density(3, 1)
    a, b = (random_hermitian(3, seed).matrix for seed in (2, 3))
    ((names,),) = _flag_names(audit_G_equals_H(_terms(rho.matrix, f, a, b))["flags"])
    return names


@control(
    "nonfinite_scalar",
    "nonfinite_scalar",
    "main_inequality_violation",
    "commutator_bound_violation",
    "negative_lhs",
    "negative_info_a",
)
def _nan_entry(monkeypatch):
    # a NaN entry of a reaches every scalar but var_b and info_b, and fails
    # every gate it reaches
    a = SIGMA_X.copy()
    a[0, 1] = np.nan
    return _report_flags(SKEWED, sld(), a, SIGMA_Z)


@control("main_inequality_violation", "main_inequality_violation")
def _inflated_f_at_zero(monkeypatch):
    # f(0) = 10 drives the kernel outside its envelope: rhs passes lhs while
    # the informations stay positive
    return _report_flags(SKEWED, MonotoneFunction("bogus", sld().evaluate, 10.0), SIGMA_X, SIGMA_Y)


@control("commutator_bound_violation", "commutator_bound_violation")
def _non_hermitian_b(monkeypatch):
    # the real parts see sigma_x twice, so lhs = 0, while the commutator
    # term keeps b's imaginary part, 1/16
    return _report_flags(SKEWED, sld(), SIGMA_X, np.array([[0.0, 1.0], [1.0 + 1.0j, 0.0]]))


@control("negative_lhs", "negative_lhs")
def _asymmetric_b(monkeypatch):
    # lhs = -1e-10 on the maximally mixed state: below the nonnegativity
    # slack, above the tolerance the other gates use
    return _report_flags(MIXED, sld(), SIGMA_X, np.array([[0.0, 1.0 - 2e-5], [1.0, 0.0]]))


# f(0) = -1 makes the information of an observable negative; the other
# observable is 0, so no other scalar moves off 0
_NEGATIVE_F0 = MonotoneFunction("mild", sld().evaluate, -1.0)


@control("negative_info_a", "negative_info_a")
def _negative_info_a(monkeypatch):
    return _report_flags(SKEWED, _NEGATIVE_F0, SIGMA_X, np.zeros((2, 2)))


@control("negative_info_b", "negative_info_b")
def _negative_info_b(monkeypatch):
    return _report_flags(SKEWED, _NEGATIVE_F0, np.zeros((2, 2)), SIGMA_X)


@control("route_disagreement", "route_disagreement")
def _wrong_wyd_f_at_zero(monkeypatch):
    # the kernel route reads the stored f(0) = 0.3 and the power sandwich
    # does not, so they part by ~0.15
    wrong = MonotoneFunction("wyd:0.5", functools.partial(wyd_f, 0.5), 0.3)
    rho = random_density(3, 1)
    a, b = (random_hermitian(3, seed).matrix for seed in (2, 3))
    return _report_flags(rho.matrix, wrong, a, b)


@control("g_h_mismatch", "g_h_mismatch")
def _offset_h(monkeypatch):
    real = gns.h_from_measure

    def offset(mu, q):
        h, dots = real(mu, q)
        return h + 100.0 * G_H_RTOL * np.fmax(1.0, np.abs(h)), dots

    monkeypatch.setattr(gns, "h_from_measure", offset)
    return _audit_flags(from_key("wyd:0.5"))


@control("mu_negative_atom", "g_h_mismatch", "mu_negative_atom")
def _negative_diagonal_weight(monkeypatch):
    # |m_xy| twice the geometric mean of m_xx and m_yy at the heaviest atom
    # turns its diagonal weight negative; H integrates the edited marginals,
    # so G = H fails as well
    real = gns.build_mu

    def edited(rho, xt, et):
        mu = real(rho, xt, et)
        m_xx, m_yy, m_xy = marginals = np.array(mu.marginals)
        k = np.argmax(m_xx * m_yy, axis=-1)
        rows = np.arange(len(k))
        m_xy[rows, k] = 2.0 * np.sqrt(m_xx[rows, k] * m_yy[rows, k])
        weights = 2.0 * (m_xx * m_yy - m_xy * m_xy)
        return dataclasses.replace(mu, weights=weights, marginals=marginals)

    monkeypatch.setattr(gns, "build_mu", edited)
    return _audit_flags(from_key("wyd:0.5"))


@control("gform_negative", "gform_negative")
def _shrunk_e1(monkeypatch):
    # the harmonic G-form is 0 up to round-off, so a graph form E1 read 1e-6
    # too small makes it negative; E1 feeds only the G-forms
    real = gns.form_E1
    monkeypatch.setattr(gns, "form_E1", lambda *args: (1.0 - 1e-6) * real(*args))
    return _audit_flags(from_key("harmonic"))


def test_every_gate_has_a_negative_control():
    # the gate names as the routes' tables give them, on a sound instance
    # that neither flags
    rho = random_density(3, 1)
    a, b = (random_hermitian(3, seed).matrix for seed in (2, 3))
    terms = eigenbasis_terms(rho, [from_key("wyd:0.5")], a, b)
    report = _report_in_eigenbasis(terms, DEFAULT_TOL)["flags"]
    audit = audit_G_equals_H(terms)["flags"]
    assert _flag_names({**report, **audit}) == [[[]]]
    assert [*report, *audit] == list(CONTROLS)


@pytest.mark.parametrize("gate", list(CONTROLS))
def test_negative_control_fires_its_gate(gate, monkeypatch):
    # the audit's controls inject their fault into the instance that the
    # walk above finds sound
    make, expected = CONTROLS[gate]
    flags = make(monkeypatch)
    assert gate in flags
    assert flags == expected
