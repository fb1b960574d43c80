"""
Tour of the operator monotone function catalog
==============================================

Every information measure in this package is parametrized by a positive
operator monotone function f with f(1) = 1 and the symmetry
f(x) = x f(1/x).  This script walks the built-in catalog and shows the
two derived objects the numerics actually consume: the value f(0) and
the transform

    ftilde(x) = ((x + 1) - (x - 1)^2 f(0) / f(x)) / 2.
"""

import numpy as np

from skewcal.monotone import (
    default_grid,
    from_key,
    harmonic,
    sld,
    tilde_transform,
    validate_catalog_entry,
    wyd,
)

keys = ["sld", "harmonic", "wyd:0.1", "wyd:0.25", "wyd:0.5", "wyd:0.75", "wyd:0.9"]

print("key          f(2)        f(0)      ftilde(2)")
for key in keys:
    f = from_key(key)
    print(f"{key:<12} {f(2.0):.8f}  {f.f_at_zero:.4f}    {tilde_transform(f, 2.0):.8f}")

# The Wigner-Yanase-Dyson family has a closed-form transform,
# ftilde_beta(x) = (x^beta + x^(1-beta)) / 2, so the generic transform
# can be checked against it directly.
beta = 0.3
f = wyd(beta)
x = np.array([0.25, 0.5, 2.0, 7.5])
closed = (x**beta + x ** (1.0 - beta)) / 2.0
print("\nwyd:0.3 transform vs closed form:", np.max(np.abs(tilde_transform(f, x) - closed)))

# sld and harmonic are each other's transform.  One direction lands on
# the other function exactly, the other to rounding.
grid = default_grid(1e-3, 1e3, 101)
print("tilde(sld) vs harmonic:   ", np.max(np.abs(tilde_transform(sld(), grid) - harmonic()(grid))))
print("tilde(harmonic) vs sld:   ", np.max(np.abs(tilde_transform(harmonic(), grid) - sld()(grid))))

# Grid validation checks positivity, the defining symmetry, monotonicity,
# and the envelope ftilde(x) <= (x + 1) / 2 on a log-spaced grid.
print("\nvalidation on [1e-6, 1e6]:")
for key in keys:
    report = validate_catalog_entry(from_key(key))
    status = "ok" if report.ok else "FAILED: " + "; ".join(report.violations())
    print(f"  {key:<12} {status}")

# A function outside the admissible class gets caught.  This one is
# positive and normalized but breaks the symmetry f(x) = x f(1/x).
from skewcal.monotone import MonotoneFunction

bogus = MonotoneFunction("bogus", lambda x: (1.0 + np.asarray(x) ** 2) / 2.0, 0.5)
report = validate_catalog_entry(bogus)
print(f"\nbogus entry ok = {report.ok}; first violation: {report.violations()[0]}")
