"""
Auditing the inequality through its GNS-side identity
=====================================================

The gap of the uncertainty inequality is not just nonnegative, it is a
sum of manifestly nonnegative terms.  Writing G for the gap expressed
through sesquilinear forms on the GNS space (inner product
<X, Y> = Tr(rho X* Y), modular operator Delta X = rho X rho^-1) and H
for the double integral of

    ((s+1) - ftilde(s)) ftilde(t) + ((t+1) - ftilde(t)) ftilde(s)

against a nonnegative spectral measure mu, the identity G = H holds
exactly.  This script evaluates both sides independently and inspects
the measure.
"""

import numpy as np

from skewcal.gns import AUDIT_FLAGS, GnsModel, audit_G_equals_H, build_mu, form_E1, form_G
from skewcal.linalg import random_density, random_hermitian
from skewcal.monotone import from_key, tilde_transform
from skewcal.qinfo import centered, eigenbasis_terms, evaluate_inequalities

rho = random_density(4, seed=7)
a = random_hermitian(4, seed=8)
b = random_hermitian(4, seed=9)
f = from_key("wyd:0.3")

model = GnsModel(rho)
print("modular spectrum has", model.spectrum().size, "atoms for dim", model.dim)

# The forms of the centered observables reproduce the trace-formula
# scalars: cov = Re E1 / 2 and corr = Re G with G = E1 / 2 - F.
report = evaluate_inequalities(rho, f, a.matrix, b.matrix)
xa = centered(rho, a.matrix)
xb = centered(rho, b.matrix)
print("cov via form :", 0.5 * form_E1(model, xa, xb).real, " trace route:", report.cov_ab)
print("corr via form:", form_G(model, f, xa, xb).real, " trace route:", report.corr_ab)

# E1 and F sandwich every mixed term: F = E1 / 2 - G is the ftilde(Delta)
# form, E1 the f-independent envelope (Delta + 1), and F <= E1 / 2
# entrywise in any orthogonal decomposition.
e1_half = 0.5 * form_E1(model, xa, xa)
print("E1(a,a) / 2  :", e1_half.real)
print("F(a,a)       :", (e1_half - form_G(model, f, xa, xa)).real, " (= var - info)")

# The audit: G from the report scalars, H from the spectral measure. It
# reads the rotation and the tilde pass that the stacked report shares.
# It returns (states, entries) columns; here one state and one entry.
audit = audit_G_equals_H(model, eigenbasis_terms(rho, [f], a.matrix, b.matrix))
print("\nG        =", audit["G"].item())
print("H        =", audit["H"].item())
print("residual =", audit["residual"].item())
print("flags    =", tuple(name for name, hit in zip(AUDIT_FLAGS, audit["flags"][0, 0]) if hit))

# mu is built from three rank-one pieces per atom pair and is
# nonnegative by a Cauchy-Schwarz argument. The audit never forms its
# K x K weights: it certifies, from the K per-atom marginals, a lower
# bound on the smallest one.
mu = build_mu(model, model.to_eigenbasis(xa), model.to_eigenbasis(xb))
print("certified lower bound on the smallest mu atom:", mu.min_weight_bound)


def pair_integrand(s, t):
    fs, ft = tilde_transform(f, s), tilde_transform(f, t)
    return (s + 1.0) * ft + (t + 1.0) * fs - 2.0 * fs * ft


# The integrand against mu is nonnegative too, and at the fixed point
# s = t = 1 of the modular spectrum it equals 2 for every admissible f.
print("pair integrand at (1, 1):", pair_integrand(1.0, 1.0))
s, t = 3.0, 0.25
print(f"pair integrand at ({s}, {t}):", pair_integrand(s, t))

# Nonnegative measure times nonnegative integrand: H >= 0, hence the gap
# is nonnegative, which is the inequality.  The audit checks this chain
# on every instance; sweep it over a few random draws.
worst = 0.0
for i in range(50):
    rho_i = random_density(3 + i % 4, seed=100 + i)
    a_i = random_hermitian(rho_i.dim, seed=200 + i)
    b_i = random_hermitian(rho_i.dim, seed=300 + i)
    r = audit_G_equals_H(GnsModel(rho_i), eigenbasis_terms(rho_i, [f], a_i, b_i))
    assert not r["flags"].any()
    worst = max(worst, r["residual"].item())
print("\n50 random audits, worst |G - H| residual:", worst)
