"""
One instance, every scalar, by hand
===================================

A 2x2 instance small enough to follow on paper: the state is diagonal,
rho = diag(3/4, 1/4), the observables are the Pauli matrices sigma_x
and sigma_y.  All first moments vanish, the variances are 1, and both
correlation terms are zero by symmetry, so the inequality

    Var(A) Var(B) - Cov(A,B)^2  >=  I_f(A) I_f(B) - Corr_f(A,B)^2

collapses to 1 >= I_f(sigma_x) I_f(sigma_y), with everything expressible
in radicals.
"""

import numpy as np

from skewcal.linalg import DensityMatrix
from skewcal.qinfo import evaluate_inequalities, f_information, variance
from skewcal.monotone import sld, wyd

rho = DensityMatrix(np.diag([0.75, 0.25]))
sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

# For beta = 1/2 the information is the original skew information,
# I(A) = -Tr([sqrt(rho), A]^2) / 2.  With eigenvalues p, q and the
# off-diagonal coupling of sigma_x this is 1 - 2 sqrt(p q), here
# 1 - sqrt(3)/2.
p, q = 0.75, 0.25
print("expected I_1/2(sigma_x):", 1.0 - 2.0 * np.sqrt(p * q))
print("computed I_1/2(sigma_x):", f_information(rho, wyd(0.5), sigma_x))

sqrt_rho = np.diag(np.sqrt([p, q]))
comm = sqrt_rho @ sigma_x - sigma_x @ sqrt_rho
print("commutator route:       ", -0.5 * np.trace(comm @ comm).real)

# The full report carries both sides of the inequality, the gap, the
# Schrodinger commutator bound, and cross-route residuals.
report = evaluate_inequalities(rho, wyd(0.5), sigma_x, sigma_y)
print("\nvar_a  =", report["var_a"], " var_b =", report["var_b"])
print("cov_ab =", report["cov_ab"], " corr_ab =", report["corr_ab"])
print("info_a =", report["info_a"], " info_b =", report["info_b"])
print("lhs    =", report["lhs"])
print("rhs    =", report["rhs"])
print("gap    =", report["gap"])

# Heisenberg term: [sigma_x, sigma_y] = 2i sigma_z, so
# |Tr(rho [A, B])|^2 / 4 = |2i (p - q)|^2 / 4 = (p - q)^2 = 1/4.
print("heisenberg rhs =", report["heisenberg_rhs"], " expected", (p - q) ** 2)

# The chain lhs >= rhs and lhs >= heisenberg holds with room to spare
# here; no flags raised, and the kernel and power-sandwich routes agree
# to machine precision.
print("flags =", report["flags"])
print("residuals =", report["residuals"])

# Variance needs no f at all and matches the report.
print("\nvariance(sigma_x) =", variance(rho, sigma_x))

# Different catalog entries order the same instance differently: the sld
# information is the largest among the catalog, harmonic is zero.
for f in (sld(), wyd(0.5), wyd(0.1)):
    r = evaluate_inequalities(rho, f, sigma_x, sigma_y)
    print(f"{f.name:<10} info_a = {r['info_a']:.12f}  gap = {r['gap']:.12f}")
