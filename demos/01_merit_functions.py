"""Tour of the merit functions.

Every solver in this package minimizes a merit: a nonnegative function
of (x, y) with y = M x + q that vanishes when x solves the
complementarity problem: exactly for phi_r and psi2, and only to within
the smoothing eps/2 per row for fb and min.  This script evaluates the
four families on a tiny instance and shows what the solver sees.
"""

import numpy as np

from sparselcp import LcpInstance, MeritModel, merit_gradient, merit_value

M = np.array([[2.0, 0.0], [0.0, 1.0]])
q = np.array([-3.0, 1.0])
inst = LcpInstance(M, q)

# x = (1.5, 0) solves this instance: y = Mx + q = (0, 1), x >= 0, y >= 0,
# and x[i] * y[i] = 0 for both coordinates.
solution = np.array([1.5, 0.0])
off = np.array([1.0, -0.5])

models = [
    ("phi_r, r=2  ", MeritModel.phi_r(2)),
    ("phi_r, r=2.5", MeritModel.phi_r(2.5)),
    ("phi_r, r=3  ", MeritModel.phi_r(3)),
    ("fb          ", MeritModel.fischer_burmeister()),
    ("min         ", MeritModel.natural_min()),
    ("psi2        ", MeritModel.psi2()),
]

print("merit values at the solution x = (1.5, 0) and at x = (1, -0.5):")
for name, model in models:
    at_sol = merit_value(model, inst, solution)
    at_off = merit_value(model, inst, off)
    print(f"  {name}  f(solution) = {at_sol:.3e}   f(off) = {at_off:.6f}")

print()
print("gradients at the off point (what a descent step would use):")
for name, model in models:
    g = merit_gradient(model, inst, off)
    print(f"  {name}  grad = [{g[0]:+.4f}, {g[1]:+.4f}]")

print()
print("the smoothed kernels (fb, min) are not exactly zero at the")
print("solution; their residual carries an epsilon of 1e-10 under a")
print("square root, which is why the solver treats values below its")
print("objective tolerance as converged.")
