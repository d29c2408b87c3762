"""The classical pivoting baseline, and when it gives up.

Lemke's complementary pivoting solves the problem exactly in finitely
many tableau pivots when it works, with no sparsity budget and no
tolerance knobs.  It can also end on a secondary ray, which proves
nothing; the Newton pursuit has no such exit but needs a budget.
"""

import numpy as np

from sparselcp import (GeneratorSpec, LcpInstance, MeritModel, RayTermination,
                       generate, lemke_solve, merit_value)

inst = generate(GeneratorSpec("sdp_gaussian", n=200, s_star=5, m=100, seed=1))
x, pivots = lemke_solve(inst)
f2 = merit_value(MeritModel.phi_r(2), inst, x)

print(f"planted instance, n = {inst.n}:")
print(f"  pivots = {pivots}, nonzeros = {np.count_nonzero(x)}, "
      f"f_2 = {f2:.3e}")
err = np.linalg.norm(x - inst.ground_truth)
print(f"  distance to the plant = {err:.3e}")

print()
print("a problem with no solution ends on a ray:")
bad = LcpInstance(np.array([[-1.0]]), np.array([-1.0]))
try:
    lemke_solve(bad)
except RayTermination as exc:
    print(f"  RayTermination raised: {exc}")

print()
print("trivial case: q >= 0 means x = 0 works, zero pivots needed:")
easy = LcpInstance(np.eye(2), np.array([0.5, 2.0]))
x, pivots = lemke_solve(easy)
print(f"  x = {x}, pivots = {pivots}")
