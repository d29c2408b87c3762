"""Generate a planted instance and recover its sparse solution.

The sdp_gaussian family hides an s*-sparse solution inside a random
positive semidefinite instance.  The Newton pursuit solver is told only
the sparsity budget s and finds the planted support from scratch.
"""

import numpy as np

from sparselcp import (GeneratorSpec, MeritModel, SolverConfig, generate,
                       merit_value, solve)

spec = GeneratorSpec("sdp_gaussian", n=300, s_star=4, m=150, seed=7)
inst = generate(spec)
print(f"instance: n = {inst.n}, planted nonzeros = "
      f"{np.count_nonzero(inst.ground_truth)}")

model = MeritModel.phi_r(2)
trace = []  # the objective at every iterate, the start included
report = solve(inst, model, SolverConfig(s=4),
               callback=lambda k, x, f: trace.append(f))

print(f"termination: {report.termination.value}")
print(f"iterations:  {report.iterations}")
print(f"objective:   {report.objective:.3e}")
print(f"residual:    {report.residual:.3e}")

err = np.linalg.norm(report.x - inst.ground_truth)
rel = err / np.linalg.norm(inst.ground_truth)
print(f"relative error against the plant: {rel:.3e}")

found = sorted(np.nonzero(report.x)[0])
planted = sorted(np.nonzero(inst.ground_truth)[0])
print(f"recovered support: {found}")
print(f"planted support:   {planted}")

print()
print("objective trace (one value per iteration, monotone by design):")
for k, f in enumerate(trace):
    print(f"  k = {k}: f = {f:.6e}")

# the solution really solves the complementarity system
y = inst.M @ report.x + inst.q
print()
print(f"min(x) = {report.x.min():.2e}, min(y) = {y.min():.2e}, "
      f"max |x * y| = {np.abs(report.x * y).max():.2e}")
print(f"f_2 cross-check: {merit_value(model, inst, report.x):.3e}")
