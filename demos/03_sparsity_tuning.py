"""Find the sparsity level when nobody tells you.

The tuning loop runs the Newton pursuit with a doubling budget schedule
s = s0, rho*s0, rho^2*s0, ... and accepts the first budget whose final
objective certifies a solution.  A pivoting run can also seed the budget
directly from its solution's support.
"""

from sparselcp import (GeneratorSpec, MeritModel, SolverConfig, TuningConfig,
                       generate, lemke_seeded_s, nhtpt_solve, support_count)

inst = generate(GeneratorSpec("sdp_gaussian", n=400, s_star=6, m=200, seed=3))
model = MeritModel.phi_r(2)

tuning = TuningConfig(s0=1, rho=2)
report, rounds = nhtpt_solve(inst, model, SolverConfig(s=1), tuning)

print("doubling schedule: s = 1, 2, 4, 8, ...")
print(f"accepted after {rounds} round(s) at budget s = "
      f"{report.support.size}")
print(f"objective = {report.objective:.3e}, "
      f"true nonzeros = {support_count(report.x)}")
print("note the accepted budget can exceed the true sparsity; the extra")
print("coordinates converge to zero and support_count() ignores them.")

print()
seeded = lemke_seeded_s(inst)
print(f"pivoting-seeded budget: s = {seeded} "
      f"(planted sparsity was 6)")
rep2 = nhtpt_solve(inst, model, SolverConfig(s=1),
                   TuningConfig(s0=seeded, rho=2))[0]
print(f"re-solving at the seeded budget: objective = {rep2.objective:.3e}")
