"""Strip a linear reaction into the boundary memory and compare routes.

For p = 1 the substitution u = v exp(C(t)), with C the running integral
of c, removes the reaction term at the cost of a weighted memory kernel
on the boundary.  Solving both formulations and mapping v back gives two
independent routes to the same solution; their gap is a discretization
error that shrinks under simultaneous mesh and step refinement.
"""

import math
from dataclasses import replace

from memheat import (CoefficientSpec, InitialSpec, Scenario, SolverControls,
                     equivalence_check, to_transformed)

c = CoefficientSpec.power(1.0, 2.0)
k = CoefficientSpec.power(1.0, 4.0)
scn = Scenario(length=1.0, p=1.0, q=2.0, c=c, k=k,
               u0=InitialSpec("constant", 0.05),
               controls=SolverControls(t_max=2.0))

twin = to_transformed(scn)
C = twin.boundary.cum
print("transformed twin: reaction c set to zero, boundary slope becomes")
print("  k(t) e^{-C(t)} * integral of e^{q C} v^q;  rho(1, 1) = %.6f"
      % math.exp(scn.q * C(1.0) - C(1.0)))

print("\nmild scenario, both routes global")
rep = equivalence_check(scn, 2.0)
print("  statuses: %s / %s, max relative discrepancy %.3e over %d times"
      % (rep.status_direct, rep.status_transformed, rep.discrepancy,
         len(rep.times)))

ctr = scn.controls
fine = replace(scn, controls=replace(ctr, n_nodes=401, theta=ctr.theta / 2,
                                     dt_max=ctr.dt_max / 2))
rep_f = equivalence_check(fine, 2.0)
print("  after halving (h, theta, dt_max): %.3e  (ratio %.2f)"
      % (rep_f.discrepancy, rep.discrepancy / rep_f.discrepancy))

print("\nblow-up scenario, the routes must agree on the verdict")
one = CoefficientSpec.constant(1.0)
hot = Scenario(length=1.0, p=1.0, q=2.0, c=one, k=one,
               u0=InitialSpec("constant", 1.0),
               controls=SolverControls(t_max=10.0))
rep_b = equivalence_check(hot, 10.0)
tc_d = rep_b.estimate_direct.T_cross
tc_m = rep_b.estimate_mapped.T_cross
print("  statuses: %s / %s, threshold crossings %.4f vs %.4f (gap %.2e)"
      % (rep_b.status_direct, rep_b.status_transformed, tc_d, tc_m,
         abs(tc_d - tc_m) / tc_d))
