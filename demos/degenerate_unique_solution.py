"""Walkthrough: the degenerate case has exactly one solution.

Data at x = -1/2 (value 0, derivative bound -1) and x = 1/2 (residue 1)
produces a singular Pick matrix.  A kernel vector of P then pins the unique
interpolant in closed form, and its interpolation conditions and bordered
kernel count are certified numerically.
"""

import json
from fractions import Fraction
from pathlib import Path

import bnpick as b
from bnpick.boundary import LimitKind

problem = json.loads((Path(__file__).parent / "ex103.json").read_text())
data = b.InterpolationData.from_json(problem)
system = b.build_system(data)

print("P:", [[str(v) for v in row] for row in system.P.rows])
print("inertia:", system.inertia, "-> singular, kappa =", system.kappa)

bundle = b.solve(data)
w = bundle.w
print("\nunique solution w(z) =", w)
print("serialized:", w.to_json())

print("\nboundary certificates:")
# limits at exact nodes are read from w's exact Laurent jets
value = b.nt_limit(w, Fraction(-1, 2), LimitKind.VALUE)
deriv = b.nt_limit(w, Fraction(-1, 2), LimitKind.DERIVATIVE)
residual = b.nt_limit(w, Fraction(1, 2), LimitKind.RESIDUAL)
print(f"  w(-1/2)      = {value.value.real:+.2e}   (prescribed 0)")
print(f"  w'(-1/2)     = {deriv.value.real:+.12f} (bound -1, met with equality)")
print(f"  res w(1/2)   = {residual.value.real:+.12f} (prescribed 1)")

print("\nbordered kernel count:", bundle.verification["fmi_count"],
      "== kappa:", bundle.verification["is_problem3_solution"])
print("plain kernel count of w:", b.kernel_negative_squares(w, span=(-0.5, 0.5)))  # node span

# uniqueness has teeth: any perturbation overshoots the kernel budget
perturbed = w + b.RationalFunction([0.01], [2, 1])
print("\nperturbed candidate count:", b.fmi_check(system, perturbed), "> kappa")
