"""Walkthrough: one regular and one singular interpolation node.

At x = 1 prescribe the value 0 with derivative bound -1; at x = 0 prescribe
the residue -1, i.e. the interpolant must have a simple pole there with
lim (z - 0) w(z) = -1.  The same Pick matrix appears as in the two-regular
example, but the companion rows differ, and so does the resolvent.
"""

import json
from pathlib import Path

import bnpick as b

problem = json.loads((Path(__file__).parent / "ex102.json").read_text())
data = b.InterpolationData.from_json(problem)
system = b.build_system(data)

print("P:", [[str(v) for v in row] for row in system.P.rows], "kappa =", system.kappa)
print("E:", [str(v) for v in system.E], " C:", [str(v) for v in system.C])

theta = b.build_theta(system)
print("\nresolvent:")
for i in range(2):
    for j in range(2):
        print(f"  Theta[{i}][{j}] = {theta.entry(i, j)}")

print("\nfactorization across the singular node (reordered first):")
t1, t2 = b.factorize(system, 1, order=(1, 0))
print("  elementary factor:", [[str(t1.entry(i, j)) for j in range(2)] for i in range(2)])
print("  product recovers Theta:", t1 @ t2 == theta)
print("  negative squares split:", t1.kappa, "+", t2.kappa, "=", system.kappa)

print("\nparameter sweep:")
for phi in (b.Parameter.constant(1),
            b.Parameter.rational(b.RationalFunction.x()),
            b.Parameter.infinity()):
    report, w, sampled = b.classify_and_verify(system, phi)
    labels = [(n.label.family, n.label.index) for n in report.nodes]
    print(f"  phi = {phi!r}: w = {w}")
    print(f"    conditions {labels}, class index {report.class_index}, "
          f"sampled count {sampled}")

# the one excluded parameter maps to the constant infinity
phi_excluded = b.Parameter.rational(
    -(theta.entry(1, 1) / theta.entry(1, 0)))
print("\nexcluded parameter:", phi_excluded.func)
try:
    b.apply_lft(theta, phi_excluded)
except b.DegenerateTransformError as exc:
    print("  rejected as expected:", exc)
