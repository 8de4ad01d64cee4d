"""Tour of the boundary-limit and kernel-positivity machinery.

Everything the solver certifies numerically is available directly:
nontangential boundary limits, read as the function's Laurent jet at the
point, Nevanlinna-kernel sampling and the Nevanlinna-class test.
"""

import bnpick as b
from bnpick.boundary import LimitKind

z = b.RationalFunction.x()
neg_recip = b.RationalFunction([-1], [0, 1])  # -1/z

print("nontangential limits, read as Laurent jets:")
f = b.RationalFunction([1, 2], [-1, 2])  # (2z+1)/(2z-1)
for kind, x0 in ((LimitKind.VALUE, -0.5), (LimitKind.DERIVATIVE, -0.5),
                 (LimitKind.KERNEL_DIAGONAL, -0.5), (LimitKind.RESIDUAL, 0.5),
                 (LimitKind.VALUE, 0.5)):
    est = b.nt_limit(f, x0, kind)
    shown = f"{est.value.real:+.9f}" if est.is_finite else est.status
    print(f"  {kind.value:15s} at {x0:+.1f}: {shown}")

print("\nkernel positivity sampling:")
# each grid spans the function's real poles, (-1, 1) when it has none
for name, func, span in (("z", z, (-1, 1)), ("-1/z", neg_recip, (0, 0)),
                         ("(2z+1)/(2z-1)", f, (0.5, 0.5))):
    print(f"  negative squares of K for {name}: {b.kernel_negative_squares(func, span=span)}")

phi = b.Parameter.rational(b.RationalFunction([0, 0, 1]))  # z^2
check = b.is_nevanlinna(phi)  # read from the Bezout matrix of z^2 / 1
print(f"  z^2 in the Nevanlinna class: {check.ok} "
      f"(witness: {check.witness.negatives} negative eigenvalue of its Bezout matrix B; "
      f"v = ({', '.join(map(str, check.witness.vector))}) has v^T B v / v^T v = "
      f"{check.witness.quotient})")
