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
for name, func in (("z", z), ("-1/z", neg_recip), ("(2z+1)/(2z-1)", f)):
    print(f"  negative squares of K for {name}: {b.kernel_negative_squares(func)}")

phi = b.Parameter.rational(b.RationalFunction([0, 0, 1]))  # z^2
check = b.is_nevanlinna(phi)
print(f"  z^2 in the Nevanlinna class: {check.ok} "
      f"(witness eigenvalue {check.witness.eigenvalue:.2f} "
      f"at {check.witness.points[0]:.2f})")
