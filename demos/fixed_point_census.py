"""Walk through the fixed-point census of a hyper-Quot scheme.

For Gr_2(C^4) at degree 2 we list the admissible tableaux, their block
data, the dimensions of the ambient moduli space and of each component,
and the signed ledger whose Euler class drives the localization formula.
"""

from flaghg import (FlagSpec, component_dimension, enumerate_tableaux,
                    hquot_dimension, normal_ledger, torus_fixed_points)

spec = FlagSpec(n=4, ranks=(2,), degrees=(2,))
print(f"Quot scheme for {spec}: dimension {hquot_dimension(spec)}")
print()

for t in enumerate_tableaux(spec):
    print(f"tableau A = {t.rows}")
    print(f"  blocks: values {t.values[0]} multiplicities {t.mults[0]}")
    print(f"  component dimension {component_dimension(t)}, "
          f"codimension {hquot_dimension(spec) - component_dimension(t)}")
    print(f"  torus fixed points: {len(torus_fixed_points(t))}")
    print("  normal ledger:")
    for src, tgt, w, mult in normal_ledger(t).terms():
        tgt_name = "ambient" if tgt[0] == spec.levels + 1 else str(tgt)
        print(f"    {'+' if mult > 0 else '-'} {src} -> {tgt_name} "
              f"weight {w} (x{abs(mult)})")
    print()

print("Two-step flags work the same way:")
flag = FlagSpec(n=3, ranks=(1, 2), degrees=(1, 1))
for t in enumerate_tableaux(flag):
    print(f"  {flag} tableau {t.rows}: "
          f"dim {component_dimension(t)} inside {hquot_dimension(flag)}")
