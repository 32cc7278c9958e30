"""Verify the Hori-Vafa formula for a Grassmannian at desk scale.

The engine builds the series for a product of projective spaces from its
own one-row output, applies the antisymmetrizing derivative operator as a
shifted Vandermonde with the sign (-1)^((r-1)d) in closed form, divides
by the Vandermonde exactly, and compares every Schur pairing degree by
degree.  All residuals must vanish.
"""

from flaghg.mirror import hori_vafa_verify

for (n, r, depth) in [(3, 2, 2), (4, 2, 2)]:
    report = hori_vafa_verify(n, r, depth)
    print(f"Gr_{r}(C^{n}) up to degree {depth}: "
          f"{'all residuals vanish' if report.ok else 'FAILED'}")
    nonzero = 0
    for entry in report.residuals:
        bad = [c for c in entry["residual_c_coeffs"] if c != "0"]
        if bad:
            nonzero += 1
            print(f"  degree {entry['degree']} partition "
                  f"{entry['partition']}: {bad}")
    print(f"  checked {len(report.residuals)} (degree, partition) layers, "
          f"{nonzero} nonzero")
    print()
