"""Verify the Hori-Vafa formula for a Grassmannian at desk scale.

The antisymmetrized product of projective-space series over the
Vandermonde is the Grassmannian's simplified display.  The engine checks
the one-row display against its tableau route, then takes the rank-r
display minus the tableau route degree by degree and compares every
Schur pairing.  All residuals must vanish.
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
