"""Build the Grassmannian hypergeometric classes and their integrals.

The degree-d class on Gr_2(C^4) is assembled by pushing inverse Euler
classes down from the fixed components; an independent simplified display
must agree, and pairing against the Schur basis pins the class down
uniquely.  Pairing against e^{Ht} recovers the localization integral.
"""

from flaghg.mirror import (box_partitions, grassmannian_hg_term, integral_Id,
                           reconstruct_class_from_pairings, schur_pairing,
                           zero_tableau)
from flaghg.pushforward import ab_integrate, lam_vector
from flaghg.tableaux import FlagSpec

n, r = 4, 2
spec = FlagSpec(n, (r,), (0,))

for d in range(3):
    cls = grassmannian_hg_term(n, r, d)
    print(f"degree {d} class (both routes agree):")
    print(f"  {cls.to_text()}")

print()
print("Schur pairings of the degree-1 class:")
cls = grassmannian_hg_term(n, r, 1)
pairings = {}
for mu in box_partitions(r, n - r):
    pairings[mu] = schur_pairing(spec, cls, mu)
    print(f"  <1_1, s_{mu}> = {pairings[mu].to_text()}")

rebuilt = reconstruct_class_from_pairings(n, r, pairings)
checks = all(schur_pairing(spec, rebuilt, mu) == pairings[mu]
             for mu in pairings)
print(f"reconstruction from pairings round-trips: {checks}")

print()
print("Pairing the class against e^(Ht) reproduces the direct integral:")
t0 = zero_tableau(spec)
paired = ab_integrate(t0, cls, lam_vector(n, 0), check_symmetry=False,
                      exp=True)
direct = integral_Id(FlagSpec(n, (r,), (1,))).value
print(f"  paired : {paired.to_text()}")
print(f"  direct : {direct.to_text()}")
print(f"  equal  : {paired == direct}")
