"""Fixed reference work that times the host, never the engine.

run.py runs `reference_work()` in its own process after in-process jobs.
It also starts this file as a fresh interpreter after jobs that run in a
child process, so that reading pays for interpreter start-up as well.
"""

import random
from fractions import Fraction


def _poly(seed: int, terms: int) -> dict:
    """A fixed sparse polynomial: monomials of up to four of nine variables
    and rational coefficients with numerators up to 10**6."""
    rng = random.Random(seed)
    poly: dict = {}
    while len(poly) < terms:
        variables = rng.sample(range(9), rng.randint(1, 4))
        mono = tuple(sorted((v, rng.randint(1, 3)) for v in variables))
        poly[mono] = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
    return poly


_LEFT = _poly(1, 110)
_RIGHT = _poly(2, 110)


def _mono_mul(a: tuple, b: tuple) -> tuple:
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        (va, ea), (vb, eb) = a[ia], b[ib]
        if va == vb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif va < vb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    return tuple(out) + a[ia:] + b[ib:]


def reference_work() -> int:
    """One product of two fixed 110-term sparse polynomials over Q.

    This is the engine's hottest kernel, sparse multiplication on tuple
    monomials with Fraction coefficients.  It is copied here so that no
    engine change can alter the reference.  On the measured host its time
    follows the engine's slowdowns more closely than a small Fraction loop
    does."""
    out: dict = {}
    for ma, ca in _LEFT.items():
        for mb, cb in _RIGHT.items():
            mono = _mono_mul(ma, mb)
            prior = out.get(mono)
            out[mono] = ca * cb if prior is None else prior + ca * cb
    return len(out)


if __name__ == "__main__":
    reference_work()
