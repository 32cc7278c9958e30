"""A reference model of Poly with tuple monomials.

A polynomial is a dict {monomial: Fraction} without zero coefficients, and
a monomial is a tuple of (VarId, exponent) pairs in VarId order with
positive exponents, the constant monomial being ().  Every operation works
on those tuples directly, with no packing and no registry, so the packed
Poly can be checked against it.
"""

from __future__ import annotations

from fractions import Fraction

from flaghg.algebra import Poly, VarId


def _add_to(out: dict, mono: tuple, c) -> None:
    s = out.get(mono, 0) + c
    if s:
        out[mono] = s
    else:
        out.pop(mono, None)


def mono_mul(a: tuple, b: tuple) -> tuple:
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, c in q.items():
        _add_to(out, mono, c)
    return out


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            _add_to(out, mono_mul(ma, mb), ca * cb)
    return out


def substitute(p: dict, assignment: dict) -> dict:
    """Simultaneous: a VarId value renames, a number evaluates."""
    out: dict = {}
    for mono, c in p.items():
        exps: dict = {}
        for v, e in mono:
            val = assignment.get(v, v)
            if isinstance(val, VarId):
                exps[val] = exps.get(val, 0) + e
            else:
                c = c * Fraction(val) ** e
        if c:
            _add_to(out, tuple(sorted(exps.items())), c)
    return out


def coefficient(p: dict, v: VarId, power: int) -> dict:
    out = {}
    for mono, c in p.items():
        exps = dict(mono)
        if exps.pop(v, 0) == power:
            out[tuple(sorted(exps.items()))] = c
    return out


def divide_by_linear(p: dict, divisor: dict) -> dict | None:
    """Long division by the divisor's greatest variable; None if a
    remainder is left."""
    pivot = max(v for mono in divisor for v, _ in mono)
    lead = divisor[((pivot, 1),)]
    rest = {mono: c for mono, c in divisor.items() if mono != ((pivot, 1),)}
    quotient: dict = {}
    remainder = dict(p)
    while True:
        movable = [(dict(mono).get(pivot, 0), mono)
                   for mono in remainder if dict(mono).get(pivot, 0)]
        if not movable:
            break
        e, mono = max(movable)
        exps = dict(mono)
        exps[pivot] -= 1
        if not exps[pivot]:
            del exps[pivot]
        step = {tuple(sorted(exps.items())): remainder[mono] / lead}
        quotient = add(quotient, step)
        remainder = add(remainder, mul(step, {((pivot, 1),): -lead}))
        remainder = add(remainder, mul(step, {m: -c for m, c in rest.items()}))
    return None if remainder else quotient


def to_text(p: dict) -> str:
    if not p:
        return "0"
    parts = []
    for mono, c in sorted(p.items()):
        c = c.numerator if c.denominator == 1 else c
        factors = "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in mono)
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append(factors)
        elif c == -1:
            parts.append(f"-{factors}")
        else:
            parts.append(f"{c}*{factors}")
    return " + ".join(parts)


def to_poly(p: dict) -> Poly:
    """The same polynomial built from Poly constants and variables."""
    out = Poly.zero()
    for mono, c in p.items():
        term = Poly.const(c)
        for v, e in mono:
            term = term * Poly.var(v) ** e
        out = out + term
    return out
