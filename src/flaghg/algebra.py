"""Exact sparse multivariate polynomials and factored rational functions.

Every class, weight and series in the engine is built from two types:

  Poly    sparse map {monomial: Fraction}, monomials are sorted tuples of
          (VarId, exponent) pairs with positive exponents.
  RatFun  a Poly numerator over a multiset of *linear* denominator factors.

Denominators are never expanded.  Each factor is kept canonical: it is
scaled so the coefficient of its least variable is +1, and the scaling
constant is absorbed into the numerator.  All cancellation is exact
division of the numerator by a single linear factor, so no multivariate
GCD is ever needed.  Coefficients live in Q; alpha (the circle weight)
and c (the formal pi*sqrt(-1) constant) are ordinary variables.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import SingularSubstitutionError, ZeroDenominatorError


class VarId(NamedTuple):
    """A variable: kind plus up to three indices.

    kind 0: root y[i,j;k]       (level i, block j, slot k)
    kind 1: ambient root e[k]
    kind 2: alpha               (equivariant circle weight)
    kind 3: kahler t[i]
    kind 4: c                   (formal constant, never evaluated)
    """

    kind: int
    i: int = 0
    j: int = 0
    k: int = 0

    def __str__(self) -> str:
        if self.kind == 0:
            return f"y[{self.i},{self.j};{self.k}]"
        if self.kind == 1:
            return f"e[{self.k}]"
        if self.kind == 2:
            return "alpha"
        if self.kind == 3:
            return f"t[{self.i}]"
        return "c"


def y(i: int, j: int, k: int) -> VarId:
    return VarId(0, i, j, k)


def ambient(k: int) -> VarId:
    return VarId(1, k=k)


def kahler(i: int) -> VarId:
    return VarId(3, i=i)


ALPHA = VarId(2)
FORMAL_C = VarId(4)

# A monomial: ((VarId, exp), ...) sorted by VarId, all exps > 0.
Mono = tuple
_ONE: Mono = ()

Scalar = Union[int, Fraction]


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        va, ea = a[ia]
        vb, eb = b[ib]
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
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


class Poly:
    """Immutable sparse polynomial over Q."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None):
        self.terms: dict = dict(terms) if terms else {}
        self._hash = None

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(value: Scalar) -> "Poly":
        value = Fraction(value)
        return Poly({_ONE: value}) if value else Poly()

    @staticmethod
    def var(v: VarId) -> "Poly":
        return Poly({((v, 1),): Fraction(1)})

    @staticmethod
    def linear(const: Scalar, coeffs: Mapping[VarId, Scalar]) -> "Poly":
        terms = {}
        c = Fraction(const)
        if c:
            terms[_ONE] = c
        for v, a in coeffs.items():
            a = Fraction(a)
            if a:
                terms[((v, 1),)] = a
        return Poly(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        return self.terms.get(_ONE, Fraction(0))

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self.terms)

    def coefficient(self, v: VarId, power: int) -> "Poly":
        """The Poly coefficient of v**power (v removed from the monomials)."""
        out = {}
        for mono, c in self.terms.items():
            e = 0
            rest = []
            for vv, ee in mono:
                if vv == v:
                    e = ee
                else:
                    rest.append((vv, ee))
            if e == power:
                out[tuple(rest)] = c
        return Poly(out)

    def is_linear(self) -> bool:
        return bool(self.terms) and self.total_degree() == 1

    def linear_parts(self):
        """(constant, {var: coeff}) for a polynomial of degree <= 1."""
        const = Fraction(0)
        coeffs = {}
        for mono, c in self.terms.items():
            if mono == _ONE:
                const = c
            elif len(mono) == 1 and mono[0][1] == 1:
                coeffs[mono[0][0]] = c
            else:
                raise ValueError("polynomial is not linear")
        return const, coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = c
            else:
                s = s + c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return Poly()
            return Poly({m: c * q for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                mono = _mono_mul(ma, mb)
                s = out.get(mono)
                if s is None:
                    out[mono] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a Poly")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def substitute(self, assignment: Mapping[VarId, "VarId | Scalar"]) -> "Poly":
        """Simultaneous substitution: a value is a variable (a rename) or a
        rational scalar; any other value, a Poly included, raises TypeError."""
        if not assignment:
            return self
        out: dict = {}
        for mono, c in self.terms.items():
            merged: dict = {}
            for v, e in mono:
                val = assignment.get(v, v)
                if isinstance(val, VarId):
                    merged[val] = merged.get(val, 0) + e
                else:
                    c = c * Fraction(val) ** e
            if not c:
                continue
            key = tuple(sorted(merged.items()))
            s = out.get(key)
            if s is None:
                out[key] = c
            else:
                s = s + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Poly(out)

    def divide_by_linear(self, divisor: "Poly") -> "Poly | None":
        """Exact quotient self/divisor for a linear divisor, or None."""
        if not divisor.is_linear():
            raise ValueError("divisor must be linear")
        if self.is_zero():
            return Poly()
        const, coeffs = divisor.linear_parts()
        pivot = max(coeffs)
        cv = coeffs[pivot]
        rest = Poly.linear(const, {v: a for v, a in coeffs.items() if v != pivot})
        raw: dict[int, dict] = {}
        for mono, c in self.terms.items():
            e = 0
            kept = []
            for vv, ee in mono:
                if vv == pivot:
                    e = ee
                else:
                    kept.append((vv, ee))
            raw.setdefault(e, {})
            key = tuple(kept)
            raw[e][key] = raw[e].get(key, Fraction(0)) + c
        layers = {
            e: Poly({m: c for m, c in d.items() if c}) for e, d in raw.items()
        }
        top = max(layers)
        if top == 0:
            return None
        quot_layers: dict[int, Poly] = {}
        running = {e: Poly(p.terms) for e, p in layers.items()}
        for e in range(top, 0, -1):
            coef = running.get(e)
            if coef is None or coef.is_zero():
                continue
            q = Poly({m: c / cv for m, c in coef.terms.items()})
            quot_layers[e - 1] = q
            lower = running.get(e - 1, Poly())
            running[e - 1] = lower - q * rest
            running[e] = Poly()
        rem = running.get(0, Poly())
        if not rem.is_zero():
            return None
        out: dict = {}
        for e, p in quot_layers.items():
            for mono, c in p.terms.items():
                if not c:
                    continue
                key = _mono_mul(mono, ((pivot, e),)) if e else mono
                out[key] = out.get(key, Fraction(0)) + c
        return Poly({m: c for m, c in out.items() if c})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0])

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            factors = "*".join(
                str(v) if e == 1 else f"{v}^{e}" for v, e in mono
            )
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(factors)
            elif c == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{c}*{factors}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()})"


def canonical_linear(factor: Poly) -> tuple[Poly, Fraction]:
    """Scale a linear factor so its least variable has coefficient +1.

    Returns (canonical factor, scale) with factor == scale * canonical.
    """
    if factor.is_zero():
        raise ZeroDenominatorError("zero denominator factor")
    if not factor.is_linear():
        raise ValueError("denominator factor must be linear")
    const, coeffs = factor.linear_parts()
    least = min(coeffs)
    scale = coeffs[least]
    if scale == 1:
        return factor, Fraction(1)
    canon = Poly.linear(const / scale, {v: a / scale for v, a in coeffs.items()})
    return canon, scale


class RatFun:
    """num / prod(factor^exp) with linear, canonically signed factors."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Mapping[Poly, int] | None = None,
                 _normalized: bool = False):
        if _normalized:
            self.num = num
            self.den = dict(den) if den else {}
            return
        norm = ratfun_normalize(num, (den or {}).items())
        self.num = norm.num
        self.den = norm.den

    @staticmethod
    def from_poly(p: Poly) -> "RatFun":
        return RatFun(p, {}, _normalized=True)

    @staticmethod
    def const(value: Scalar) -> "RatFun":
        return RatFun.from_poly(Poly.const(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return not self.den

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        elif isinstance(other, Poly):
            other = RatFun.from_poly(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den, _normalized=True)

    def __add__(self, other) -> "RatFun":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ratfun_sum([self, other])

    __radd__ = __add__

    def __sub__(self, other) -> "RatFun":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFun":
        return (-self) + other

    def __mul__(self, other) -> "RatFun":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = dict(self.den)
        for f, e in other.den.items():
            den[f] = den.get(f, 0) + e
        return RatFun(self.num * other.num, den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            raise ValueError("negative power of a RatFun")
        out = RatFun.const(1)
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, assignment: Mapping[VarId, "VarId | Scalar"]) -> "RatFun":
        """Poly.substitute on the numerator and on every factor; a factor
        that becomes constant is absorbed into the numerator."""
        num = self.num.substitute(assignment)
        den: dict[Poly, int] = {}
        for f, e in self.den.items():
            g = f.substitute(assignment)
            if g.is_zero():
                raise SingularSubstitutionError(
                    f"denominator factor {f.to_text()} vanished")
            if g.is_const():
                num = num * (1 / g.const_value() ** e)
            else:
                den[g] = den.get(g, 0) + e
        return RatFun(num, den)

    def to_text(self) -> str:
        if not self.den:
            return self.num.to_text()
        den = " * ".join(
            f"({f.to_text()})^{e}" if e > 1 else f"({f.to_text()})"
            for f, e in sorted(self.den.items(),
                               key=lambda fe: tuple(fe[0].sorted_terms()))
        )
        return f"({self.num.to_text()}) / {den}"

    def to_json(self):
        return {
            "num": self.num.to_text(),
            "den": [
                [f.to_text(), e]
                for f, e in sorted(self.den.items(),
                                   key=lambda fe: tuple(fe[0].sorted_terms()))
            ],
        }

    def __repr__(self) -> str:
        return f"RatFun({self.to_text()})"


def _coerce(value) -> "RatFun":
    if isinstance(value, RatFun):
        return value
    if isinstance(value, Poly):
        return RatFun.from_poly(value)
    if isinstance(value, (int, Fraction)):
        return RatFun.const(value)
    return NotImplemented


def ratfun_sum(terms) -> RatFun:
    """Sum many rational functions over their common denominator at once.

    Equivalent to repeated addition but expands each term's complement
    against the union denominator exactly once.
    """
    terms = list(terms)
    if not terms:
        return RatFun.const(0)
    union: dict[Poly, int] = {}
    for term in terms:
        for f, e in term.den.items():
            if union.get(f, 0) < e:
                union[f] = e
    total = Poly.zero()
    for term in terms:
        num = term.num
        for f, e in union.items():
            extra = e - term.den.get(f, 0)
            for _ in range(extra):
                num = num * f
        total = total + num
    return RatFun(total, union)


def ratfun_normalize(num: Poly, den: Iterable[tuple[Poly, int]]) -> RatFun:
    """Canonical form: factors monic in their least variable, scales absorbed
    into the numerator, and every factor divided out of the numerator as many
    times as it goes exactly."""
    scale = Fraction(1)
    factors: dict[Poly, int] = {}
    for f, e in den:
        if e == 0:
            continue
        if e < 0:
            raise ValueError("denominator exponents must be positive")
        canon, s = canonical_linear(f)
        scale = scale * s ** e
        factors[canon] = factors.get(canon, 0) + e
    num = num * (Fraction(1) / scale)
    if num.is_zero():
        return RatFun(Poly.zero(), {}, _normalized=True)
    out: dict[Poly, int] = {}
    for f in sorted(factors, key=lambda p: tuple(p.sorted_terms())):
        e = factors[f]
        while e > 0:
            q = num.divide_by_linear(f)
            if q is None:
                break
            num = q
            e -= 1
        if e:
            out[f] = e
    return RatFun(num, out, _normalized=True)


def exp_series(p: Poly, degree: int) -> Poly:
    """Truncated exponential sum_{k<=degree} p^k / k!."""
    if degree < 0:
        raise ValueError("truncation bound must be non-negative")
    out = Poly.const(1)
    power = Poly.const(1)
    for k in range(1, degree + 1):
        power = power * p
        if power.is_zero():
            break
        out = out + power * Fraction(1, factorial(k))
    return out


class LinearProduct:
    """scalar * prod(factor^exp) with exponents in Z; factors stay factored.

    The working form of every equivariant Euler class: conversion to RatFun
    first cancels exact factor matches, then expands only what remains.
    """

    __slots__ = ("scalar", "factors")

    def __init__(self, scalar: Scalar = 1,
                 factors: Mapping[Poly, int] | None = None):
        self.scalar = Fraction(scalar)
        self.factors: dict[Poly, int] = {}
        if factors:
            for f, e in factors.items():
                self.mul_factor(f, e)

    def mul_factor(self, factor: Poly, exponent: int = 1) -> None:
        if exponent == 0:
            return
        canon, s = canonical_linear(factor)
        self.scalar = self.scalar * s ** exponent
        e = self.factors.get(canon, 0) + exponent
        if e:
            self.factors[canon] = e
        else:
            self.factors.pop(canon, None)

    def mul_scalar(self, value: Scalar) -> None:
        self.scalar = self.scalar * Fraction(value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearProduct):
            return NotImplemented
        return self.scalar == other.scalar and self.factors == other.factors

    def to_ratfun(self) -> RatFun:
        num = Poly.const(self.scalar)
        den: dict[Poly, int] = {}
        for f, e in sorted(self.factors.items(),
                           key=lambda fe: tuple(fe[0].sorted_terms())):
            if e > 0:
                for _ in range(e):
                    num = num * f
            else:
                den[f] = -e
        return RatFun(num, den)

    def num_factor_count(self) -> int:
        return sum(e for e in self.factors.values() if e > 0)

    def den_factor_count(self) -> int:
        return -sum(e for e in self.factors.values() if e < 0)

    def __repr__(self) -> str:
        return f"LinearProduct({self.to_ratfun().to_text()})"
