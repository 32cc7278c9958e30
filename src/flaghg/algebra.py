"""Exact sparse multivariate polynomials and factored rational functions.

Every class, weight and series in the engine is built from two types:

  Poly    sparse map {monomial: coefficient}.  A monomial is one packed
          int: every variable owns a fixed-width exponent field at its
          slot in a process-wide, append-only registry, the constant
          monomial is 0, and the product of two monomials is their sum.
          A coefficient is an int or a Fraction, never rounded.  const,
          var, linear, scalar multiplication and divide_by_linear store
          integral ones as int; sums, Poly products and substitution may
          keep an integral Fraction such as Fraction(2).  The two types
          agree under ==, hash and str.
  RatFun  a Poly numerator over a multiset of *linear* denominator factors.

Packed exponents follow Monagan and Pearce ("Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Fields
are _WIDTH = 8 bits wide, nearly four to a 30-bit digit of a CPython int,
so the monomial sums of a product are of ints of a few digits.
Every Poly carries an upper bound on the total degree of its monomials,
which bounds each exponent and each sum of exponents, and monomials are
added only where that bound shows that no field can carry into its
neighbour; otherwise the operands are first repacked into fields wide
enough for the bound.  A Poly is stored in the narrowest width, at least
_WIDTH, that holds its exponents, so equal polynomials have equal terms.
Slots follow the order in which variables are first used, which differs
between processes, so a monomial is unpacked into (VarId, exponent)
pairs in VarId order to be rendered or ordered, and no output depends on
slots.  Alpha, which is in nearly every monomial, is registered at import
and owns the lowest field.

Denominators are never expanded.  Each factor is kept canonical: it is
scaled so the coefficient of its least variable is +1, and the scaling
constant is absorbed into the numerator.  All cancellation is exact
division of the numerator by a single linear factor, so no multivariate
GCD is ever needed.  Coefficients live in Q; alpha (the circle weight)
and c (the formal pi*sqrt(-1) constant) are ordinary variables.

A linear form is irreducible, so division is attempted only where a
factor can divide.  A product of two RatFuns in lowest terms cancels each
denominator into the other operand's numerator before multiplying
(Henrici's cross-cancellation), and the result needs no further
normalization.  A LinearProduct (an Euler class) is built in lowest terms
directly, since its factors already carry net exponents.  A product or a
normalization tries each division it needs, as those divisions nearly
always go.  A single-term numerator is decided from its variables alone,
and a factor that is a single variable, such as alpha, goes into a
numerator as often as its least exponent there, so it is divided out by
lowering that exponent in every term.

A sum of RatFuns first adds the numerators of terms with equal
denominators and drops the groups that sum to zero, so a sum whose terms
cancel one for one expands nothing.  Each term's numerator is then
multiplied once per union factor it lacks, by that factor's power, and
the powers of each union factor are built once per sum.  A union factor
often does not divide the sum, so before it is divided out the sum is
evaluated modulo the 15-bit prime 32749 at a point of the factor's
hyperplane, term by term before its numerators are expanded; a non-zero
value proves that the factor does not divide, and the division is
skipped.  Residues are below 2^15, so every product of two fits in one
digit.  A zero value that is not a true factor (probability at most
deg/32749) costs one exact trial division, never a wrong result.  The
points differ only in the factor's least variable, so one pass over a
numerator's terms, kept with it, gives its value at all of them.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, lcm
from operator import or_
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import SingularSubstitutionError, ZeroDenominatorError


class VarId(NamedTuple):
    """A variable: kind plus up to three indices.

    kind 0: root y[i,j;k]       (level i, block j, slot k)
    kind 1: ambient root e[k]
    kind 2: alpha               (equivariant circle weight)
    kind 3: kahler t[i]
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
        return f"t[{self.i}]"


def y(i: int, j: int, k: int) -> VarId:
    return VarId(0, i, j, k)


def ambient(k: int) -> VarId:
    return VarId(1, k=k)


def kahler(i: int) -> VarId:
    return VarId(3, i=i)


ALPHA = VarId(2)

Scalar = Union[int, Fraction]


def _exact(value: Scalar) -> Scalar:
    """value as an int if it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, as an int where it is integral."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _exact(Fraction(a, b))


# --- packed monomials -------------------------------------------------------

# Bits per exponent field, the floor: a Poly whose exponents or degree
# bound need more is stored and multiplied in wider fields.
_WIDTH = 8

# The registry: variable -> slot, slot -> variable, slot -> _residue.
# Slots are handed out on first use and never change.
_SLOTS: dict[VarId, int] = {}
_VARS: list[VarId] = []
_RESIDUES: list[int] = []


def _slot(v: VarId) -> int:
    s = _SLOTS.get(v)
    if s is None:
        s = _SLOTS[v] = len(_VARS)
        _VARS.append(v)
        _RESIDUES.append(_residue(v))
    return s


def _fields(m: int, w: int):
    """(slot, exponent) of every non-zero field of m, lowest slot first."""
    mask = (1 << w) - 1
    while m:
        s = ((m & -m).bit_length() - 1) // w
        e = (m >> (s * w)) & mask
        yield s, e
        m -= e << (s * w)


def _is_variable(m: int, w: int) -> bool:
    """m > 0 is one variable to the first power: the lowest bit of a field."""
    return not m & (m - 1) and not (m.bit_length() - 1) % w


def _pairs(m: int, w: int) -> tuple:
    """m as (VarId, exponent) pairs in VarId order, to render or order by."""
    return tuple(sorted((_VARS[s], e) for s, e in _fields(m, w)))


def _repack(terms: Mapping[int, Scalar], w: int, to: int) -> dict:
    """terms with their monomials moved from w-bit to to-bit fields."""
    out = {}
    for m, c in terms.items():
        k = 0
        for s, e in _fields(m, w):
            k += e << (s * to)
        out[k] = c
    return out


def _terms_at(p: "Poly", w: int) -> dict:
    return p.terms if p._w == w else _repack(p.terms, p._w, w)


def _poly(terms: dict, deg: int, w: int = _WIDTH) -> "Poly":
    """A Poly that takes ownership of terms, whose monomials are packed in
    w-bit fields and have total degree at most deg.  It is stored in the
    narrowest width that holds its exponents."""
    if w != _WIDTH:
        top = max((e for m in terms for _, e in _fields(m, w)), default=0)
        fit = max(_WIDTH, top.bit_length())
        if fit < w:
            terms, w = _repack(terms, w, fit), fit
    p = object.__new__(Poly)
    p.terms = terms
    p._hash = None
    p._res = None
    p._deg = deg
    p._w = w
    return p


class Poly:
    """Immutable sparse polynomial over Q; coefficients are int or Fraction.

    `terms` maps packed monomials to coefficients.  Read monomials through
    the accessors (`exponents`, `linear_parts`, `variables`,
    `sorted_terms`), never by their bits.
    """

    __slots__ = ("terms", "_hash", "_res", "_deg", "_w")

    def __init__(self):
        """The zero polynomial; const, var, linear, from_exponents and
        arithmetic build the others."""
        self.terms: dict = {}
        self._hash = None
        self._res = None
        self._deg = 0
        self._w = _WIDTH

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(value: Scalar) -> "Poly":
        value = _exact(value)
        return _poly({0: value} if value else {}, 0)

    @staticmethod
    def var(v: VarId) -> "Poly":
        return _poly({1 << (_slot(v) * _WIDTH): 1}, 1)

    @staticmethod
    def linear(const: Scalar, coeffs: Mapping[VarId, Scalar]) -> "Poly":
        terms = {}
        c = _exact(const)
        if c:
            terms[0] = c
        for v, a in coeffs.items():
            a = _exact(a)
            if a:
                terms[1 << (_slot(v) * _WIDTH)] = a
        return _poly(terms, 1)

    @staticmethod
    def from_exponents(variables: Sequence[VarId],
                       terms: Mapping[tuple, Scalar]) -> "Poly":
        """The Poly sum of c * prod(v**e) over {exponent tuple: c}, the
        exponents listed in the order of the distinct variables."""
        top = max((max(exps, default=0) for exps in terms), default=0)
        w = max(_WIDTH, top.bit_length())
        shifts = [_slot(v) * w for v in variables]
        out = {}
        deg = 0
        for exps, c in terms.items():
            c = _exact(c)
            if c:
                out[sum(e << sh for sh, e in zip(shifts, exps))] = c
                deg = max(deg, sum(exps))
        return _poly(out, deg, w)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> Scalar:
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        return self.terms.get(0, 0)

    def variables(self) -> set:
        return {_VARS[s] for s, _ in _fields(reduce(or_, self.terms, 0),
                                              self._w)}

    def exponents(self, variables: Sequence[VarId]) -> dict[tuple, Scalar]:
        """{exponent tuple: coefficient}, the exponents listed in the order
        of the distinct variables, which must include all of self's."""
        w = self._w
        mask = (1 << w) - 1
        shifts = [_slot(v) * w for v in variables]
        if reduce(or_, self.terms, 0) & ~sum(mask << sh for sh in shifts):
            raise ValueError("a variable of the polynomial is not listed")
        return {tuple([(m >> sh) & mask for sh in shifts]): c
                for m, c in self.terms.items()}

    def is_linear(self) -> bool:
        w = self._w
        return any(self.terms) and all(not m or _is_variable(m, w)
                                       for m in self.terms)

    def linear_parts(self):
        """(constant, {var: coeff}) for a polynomial of degree <= 1."""
        w = self._w
        const = 0
        coeffs = {}
        for m, c in self.terms.items():
            if not m:
                const = c
            elif _is_variable(m, w):
                coeffs[_VARS[(m.bit_length() - 1) // w]] = c
            else:
                raise ValueError("polynomial is not linear")
        return const, coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._w == other._w and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self.terms.items()}, self._deg,
                     self._w)

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        w = max(self._w, other._w)
        out = dict(_terms_at(self, w))
        for mono, c in _terms_at(other, w).items():
            s = out.get(mono)
            if s is None:
                out[mono] = c
            else:
                s = s + c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return _poly(out, max(self._deg, other._deg), w)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            q = _exact(other)
            if q == 1:
                return self
            if not q:
                return Poly.zero()
            return _poly({m: _exact(c * q) for m, c in self.terms.items()},
                         self._deg, self._w)
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        deg = a._deg + b._deg
        w = a._w
        if w == b._w and not deg >> w:
            ta, tb = a.terms, b.terms
        else:
            # a field could carry: move both into fields that hold deg
            w = max(w, b._w, deg.bit_length())
            ta, tb = _terms_at(a, w), _terms_at(b, w)
        out: dict = {}
        get = out.get
        tb = tb.items()
        for ma, ca in ta.items():
            for mb, cb in tb:
                mono = ma + mb
                s = get(mono)
                if s is None:
                    out[mono] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
        return _poly(out, deg, w)

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
        terms, w = self.terms, self._w
        present = reduce(or_, terms, 0)
        plan = []
        for v, val in assignment.items():
            if not isinstance(val, VarId):
                val = _exact(val)
            s = _SLOTS.get(v)
            if s is not None and present >> (s * w) & ((1 << w) - 1):
                plan.append((s, val))
        if not plan:
            return self
        if self._deg >> w and any(isinstance(val, VarId) for _, val in plan):
            # a rename adds exponents, which are at most the total degree
            w = self._deg.bit_length()
            terms = _repack(terms, self._w, w)
        mask = (1 << w) - 1
        plan = [(s * w, _slot(val) * w if isinstance(val, VarId) else None,
                 val) for s, val in plan]
        out: dict = {}
        for mono, c in terms.items():
            key = mono
            for sh, to, val in plan:
                e = (mono >> sh) & mask
                if e:
                    key -= e << sh
                    if to is None:
                        c = c * val ** e
                    else:
                        key += e << to
            if not c:
                continue
            s = out.get(key)
            if s is None:
                out[key] = c
            else:
                s = s + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _poly(out, self._deg, w)

    def divide_by_linear(self, divisor: "Poly") -> "Poly | None":
        """Exact quotient self/divisor for a linear divisor, or None."""
        if not divisor.is_linear():
            raise ValueError("divisor must be linear")
        if self.is_zero():
            return Poly.zero()
        const, coeffs = divisor.linear_parts()
        pivot = max(coeffs)
        cv = coeffs.pop(pivot)
        terms, w = self.terms, self._w
        if self._deg >> w:
            # the working terms have total degree at most self's
            w = self._deg.bit_length()
            terms = _repack(terms, self._w, w)
        mask = (1 << w) - 1
        sh = _slot(pivot) * w
        rest = [(1 << (_slot(v) * w), a) for v, a in coeffs.items()]
        if const:
            rest.append((0, const))
        # layers[e]: the coefficient of pivot**e, pivot removed
        layers: dict[int, dict] = {}
        for mono, c in terms.items():
            e = (mono >> sh) & mask
            layer = layers.get(e)
            if layer is None:
                layer = layers[e] = {}
            layer[mono - (e << sh)] = c
        top = max(layers)
        if top == 0:
            return None
        out: dict = {}
        for e in range(top, 0, -1):
            layer = layers.pop(e, None)
            if not layer:
                continue
            lower = layers.setdefault(e - 1, {})
            at = (e - 1) << sh
            for mono, c in layer.items():
                if not c:
                    continue
                q = _quotient(c, cv)
                out[mono + at] = q
                for rm, ra in rest:
                    key = mono + rm
                    s = lower.get(key)
                    lower[key] = -q * ra if s is None else s - q * ra
        if any(layers.get(0, {}).values()):
            return None
        return _poly(out, self._deg, w)

    def sorted_terms(self):
        """[(monomial as (VarId, exponent) pairs, coefficient)], in order."""
        w = self._w
        return sorted(((_pairs(m, w), c) for m, c in self.terms.items()),
                      key=lambda mc: mc[0])

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


def _factor_order(f: Poly):
    """The sort key of denominator factors: their terms in VarId order."""
    return tuple(f.sorted_terms())


def canonical_linear(factor: Poly) -> tuple[Poly, Scalar]:
    """Scale a linear factor so its least variable has coefficient +1.

    Returns (canonical factor, scale) with factor == scale * canonical.  A
    factor whose least variable has coefficient -1 is negated, not rebuilt.
    """
    if factor.is_zero():
        raise ZeroDenominatorError("zero denominator factor")
    if not factor.is_linear():
        raise ValueError("denominator factor must be linear")
    const, coeffs = factor.linear_parts()
    least = min(coeffs)
    scale = coeffs[least]
    if scale == 1:
        return factor, 1
    if scale == -1:
        return -factor, -1
    canon = Poly.linear(_quotient(const, scale),
                        {v: _quotient(a, scale) for v, a in coeffs.items()})
    return canon, scale


class RatFun:
    """num / prod(factor^exp) with linear, canonically signed factors."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Mapping[Poly, int] | None = None):
        norm = ratfun_normalize(num, (den or {}).items())
        self.num = norm.num
        self.den = norm.den

    @staticmethod
    def from_poly(p: Poly) -> "RatFun":
        return _ratfun(p, {})

    @staticmethod
    def const(value: Scalar) -> "RatFun":
        return RatFun.from_poly(Poly.const(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        elif isinstance(other, Poly):
            other = RatFun.from_poly(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __neg__(self) -> "RatFun":
        return _ratfun(-self.num, self.den)

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
        if self.is_zero() or other.is_zero():
            return RatFun.const(0)
        # Both operands are in lowest terms, so a factor can only cancel
        # into the other operand's numerator, and what is left of it then
        # divides neither numerator nor, being irreducible, their product.
        a, b = self.num, other.num
        den: dict[Poly, int] = {}
        for f, e in self.den.items():
            b, e = _divide_out(b, f, e)
            if e:
                den[f] = e
        for f, e in other.den.items():
            a, e = _divide_out(a, f, e)
            if e:
                den[f] = den.get(f, 0) + e
        return _ratfun(a * b, den)

    __rmul__ = __mul__

    def substitute(self, assignment: Mapping[VarId, "VarId | Scalar"]) -> "RatFun":
        """Poly.substitute on the numerator and on every factor, then
        normalized; a factor that becomes constant is absorbed into the
        numerator.  A fraction in which no substituted variable occurs is
        returned as it is."""
        present = reduce(or_, (f.variables() for f in self.den),
                         self.num.variables())
        if present.isdisjoint(assignment):
            return self
        num = self.num.substitute(assignment)
        den: dict[Poly, int] = {}
        for f, e in self.den.items():
            g = f.substitute(assignment)
            if g.is_zero():
                raise SingularSubstitutionError(
                    f"denominator factor {f.to_text()} vanished")
            if g.is_const():
                num = num * Fraction(1, g.const_value() ** e)
            else:
                den[g] = den.get(g, 0) + e
        return RatFun(num, den)

    def to_text(self) -> str:
        if not self.den:
            return self.num.to_text()
        den = " * ".join(
            f"({f.to_text()})^{e}" if e > 1 else f"({f.to_text()})"
            for f, e in sorted(self.den.items(),
                               key=lambda fe: _factor_order(fe[0]))
        )
        return f"({self.num.to_text()}) / {den}"

    def to_json(self):
        return {
            "num": self.num.to_text(),
            "den": [
                [f.to_text(), e]
                for f, e in sorted(self.den.items(),
                                   key=lambda fe: _factor_order(fe[0]))
            ],
        }

    def __repr__(self) -> str:
        return f"RatFun({self.to_text()})"


def _ratfun(num: Poly, den: dict) -> RatFun:
    """A RatFun already in lowest terms over canonical factors, which takes
    ownership of den."""
    r = object.__new__(RatFun)
    r.num = num
    r.den = den
    return r


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

    Terms with equal denominators are grouped first: their numerators are
    added, and a group that sums to zero is dropped, so terms that cancel
    one for one cost no expansion.  The groups are then summed as
    repeated addition would, but each group's complement is expanded
    against the union denominator exactly once: a term's numerator is
    multiplied once per missing factor, by that factor's power, and the
    powers of each union factor are built once per call.  Each union
    factor of two or more terms is screened before it is divided out: the
    sum is evaluated at a point of its hyperplane from the unexpanded terms
    (see _sum_may_divide), and a factor that this proves coprime to the
    sum keeps its exponent without a division.  The others, and every
    single variable, are divided out as far as they go (see _divide_out).
    A zero sum is returned before any factor is screened, so checking an
    identity costs at most one expansion, and none where its terms cancel
    group by group.
    """
    groups: dict[frozenset, tuple[dict, list[Poly]]] = {}
    for term in terms:
        key = frozenset(term.den.items())
        groups.setdefault(key, (term.den, []))[1].append(term.num)
    terms = []
    for den, nums in groups.values():
        num = reduce(Poly.__add__, nums)
        if not num.is_zero():
            terms.append(_ratfun(num, den))
    if not terms:
        return RatFun.const(0)
    union: dict[Poly, int] = {}
    for term in terms:
        for f, e in term.den.items():
            if union.get(f, 0) < e:
                union[f] = e
    powers = {f: [Poly.const(1), f] for f in union}  # powers[f][k] = f**k
    total = Poly.zero()
    for term in terms:
        num = term.num
        for f, e in union.items():
            extra = e - term.den.get(f, 0)
            if extra:
                table = powers[f]
                while len(table) <= extra:
                    table.append(table[-1] * f)
                num = num * table[extra]
        total = total + num
    if total.is_zero():
        return _ratfun(total, {})
    den: dict[Poly, int] = {}
    for f, e in union.items():
        if len(f.terms) == 1 or _sum_may_divide(terms, union, f):
            total, e = _divide_out(total, f, e)
        if e:
            den[f] = e
    return _ratfun(total, den)


def ratfun_normalize(num: Poly, den: Iterable[tuple[Poly, int]]) -> RatFun:
    """Canonical form: factors monic in their least variable, scales absorbed
    into the numerator, and every factor divided out of the numerator as many
    times as it goes exactly."""
    scale = 1
    factors: dict[Poly, int] = {}
    for f, e in den:
        if e == 0:
            continue
        if e < 0:
            raise ValueError("denominator exponents must be positive")
        canon, s = canonical_linear(f)
        scale = scale * s ** e
        factors[canon] = factors.get(canon, 0) + e
    if num.is_zero():
        return _ratfun(num, {})
    num = num * Fraction(1, scale)
    out: dict[Poly, int] = {}
    for f, e in factors.items():
        num, e = _divide_out(num, f, e)
        if e:
            out[f] = e
    return _ratfun(num, out)


# The largest 15-bit prime: residues mod _P certify that a linear factor
# does not divide a numerator, and a product of two residues is one digit.
_P = 32749
_MASK64 = (1 << 64) - 1


def _residue(v: VarId) -> int:
    """A fixed, well-mixed residue mod _P for v, from its integer fields
    alone (splitmix64), so the value never depends on hash seeding."""
    z = v.kind
    for field in (v.i, v.j, v.k):
        z = z * 1_000_003 + field
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) % _P


_slot(ALPHA)  # in nearly every monomial: the lowest field, the cheapest sums


def _root(f: Poly) -> tuple[int, int] | None:
    """A point where the canonical linear factor f is 0 mod _P, as (slot,
    ratio): every variable but f's least one takes its _residue, and the
    least one, at that slot, takes ratio times its _residue, solved for
    from f (its coefficient is +1).  None where _P divides f's leading
    coefficient, a denominator of f or that _residue.  The point depends on
    the variables alone, never on their slots."""
    const, coeffs = f.linear_parts()
    least = min(coeffs)
    scale = lcm(const.denominator, *(a.denominator for a in coeffs.values()))
    lead = coeffs[least].numerator * (scale // coeffs[least].denominator)
    slot = _SLOTS[least]
    if scale % _P == 0 or lead % _P == 0 or not _RESIDUES[slot]:
        return None
    rest = const.numerator * (scale // const.denominator)
    for v, a in coeffs.items():
        if v != least:
            rest += a.numerator * (scale // a.denominator) * \
                _RESIDUES[_SLOTS[v]]
    return slot, -rest * pow(lead * _RESIDUES[slot], -1, _P) % _P


def _residue_sums(p: Poly) -> tuple:
    """(v, {slot: {e: s}}): v is p mod _P with every variable at its
    _residue, and s the part of v from the terms whose exponent at the
    slot is e > 0.  Empty where _P divides a coefficient denominator.
    The terms are taken as columns: one of values, scaled by one slot's
    residue powers at a time, and per slot one of exponents.  Each
    coefficient is reduced mod _P once, so every product is of two
    residues.
    Memoized on p, which is immutable."""
    if p._res is not None:
        return p._res
    w = p._w
    mask = (1 << w) - 1
    values = []
    inverses: dict[int, int] = {}
    for c in p.terms.values():
        d = c.denominator
        if d == 1:
            values.append(c.numerator % _P)
            continue
        inv = inverses.get(d)
        if inv is None:
            if d % _P == 0:
                p._res = ()
                return ()
            inv = inverses[d] = pow(d, -1, _P)
        values.append(c.numerator % _P * inv % _P)
    columns = []
    for slot, _ in _fields(reduce(or_, p.terms, 0), w):
        sh = slot * w
        column = [(m >> sh) & mask for m in p.terms]
        powers = {e: pow(_RESIDUES[slot], e, _P) for e in set(column)}
        values = [x * powers[e] % _P for x, e in zip(values, column)]
        columns.append((slot, column))
    by_slot: dict[int, dict[int, int]] = {}
    for slot, column in columns:
        sums = by_slot[slot] = {}
        for x, e in zip(values, column):
            sums[e] = sums.get(e, 0) + x
        sums.pop(0, None)
    p._res = (sum(values) % _P, by_slot)
    return p._res


def _evaluate(p: Poly, root: tuple[int, int]) -> int | None:
    """p mod _P at the point of _root, or None where _P divides a
    coefficient denominator: the terms' values at the residues, those with
    exponent e at the root's slot scaled by ratio**e."""
    sums = _residue_sums(p)
    if not sums:
        return None
    value, by_slot = sums
    slot, ratio = root
    for e, s in by_slot.get(slot, {}).items():
        value += s * (pow(ratio, e, _P) - 1)
    return value % _P


def _sum_may_divide(terms: list[RatFun], union: Mapping[Poly, int],
                    f: Poly) -> bool:
    """False only if the linear factor f, of at least two terms, certainly
    does not divide total = sum_i num_i * prod_g g**(union[g] - e_ig), the
    sum over the union denominator.

    total is evaluated mod _P at a point where f = 0 mod _P (_root), term
    by term before it is expanded.  If f divides total over Q, Gauss's
    lemma over the integers localized at _P (f has P-integral coefficients
    and a unit among them) makes the quotient P-integral too, so the value
    is 0.  A non-zero value is therefore a certificate.  A factor with no
    such point, or a coefficient denominator divisible by _P, leaves the
    question open.  A term with e_if < union[f] holds f, which vanishes at
    the point, so only the terms that carry f's full union power are
    evaluated."""
    root = _root(f)
    if root is None:
        return True
    value = 0
    for term in terms:
        if term.den.get(f, 0) < union[f]:
            continue
        x = _evaluate(term.num, root)
        if x is None:
            return True
        for g, e in union.items():
            extra = e - term.den.get(g, 0)
            if extra:
                y = _evaluate(g, root)
                if y is None:
                    return True
                x = x * pow(y, extra, _P) % _P
        value = (value + x) % _P
    return value == 0


def _divide_out(num: Poly, f: Poly, e: int) -> tuple[Poly, int]:
    """Divide the canonical linear factor f out of num up to e times;
    return the quotient and how many times f did not go.

    A single variable v goes into num exactly as often as v's least
    exponent over num's terms, so it is divided out by lowering every
    exponent of v at once, with no trial division.  A factor of two or
    more terms is tried by exact division while it goes, unless num is a
    single term c*m: the irreducible factors of c*m are the variables of
    m, and f is none of them.  A zero num loses every factor."""
    if len(f.terms) == 1:
        (m,) = f.terms
        w = num._w
        sh = (m.bit_length() - 1) // f._w * w
        mask = (1 << w) - 1
        k = min(min(((mono >> sh) & mask for mono in num.terms), default=e),
                e)
        if k:
            num = _poly({mono - (k << sh): c for mono, c in num.terms.items()},
                        num._deg - k, w)
        return num, e - k
    while e and len(num.terms) != 1:
        q = num.divide_by_linear(f)
        if q is None:
            break
        num = q
        e -= 1
    return num, e


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

    The working form of every equivariant Euler class.  Its factors are
    canonical and carry net exponents, so by unique factorization the
    RatFun it converts to is already in lowest terms.  The scalar is an
    int while it is integral.
    """

    __slots__ = ("scalar", "factors")

    def __init__(self, scalar: Scalar = 1):
        self.scalar = _exact(scalar)
        self.factors: dict[Poly, int] = {}

    def mul_factor(self, factor: Poly, exponent: int = 1) -> None:
        if exponent == 0:
            return
        canon, s = canonical_linear(factor)
        if s != 1:
            self.scalar = (_exact(self.scalar * s ** exponent) if exponent > 0
                           else _quotient(self.scalar, s ** -exponent))
        e = self.factors.get(canon, 0) + exponent
        if e:
            self.factors[canon] = e
        else:
            self.factors.pop(canon, None)

    def mul_scalar(self, value: Scalar) -> None:
        self.scalar = _exact(self.scalar * value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearProduct):
            return NotImplemented
        return self.scalar == other.scalar and self.factors == other.factors

    def to_ratfun(self) -> RatFun:
        if not self.scalar:
            return RatFun.const(0)
        num = Poly.const(self.scalar)
        den: dict[Poly, int] = {}
        for f, e in self.factors.items():
            if e > 0:
                for _ in range(e):
                    num = num * f
            else:
                den[f] = -e
        return _ratfun(num, den)

    def __repr__(self) -> str:
        return f"LinearProduct({self.to_ratfun().to_text()})"
