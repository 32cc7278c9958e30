"""K-group ledgers and equivariant Euler classes of fixed components.

A ledger is a signed multiset of Hom-blocks (source block, target block,
integer circle weight).  The tangent ledger of a component and the
restriction ledger of the ambient moduli tangent bundle are assembled
blockwise; their difference, after exact cancellation on (source, target,
weight), is the normal ledger, which must carry no weight-0 term.  The
equivariant Euler class is the product of (y_target - y_source + w*alpha)
over ledger terms and root slots, with sign exponents.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod
from typing import Iterator, Mapping, Sequence

from .algebra import (ALPHA, LinearProduct, Poly, RatFun, VarId, ambient, y)
from .errors import CancellationFailureError, SymmetryViolationError
from .tableaux import BlockData, IndexTables, Tableau, block_decomposition

BlockRef = tuple[int, int]  # (level, block), ambient = (I+1, 1)
FixedPoint = dict[BlockRef, tuple[int, ...]]  # block -> its coordinates


class Ledger:
    """Multiset of ledger terms keyed on (src, tgt, weight).

    Multiplicities are signed integers; exactly matching +/- pairs cancel
    on insertion, so no two stored terms differ only in sign.
    """

    __slots__ = ("blocks", "_mult")

    def __init__(self, blocks: BlockData):
        self.blocks = blocks
        self._mult: dict[tuple[BlockRef, BlockRef, int], int] = {}

    def add(self, src: BlockRef, tgt: BlockRef, weight: int,
            mult: int = 1) -> None:
        key = (src, tgt, weight)
        m = self._mult.get(key, 0) + mult
        if m:
            self._mult[key] = m
        else:
            self._mult.pop(key, None)

    def terms(self) -> Iterator[tuple[BlockRef, BlockRef, int, int]]:
        """(src, tgt, weight, signed multiplicity) in canonical order."""
        for key in sorted(self._mult):
            src, tgt, w = key
            yield src, tgt, w, self._mult[key]

    def difference(self, other: "Ledger") -> "Ledger":
        out = Ledger(self.blocks)
        out._mult = dict(self._mult)
        for (src, tgt, w), m in other._mult.items():
            out.add(src, tgt, w, -m)
        return out

    def block_rank(self, ref: BlockRef) -> int:
        return self.blocks.m(ref[0], ref[1])

    def rank(self) -> int:
        return sum(
            m * self.block_rank(src) * self.block_rank(tgt)
            for (src, tgt, _), m in self._mult.items()
        )

    def has_weight_zero(self) -> bool:
        return any(w == 0 for (_, _, w) in self._mult)

    def negated(self) -> "Ledger":
        out = Ledger(self.blocks)
        out._mult = {k: -m for k, m in self._mult.items()}
        return out

    def is_empty(self) -> bool:
        return not self._mult

    def to_json(self):
        levels = self.blocks.levels
        out = []
        for src, tgt, w, m in self.terms():
            sign = 1 if m > 0 else -1
            entry = {
                "sign": sign,
                "src": list(src),
                "tgt": "ambient" if tgt[0] == levels + 1 else list(tgt),
                "w": w,
            }
            if abs(m) != 1:
                entry["mult"] = abs(m)
            out.append(entry)
        return out


def tangent_ledger(t: Tableau) -> Ledger:
    """Weight-0 ledger of the component's tangent bundle (vertical sum)."""
    blocks = block_decomposition(t)
    tables = IndexTables.from_blocks(blocks)
    ledger = Ledger(blocks)
    for i in range(1, blocks.levels + 1):
        Ki = blocks.K(i)
        for j in range(1, Ki + 1):
            for jp in range(1, j + 1):
                lo = tables.I_A(i, jp - 1) + 1
                hi = tables.I_A(i, jp)
                for k in range(lo, hi + 1):
                    ledger.add((i, j), (i + 1, k), 0, +1)
                ledger.add((i, j), (i, jp), 0, -1)
    return ledger


def _weights_h0(gap: int) -> range:
    """Weights of the degree-gap section space: {0, -1, ..., -gap}."""
    return range(0, -gap - 1, -1) if gap >= 0 else range(0)


def _weights_h1(gap: int) -> range:
    """Weights of the first cohomology: {1, ..., -gap-1} for gap <= -2."""
    return range(1, -gap) if gap <= -2 else range(0)


def hquot_restriction_ledger(t: Tableau) -> Ledger:
    """Ledger of the ambient moduli tangent bundle restricted to the
    component.

    Each Hom grade with twist gap contributes its section space minus its
    first cohomology; cross-level grades enter positively, same-level
    (endomorphism) grades negatively.  The cross-level first-cohomology
    terms vanish for one-level specs but are forced by rank bookkeeping
    whenever a later row exceeds an earlier row's value by 2 or more.
    """
    blocks = block_decomposition(t)
    ledger = Ledger(blocks)
    for i in range(1, blocks.levels + 1):
        Ki = blocks.K(i)
        Kn = blocks.K(i + 1)
        for j in range(1, Ki + 1):
            aij = blocks.a(i, j)
            for jp in range(1, Kn + 1):
                gap = aij - blocks.a(i + 1, jp)
                for w in _weights_h0(gap):
                    ledger.add((i, j), (i + 1, jp), w, +1)
                for w in _weights_h1(gap):
                    ledger.add((i, j), (i + 1, jp), w, -1)
            for jp in range(1, Ki + 1):
                gap = aij - blocks.a(i, jp)
                for w in _weights_h0(gap):
                    ledger.add((i, j), (i, jp), w, -1)
                for w in _weights_h1(gap):
                    ledger.add((i, j), (i, jp), w, +1)
    return ledger


def normal_ledger(t: Tableau) -> Ledger:
    """Restriction ledger minus tangent ledger; weight-0 terms must vanish."""
    ledger = hquot_restriction_ledger(t).difference(tangent_ledger(t))
    if ledger.has_weight_zero():
        raise CancellationFailureError(
            "normal ledger retained a weight-0 term; index conventions "
            "are inconsistent for this tableau")
    return ledger


RootAssignment = Mapping[BlockRef, Sequence[Poly]]


def canonical_roots(blocks: BlockData,
                    ambient_roots: Sequence[Poly] | None = None) -> dict:
    """Block -> list of root polynomials; ambient defaults to formal e_k."""
    roots: dict[BlockRef, list[Poly]] = {}
    for i in range(1, blocks.levels + 1):
        for j in range(1, blocks.K(i) + 1):
            roots[(i, j)] = [Poly.var(v) for v in blocks.letters(i, j)]
    amb = blocks.levels + 1
    if ambient_roots is None:
        roots[(amb, 1)] = [
            Poly.var(ambient(k)) for k in range(1, blocks.spec.n + 1)
        ]
    else:
        roots[(amb, 1)] = list(ambient_roots)
    return roots


def euler_product_from_ledger(ledger: Ledger,
                              roots: RootAssignment) -> LinearProduct:
    """Factored Euler class: prod (y_tgt - y_src + w*alpha)^sign over slots."""
    alpha = Poly.var(ALPHA)
    out = LinearProduct()
    for src, tgt, w, m in ledger.terms():
        if w == 0:
            raise ValueError("Euler class of a ledger with weight-0 terms")
        shift = alpha * w
        for ys in roots[src]:
            for yt in roots[tgt]:
                out.mul_factor(yt - ys + shift, m)
    return out


def euler_class_from_ledger(ledger: Ledger,
                            roots: RootAssignment | None = None) -> RatFun:
    if roots is None:
        roots = canonical_roots(ledger.blocks)
    return euler_product_from_ledger(ledger, roots).to_ratfun()


def euler_product_closed_form(t: Tableau,
                              roots: RootAssignment | None = None) -> LinearProduct:
    """Direct transcription of the final product expression.

    Cross-level factors run over all block pairs with positive value gap
    (the per-pair resolution of the display's interval bounds), same-level
    section factors over j' < j, and same-level first-cohomology factors
    over pairs with gap >= 2.
    """
    blocks = block_decomposition(t)
    if roots is None:
        roots = canonical_roots(blocks)
    alpha = Poly.var(ALPHA)
    out = LinearProduct()
    for i in range(1, blocks.levels + 1):
        Ki = blocks.K(i)
        for j in range(1, Ki + 1):
            aij = blocks.a(i, j)
            for jp in range(1, blocks.K(i + 1) + 1):
                gap = aij - blocks.a(i + 1, jp)
                for l in range(1, gap + 1):
                    for ys in roots[(i, j)]:
                        for yt in roots[(i + 1, jp)]:
                            out.mul_factor(yt - ys - alpha * l, +1)
                for l in range(gap + 1, 0):
                    for ys in roots[(i, j)]:
                        for yt in roots[(i + 1, jp)]:
                            out.mul_factor(yt - ys - alpha * l, -1)
            for jp in range(1, j):
                for l in range(1, aij - blocks.a(i, jp) + 1):
                    for ys in roots[(i, j)]:
                        for yt in roots[(i, jp)]:
                            out.mul_factor(yt - ys - alpha * l, -1)
            for jp in range(j + 1, Ki + 1):
                gap = aij - blocks.a(i, jp)
                for l in range(gap + 1, 0):
                    for ys in roots[(i, j)]:
                        for yt in roots[(i, jp)]:
                            out.mul_factor(yt - ys - alpha * l, +1)
    return out


def euler_class_closed_form(t: Tableau,
                            roots: RootAssignment | None = None) -> RatFun:
    return euler_product_closed_form(t, roots).to_ratfun()


def grassmannian_euler_product(t: Tableau) -> LinearProduct:
    """The one-level display: prod (-y_{j;k} - l*alpha)^n over the section
    weights, over the regrouped same-level denominator with its sign."""
    if t.spec.levels != 1:
        raise ValueError("Grassmannian display needs a one-level tableau")
    blocks = block_decomposition(t)
    alpha = Poly.var(ALPHA)
    n = t.spec.n
    out = LinearProduct()
    for j in range(1, blocks.K(1) + 1):
        for k in range(1, blocks.m(1, j) + 1):
            yv = Poly.var(y(1, j, k))
            for l in range(1, blocks.a(1, j) + 1):
                out.mul_factor(-yv - alpha * l, n)
    for j in range(1, blocks.K(1) + 1):
        for jp in range(j + 1, blocks.K(1) + 1):
            gap = blocks.a(1, jp) - blocks.a(1, j)
            mm = blocks.m(1, j) * blocks.m(1, jp)
            out.mul_scalar(Fraction((-1) ** (mm * (gap - 1))))
            for k in range(1, blocks.m(1, j) + 1):
                for kp in range(1, blocks.m(1, jp) + 1):
                    f = -Poly.var(y(1, jp, kp)) + Poly.var(y(1, j, k)) \
                        - alpha * gap
                    out.mul_factor(f, -1)
    return out


def torus_fixed_points(t: Tableau) -> list[FixedPoint]:
    """All nested coordinate assignments {block: coordinates}.

    One recursion over the blocks, top level first: block (i, j) takes its
    m(i, j) coordinates, in combinations order, from the sorted pool that
    fixed_point_count describes (1..n at the top level).  So every tuple is
    sorted, and the points come in lexicographic order of their choices.
    """
    blocks = block_decomposition(t)
    tables = IndexTables.from_blocks(blocks)
    top = blocks.levels
    order = [(i, j) for i in range(top, 0, -1)
             for j in range(1, blocks.K(i) + 1)]
    out: list[FixedPoint] = []
    point: FixedPoint = {}

    def choose(b: int) -> None:
        if b == len(order):
            out.append(dict(point))
            return
        i, j = order[b]
        if i == top:
            pool = range(1, t.spec.n + 1)
        else:
            pool = sorted(c for k in range(1, tables.I_A(i, j) + 1)
                          for c in point[(i + 1, k)])
        taken = {c for k in range(1, j) for c in point[(i, k)]}
        free = [c for c in pool if c not in taken]
        for combo in combinations(free, blocks.m(i, j)):
            point[(i, j)] = combo  # blocks after b are reassigned below
            choose(b + 1)

    choose(0)
    return out


def fixed_point_count(t: Tableau) -> int:
    """len(torus_fixed_points(t)) as a product of binomials, one per block.

    Block (i, j) picks m(i, j) coordinates out of the l(i+1, j) held by the
    blocks of level i+1 up to I_A(i, j), less the r(i, j-1) already taken by
    the blocks before it; that pool size never depends on which coordinates
    were taken, so the choices multiply.
    """
    blocks = block_decomposition(t)
    tables = IndexTables.from_blocks(blocks)
    return prod(
        comb(tables.l(i + 1, j) - blocks.r(i, j - 1), blocks.m(i, j))
        for i in range(1, blocks.levels + 1)
        for j in range(1, blocks.K(i) + 1))


def scaled_weights(lam: Sequence[Fraction]) -> tuple[list[int], int]:
    """(weights, scale): integers with lam[k] == weights[k] / scale and
    scale the least common denominator of lam."""
    lam = [Fraction(v) for v in lam]
    scale = lcm(*(v.denominator for v in lam))
    return [v.numerator * (scale // v.denominator) for v in lam], scale


def assert_block_symmetric(f: RatFun,
                           blocks: Sequence[Sequence[VarId]]) -> None:
    """Raise unless f is invariant under every adjacent transposition of
    letters inside each block.  These generate each block's symmetric
    group, so the check fails exactly when f is not block-symmetric."""
    for block in blocks:
        for a, b in zip(block, block[1:]):
            if f.substitute({a: b, b: a}) != f:
                raise SymmetryViolationError(
                    f"class is not symmetric in the block letters {a} "
                    f"and {b}")


def tangent_euler_scaled(ledger: Ledger, point: FixedPoint,
                         weights: Sequence[int]) -> tuple[int, int]:
    """(num, den): the product of tangent weights at integer torus weights
    is num / den.  At weights lam = weights / scale it is
    num / den / scale ** ledger.rank(), one factor of scale per weight.

    The tangent ledger's positive and negative parts each contain the same
    number of zero factors (the diagonal slots); these cancel as multisets
    and the remaining product is the genuine Euler class.
    """
    coords = dict(point)
    n = ledger.blocks.spec.n
    coords[(ledger.blocks.levels + 1, 1)] = range(1, n + 1)
    num = den = 1
    zeros = 0
    for src, tgt, w, m in ledger.terms():
        for cs in coords[src]:
            base = weights[cs - 1]
            for ct in coords[tgt]:
                val = weights[ct - 1] - base
                if not val:
                    zeros += m
                elif m > 0:
                    num *= val ** m
                else:
                    den *= val ** -m
    if zeros:
        raise CancellationFailureError(
            "zero tangent weights do not cancel; fixed point is not isolated")
    return num, den
