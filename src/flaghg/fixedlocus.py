"""K-group ledgers and equivariant Euler classes of fixed components.

A ledger is a signed multiset of Hom-blocks (source block, target block,
integer circle weight).  The tangent ledger of a component and the
restriction ledger of the ambient moduli tangent bundle are assembled
blockwise; their difference, after exact cancellation on (source, target,
weight), is the normal ledger, which must carry no weight-0 term.  The
equivariant Euler class is the product of (y_target - y_source + w*alpha)
over ledger terms and root slots, with sign exponents; slot pairs with
equal roots and weight are counted together, so each distinct factor is
built once, with its net multiplicity.

A torus fixed point is the nested coordinates its blocks choose, one flat
tuple in point_blocks order, top level first, as the component is a tower
of flag bundles.  Its tangent Euler class needs no ledger:
torus_fixed_points lists with each point one weight per coordinate a block
holds and coordinate it could have chosen instead.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Mapping, Sequence

from .algebra import ALPHA, LinearProduct, Poly, RatFun, VarId, y
from .errors import CancellationFailureError, SymmetryViolationError
from .tableaux import Tableau

BlockRef = tuple[int, int]  # (level, block), ambient = (I+1, 1)
# a point's coordinates, block by block in point_blocks order
Point = tuple[int, ...]
# (b, a) coordinate pairs, one per tangent weight w_b - w_a at a point
Tangent = tuple[tuple[int, int], ...]


class Ledger:
    """Multiset of ledger terms keyed on (src, tgt, weight).

    Multiplicities are signed integers; exactly matching +/- pairs cancel
    on insertion, so no two stored terms differ only in sign.
    """

    __slots__ = ("tableau", "_mult")

    def __init__(self, tableau: Tableau):
        self.tableau = tableau
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

    def block_rank(self, ref: BlockRef) -> int:
        return self.tableau.m(ref[0], ref[1])

    def rank(self) -> int:
        return sum(
            m * self.block_rank(src) * self.block_rank(tgt)
            for (src, tgt, _), m in self._mult.items()
        )

    def has_weight_zero(self) -> bool:
        return any(w == 0 for (_, _, w) in self._mult)

    def negated(self) -> "Ledger":
        out = Ledger(self.tableau)
        out._mult = {k: -m for k, m in self._mult.items()}
        return out

    def to_json(self):
        levels = self.tableau.levels
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
    ledger = Ledger(t)
    for i in range(1, t.levels + 1):
        Ki = t.K(i)
        for j in range(1, Ki + 1):
            for jp in range(1, j + 1):
                lo = t.I_A(i, jp - 1) + 1
                hi = t.I_A(i, jp)
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
    ledger = Ledger(t)
    for i in range(1, t.levels + 1):
        Ki = t.K(i)
        Kn = t.K(i + 1)
        for j in range(1, Ki + 1):
            aij = t.a(i, j)
            for jp in range(1, Kn + 1):
                gap = aij - t.a(i + 1, jp)
                for w in _weights_h0(gap):
                    ledger.add((i, j), (i + 1, jp), w, +1)
                for w in _weights_h1(gap):
                    ledger.add((i, j), (i + 1, jp), w, -1)
            for jp in range(1, Ki + 1):
                gap = aij - t.a(i, jp)
                for w in _weights_h0(gap):
                    ledger.add((i, j), (i, jp), w, -1)
                for w in _weights_h1(gap):
                    ledger.add((i, j), (i, jp), w, +1)
    return ledger


def normal_ledger(t: Tableau) -> Ledger:
    """Restriction ledger minus tangent ledger; weight-0 terms must vanish."""
    ledger = hquot_restriction_ledger(t)
    for (src, tgt, w), m in tangent_ledger(t)._mult.items():
        ledger.add(src, tgt, w, -m)
    if ledger.has_weight_zero():
        raise CancellationFailureError(
            "normal ledger retained a weight-0 term; index conventions "
            "are inconsistent for this tableau")
    return ledger


RootAssignment = Mapping[BlockRef, Sequence[Poly]]


def canonical_roots(t: Tableau) -> dict:
    """Block -> list of root polynomials: each block's letters, the
    ambient block's e[1..n]."""
    return {(i, j): [Poly.var(v) for v in t.letters(i, j)]
            for i in range(1, t.levels + 2) for j in range(1, t.K(i) + 1)}


def _add_pairs(counts: dict, src_roots: Sequence[Poly],
               tgt_roots: Sequence[Poly], w: int, m: int) -> None:
    """Add m to the multiplicity of (y_tgt, y_src, w) for every slot pair."""
    for ys in src_roots:
        for yt in tgt_roots:
            key = (yt, ys, w)
            counts[key] = counts.get(key, 0) + m


def _product_of_pairs(counts: Mapping) -> LinearProduct:
    """prod (y_tgt - y_src + w*alpha)^m over {(y_tgt, y_src, w): m}, each
    distinct factor built and canonicalized once."""
    alpha = Poly.var(ALPHA)
    out = LinearProduct()
    for (yt, ys, w), m in counts.items():
        out.mul_factor(yt - ys + alpha * w, m)
    return out


def euler_product_from_ledger(ledger: Ledger,
                              roots: RootAssignment) -> LinearProduct:
    """Factored Euler class: prod (y_tgt - y_src + w*alpha)^sign over slots.

    Slot pairs with equal roots and weight are grouped first, and each
    distinct factor is built once with its summed multiplicity: with the
    ambient roots all at 0, a block's n ambient pairs give one factor.
    """
    counts: dict[tuple[Poly, Poly, int], int] = {}
    for src, tgt, w, m in ledger.terms():
        if w == 0:
            raise ValueError("Euler class of a ledger with weight-0 terms")
        _add_pairs(counts, roots[src], roots[tgt], w, m)
    return _product_of_pairs(counts)


def euler_class_from_ledger(ledger: Ledger,
                            roots: RootAssignment) -> RatFun:
    return euler_product_from_ledger(ledger, roots).to_ratfun()


def euler_product_closed_form(t: Tableau,
                              roots: RootAssignment) -> LinearProduct:
    """Direct transcription of the final product expression.

    Cross-level factors run over all block pairs with positive value gap
    (the per-pair resolution of the display's interval bounds), same-level
    section factors over j' < j, and same-level first-cohomology factors
    over pairs with gap >= 2.
    """
    counts: dict[tuple[Poly, Poly, int], int] = {}

    def mul(src: BlockRef, tgt: BlockRef, shifts: range, sign: int) -> None:
        for l in shifts:
            _add_pairs(counts, roots[src], roots[tgt], -l, sign)

    for i in range(1, t.levels + 1):
        Ki = t.K(i)
        for j in range(1, Ki + 1):
            aij = t.a(i, j)
            for jp in range(1, t.K(i + 1) + 1):
                gap = aij - t.a(i + 1, jp)
                mul((i, j), (i + 1, jp), range(1, gap + 1), +1)
                mul((i, j), (i + 1, jp), range(gap + 1, 0), -1)
            for jp in range(1, j):
                mul((i, j), (i, jp), range(1, aij - t.a(i, jp) + 1), -1)
            for jp in range(j + 1, Ki + 1):
                mul((i, j), (i, jp), range(aij - t.a(i, jp) + 1, 0), +1)
    return _product_of_pairs(counts)


def euler_class_closed_form(t: Tableau, roots: RootAssignment) -> RatFun:
    return euler_product_closed_form(t, roots).to_ratfun()


def grassmannian_euler_product(t: Tableau) -> LinearProduct:
    """The one-level display: prod (-y_{j;k} - l*alpha)^n over the section
    weights, over the regrouped same-level denominator with its sign."""
    if t.spec.levels != 1:
        raise ValueError("Grassmannian display needs a one-level tableau")
    alpha = Poly.var(ALPHA)
    n = t.spec.n
    out = LinearProduct()
    for j in range(1, t.K(1) + 1):
        for k in range(1, t.m(1, j) + 1):
            yv = Poly.var(y(1, j, k))
            for l in range(1, t.a(1, j) + 1):
                out.mul_factor(-yv - alpha * l, n)
    for j in range(1, t.K(1) + 1):
        for jp in range(j + 1, t.K(1) + 1):
            gap = t.a(1, jp) - t.a(1, j)
            mm = t.m(1, j) * t.m(1, jp)
            out.mul_scalar((-1) ** (mm * (gap - 1)))
            for k in range(1, t.m(1, j) + 1):
                for kp in range(1, t.m(1, jp) + 1):
                    f = -Poly.var(y(1, jp, kp)) + Poly.var(y(1, j, k)) \
                        - alpha * gap
                    out.mul_factor(f, -1)
    return out


def point_blocks(t: Tableau) -> list[BlockRef]:
    """The blocks in the order a torus fixed point lists their
    coordinates: the ambient block (I+1, 1) first, then level I's blocks,
    and so on down to level 1, each level's in order of j."""
    return [(i, j) for i in range(t.levels + 1, 0, -1)
            for j in range(1, t.K(i) + 1)]


def torus_fixed_points(t: Tableau) -> list[tuple[Point, Tangent]]:
    """All nested coordinate choices, each one flat tuple with its tangent
    weights.

    A point lists each block's sorted coordinates in point_blocks order:
    it starts as the ambient block's 1..n and grows one block at a time,
    top level first.  Block (i, j) takes its m(i, j) coordinates, in
    combinations order, from its pool: the sorted first l(i+1, j)
    coordinates of level i+1, less the level-i coordinates already at the
    end of the tuple.  So the points come in lexicographic order of their
    choices.

    The component is a tower of flag bundles, so each choice also gives
    the point's tangent weights: block (i, j) adds the pair (b, a), for
    the weight w_b - w_a, for each coordinate a in its combo and each b in
    the pool but not in the combo.  Each point has component_dimension(t)
    pairs, and its tangent Euler class is the product of their weights.
    """
    points = [(tuple(range(1, t.spec.n + 1)), ())]
    above = 0  # where level i+1 starts in a point
    for i in range(t.levels, 0, -1):
        here = above + t.r(i + 1, t.K(i + 1))  # where level i starts
        for j in range(1, t.K(i) + 1):
            top = above + t.l(i + 1, j)
            grown = []
            for point, tangent in points:
                taken = point[here:]
                free = [c for c in sorted(point[above:top])
                        if c not in taken]
                for combo in combinations(free, t.m(i, j)):
                    grown.append((point + combo, tangent + tuple(
                        (b, a) for a in combo for b in free
                        if b not in combo)))
            points = grown
        above = here
    return points


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
