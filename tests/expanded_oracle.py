"""The fixed-point oracle on an expanded integrand, as a reference.

This is the oracle as it was before it took factored integrands: the
integrand is one RatFun, its numerator expanded into monomials, and every
monomial is evaluated at every fixed point.  `integral_Id` and the Schur
pairings are checked against it on the expanded forms
(`mirror_integrand(t)`, `cls * s_mu`), the way `tuple_poly.py` checks the
packed Poly.  `fixed_point_values` and `point_values` are the per-point
dictionaries of root values it works from.  Its tangent Euler class,
`tangent_euler_scaled`, multiplies out the component's tangent ledger and
cancels the diagonal zeros, independently of the tangent pairs that the
engine's enumeration lists with each point.  `per_pair_euler_product` builds an
Euler class one factor per ledger term and pair of roots, as the engine
did before it grouped equal factors.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from flaghg.algebra import ALPHA, LinearProduct, Poly, RatFun, VarId
from flaghg.errors import (CancellationFailureError, IntegrationShapeError,
                           SingularSubstitutionError)
from flaghg.fixedlocus import (FixedPoint, Ledger, RootAssignment,
                               scaled_weights, tangent_ledger,
                               torus_fixed_points)
from flaghg.pushforward import lam_vector
from flaghg.tableaux import Tableau, component_dimension


def fixed_point_values(t: Tableau, point: FixedPoint,
                       lam: Sequence[Fraction]) -> dict[VarId, Fraction]:
    """Root variable -> torus weight value at a fixed point."""
    if len(set(lam)) != len(lam):
        raise ValueError("torus weights must be pairwise distinct")
    if len(lam) != t.spec.n:
        raise ValueError("one torus weight per coordinate is required")
    return point_values(t, point, [Fraction(v) for v in lam])


def point_values(t: Tableau, point: FixedPoint,
                 weights: Sequence) -> dict[VarId, object]:
    """Root variable -> weights[c - 1] for the coordinate c it sits on at
    the point, for weights of any exact type; the weights are not checked.
    The k-th letter of a block, ambient block included, sits on its k-th
    coordinate; the coordinates of a point from torus_fixed_points are
    sorted."""
    return {v: weights[c - 1] for (i, j), coords in point.items()
            for v, c in zip(t.letters(i, j), coords)}


def per_pair_euler_product(ledger: Ledger,
                           roots: RootAssignment) -> LinearProduct:
    """prod (y_tgt - y_src + w*alpha)^m, one factor built per ledger term
    (src, tgt, w, m) and pair of roots, with nothing grouped."""
    alpha = Poly.var(ALPHA)
    out = LinearProduct()
    for src, tgt, w, m in ledger.terms():
        for ys in roots[src]:
            for yt in roots[tgt]:
                out.mul_factor(yt - ys + alpha * w, m)
    return out


def tangent_euler_scaled(ledger: Ledger, point: FixedPoint,
                         weights: Sequence[int]) -> tuple[int, int]:
    """(num, den): the product of tangent weights at integer torus weights
    is num / den.  At weights lam = weights / scale it is
    num / den / scale ** ledger.rank(), one factor of scale per weight.

    The tangent ledger's positive and negative parts each contain the same
    number of zero factors (the diagonal slots); these cancel as multisets
    and the remaining product is the genuine Euler class.
    """
    num = den = 1
    zeros = 0
    for src, tgt, w, m in ledger.terms():
        for cs in point[src]:
            base = weights[cs - 1]
            for ct in point[tgt]:
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


def expanded_ab_integrate(t: Tableau, p: RatFun, lam: Sequence[Fraction],
                          max_retries: int = 5, seed: int = 0) -> RatFun:
    """Torus fixed-point integration over the component.

    Sums p / (tangent Euler class) over the coordinate fixed points with the
    roots on the ray lam*s, as a truncated Laurent series in s, and returns
    its s^0 coefficient: the non-equivariant integral, free of the weights.
    At a point a denominator factor (root form) + w*alpha is s*delta +
    w*alpha.  For w != 0 its inverse is (w*alpha)^-1 times a power series
    in u = s/alpha, so alpha stays symbolic; for w = 0 it raises the pole
    order.  Pole cancellation is checked: the negative powers of s must
    vanish over the points.  A vanishing alpha-free factor or a surviving
    pole means non-generic weights (or a genuine pole); fresh weights are
    drawn from the seed sequence up to max_retries times.  A factor that
    is not a root form plus a multiple of alpha is rejected.

    The sum runs in integers: the weights are scaled to integers once, each
    point's share is an integer series over one integer denominator, and
    the shares accumulate over the least common multiple of those
    denominators, so one Fraction is built per coefficient of the result.
    """
    points = [point for point, _ in torus_fixed_points(t)]
    roots = set(fixed_point_values(t, points[0], lam))
    factors = []
    for f, e in p.den.items():
        const, coeffs = f.linear_parts()
        w = coeffs.pop(ALPHA, 0)
        if const or not coeffs.keys() <= roots:
            raise IntegrationShapeError(
                f"denominator factor {f.to_text()} is not a root form plus "
                "a multiple of alpha")
        factors.append((coeffs, w, e))
    order = component_dimension(t) + sum(e for _, w, e in factors if not w)
    # Exponent vectors over the roots, in order: root monomial i > 0 is
    # root monomial recipe[i-1][0] times the root recipe[i-1][1], so a
    # point evaluates each with one multiplication.
    root_order = sorted(roots)
    others = sorted(p.num.variables() - roots - {ALPHA})
    index: dict[tuple, int] = {(0,) * len(root_order): 0}
    recipe: list[tuple] = []

    def mono_index(root: tuple) -> int:
        if root not in index:
            last = len(root) - 1
            while not root[last]:
                last -= 1
            parent = root[:last] + (root[last] - 1,) + root[last + 1:]
            recipe.append((mono_index(parent), root_order[last]))
            index[root] = len(recipe)
        return index[root]

    # (rest exponents, alpha power, root degree) -> [(root index, den*coeff)]
    # with the rest over `others`; root degrees above the order only feed
    # positive powers of s
    den = lcm(*(c.denominator for c in p.num.terms.values()))
    terms: dict[tuple, list] = {}
    nroots = len(root_order)
    for exps, c in p.num.exponents(root_order + [ALPHA] + others).items():
        root = exps[:nroots]
        degree = sum(root)
        if degree <= order:
            key = (exps[nroots + 1:], exps[nroots], degree)
            terms.setdefault(key, []).append(
                (mono_index(root), c.numerator * (den // c.denominator)))
    tangent = tangent_ledger(t)
    for attempt in range(max_retries + 1):
        try:
            top = _ray_series_sum(t, points, lam, factors, recipe, terms, den,
                                  order, tangent)
            break
        except SingularSubstitutionError:
            if attempt == max_retries:
                raise
            lam = lam_vector(t.spec.n, seed=seed + 1001 + attempt)
    # restore the (w*alpha)^-e of the factors and clear negative powers
    shift = sum(e for _, w, e in factors if w)
    lift = max([0] + [shift - a for (_, a), c in top.items() if c])
    num = {rest + (a + lift - shift,): c for (rest, a), c in top.items()}
    return RatFun(Poly.from_exponents(others + [ALPHA], num),
                  {Poly.var(ALPHA): lift} if lift else {})


def _ray_series_sum(t: Tableau, points, lam, factors, recipe, terms,
                    den: int, order: int, tangent) -> dict:
    """The s^0 coefficient {(rest exponents, alpha power): value} of the sum
    over the points, once the negative powers of s are checked to cancel.

    With lam = weights / scale every root value is an integer over scale.
    An alpha-free factor is an integer over g * scale for a fixed g; a
    factor with w != 0 divides the series by 1 + x*u with x = N / (b*scale)
    for one fixed b, so the u^k coefficient is S[k] / (b*scale)^k with S[k]
    an integer.  The tangent Euler class is an integer fraction over
    scale^dim.  In the s^0 row the powers of scale cancel, and every other
    factor that is the same at all points goes into one constant, so each
    point's share is an integer over its own integer denominator, and the
    shares are summed over their common multiple.
    """
    weights, _ = scaled_weights(lam)
    constant = Fraction(1, den)
    poles, shifts = [], []  # alpha-free factors, factors with w != 0
    for coeffs, w, e in factors:
        if w:
            shifts.append(({v: Fraction(a, w) for v, a in coeffs.items()}, e))
            constant /= Fraction(w) ** e
        else:
            g = lcm(*(a.denominator for a in coeffs.values()))
            poles.append(({v: int(a * g) for v, a in coeffs.items()}, e))
            constant *= g ** e
    b = lcm(*(r.denominator for ratios, _ in shifts for r in ratios.values()))
    shifts = [({v: int(r * b) for v, r in ratios.items()}, e)
              for ratios, e in shifts]
    b_powers = [b ** (order - k) for k in range(order + 1)]
    shares = []
    for point in points:
        values = point_values(t, point, weights)
        top, bottom = tangent_euler_scaled(tangent, point, weights)
        for coeffs, e in poles:
            delta = sum(a * values[v] for v, a in coeffs.items())
            if not delta:
                raise SingularSubstitutionError(
                    "an alpha-free denominator factor vanished at a point")
            top *= delta ** e
        series = [1] + [0] * order  # in u, of the inverse w != 0 factors
        for coeffs, e in shifts:
            x = sum(a * values[v] for v, a in coeffs.items())
            for _ in range(e if x else 0):  # divide by 1 + x*u
                for k in range(1, order + 1):
                    series[k] -= x * series[k - 1]
        mono_values = [1]
        for parent, v in recipe:
            mono_values.append(mono_values[parent] * values[v])
        sums = [sum(c * mono_values[i] for i, c in items)
                for items in terms.values()]
        shares.append((top, bottom, series, sums))
    common = lcm(*(top for top, _, _, _ in shares))
    acc: list[dict] = [{} for _ in range(order + 1)]  # s^(j - order)
    for top, bottom, series, sums in shares:
        scaled = bottom * (common // top)
        series = [c * scaled * b_powers[k] for k, c in enumerate(series)]
        for (rest, a, degree), value in zip(terms, sums):
            for k in range(order - degree + 1):
                if series[k]:
                    row = acc[degree + k]
                    key = (rest, a - k)
                    row[key] = row.get(key, 0) + value * series[k]
    if any(any(row.values()) for row in acc[:order]):
        raise SingularSubstitutionError(
            "poles in the ray parameter do not cancel over the fixed points")
    constant /= b ** order * common
    return {key: constant * c for key, c in acc[order].items() if c}
