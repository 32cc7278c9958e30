"""Divided-difference push-forwards, the restrictive-flag Thom class, and
the two independent integration routes.

The push-forward along a flag bundle is the coset sum over distributions
of the alphabet letters into blocks, of the integrand divided by the
product of cross-block letter differences.  It is computed as divided
differences along the bubble-sort word that reverses the blocks (the
Bernstein-Gelfand-Gelfand / Demazure form of the Gysin map), so no coset
is enumerated.  A restrictive flag bundle first multiplies in its Thom
class.  Iterating down a component's fibration tower and killing the
ambient roots integrates to a point; the independent oracle instead sums
integrand/tangent-Euler over the torus fixed points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial, lcm
from typing import Sequence

from .algebra import ALPHA, Poly, RatFun, VarId, ambient, y
from .errors import (BudgetExceededError, IntegrationShapeError,
                     SingularSubstitutionError)
from .fixedlocus import (assert_block_symmetric, fixed_point_values,
                         point_values, scaled_weights, tangent_euler_scaled,
                         tangent_ledger, torus_fixed_points)
from .tableaux import (IndexTables, Tableau, block_decomposition,
                       component_dimension)

DEFAULT_COSET_BUDGET = 10080


class BlockAlphabet:
    """Ordered blocks of letters; the last block plays the ambient role."""

    def __init__(self, blocks: Sequence[Sequence[VarId]]):
        self.blocks = tuple(tuple(b) for b in blocks if len(b) > 0)
        if not self.blocks:
            raise ValueError("alphabet needs at least one non-empty block")
        letters = [v for b in self.blocks for v in b]
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet blocks must be disjoint")
        self.letters = tuple(letters)

    @property
    def size(self) -> int:
        return len(self.letters)

    def coset_count(self) -> int:
        count = factorial(self.size)
        for b in self.blocks:
            count //= factorial(len(b))
        return count


def brion_pushforward(p: RatFun, alphabet: BlockAlphabet,
                      budget: int = DEFAULT_COSET_BUDGET) -> RatFun:
    """Push p forward along the flag bundle of the alphabet's blocks.

    This is the coset sum of p over the product of cross-block letter
    differences (lower block subtracted from higher), computed as divided
    differences (f - s_i f) / (x_{i+1} - x_i) along the bubble-sort word
    that moves the blocks into reverse order, first swap first.
    """
    count = alphabet.coset_count()
    if count > budget:
        raise BudgetExceededError(
            f"{count} cosets exceed the budget of {budget}")
    assert_block_symmetric(p, alphabet.blocks)
    letters = alphabet.letters
    order = [j for j, block in enumerate(alphabet.blocks) for _ in block]
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(order) - 1):
            if order[i] < order[i + 1]:
                order[i], order[i + 1] = order[i + 1], order[i]
                a, b = letters[i], letters[i + 1]
                p = (p - p.substitute({a: b, b: a})) * RatFun(
                    Poly.const(1), {Poly.var(b) - Poly.var(a): 1})
                swapped = True
    return p


def omega_class(constraints: Sequence[tuple[Sequence[VarId],
                                             Sequence[VarId]]]) -> Poly:
    """Expanded product of (quotient root - sub root) over the nesting
    constraints, each a block of sub-roots and its quotient roots."""
    out = Poly.const(1)
    for sub, quot in constraints:
        for q in quot:
            for s in sub:
                out = out * (Poly.var(q) - Poly.var(s))
    return out


class TowerStage:
    """One fibration step: alphabet, Thom class, and letter re-expression."""

    def __init__(self, alphabet: BlockAlphabet, omega: Poly,
                 letter_map: dict):
        self.alphabet = alphabet
        self.omega = omega
        self.letter_map = letter_map


def tableau_tower(t: Tableau) -> list[TowerStage]:
    """Fibration tower of a distinguished component, lowest level first.

    Stage i pushes along the flag bundle of the level-(i+1) tautological
    bundle: its alphabet is the level-i blocks plus a fresh quotient block,
    its Thom class restricts each level-i block below the matching
    level-(i+1) partial flag, and afterwards the letters are re-expressed
    through the level-(i+1) roots (ambient roots at the top).
    """
    blocks = block_decomposition(t)
    tables = IndexTables.from_blocks(blocks)
    spec = t.spec
    stages = []
    for i in range(1, spec.levels + 1):
        r_next = spec.rank(i + 1)
        quot = [y(i, blocks.K(i) + 1, k)
                for k in range(1, r_next - spec.rank(i) + 1)]
        level_blocks = [blocks.letters(i, j)
                        for j in range(1, blocks.K(i) + 1)]
        if quot:
            level_blocks.append(quot)
        alphabet = BlockAlphabet(level_blocks)
        if i == spec.levels:
            next_roots = [ambient(k) for k in range(1, spec.n + 1)]
        else:
            next_roots = [v for j in range(1, blocks.K(i + 1) + 1)
                          for v in blocks.letters(i + 1, j)]
        constraints = []
        for j in range(1, blocks.K(i) + 1):
            quot_roots = next_roots[tables.l(i + 1, j):]
            if quot_roots:
                constraints.append((blocks.letters(i, j), quot_roots))
        omega = omega_class(constraints)
        letter_map = dict(zip(sorted(alphabet.letters), next_roots))
        stages.append(TowerStage(alphabet, omega, letter_map))
    return stages


def integrate_to_point(p: RatFun, tower: Sequence[TowerStage],
                       budget: int = DEFAULT_COSET_BUDGET) -> RatFun:
    """Iterated restrictive push-forward, then ambient roots to zero."""
    for stage in tower:
        p = brion_pushforward(p * stage.omega, stage.alphabet, budget)
        p = p.substitute(stage.letter_map)
    ambient_vars = {v for v in p.num.variables() if v.kind == 1}
    for f in p.den:
        ambient_vars |= {v for v in f.variables() if v.kind == 1}
    if ambient_vars:
        p = p.substitute({v: 0 for v in ambient_vars})
    bad = {v for v in p.num.variables() if v.kind in (0, 1)}
    for f in p.den:
        bad |= {v for v in f.variables() if v.kind in (0, 1)}
    if bad:
        raise IntegrationShapeError(
            f"residual root variables after integration: {sorted(bad)}")
    return p


def lam_vector(n: int, seed: int = 0) -> list[Fraction]:
    """First n distinct small rationals of a fixed congruential sequence."""
    state = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 63)
    out: list[Fraction] = []
    seen = set()
    while len(out) < n:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
        num = (state >> 33) % 39 - 19
        den = (state >> 13) % 5 + 1
        v = Fraction(num, den)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def ab_integrate(t: Tableau, p: RatFun, lam: Sequence[Fraction],
                 max_retries: int = 5, seed: int = 0,
                 check_symmetry: bool = True) -> RatFun:
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
    if check_symmetry:
        blocks = block_decomposition(t)
        assert_block_symmetric(p, [blocks.letters(i, j)
                                   for i in range(1, blocks.levels + 1)
                                   for j in range(1, blocks.K(i) + 1)])
    points = torus_fixed_points(t)
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
    # Root monomial i > 0 is root monomial recipe[i-1][0] times the variable
    # recipe[i-1][1], so a point evaluates each with one multiplication.
    index: dict[tuple, int] = {(): 0}
    recipe: list[tuple] = []

    def mono_index(root: tuple) -> int:
        if root not in index:
            v, e = root[-1]
            parent = root[:-1] + (((v, e - 1),) if e > 1 else ())
            recipe.append((mono_index(parent), v))
            index[root] = len(recipe)
        return index[root]

    # (rest monomial, alpha power, root degree) -> [(root index, den*coeff)];
    # root degrees above the order only feed positive powers of s
    den = lcm(*(c.denominator for c in p.num.terms.values()))
    terms: dict[tuple, list] = {}
    for mono, c in p.num.terms.items():
        root = tuple(ve for ve in mono if ve[0] in roots)
        degree = sum(e for _, e in root)
        if degree <= order:
            rest = tuple(ve for ve in mono
                         if ve[0] not in roots and ve[0] != ALPHA)
            key = (rest, dict(mono).get(ALPHA, 0), degree)
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
    num = {}
    for (rest, a), c in top.items():
        if c:
            power = a + lift - shift
            num[tuple(sorted(rest + ((ALPHA, power),))) if power else rest] = c
    return RatFun(Poly(num), {Poly.var(ALPHA): lift} if lift else {})


def _ray_series_sum(t: Tableau, points, lam, factors, recipe, terms,
                    den: int, order: int, tangent) -> dict:
    """The s^0 coefficient {(rest monomial, alpha power): value} of the sum
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


def complete_homogeneous(degree: int, roots: Sequence[VarId]) -> Poly:
    """h_degree: sum of all monomials of the given degree in the roots."""
    if degree < 0:
        return Poly.zero()
    out = Poly.zero()
    for combo in combinations_with_replacement(roots, degree):
        mono = Poly.const(1)
        for v in combo:
            mono = mono * Poly.var(v)
        out = out + mono
    return out


def schur_polynomial(mu: Sequence[int], roots: Sequence[VarId]) -> Poly:
    """Schur polynomial via the Jacobi-Trudi determinant in the h basis."""
    mu = [m for m in mu if m > 0]
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError("partition parts must be non-increasing")
    if len(mu) > len(roots):
        raise ValueError("partition longer than the root list")
    size = len(mu)
    if size == 0:
        return Poly.const(1)
    h = {}

    def H(k):
        if k not in h:
            h[k] = complete_homogeneous(k, roots)
        return h[k]

    out = Poly.zero()
    for perm in permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Poly.const(sign)
        for i in range(size):
            term = term * H(mu[i] - (i + 1) + (perm[i] + 1))
        out = out + term
    return out


def schur_polynomial_bialternant(mu: Sequence[int],
                                 roots: Sequence[VarId]) -> Poly:
    """Schur polynomial as the bialternant ratio, by exact division."""
    mu = list(mu) + [0] * (len(roots) - len(mu))
    if len(mu) != len(roots):
        raise ValueError("partition longer than the root list")
    n = len(roots)
    det = Poly.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Poly.const(sign)
        for i in range(n):
            term = term * Poly.var(roots[i]) ** (mu[perm[i]] + n - 1 - perm[i])
        det = det + term
    for i in range(n):
        for j in range(i + 1, n):
            q = det.divide_by_linear(Poly.var(roots[i]) - Poly.var(roots[j]))
            if q is None:
                raise ArithmeticError("bialternant division failed")
            det = q
    return det
