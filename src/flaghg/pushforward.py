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

The oracle takes its integrand factored (a RatFun, a normal ledger whose
Euler class divides it, a truncated exponential of Kahler variables times
root forms) together with a list of polynomial weights, and never
multiplies the pieces out: at a fixed point on the ray lam*s each piece
is a number times a power of s, so the point contributes a short series
per weight, and everything that does not depend on the weight is
computed once per point.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import (combinations_with_replacement, permutations,
                       product as iproduct)
from math import factorial, lcm, prod
from typing import Mapping, Sequence

from .algebra import (ALPHA, Poly, RatFun, VarId, ambient, canonical_linear,
                      ratfun_sum, y)
from .errors import (DEFAULT_COSET_BUDGET, BudgetExceededError,
                     IntegrationShapeError, SingularSubstitutionError)
from .fixedlocus import (Ledger, assert_block_symmetric, scaled_weights,
                         tangent_euler_scaled, tangent_ledger,
                         torus_fixed_points)
from .tableaux import Tableau, component_dimension


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
    that moves the blocks into reverse order, first swap first.  Each is
    one ratfun_sum of f and -s_i f, both with the canonical factor of
    x_{i+1} - x_i raised by one in their denominators, so the sum's
    evaluation at that factor's hyperplane decides whether it divides.
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
                f, scale = canonical_linear(Poly.var(b) - Poly.var(a))
                p = ratfun_sum([_over(p, f, scale),
                                _over(p.substitute({a: b, b: a}), f, -scale)])
                swapped = True
    return p


def _over(p: RatFun, f: Poly, scale: int) -> RatFun:
    """p / (scale * f) for a canonical factor f and scale = +-1, with f's
    exponent raised by one and not divided out: ratfun_sum does that."""
    den = dict(p.den)
    den[f] = den.get(f, 0) + 1
    return RatFun(p.num * scale, den, _normalized=True)


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


def tableau_tower(t: Tableau) -> list[tuple[BlockAlphabet, Poly, dict]]:
    """Fibration tower of a distinguished component, lowest level first,
    one (alphabet, Thom class, letter re-expression) per stage.

    Stage i pushes along the flag bundle of the level-(i+1) tautological
    bundle: its alphabet is the level-i blocks plus a fresh quotient block,
    its Thom class restricts each level-i block below the matching
    level-(i+1) partial flag, and afterwards the letters are re-expressed
    through the level-(i+1) roots (ambient roots at the top).
    """
    spec = t.spec
    stages = []
    for i in range(1, spec.levels + 1):
        r_next = spec.rank(i + 1)
        quot = [y(i, t.K(i) + 1, k)
                for k in range(1, r_next - spec.rank(i) + 1)]
        level_blocks = [t.letters(i, j) for j in range(1, t.K(i) + 1)]
        if quot:
            level_blocks.append(quot)
        alphabet = BlockAlphabet(level_blocks)
        if i == spec.levels:
            next_roots = [ambient(k) for k in range(1, spec.n + 1)]
        else:
            next_roots = [v for j in range(1, t.K(i + 1) + 1)
                          for v in t.letters(i + 1, j)]
        constraints = []
        for j in range(1, t.K(i) + 1):
            quot_roots = next_roots[t.l(i + 1, j):]
            if quot_roots:
                constraints.append((t.letters(i, j), quot_roots))
        omega = omega_class(constraints)
        letter_map = dict(zip(sorted(alphabet.letters), next_roots))
        stages.append((alphabet, omega, letter_map))
    return stages


def integrate_to_point(p: RatFun,
                       tower: Sequence[tuple[BlockAlphabet, Poly, dict]],
                       budget: int = DEFAULT_COSET_BUDGET) -> RatFun:
    """Iterated restrictive push-forward, then ambient roots to zero."""
    for alphabet, omega, letter_map in tower:
        p = brion_pushforward(p * omega, alphabet, budget)
        p = p.substitute(letter_map)
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


# The distinct values num/den with |num| <= 19 and 1 <= den <= 5.
_SMALL_POOL = 137


def lam_vector(n: int, seed: int = 0) -> list[Fraction]:
    """First n distinct small rationals of a fixed congruential sequence.

    The first _SMALL_POOL values have |numerator| <= 19 and denominator
    <= 5, which is all of that pool; after them the numerator bound is the
    number of values drawn so far, so the pool always has a free value."""
    state = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 63)
    out: list[Fraction] = []
    seen = set()
    while len(out) < n:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
        bound = 19 if len(out) < _SMALL_POOL else len(out)
        num = (state >> 33) % (2 * bound + 1) - bound
        den = (state >> 13) % 5 + 1
        v = Fraction(num, den)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


# How many times the oracle draws fresh torus weights after singular ones.
MAX_RETRIES = 5


def ab_integrate(t: Tableau, p: RatFun, lam: Sequence[Fraction],
                 seed: int = 0, check_symmetry: bool = True) -> RatFun:
    """Torus fixed-point integral of p over the component: the one-weight
    call ab_integrals(t, lam, [1], p), after checking that p is symmetric
    in the letters of each block (unless check_symmetry is False).

    The oracle itself takes the integrand factored (a RatFun, a normal
    ledger and a truncated exponential of hyperplane classes) with a list
    of polynomial weights, evaluates each piece at every fixed point
    as a number times a power of the ray parameter, and returns one
    integral per weight without multiplying anything out; see
    ab_integrals."""
    if check_symmetry:
        assert_block_symmetric(p, [t.letters(i, j)
                                   for i in range(1, t.levels + 1)
                                   for j in range(1, t.K(i) + 1)])
    return ab_integrals(t, lam, [Poly.const(1)], p, seed=seed)[0]


def ab_integrals(t: Tableau, lam: Sequence[Fraction],
                 weights: Sequence[Poly], p: RatFun | None = None,
                 normal: Ledger | None = None,
                 exp: tuple[Mapping[VarId, Poly], int] | None = None,
                 seed: int = 0) -> list[RatFun]:
    """Torus fixed-point integrals of p * exp * weight / e(normal) over the
    component, one per weight, from one pass over the fixed points.

    The integrand stays factored: p is a RatFun, normal a ledger whose
    equivariant Euler class divides the integrand, exp = ({t_i: H_i}, D)
    the exponential of sum_i t_i*H_i truncated at degree D, with each H_i a
    root form, and each weight a polynomial in the roots.  Every
    denominator factor of p must be a root form plus a multiple of alpha,
    and every ledger term must have a non-zero weight.

    With the roots on the ray lam*s, the sum of integrand / (tangent Euler
    class) over the fixed points is a truncated Laurent series in s whose
    s^0 coefficient is the non-equivariant integral, free of the weights.
    At a point each piece is a number times a power of s: a root monomial
    of degree r is c*s^r, and H_i is c_i*s, so exp brings the multinomials
    of the c_i.  A linear factor is s*delta + w*alpha: for w != 0 it is
    w*alpha*(1 + x*u) with u = s/alpha, which divides the series in u
    (or multiplies it, for a ledger term of negative multiplicity), so
    alpha stays symbolic; for w = 0 it raises the pole order.  A ledger
    term (src, tgt, w, m) gives the factor y_tgt - y_src + w*alpha to the
    power m for each pair of a root of src and a root of tgt.  The root
    values, the tangent Euler class, the series of the factors and each
    weight's values are computed once per point.

    The negative powers of s must cancel over the points for every weight.
    A vanishing alpha-free denominator factor or a surviving pole means
    non-generic weights (or a genuine pole); fresh weights are drawn from
    the seed sequence up to MAX_RETRIES times.  The sum runs in integers
    over one common denominator, and one Fraction is built per coefficient
    of each result.
    """
    n = t.spec.n
    if len(set(lam)) != len(lam):
        raise ValueError("torus weights must be pairwise distinct")
    if len(lam) != n:
        raise ValueError("one torus weight per coordinate is required")
    num = p.num if p is not None else Poly.const(1)
    if num.is_zero():
        return [RatFun.const(0) for _ in weights]
    # The roots: the tableau's letters, then the ambient roots.  At a
    # point, letter y[i,j;k] sits on coordinate point[(i, j)][k - 1] and
    # e[k] on coordinate k, so the point's root values are one list.
    blocks = {(i, j): t.letters(i, j) for i in range(1, t.levels + 1)
              for j in range(1, t.K(i) + 1)}
    slots = [(block, k) for block, vs in blocks.items()
             for k in range(len(vs))]
    blocks[(t.levels + 1, 1)] = [ambient(k) for k in range(1, n + 1)]
    root_order = [v for vs in blocks.values() for v in vs]
    at = {v: i for i, v in enumerate(root_order)}

    constant = Fraction(1)
    poles, shifts = [], []  # factors with w = 0; with w != 0
    order = component_dimension(t)
    alpha_shift = 0  # alpha-degree of the w != 0 factors
    for f, e in (p.den.items() if p is not None else ()):
        const, coeffs = f.linear_parts()
        w = coeffs.pop(ALPHA, 0)
        if const or not coeffs.keys() <= at.keys():
            raise IntegrationShapeError(
                f"denominator factor {f.to_text()} is not a root form plus "
                "a multiple of alpha")
        if w:
            shifts.append(([(v, Fraction(a) / w) for v, a in coeffs.items()],
                           -e))
            constant /= Fraction(w) ** e
            alpha_shift -= e
        else:
            g = lcm(*(a.denominator for a in coeffs.values()))
            poles.append(([(at[v], _scaled(a, g)) for v, a in coeffs.items()],
                          e))
            constant *= Fraction(g) ** e
            order += e
    for src, tgt, w, m in (normal.terms() if normal is not None else ()):
        if not w:
            raise IntegrationShapeError(
                f"normal ledger term {src} -> {tgt} has weight 0")
        ratio = Fraction(1, w)
        pairs = [(yt, ys) for ys in blocks[src] for yt in blocks[tgt]]
        shifts += [([(yt, ratio), (ys, -ratio)], -m) for yt, ys in pairs]
        constant /= Fraction(w) ** (m * len(pairs))
        alpha_shift -= m * len(pairs)
    b = lcm(*(r.denominator for ratios, _ in shifts for _, r in ratios))
    shifts = [([(at[v], _scaled(r, b)) for v, r in ratios], e)
              for ratios, e in shifts]
    constant /= b ** order

    # exp: the t_i, their H_i as integer maps over h, and the exponent
    # vectors m of the t-monomials it reaches, with D!/prod(m_i!) h^(D-|m|)
    hyperplanes, exp_degree = exp if exp is not None else ({}, 0)
    if exp_degree < 0:
        raise ValueError("truncation bound must be non-negative")
    tvars = sorted(hyperplanes)
    forms = []
    for v in tvars:
        const, coeffs = hyperplanes[v].linear_parts()
        if const or v in at or v == ALPHA or not coeffs.keys() <= at.keys():
            raise IntegrationShapeError(
                f"exponent {v} * ({hyperplanes[v].to_text()}) is not a "
                "variable times a root form")
        forms.append(coeffs)
    h = lcm(*(a.denominator for form in forms for a in form.values()))
    forms = [[(at[v], _scaled(a, h)) for v, a in form.items()]
             for form in forms]
    reach = min(exp_degree, order) if forms else 0
    comps = sorted((m for m in iproduct(range(reach + 1), repeat=len(forms))
                    if sum(m) <= reach), key=sum)
    constant /= factorial(exp_degree) * h ** exp_degree
    coefs = [factorial(exp_degree) // prod(map(factorial, m))
             * h ** (exp_degree - sum(m)) for m in comps]
    # each m but the first is an earlier one times t_i, i its last part
    steps = []
    for m in comps[1:]:
        i = max(k for k, e in enumerate(m) if e)
        steps.append((comps.index(m[:i] + (m[i] - 1,) + m[i + 1:]), i))

    # Root monomials of the numerator and the weights, in one table: root
    # monomial i > 0 is root monomial recipe[i-1][0] times the root at
    # index recipe[i-1][1], so a point evaluates each with one product.
    index: dict[tuple, int] = {(0,) * len(root_order): 0}
    recipe: list[tuple] = []

    def mono_index(root: tuple) -> int:
        if root not in index:
            last = len(root) - 1
            while not root[last]:
                last -= 1
            parent = root[:last] + (root[last] - 1,) + root[last + 1:]
            recipe.append((mono_index(parent), last))
            index[root] = len(recipe)
        return index[root]

    # A result key packs the exponents of `others` into fields of `width`
    # bits, and the alpha power, which may be negative, above them.
    others = sorted(num.variables() - at.keys() - {ALPHA} | set(tvars))
    nroots = len(root_order)
    num_exps = num.exponents(root_order + [ALPHA] + others)
    top = max(max(exps[nroots + 1:], default=0) for exps in num_exps)
    width = max(1, (top + exp_degree).bit_length())
    fields = [width * k for k in range(len(others))]
    alpha_at = width * len(others)
    # (key, s-degree) -> [(root monomial, den*coeff)]; s-degrees above the
    # order only feed positive powers of s
    den = lcm(*(c.denominator for c in num.terms.values()))
    constant /= den
    groups: dict[tuple, list] = {}
    packed: dict[tuple, int] = {}
    for exps, c in num_exps.items():
        root, rest = exps[:nroots], exps[nroots:]
        degree = sum(root)
        if degree <= order:
            if rest not in packed:
                packed[rest] = sum(
                    e << sh for e, sh in zip(rest, [alpha_at] + fields))
            groups.setdefault((packed[rest], degree), []).append(
                (mono_index(root), _scaled(c, den)))
    weight_terms = []  # per weight: (denominator, {degree: [(index, c)]})
    for weight in weights:
        if not weight.variables() <= at.keys():
            raise IntegrationShapeError(
                f"weight {weight.to_text()} is not a polynomial in the roots")
        wden = lcm(*(c.denominator for c in weight.terms.values()))
        by_degree: dict[int, list] = {}
        for exps, c in weight.exponents(root_order).items():
            by_degree.setdefault(sum(exps), []).append(
                (mono_index(exps), _scaled(c, wden)))
        weight_terms.append((wden, by_degree))
    # the cells (j, k, m, key) of a point's factor series, in order of j:
    # u^k times the exp part at m, of s-degree j = k + |m|, with alpha^-k
    tfields = [fields[others.index(v)] for v in tvars]
    cells = []
    for mi, m in enumerate(comps):
        key, size = sum(e << sh for e, sh in zip(m, tfields)), sum(m)
        cells += [(k + size, k, mi, key - (k << alpha_at))
                  for k in range(order - size + 1)]
    cells.sort()

    points = torus_fixed_points(t)
    tangent = tangent_ledger(t)
    for attempt in range(MAX_RETRIES + 1):
        try:
            common, rows = _ray_series_sums(
                points, lam, slots, tangent, poles, shifts, b, order,
                recipe, groups, forms, steps, coefs, cells, weight_terms)
            break
        except SingularSubstitutionError:
            if attempt == MAX_RETRIES:
                raise
            lam = lam_vector(n, seed=seed + 1001 + attempt)
    out = []
    mask = (1 << width) - 1
    for (wden, _), row in zip(weight_terms, rows):
        scale = constant / (common * wden)
        terms = {(tuple((key >> sh) & mask for sh in fields),
                  (key >> alpha_at) + alpha_shift): c * scale
                 for key, c in row.items() if c}
        # clear negative powers of alpha; then some term is free of alpha,
        # so the result is in lowest terms
        raise_by = max([0] + [-a for _, a in terms])
        out.append(RatFun(
            Poly.from_exponents(others + [ALPHA],
                                {rest + (a + raise_by,): c
                                 for (rest, a), c in terms.items()}),
            {Poly.var(ALPHA): raise_by} if raise_by else {},
            _normalized=True))
    return out


def _scaled(c, den: int) -> int:
    """The integer c * den, for an int or Fraction c whose denominator
    divides den."""
    return c.numerator * (den // c.denominator)


def _ray_series_sums(points, lam, slots, tangent, poles, shifts, b: int,
                     order: int, recipe, groups, forms, steps, coefs, cells,
                     weight_terms) -> tuple[int, list[dict]]:
    """(common, per weight the s^0 row {key: integer}), once the rows of
    negative powers of s are checked to vanish for every weight.

    With lam = weights / scale every power of s comes with one power of
    1/scale, so the rows are computed at the integer weights: the s^0 row
    is the same, and the others are scaled, which keeps their zero test
    exact.  A point's share is bottom / top: the tangent Euler class
    top / bottom times the alpha-free denominator factors, as integers
    over a fixed g.  A factor with w != 0 multiplies or divides the series
    in u by 1 + x*u with x = X / b for a fixed b, so the u^k coefficient is
    an integer over b^k, brought to b^order.  The shares are summed over
    the least common multiple `common` of their denominators.
    """
    weights, _ = scaled_weights(lam)
    shares = []
    for point in points:
        values = [weights[point[block][k] - 1] for block, k in slots]
        values += weights
        top, bottom = tangent_euler_scaled(tangent, point, weights)
        for coeffs, e in poles:
            delta = sum([a * values[i] for i, a in coeffs])
            if not delta:
                raise SingularSubstitutionError(
                    "an alpha-free denominator factor vanished at a point")
            top *= delta ** e
        shares.append((values, top, bottom))
    common = lcm(*(top for _, top, _ in shares))
    b_powers = [b ** (order - k) for k in range(order + 1)]
    acc = [[defaultdict(int) for _ in range(order + 1)] for _ in weight_terms]
    for values, top, bottom in shares:
        series = [bottom * (common // top)] + [0] * order
        net: dict[int, int] = {}  # x -> net exponent of 1 + x*u
        for coeffs, e in shifts:
            x = sum([a * values[i] for i, a in coeffs])
            if x:
                net[x] = net.get(x, 0) + e
        for x, e in net.items():
            for _ in range(e):  # multiply by 1 + x*u
                for k in range(order, 0, -1):
                    series[k] += x * series[k - 1]
            for _ in range(-e):  # divide by 1 + x*u
                for k in range(1, order + 1):
                    series[k] -= x * series[k - 1]
        if b != 1:
            series = [c * bp for c, bp in zip(series, b_powers)]
        exp_values = coefs
        if forms:
            cs = [sum([a * values[i] for i, a in form]) for form in forms]
            products = [1]
            for parent, i in steps:
                products.append(products[parent] * cs[i])
            exp_values = [p * c for p, c in zip(products, coefs)]
        cell_values = [(j, key, v) for j, k, mi, key in cells
                       if (v := series[k] * exp_values[mi])]
        mono_values = [1]
        for parent, i in recipe:
            mono_values.append(mono_values[parent] * values[i])
        sums = []
        for (key, degree), items in groups.items():
            value = sum([c * mono_values[i] for i, c in items])
            if value:
                sums.append((key, degree, value))
        for (_, by_degree), rows in zip(weight_terms, acc):
            for d, items in by_degree.items():
                wv = sum([c * mono_values[i] for i, c in items])
                if not wv:
                    continue
                for key, degree, value in sums:
                    value *= wv
                    room = order - degree - d
                    for j, kf, vf in cell_values:
                        if j > room:
                            break
                        rows[degree + d + j][key + kf] += value * vf
    for rows in acc:
        if any(any(row.values()) for row in rows[:order]):
            raise SingularSubstitutionError(
                "poles in the ray parameter do not cancel over the fixed "
                "points")
    return common, [rows[order] for rows in acc]


def complete_homogeneous(degree: int, roots: Sequence[VarId]) -> Poly:
    """h_degree: sum of all monomials of the given degree in the roots,
    one per weak composition of the degree into len(roots) parts."""
    if degree < 0:
        return Poly.zero()
    terms = {}
    for combo in combinations_with_replacement(range(len(roots)), degree):
        exps = [0] * len(roots)
        for k in combo:
            exps[k] += 1
        terms[tuple(exps)] = 1
    return Poly.from_exponents(roots, terms)


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
