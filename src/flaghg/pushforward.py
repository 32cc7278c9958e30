"""Divided-difference push-forwards, the restrictive-flag Thom class, and
the two independent integration routes.

The push-forward along a flag bundle is the coset sum over distributions
of the alphabet letters into blocks, of the integrand divided by the
product of cross-block letter differences.  The tower computes it as
divided differences along the bubble-sort word that reverses the blocks
(the Bernstein-Gelfand-Gelfand / Demazure form of the Gysin map), so no
coset is enumerated.  The Grassmannian hypergeometric class instead
takes the coset sum term by term (BlockAlphabet.cosets), as its terms
cancel the display's one for one.  A restrictive flag bundle first
multiplies in its Thom class.  Iterating down a component's fibration
tower and killing the ambient roots integrates to a point; the
independent oracle instead sums integrand/tangent-Euler over the torus
fixed points.

The oracle, ab_integrate, takes its integrand factored (a RatFun, a
normal ledger whose Euler class divides it, a truncated exponential of
Kahler variables times root forms) and never multiplies the pieces out:
at a fixed point on the ray lam*s each piece is a number times a power
of s, so the point contributes a short series.  It works on columns over
the fixed points, one integer per point: each quantity is one column,
each step maps over whole columns, and each coefficient of the sum is a
dot product over the points.  The tangent Euler class at a point comes
from each block's free coordinates: one weight per coordinate the block
holds and coordinate it could have chosen instead, as the component is a
tower of flag bundles.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, repeat)
from math import factorial, lcm
from operator import add, mul, sub
from typing import Iterator, Mapping, Sequence

from .algebra import ALPHA, Poly, RatFun, VarId, y
from .errors import (DEFAULT_COSET_BUDGET, BudgetExceededError,
                     IntegrationShapeError, SingularSubstitutionError)
from .fixedlocus import (Ledger, assert_block_symmetric, scaled_weights,
                         tangent_euler, torus_fixed_points)
from .tableaux import Tableau, component_dimension


class BlockAlphabet:
    """Ordered, disjoint blocks of letters, the fibre blocks of one flag
    bundle.  In tableau_tower a stage's blocks are the level-i blocks
    followed by a quotient block; in the Grassmannian coset sums they are
    the level-1 blocks alone, with the ambient roots at 0 outside them."""

    def __init__(self, blocks: Sequence[Sequence[VarId]]):
        self.blocks = tuple(tuple(b) for b in blocks if len(b) > 0)
        if not self.blocks:
            raise ValueError("alphabet needs at least one non-empty block")
        letters = [v for b in self.blocks for v in b]
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet blocks must be disjoint")
        self.letters = tuple(letters)

    def coset_count(self) -> int:
        count = factorial(len(self.letters))
        for b in self.blocks:
            count //= factorial(len(b))
        return count

    def check_budget(self, budget: int) -> None:
        count = self.coset_count()
        if count > budget:
            raise BudgetExceededError(
                f"{count} cosets exceed the budget of {budget}")

    def cosets(self, budget: int) -> list[tuple[tuple[VarId, ...], ...]]:
        """Every distribution of the letters into blocks of the blocks'
        sizes, one per coset of the blocks' symmetric groups, each block
        in letter order; the budget is checked before any is built."""
        self.check_budget(budget)
        out = [()]
        for size in map(len, self.blocks):
            out = [done + (chosen,) for done in out
                   for chosen in combinations(
                       [v for v in self.letters
                        if not any(v in block for block in done)], size)]
        return out


def brion_pushforward(p: RatFun, alphabet: BlockAlphabet,
                      budget: int = DEFAULT_COSET_BUDGET) -> RatFun:
    """Push p forward along the flag bundle of the alphabet's blocks: one
    stage of the tower that integrate_to_point climbs.

    This is the coset sum of p over the product of cross-block letter
    differences (lower block subtracted from higher), computed as divided
    differences (f - s_i f) / (x_{i+1} - x_i) along the bubble-sort word
    that moves the blocks into reverse order, first swap first.  Each is
    RatFun arithmetic: the difference is one sum, and multiplying it by
    1 / (x_{i+1} - x_i) cancels that factor into the numerator where it
    divides.
    """
    alphabet.check_budget(budget)
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


def tableau_tower(t: Tableau) -> list[tuple[BlockAlphabet, Poly, dict]]:
    """Fibration tower of a distinguished component, lowest level first,
    one (alphabet, Thom class, letter re-expression) per stage.

    Stage i pushes along the flag bundle of the level-(i+1) tautological
    bundle: its alphabet is the level-i blocks plus a fresh quotient block,
    its Thom class restricts each level-i block below the matching
    level-(i+1) partial flag, and afterwards the letters are re-expressed
    through the level-(i+1) roots, the ambient block's e[1..n] at the top.
    """
    spec = t.spec
    stages = []
    for i in range(1, spec.levels + 1):
        r_next = spec.rank(i + 1)
        quot = [y(i, t.K(i) + 1, k)
                for k in range(1, r_next - spec.rank(i) + 1)]
        alphabet = BlockAlphabet([t.letters(i, j)
                                  for j in range(1, t.K(i) + 1)] + [quot])
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
    """Iterated restrictive push-forward, then ambient roots to zero.

    The last stage re-expresses its letters through the ambient roots
    e[1..n], so the values of its letter map are the roots set to 0.  A
    root variable left after that is not the component's: an error."""
    for alphabet, omega, letter_map in tower:
        p = brion_pushforward(p * omega, alphabet, budget)
        p = p.substitute(letter_map)
    p = p.substitute(dict.fromkeys(letter_map.values(), 0))
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
                 seed: int = 0, check_symmetry: bool = True,
                 normal: Ledger | None = None,
                 exp: Mapping[VarId, Poly] | None = None) -> RatFun:
    """Torus fixed-point integral of p * exp / e(normal) over the
    component, from one pass over the fixed points, after checking that p
    is symmetric in the letters of each block (unless check_symmetry is
    False).

    The integrand stays factored: p is a RatFun, normal a ledger whose
    equivariant Euler class divides the integrand, and exp = {t_i: H_i}
    the exponential of sum_i t_i*H_i, with each H_i a root form.  Every
    root variable of p must be one of the component's letters, every
    denominator factor of p a root form plus a multiple of alpha, and
    every ledger term must have a non-zero weight.  The exponential is
    truncated at the series order, the component dimension plus the
    orders of the alpha-free poles: a t-monomial of higher degree brings
    a higher power of s, which never reaches the s^0 coefficient.

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
    values, the series of the factors, the exp products and the numerator
    values are columns over the fixed points; only the tangent Euler
    class is taken point by point, as the product of the weights between
    each block's coordinates and the other coordinates it could have
    chosen (tangent_euler).

    The negative powers of s must cancel over the points.  A vanishing
    alpha-free denominator factor or a surviving pole means non-generic
    weights (or a genuine pole); fresh weights are drawn from the seed
    sequence up to MAX_RETRIES times.  The sum runs in integers over one
    common denominator, and one Fraction is built per coefficient of the
    result.
    """
    if check_symmetry:
        assert_block_symmetric(p, [t.letters(i, j)
                                   for i in range(1, t.levels + 1)
                                   for j in range(1, t.K(i) + 1)])
    n = t.spec.n
    if len(set(lam)) != len(lam):
        raise ValueError("torus weights must be pairwise distinct")
    if len(lam) != n:
        raise ValueError("one torus weight per coordinate is required")
    num = p.num
    if num.is_zero():
        return RatFun.const(0)
    # The roots: every block's letters, the ambient block's last.  At a
    # point, the k-th letter of block (i, j) sits on coordinate
    # point[(i, j)][k - 1], so the point's root values are one list.
    blocks = {(i, j): t.letters(i, j) for i in range(1, t.levels + 2)
              for j in range(1, t.K(i) + 1)}
    slots = [(block, k) for block, vs in blocks.items()
             for k in range(len(vs))]
    root_order = [v for vs in blocks.values() for v in vs]
    at = {v: i for i, v in enumerate(root_order)}
    foreign = sorted(v for v in num.variables() - at.keys()
                     if v.kind in (0, 1))
    if foreign:
        raise IntegrationShapeError(
            f"root variables {foreign} are not the component's")

    constant = Fraction(1)
    poles, shifts = [], []  # factors with w = 0; with w != 0
    order = component_dimension(t)
    alpha_shift = 0  # alpha-degree of the w != 0 factors
    for f, e in p.den.items():
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
    # vectors m of the t-monomials it reaches, by total degree, each with
    # the integer D!/prod(m_i!) h^(D-|m|), D the order if there is an exp.
    # Each m but the first is an earlier one, its step's parent, times t_i,
    # i its last non-zero part.
    hyperplanes = exp or {}
    exp_degree = order if hyperplanes else 0
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
    comps, lasts = [(0,) * len(forms)], [0]
    coefs = [factorial(exp_degree) * h ** exp_degree]
    steps = []
    start = 0
    for _ in range(exp_degree):
        end = len(comps)
        for parent in range(start, end):
            m = comps[parent]
            for i in range(lasts[parent], len(m)):
                comps.append(m[:i] + (m[i] + 1,) + m[i + 1:])
                lasts.append(i)
                steps.append((parent, i))
                coefs.append(coefs[parent] // (h * (m[i] + 1)))
        start = end
    constant /= coefs[0]

    # Root monomials of the numerator, in one table: root monomial i > 0
    # is root monomial recipe[i-1][0] times the root at index
    # recipe[i-1][1], so a point evaluates each with one product.
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
    # the cells (j, k, m, key, c) of a point's factor series, in order of
    # j: u^k times the exp part at m, of s-degree j = k + |m|, with
    # alpha^-k and the integer c = coefs[m] * b^(order - k); without
    # w != 0 factors the series in u is its constant term
    tfields = [fields[others.index(v)] for v in tvars]
    b_powers = [b ** (order - k) for k in range(order + 1)]
    top_u = order if shifts else 0
    keys = [0]
    for parent, i in steps:
        keys.append(keys[parent] + (1 << tfields[i]))
    cells = []
    for mi, (m, key, c) in enumerate(zip(comps, keys, coefs)):
        size = sum(m)
        cells += [(k + size, k, mi, key - (k << alpha_at), c * b_powers[k])
                  for k in range(min(order - size, top_u) + 1)]
    cells.sort()

    points = torus_fixed_points(t)
    for attempt in range(MAX_RETRIES + 1):
        try:
            common, row = _ray_series_sums(
                t, points, lam, slots, poles, shifts, order, recipe,
                groups, forms, steps, cells)
            break
        except SingularSubstitutionError:
            if attempt == MAX_RETRIES:
                raise
            lam = lam_vector(n, seed=seed + 1001 + attempt)
    mask = (1 << width) - 1
    scale = constant / common
    terms = {(tuple((key >> sh) & mask for sh in fields),
              (key >> alpha_at) + alpha_shift): c * scale
             for key, c in row.items() if c}
    # clear negative powers of alpha; then some term is free of alpha, so
    # the result is in lowest terms
    raise_by = max([0] + [-a for _, a in terms])
    return RatFun(
        Poly.from_exponents(others + [ALPHA],
                            {rest + (a + raise_by,): c
                             for (rest, a), c in terms.items()}),
        {Poly.var(ALPHA): raise_by} if raise_by else {})


def _scaled(c, den: int) -> int:
    """The integer c * den, for an int or Fraction c whose denominator
    divides den."""
    return c.numerator * (den // c.denominator)


def _ray_series_sums(t: Tableau, points, lam, slots, poles, shifts,
                     order: int, recipe, groups, forms, steps,
                     cells) -> tuple[int, dict]:
    """(common, the s^0 row {key: integer}), once the rows of negative
    powers of s are checked to vanish.

    With lam = weights / scale every power of s comes with one power of
    1/scale, so the rows are computed at the integer weights: the s^0 row
    is the same, and the others are scaled, which keeps their zero test
    exact.  A point's share is 1 / top: top is the tangent Euler class,
    an integer product over each block's free coordinates, times the
    alpha-free denominator factors, as integers over a fixed g.  A factor
    with w != 0 multiplies or divides the series in u by 1 + x*u with
    x = X / b for a fixed b, so the u^k coefficient is an integer over
    b^k, which a cell's integer brings to b^order.  The shares are summed
    over the least common multiple `common` of their denominators.

    Every per-point quantity is a column, one integer per fixed point: the
    root values, the pole deltas, each power of u of the series, the exp
    products, the root monomials and the group values.  Each step maps
    over whole columns, and each cell adds one dot product over the points
    to its row.  Only the tangent Euler class is taken point by point,
    since each block's free coordinates depend on the point.
    """
    weights, _ = scaled_weights(lam)
    size = len(points)
    values = [[weights[point[block][k] - 1] for point in points]
              for block, k in slots]
    tops = [tangent_euler(t, point, weights) for point in points]
    for coeffs, e in poles:
        delta = _combination(values, coeffs, size)
        if not all(delta):
            raise SingularSubstitutionError(
                "an alpha-free denominator factor vanished at a point")
        tops = [top * v ** e for top, v in zip(tops, delta)]
    common = lcm(*tops)
    series = [[common // top for top in tops]]
    series += [[0] * size for _ in range(order)]
    for coeffs, e in shifts:
        x = _combination(values, coeffs, size)
        if not any(x):
            continue
        for _ in range(e):  # multiply by 1 + x*u
            for k in range(order, 0, -1):
                series[k] = list(map(add, series[k],
                                     map(mul, x, series[k - 1])))
        for _ in range(-e):  # divide by 1 + x*u
            for k in range(1, order + 1):
                series[k] = list(map(sub, series[k],
                                     map(mul, x, series[k - 1])))
    cs = [_combination(values, form, size) for form in forms]
    products = [[1] * size]
    for parent, i in steps:
        products.append(list(map(mul, products[parent], cs[i])))
    monos = [[1] * size]
    for parent, i in recipe:
        monos.append(list(map(mul, monos[parent], values[i])))
    rows = [defaultdict(int) for _ in range(order + 1)]
    for (key, degree), items in groups.items():
        value = _combination(monos, items, size)
        if not any(value):
            continue
        room = order - degree
        # the share times the group value, per power of u
        parts = [list(map(mul, value, column)) if any(column) else None
                 for column in series[:room + 1]]
        for j, k, mi, kf, c in cells:
            if j > room:
                break
            if parts[k] is not None:
                rows[degree + j][key + kf] += c * sum(
                    map(mul, parts[k], products[mi]))
    if any(any(row.values()) for row in rows[:order]):
        raise SingularSubstitutionError(
            "poles in the ray parameter do not cancel over the fixed points")
    return common, rows[order]


def _combination(columns: list[list[int]], coeffs, size: int) -> list[int]:
    """The column sum(a * columns[i]) over (i, a) in coeffs."""
    out = [0] * size
    for i, a in coeffs:
        out = list(map(add, out, map(mul, columns[i], repeat(a))))
    return out


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of `parts` non-negative integers summing to `total`,
    each counted out of one multiset of part indices; with no parts, one
    empty tuple for a total of 0 and none above."""
    for combo in combinations_with_replacement(range(parts), total):
        exps = [0] * parts
        for k in combo:
            exps[k] += 1
        yield tuple(exps)


def complete_homogeneous(degree: int, roots: Sequence[VarId]) -> Poly:
    """h_degree: sum of all monomials of the given degree in the roots,
    one per weak composition of the degree into len(roots) parts."""
    if degree < 0:
        return Poly.zero()
    return Poly.from_exponents(
        roots, dict.fromkeys(weak_compositions(degree, len(roots)), 1))


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
