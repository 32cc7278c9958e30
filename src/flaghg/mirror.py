"""Localization integrals, the Grassmannian hypergeometric class, and the
product-of-projective-spaces comparison.

The degree-d integral over a flag manifold is the sum over distinguished
tableaux of the truncated exponential of the pulled-back hyperplane
classes against the inverse normal Euler class, integrated by the
fixed-point oracle.  The oracle receives the two factored, the Euler class
as the tableau's normal ledger and the exponential as its hyperplane
classes, and never expands their product.  For Grassmannians the degree-d
class is pushed forward over tableaux and must cancel the simplified
display's terms exactly.  It is also checked against the antisymmetrized
product of projective-space series (the display through the one-row
classes) by one sum per degree, the product's undivided terms minus the
class times the Vandermonde; only a non-zero sum is divided and paired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from math import prod

from .algebra import (ALPHA, LinearProduct, Poly, RatFun, VarId, exp_series,
                      kahler, ratfun_sum, y)
from .errors import FormulaMismatchError
from .fixedlocus import (canonical_roots, euler_class_from_ledger,
                         normal_ledger)
from .pushforward import (DEFAULT_COSET_BUDGET, BlockAlphabet, ab_integrate,
                          brion_pushforward, lam_vector, schur_polynomial,
                          weak_compositions)
from .tableaux import (FlagSpec, Tableau, component_dimension,
                       enumerate_tableaux)


def hyperplane_pullback(t: Tableau, level: int) -> Poly:
    """Pullback of the level's linearized hyperplane class: the negated sum
    of all level roots."""
    return Poly.linear(0, {v: -1 for j in range(1, t.K(level) + 1)
                           for v in t.letters(level, j)})


def zero_tableau(spec: FlagSpec) -> Tableau:
    zero_spec = FlagSpec(spec.n, spec.ranks, (0,) * spec.levels)
    return Tableau(zero_spec, tuple((0,) * r for r in spec.ranks))


def x_roots(spec: FlagSpec) -> list[VarId]:
    """Root variables of the manifold itself (zero-tableau convention)."""
    return [y(1, 1, k) for k in range(1, spec.rank(1) + 1)]


def mirror_integrand(t: Tableau) -> RatFun:
    """exp(sum_i t_i * pulled-back hyperplane), truncated at the component
    dimension, over the normal Euler class, multiplied out; integral_Id
    hands the same pieces to the oracle unexpanded."""
    dim = component_dimension(t)
    exponent = Poly.zero()
    for i in range(1, t.spec.levels + 1):
        exponent = exponent + hyperplane_pullback(t, i) * Poly.var(kahler(i))
    inverse_euler = euler_class_from_ledger(
        normal_ledger(t).negated(), canonical_roots(t))
    return RatFun.from_poly(exp_series(exponent, dim)) * inverse_euler


def _alpha_only_denominator(f: RatFun) -> bool:
    return all(factor.variables() <= {ALPHA} for factor in f.den)


def decompose_by_kahler(f: RatFun, levels: int):
    """Split a result into {t-exponent tuple: coefficient RatFun in alpha}."""
    if not _alpha_only_denominator(f):
        raise ValueError("expected a pure alpha denominator")
    tvars = [kahler(i) for i in range(1, levels + 1)]
    others = sorted(f.num.variables() - set(tvars))
    parts: dict[tuple, dict] = {}
    for exps, c in f.num.exponents(tvars + others).items():
        parts.setdefault(exps[:levels], {})[exps[levels:]] = c
    return {key: RatFun(Poly.from_exponents(others, part), f.den)
            for key, part in sorted(parts.items())}


@dataclass
class IntegralResult:
    """Total localization integral plus the per-tableau breakdown."""

    spec: FlagSpec
    value: RatFun
    per_tableau: list[tuple[Tableau, RatFun]]
    lambda_seed: int

    def t_degree(self) -> int:
        return max(map(sum, decompose_by_kahler(self.value,
                                                self.spec.levels)),
                   default=0)

    def to_json(self):
        levels = self.spec.levels
        return {
            "schema": "flaghg/result-v1",
            "spec": self.spec.to_json(),
            "degree": list(self.spec.degrees),
            "t_poly": [
                {"t_exp": list(texp), "alpha_ratfun": coeff.to_text()}
                for texp, coeff in decompose_by_kahler(self.value,
                                                       levels).items()
            ],
            "per_tableau": {
                repr([list(r) for r in t.rows]): contrib.to_text()
                for t, contrib in self.per_tableau
            },
            "lambda_seed": self.lambda_seed,
        }


def integral_Id(spec: FlagSpec, lambda_seed: int = 0) -> IntegralResult:
    """Sum the localization integral over all distinguished tableaux; each
    tableau's exp goes to the oracle as its hyperplane classes and its
    inverse normal Euler class as its normal ledger, never multiplied out."""
    lam = lam_vector(spec.n, lambda_seed)
    per_tableau = []
    for t in enumerate_tableaux(spec):
        hyperplanes = {kahler(i): hyperplane_pullback(t, i)
                       for i in range(1, spec.levels + 1)}
        contribution = ab_integrate(
            t, None, lam, lambda_seed, normal=normal_ledger(t),
            exp=(hyperplanes, component_dimension(t)))
        per_tableau.append((t, contribution))
    total = ratfun_sum([contribution for _, contribution in per_tableau])
    if not _alpha_only_denominator(total):
        raise FormulaMismatchError(
            "integral denominator is not a pure alpha power")
    return IntegralResult(spec, total, per_tableau, lambda_seed)


def _grassmannian_term_tableau_route(n: int, r: int, d: int,
                                     budget: int) -> RatFun:
    spec = FlagSpec(n, (r,), (d,))
    xs = x_roots(spec)
    terms = []
    for t in enumerate_tableaux(spec):
        blocks = [xs[t.r(1, j - 1):t.r(1, j)] for j in range(1, t.K(1) + 1)]
        roots = {(1, j): [Poly.var(v) for v in block]
                 for j, block in enumerate(blocks, 1)}
        roots[(2, 1)] = [Poly.zero()] * n
        inverse_euler = euler_class_from_ledger(normal_ledger(t).negated(),
                                                roots)
        terms.append(brion_pushforward(inverse_euler, BlockAlphabet(blocks),
                                       budget))
    return ratfun_sum(terms)


def _grassmannian_display_terms(n: int, r: int, d: int) -> list[RatFun]:
    """The simplified display's terms in lowest terms, one per weak
    composition c of d: (-1)^((r-1)d) prod_{j<j'} (x_j' - x_j + (c_j' -
    c_j)*alpha) / (x_j' - x_j) * prod_j prod_{l<=c_j} (-x_j - l*alpha)^-n."""
    xs = [Poly.var(y(1, 1, k)) for k in range(1, r + 1)]
    alpha = Poly.var(ALPHA)
    terms = []
    for comp in weak_compositions(d, r):
        term = LinearProduct((-1) ** ((r - 1) * d))
        for j, jp in combinations(range(r), 2):
            term.mul_factor(xs[jp] - xs[j] + alpha * (comp[jp] - comp[j]))
            term.mul_factor(xs[jp] - xs[j], -1)
        for j in range(r):
            for l in range(1, comp[j] + 1):
                term.mul_factor(-xs[j] - alpha * l, -n)
        terms.append(term.to_ratfun())
    return terms


def grassmannian_hg_term(n: int, r: int, d: int,
                         budget: int = DEFAULT_COSET_BUDGET) -> RatFun:
    """The degree-d hypergeometric class on a Grassmannian, pushed from the
    tableaux in the target roots x_1..x_r (so nothing is renamed) and
    checked against the simplified display: its terms minus the pushed
    class must sum to exactly zero, so the display is never normalized."""
    via_tableaux = _grassmannian_term_tableau_route(n, r, d, budget)
    terms = _grassmannian_display_terms(n, r, d) + [-via_tableaux]
    if not ratfun_sum(terms).is_zero():
        raise FormulaMismatchError(
            f"hypergeometric routes disagree at (n={n}, r={r}, d={d})")
    return via_tableaux


def box_partitions(r: int, cols: int) -> list[tuple[int, ...]]:
    """Partitions fitting in an r x cols box, padded to length r, sorted:
    each is a multiset of r parts from cols down to 0, non-increasing."""
    return sorted(combinations_with_replacement(range(cols, -1, -1), r))


def box_complement(mu: tuple[int, ...], r: int, cols: int) -> tuple[int, ...]:
    padded = list(mu) + [0] * (r - len(mu))
    return tuple(cols - padded[r - 1 - i] for i in range(r))


def schur_pairing(spec: FlagSpec, cls: RatFun, mu,
                  lambda_seed: int = 0) -> RatFun:
    """Integrate cls * s_mu over the manifold by the fixed-point oracle,
    s_mu the Schur polynomial of mu in the x roots."""
    lam = lam_vector(spec.n, lambda_seed)
    s_mu = schur_polynomial(mu, x_roots(spec))
    return ab_integrate(zero_tableau(spec), cls * s_mu, lam, lambda_seed,
                        check_symmetry=False)


def reconstruct_class_from_pairings(n: int, r: int, pairings) -> RatFun:
    """The unique class on the Grassmannian with the given Schur pairings,
    in the dual Schur basis."""
    cols = n - r
    expected = box_partitions(r, cols)
    keys = {tuple(list(mu) + [0] * (r - len(mu))) for mu in pairings}
    if keys != set(expected):
        raise ValueError(
            "pairings must cover exactly the partitions in the box")
    normalized = {
        tuple(list(mu) + [0] * (r - len(mu))): value
        for mu, value in pairings.items()
    }
    roots = [y(1, 1, k) for k in range(1, r + 1)]
    return ratfun_sum([normalized[box_complement(nu, r, cols)]
                       * schur_polynomial(nu, roots) for nu in expected])


@dataclass
class HoriVafaReport:
    """Per-degree, per-partition residuals of the antisymmetrization check."""

    n: int
    r: int
    max_degree: int
    division_exact: bool
    residuals: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.division_exact and all(
            all(c == "0" for c in entry["residual_c_coeffs"])
            for entry in self.residuals
        )

    def to_json(self):
        return {
            "schema": "flaghg/hori-vafa-v1",
            "n": self.n,
            "r": self.r,
            "max_degree": self.max_degree,
            "division_exact": self.division_exact,
            "ok": self.ok,
            "residuals": self.residuals,
        }


def _antisymmetrized_terms(r: int, d: int,
                           one_row: list[list[RatFun]]) -> list[RatFun]:
    """The antisymmetrized product of projective-space series in degree d,
    times the Vandermonde prod_{j<j'} (x_j' - x_j), as one term per weak
    composition c of d: (-1)^((r-1)d) prod_i one_row[c_i][i] prod_{j<j'}
    (x_j' - x_j + (c_j' - c_j)*alpha), the shifted Vandermonde being the
    derivative operator on the product.  one_row[k][i] is the one-row
    class of degree k in x_{i+1}; the classes of distinct roots share no
    factor, so a term's denominator is the product of theirs and nothing
    cancels."""
    xs = [Poly.var(y(1, 1, k)) for k in range(1, r + 1)]
    alpha = Poly.var(ALPHA)
    terms = []
    for comp in weak_compositions(d, r):
        num = Poly.const((-1) ** ((r - 1) * d))
        den: dict[Poly, int] = {}
        for i, k in enumerate(comp):
            cls = one_row[k][i]
            num = num * cls.num
            for f, e in cls.den.items():
                den[f] = den.get(f, 0) + e
        for j, jp in combinations(range(r), 2):
            num = num * (xs[jp] - xs[j] + alpha * (comp[jp] - comp[j]))
        terms.append(RatFun(num, den, _normalized=True))
    return terms


def hori_vafa_verify(n: int, r: int, max_degree: int, lambda_seed: int = 0,
                     budget: int = DEFAULT_COSET_BUDGET) -> HoriVafaReport:
    """Check that antisymmetrizing the product of projective-space series
    reproduces the Grassmannian series against every Schur polynomial.

    The rank-r class is the tableau route's alone: the antisymmetrized
    product is the rank-r display.  Per degree, the antisymmetrized terms
    minus the class times the Vandermonde V are summed once; a zero sum
    needs no division and pairs to zero.  Only a non-zero sum is divided
    by V's factors, giving the difference of the two classes (a failed
    division is reported), which is paired with each Schur polynomial of
    the box: by linearity each pairing is the residual of the two classes'
    pairings.
    """
    if not (2 <= r < n):
        raise ValueError("need 2 <= r < n")
    if max_degree < 1:
        raise ValueError("truncation degree must be at least 1")
    spec = FlagSpec(n, (r,), (0,))
    dim_x = r * (n - r)
    one_row = [[cls.substitute({y(1, 1, 1): v}) for v in x_roots(spec)]
               for cls in (grassmannian_hg_term(n, 1, k, budget)
                           for k in range(max_degree + 1))]
    xs = [Poly.var(v) for v in x_roots(spec)]
    vandermonde = [xs[jp] - xs[j] for j, jp in combinations(range(r), 2)]
    v_product = prod(vandermonde)

    report = HoriVafaReport(n, r, max_degree, True)
    for d in range(max_degree + 1):
        lhs = _grassmannian_term_tableau_route(n, r, d, budget)
        diff = ratfun_sum(_antisymmetrized_terms(r, d, one_row) + [
            RatFun(-lhs.num * v_product, lhs.den, _normalized=True)])
        num = diff.num
        for factor in vandermonde if num.terms else ():
            num = num.divide_by_linear(factor)
            if num is None:
                break
        if num is None:
            report.division_exact = False
            report.residuals.append({
                "degree": d,
                "partition": None,
                "residual_c_coeffs": ["division by the Vandermonde failed"],
            })
            continue
        diff = RatFun(num, diff.den, _normalized=True)
        for mu in box_partitions(r, n - r):
            residual = (RatFun.const(0) if diff.is_zero()
                        else schur_pairing(spec, diff, mu, lambda_seed))
            report.residuals.append({
                "degree": d,
                "partition": list(mu),
                "residual_c_coeffs": [residual.to_text()] + ["0"] * dim_x,
            })
    return report
