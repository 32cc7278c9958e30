"""Localization integrals, the Grassmannian hypergeometric class, and the
product-of-projective-spaces comparison.

The degree-d integral over a flag manifold is the sum over distinguished
tableaux of the truncated exponential of the pulled-back hyperplane
classes against the inverse normal Euler class, integrated by the
fixed-point oracle.  The oracle receives the two factored, the Euler class
as the tableau's normal ledger and the exponential as its hyperplane
classes, and never expands their product.  For Grassmannians the degree-d
class is pushed forward from each tableau as its coset terms, one
factored product per coset of the tableau's block alphabet.  The
simplified display sums over the same fixed points, so its terms minus
the coset terms cancel pair by pair in ratfun_sum, which adds the
numerators of equal denominators first: the check expands nothing.  The
display is the antisymmetrized product of projective-space series over
the Vandermonde (the Hori-Vafa formula, proved by Bertram,
Ciocan-Fontanine and Kim), so the product-of-projective-spaces
comparison takes the same difference per degree and pairs it with the
Schur polynomials only when it is non-zero.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, combinations_with_replacement

from .algebra import (ALPHA, LinearProduct, Poly, RatFun, VarId, exp_series,
                      kahler, ratfun_sum, y)
from .errors import FormulaMismatchError
from .fixedlocus import (canonical_roots, euler_class_from_ledger,
                         euler_product_from_ledger, normal_ledger)
from .pushforward import (DEFAULT_COSET_BUDGET, BlockAlphabet, ab_integrate,
                          lam_vector, schur_polynomial, weak_compositions)
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


class IntegralResult(namedtuple("IntegralResult", (
        "spec", "value", "per_tableau", "lambda_seed"))):
    """Total localization integral plus the per-tableau breakdown, a list
    of (Tableau, RatFun) pairs."""

    __slots__ = ()

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
            t, RatFun.const(1), lam, lambda_seed, normal=normal_ledger(t),
            exp=hyperplanes)
        per_tableau.append((t, contribution))
    total = ratfun_sum([contribution for _, contribution in per_tableau])
    if not _alpha_only_denominator(total):
        raise FormulaMismatchError(
            "integral denominator is not a pure alpha power")
    return IntegralResult(spec, total, per_tableau, lambda_seed)


def _coset_terms(t: Tableau, budget: int) -> list[LinearProduct]:
    """The push-forward of a Grassmannian tableau's inverse normal Euler
    class to the target roots x_1..x_r (so nothing is renamed), as one
    factored term per coset of its block alphabet, in the order of
    BlockAlphabet.cosets: the inverse Euler class with the blocks at the
    coset's letters and the ambient roots at 0, over x_b - x_a for each
    letter a of a lower block and b of a higher one.  This is the coset
    sum that brion_pushforward computes by divided differences, with
    nothing expanded; the cosets are counted against the budget before
    any is built."""
    xs = x_roots(t.spec)
    letters = {v: Poly.var(v) for v in xs}
    alphabet = BlockAlphabet([xs[t.r(1, j - 1):t.r(1, j)]
                              for j in range(1, t.K(1) + 1)])
    inverse = normal_ledger(t).negated()
    terms = []
    for coset in alphabet.cosets(budget):
        roots = {(1, j): [letters[v] for v in block]
                 for j, block in enumerate(coset, 1)}
        roots[(2, 1)] = [Poly.zero()] * t.spec.n
        term = euler_product_from_ledger(inverse, roots)
        for j, lower in enumerate(coset):
            for higher in coset[j + 1:]:
                for a in lower:
                    for b in higher:
                        term.mul_factor(letters[b] - letters[a], -1)
        terms.append(term)
    return terms


def _grassmannian_tableau_terms(n: int, r: int, d: int,
                                budget: int) -> list[list[LinearProduct]]:
    """The degree-d class by the tableau route: the coset terms of each
    distinguished tableau, one list per tableau."""
    return [_coset_terms(t, budget)
            for t in enumerate_tableaux(FlagSpec(n, (r,), (d,)))]


def _grassmannian_display_products(n: int, r: int,
                                   d: int) -> list[LinearProduct]:
    """The simplified display's terms, one per weak composition c of d:
    (-1)^((r-1)d) prod_{j<j'} (x_j' - x_j + (c_j' - c_j)*alpha) / (x_j' -
    x_j) * prod_j prod_{l<=c_j} (-x_j - l*alpha)^-n."""
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
        terms.append(term)
    return terms


def _grassmannian_display_terms(n: int, r: int, d: int) -> list[RatFun]:
    """The simplified display's terms in lowest terms."""
    return [term.to_ratfun()
            for term in _grassmannian_display_products(n, r, d)]


def _display_minus_tableau(n: int, r: int, d: int, budget: int
                           ) -> tuple[RatFun, list[list[RatFun]]]:
    """The display's terms minus the tableau route's coset terms, summed
    once, and the coset terms in lowest terms, one list per tableau.  Both
    are sums over the same fixed points, so when the routes agree their
    terms cancel in pairs inside ratfun_sum and nothing is expanded."""
    per_tableau = [[term.to_ratfun() for term in coset_terms]
                   for coset_terms
                   in _grassmannian_tableau_terms(n, r, d, budget)]
    difference = ratfun_sum(_grassmannian_display_terms(n, r, d) + [
        -term for coset_terms in per_tableau for term in coset_terms])
    return difference, per_tableau


def _agreeing_coset_terms(n: int, r: int, d: int,
                          budget: int) -> list[list[RatFun]]:
    """The tableau route's coset terms, one list per tableau, once the
    display's terms minus them sum to exactly zero; FormulaMismatchError
    if they do not."""
    difference, per_tableau = _display_minus_tableau(n, r, d, budget)
    if not difference.is_zero():
        raise FormulaMismatchError(
            f"hypergeometric routes disagree at (n={n}, r={r}, d={d})")
    return per_tableau


def grassmannian_hg_term(n: int, r: int, d: int,
                         budget: int = DEFAULT_COSET_BUDGET) -> RatFun:
    """The degree-d hypergeometric class on a Grassmannian, the sum of the
    tableau route's coset terms, checked against the simplified display:
    the display's terms minus the coset terms must sum to exactly zero,
    or FormulaMismatchError is raised.  The class is summed tableau by
    tableau, as each tableau's sum is symmetric and so free of the
    cross-block factors its coset terms carry."""
    return ratfun_sum([ratfun_sum(coset_terms) for coset_terms
                       in _agreeing_coset_terms(n, r, d, budget)])


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
    padded = {tuple(mu) + (0,) * (r - len(mu)): value
              for mu, value in pairings.items()}
    if len(padded) != len(pairings):
        raise ValueError("two pairings are given for one partition")
    if padded.keys() != set(expected):
        raise ValueError(
            "pairings must cover exactly the partitions in the box")
    roots = [y(1, 1, k) for k in range(1, r + 1)]
    return ratfun_sum([padded[box_complement(nu, r, cols)]
                       * schur_polynomial(nu, roots) for nu in expected])


class HoriVafaReport(namedtuple("HoriVafaReport", (
        "n", "r", "max_degree", "residuals"))):
    """Per-degree, per-partition residuals of the display against the
    tableau route.  Each difference is one exact sum that divides nothing,
    so the hori-vafa-v1 report's division_exact key is always true."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(all(c == "0" for c in entry["residual_c_coeffs"])
                   for entry in self.residuals)

    def to_json(self):
        return {
            "schema": "flaghg/hori-vafa-v1",
            "n": self.n,
            "r": self.r,
            "max_degree": self.max_degree,
            "division_exact": True,
            "ok": self.ok,
            "residuals": self.residuals,
        }


def hori_vafa_verify(n: int, r: int, max_degree: int, lambda_seed: int = 0,
                     budget: int = DEFAULT_COSET_BUDGET) -> HoriVafaReport:
    """Check that antisymmetrizing the product of projective-space series
    reproduces the Grassmannian series against every Schur polynomial.

    The projective-space series are the one-row classes, so each degree's
    display of rank 1 is first checked against the tableau route, as
    grassmannian_hg_term checks it (a mismatch raises
    FormulaMismatchError); the classes themselves are not summed.
    The display of rank r is the antisymmetrized product of those
    displays over the Vandermonde, so per degree the display's terms minus
    the tableau route's coset terms are summed once, as
    grassmannian_hg_term sums them.  A zero difference pairs to zero with
    nothing expanded; only a non-zero one is paired with each Schur
    polynomial of the box, and by linearity each pairing is the residual
    of the two classes' pairings.
    """
    if not (2 <= r < n):
        raise ValueError("need 2 <= r < n")
    if max_degree < 1:
        raise ValueError("truncation degree must be at least 1")
    for k in range(max_degree + 1):
        _agreeing_coset_terms(n, 1, k, budget)
    spec = FlagSpec(n, (r,), (0,))
    dim_x = r * (n - r)
    report = HoriVafaReport(n, r, max_degree, [])
    for d in range(max_degree + 1):
        difference, _ = _display_minus_tableau(n, r, d, budget)
        for mu in box_partitions(r, n - r):
            residual = (RatFun.const(0) if difference.is_zero()
                        else schur_pairing(spec, difference, mu, lambda_seed))
            report.residuals.append({
                "degree": d,
                "partition": list(mu),
                "residual_c_coeffs": [residual.to_text()] + ["0"] * dim_x,
            })
    return report
