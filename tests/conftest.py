"""Shared suite generators, random-input helpers and the benchmark's job
module."""

from __future__ import annotations

import itertools
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from flaghg.algebra import LinearProduct, Poly, RatFun, ratfun_sum
from flaghg.errors import DEFAULT_COSET_BUDGET
from flaghg.fixedlocus import canonical_roots, point_blocks
from flaghg.mirror import decompose_by_kahler
from flaghg.pushforward import complete_homogeneous
from flaghg.tableaux import FlagSpec, Tableau


BENCH = Path(__file__).resolve().parent.parent / "bench"

# 60 times the torus weights 1/2, 2/3, -3/5, 7/4: integers with pairwise
# different factors, one of them negative
MIXED_LAM = [30, 40, -36, 105]


def all_specs(n_max: int, degree_sum_max: int, levels_max: int = 3):
    """Every FlagSpec with n <= n_max, I <= levels_max, sum(d) <= degree_sum_max."""
    for n in range(2, n_max + 1):
        for levels in range(1, min(levels_max, n - 1) + 1):
            for ranks in itertools.combinations(range(1, n), levels):
                for degrees in itertools.product(
                        range(degree_sum_max + 1), repeat=levels):
                    if sum(degrees) <= degree_sum_max:
                        yield FlagSpec(n, ranks, degrees)


def total_degree(p: Poly) -> int:
    """The greatest total degree of p's monomials, 0 for a constant."""
    return max((sum(e for _, e in mono) for mono, _ in p.sorted_terms()),
               default=0)


def t_degree(result) -> int:
    """The greatest total degree in the Kahler variables t_i of an
    IntegralResult's value."""
    return max(map(sum, decompose_by_kahler(result.value,
                                            result.spec.levels)),
               default=0)


def as_blocks(t: Tableau, point: tuple[int, ...]) -> dict:
    """A torus fixed point as {block: its sorted coordinates}, cut from the
    flat tuple in fixedlocus's block order."""
    out, start = {}, 0
    for block in point_blocks(t):
        out[block] = point[start:start + t.m(*block)]
        start += t.m(*block)
    return out


def zero_ambient_roots(t: Tableau) -> dict:
    """canonical_roots(t) with the ambient roots e[1..n] set to 0."""
    return {**canonical_roots(t), (t.levels + 1, 1): [Poly.zero()] * t.spec.n}


def max_rule_index(t: Tableau, i: int, j: int) -> int:
    """I_A(i, j) by its definition: the largest k with a(i+1, k) <= a(i, j),
    0 when no block qualifies or j = 0."""
    if j == 0:
        return 0
    return max((k for k in range(1, t.K(i + 1) + 1)
                if t.a(i + 1, k) <= t.a(i, j)), default=0)


@st.composite
def small_polys(draw, variables, degree: int = 3, terms: int = 4) -> Poly:
    """A sum of `terms` monomials, each a/b (|a| <= 4, 1 <= b <= 3) times
    at most `degree` of the variables, with repetition."""
    out = Poly.zero()
    for _ in range(terms):
        term = Poly.const(Fraction(draw(st.integers(-4, 4)),
                                   draw(st.integers(1, 3))))
        for v in draw(st.lists(st.sampled_from(variables), max_size=degree)):
            term = term * Poly.var(v)
        out = out + term
    return out


def random_block_symmetric(t: Tableau, rng: random.Random,
                           degree_cap: int) -> Poly:
    """A random product of complete homogeneous pieces, one per block."""
    out = Poly.const(rng.randint(1, 3))
    budget = degree_cap
    for i in range(1, t.levels + 1):
        for j in range(1, t.K(i) + 1):
            k = rng.randint(0, max(0, min(3, budget)))
            budget -= k
            out = out * complete_homogeneous(k, t.letters(i, j))
    return out


def summed(per_tableau) -> RatFun:
    """The class of the tableau route's terms, lists of LinearProducts, in
    lowest terms."""
    return ratfun_sum([term.to_ratfun() for terms in per_tableau
                       for term in terms])


def monomial_products(f: RatFun) -> list[LinearProduct]:
    """f as a sum of LinearProducts, one per monomial of its numerator:
    the coefficient times the monomial's variables over f's factors."""
    variables = sorted(f.num.variables())
    out = []
    for exps, c in f.num.exponents(variables).items():
        term = LinearProduct(c)
        for v, e in zip(variables, exps):
            term.mul_factor(Poly.var(v), e)
        for g, e in f.den.items():
            term.mul_factor(g, -e)
        out.append(term)
    return out


def shift_tableau_route(monkeypatch, extra, min_rank=2):
    """Append extra, as one more list of terms (one LinearProduct per
    numerator monomial), to the Grassmannian tableau route's terms of
    every rank >= min_rank, and return the shifted class as a function of
    (n, r, d)."""
    from flaghg import mirror

    original = mirror._grassmannian_tableau_terms

    def shifted(n, r, d, budget=DEFAULT_COSET_BUDGET):
        terms = original(n, r, d, budget)
        return terms + [monomial_products(extra)] if r >= min_rank \
            else terms

    monkeypatch.setattr(mirror, "_grassmannian_tableau_terms", shifted)
    return lambda n, r, d: summed(shifted(n, r, d))


@pytest.fixture(scope="module")
def jobs():
    """bench/jobs.py run from its source into a registered module (its
    dataclass looks the module up), so nothing is written next to it."""
    path = BENCH / "jobs.py"
    module = types.ModuleType("bench_jobs")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]
