import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flaghg import algebra
from flaghg.algebra import (ALPHA, LinearProduct, Poly, RatFun, ambient,
                            exp_series, kahler, ratfun_normalize, y)
from flaghg.errors import SingularSubstitutionError, ZeroDenominatorError

import tuple_poly
from conftest import small_polys, total_degree

Y = Poly.var(y(1, 1, 1))
A = Poly.var(ALPHA)


def test_normalize_cancels_exactly():
    num = (Y - A) * (Y + A)
    r = ratfun_normalize(num, [(Y + A, 1)])
    assert not r.den and r.num == Y - A


def test_normalize_square_over_factor():
    r = ratfun_normalize(Y * Y, [(Y, 1)])
    assert not r.den and r.num == Y


def test_normalize_no_division_possible():
    r = ratfun_normalize(Y + 1, [(Y + A, 1)])
    assert r.den
    assert r.num == Y + 1
    assert r.den == {Y + A: 1}


def test_normalize_rejects_zero_factor():
    with pytest.raises(ZeroDenominatorError):
        ratfun_normalize(Y, [(Poly.zero(), 1)])


Y1_Y2_A = [y(1, 1, 1), y(1, 1, 2), ALPHA]


@settings(max_examples=40, deadline=None)
@given(num=small_polys(Y1_Y2_A), e=st.integers(1, 2))
def test_normalize_idempotent_on_random_inputs(num, e):
    den = [(Y + A, e), (Y - A + 1, 1)]
    once = ratfun_normalize(num, den)
    twice = ratfun_normalize(once.num, once.den.items())
    assert once == twice


four_polys = small_polys(
    [y(1, 1, k) for k in range(1, 5)] + [ALPHA, ambient(1)], degree=4)


@settings(max_examples=100, deadline=None)
@given(p=four_polys, q=four_polys, r=four_polys)
def test_ring_axioms_on_random_polys(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(num=small_polys(Y1_Y2_A))
def test_multiply_then_divide_roundtrip(num):
    f = RatFun(num, {Y + A: 1})
    g = Y - 2 * A + 1
    assert (f * g) * RatFun(Poly.const(1), {g: 1}) == f


def test_ratfun_equals_the_scalars_and_polys_it_coerces():
    two = RatFun.const(2)
    for other in (2, Fraction(2), RatFun.from_poly(Poly.const(2))):
        assert two == other and other == two
        assert not (two != other or other != two)
    assert RatFun.from_poly(Y) == Y and Y == RatFun.from_poly(Y)
    assert RatFun.const(1) != "1" and "1" != RatFun.const(1)


def test_substitute_examples():
    f = RatFun(Poly.const(1), {Y - A: 1})
    assert f.substitute({y(1, 1, 1): 0}) == RatFun(Poly.const(-1), {A: 1})
    g = RatFun.from_poly(Y ** 2 + A)
    assert g.substitute({y(1, 1, 1): 2}) == RatFun.from_poly(A + 4)
    with pytest.raises(TypeError):
        Y.substitute({y(1, 1, 1): Poly.var(y(1, 1, 2))})


def test_substitute_singular_denominator():
    f = RatFun(Poly.const(1),
               {Poly.var(y(1, 1, 1)) - Poly.var(y(1, 1, 2)): 1})
    with pytest.raises(SingularSubstitutionError):
        f.substitute({y(1, 1, 1): 3, y(1, 1, 2): 3})


@settings(max_examples=100, deadline=None)
@given(p=small_polys(Y1_Y2_A), q=small_polys(Y1_Y2_A),
       value=st.integers(-3, 3))
def test_substitute_distributes_over_product(p, q, value):
    f = RatFun(p, {Y + A: 1})
    g = RatFun(q, {Y - A + 2: 1})
    # simultaneous: y[1,1;1] is renamed to y[1,1;2], which gets a value
    assignment = {y(1, 1, 1): y(1, 1, 2), y(1, 1, 2): Fraction(value)}
    assert (f * g).substitute(assignment) == \
        f.substitute(assignment) * g.substitute(assignment)


def test_exp_truncated_examples():
    t = Poly.var(kahler(1))
    assert exp_series(-Y * t, 1) == Poly.const(1) - Y * t
    assert exp_series(-Y * t, 0) == Poly.const(1)
    assert exp_series(Poly.zero() * t, 5) == Poly.const(1)


def test_exp_series_matches_binomial():
    p = Y + Poly.var(y(1, 1, 2))
    e = exp_series(p, 3)
    expected = Poly.const(1) + p + p * p * Fraction(1, 2) \
        + p * p * p * Fraction(1, 6)
    assert e == expected


def test_canonical_text_is_stable():
    p = Y * A * 2 - Poly.const(Fraction(1, 2))
    assert p.to_text() == "-1/2 + 2*y[1,1;1]*alpha"
    f = RatFun(p, {Y + A: 2})
    assert f.to_text() == "(-1/2 + 2*y[1,1;1]*alpha) / (y[1,1;1] + alpha)^2"
    assert f.to_json() == {
        "num": "-1/2 + 2*y[1,1;1]*alpha",
        "den": [["y[1,1;1] + alpha", 2]],
    }


def test_canonical_factor_sign_absorbed():
    # (-y - alpha) and (y + alpha) name the same canonical factor
    f = RatFun(Poly.const(1), {-Y - A: 1})
    g = RatFun(Poly.const(-1), {Y + A: 1})
    assert f == g


def test_variable_ordering_deterministic():
    vs = [kahler(1), ALPHA, ambient(2), y(1, 1, 1), y(2, 1, 1)]
    assert sorted(vs) == [y(1, 1, 1), y(2, 1, 1), ambient(2), ALPHA,
                          kahler(1)]


# --- shortcuts around exact division ---------------------------------------

VARS = [y(1, 1, 1), y(1, 1, 2), y(2, 1, 1), ambient(1), ALPHA, kahler(1)]
PRIME = algebra._P

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = rationals.filter(bool)


@st.composite
def linear_forms(draw):
    """Linear forms with fractional, non-unit coefficients, an optional
    constant and an optional alpha term."""
    chosen = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=4,
                           unique=True))
    coeffs = {v: draw(nonzero_rationals) for v in chosen}
    return Poly.linear(draw(rationals), coeffs)


@st.composite
def polys(draw, nonzero=False):
    out = Poly.zero()
    for _ in range(draw(st.integers(0, 4))):
        term = Poly.const(draw(nonzero_rationals))
        for v in draw(st.lists(st.sampled_from(VARS), max_size=3)):
            term = term * Poly.var(v)
        out = out + term
    if nonzero and out.is_zero():
        out = Poly.const(draw(nonzero_rationals))
    return out


@settings(max_examples=150, deadline=None)
@given(f=linear_forms(), q=polys(nonzero=True), e=st.integers(1, 2))
def test_normalize_always_cancels_a_true_divisor(f, q, e):
    r = ratfun_normalize(f ** e * q, [(f, e)])
    assert not r.den
    assert r.num == q


def sum_may_divide(num, f):
    """The residue screen on the one-term sum num / f, whose total is num."""
    return algebra._sum_may_divide([algebra._ratfun(num, {f: 1})], {f: 1}, f)


def test_prime_denominator_falls_through_to_exact_division():
    unusual = Fraction(1, PRIME)
    f = Y + A * unusual
    q = Y - A + 1
    # neither the factor nor the numerator gives a usable residue
    assert sum_may_divide(Y + 1, f) is True
    assert sum_may_divide(q * unusual + 1, Y + A) is True
    r = ratfun_normalize(f * q, [(f, 1)])
    assert not r.den and r.num == q
    r = ratfun_normalize((Y + A) * q * unusual, [(Y + A, 1)])
    assert not r.den and r.num == q * unusual


def test_a_variable_of_residue_zero_falls_through_to_exact_division():
    # the least variable of f has residue 0 mod the prime, so _root finds
    # no point and only exact division can decide
    z = next(v for v in (y(i, j, k) for i in range(40) for j in range(40)
                         for k in range(40)) if algebra._residue(v) == 0)
    Z = Poly.var(z)
    f = Z - A + 1
    assert algebra._root(f) is None
    q = Y * A + 2
    r = ratfun_normalize(f * q, [(f, 1)])
    assert not r.den and r.num == q
    r = ratfun_normalize(q, [(f, 2)])
    assert r.den == {f: 2} and r.num == q
    total = algebra.ratfun_sum([RatFun(Y, {f: 1}), RatFun(f - Y, {f: 1})])
    assert total == 1 and not total.den


def test_residue_skips_a_non_divisor():
    assert not sum_may_divide(Poly.const(3), Y + A)
    assert not sum_may_divide(Y + 1, Y + A)
    assert sum_may_divide((Y + 1) * (Y + A), Y + A)


def test_zero_sum_is_not_screened(monkeypatch):
    f = RatFun(Y + 1, {Y + A: 2, Poly.var(y(1, 1, 2)) - Y: 1})

    def refuse(*args):
        raise AssertionError("a zero sum was screened")

    monkeypatch.setattr(algebra, "_sum_may_divide", refuse)
    total = algebra.ratfun_sum([f, -f])
    assert total.is_zero() and total.den == {}


FACTORS = [Y + A, Y - A + 1, Poly.var(y(1, 1, 2)) - Y,
           Poly.var(y(2, 1, 1)) + Fraction(1, 2) * A]


@st.composite
def factor_products(draw, max_size=3):
    out = Poly.const(1)
    for f in draw(st.lists(st.sampled_from(FACTORS), max_size=max_size)):
        out = out * f
    return out


@st.composite
def ratfuns(draw):
    """Normalized RatFuns whose numerators often hold factors of FACTORS."""
    num = draw(polys()) * draw(factor_products())
    den = {f: draw(st.integers(0, 2)) for f in FACTORS}
    return RatFun(num, den)


@settings(max_examples=150, deadline=None)
@given(a=ratfuns(), b=ratfuns())
def test_cross_cancelled_product_equals_normalized_product(a, b):
    merged = list(a.den.items()) + list(b.den.items())
    slow = ratfun_normalize(a.num * b.num, merged)
    fast = a * b
    assert fast.num.sorted_terms() == slow.num.sorted_terms()
    assert fast.den == slow.den
    assert fast.to_json() == slow.to_json()


def assert_sum_is_normalized_expansion(terms):
    """ratfun_sum(terms) against the model: every numerator expanded over
    the union denominator, added, and normalized."""
    union = {}
    for term in terms:
        for f, e in term.den.items():
            union[f] = max(union.get(f, 0), e)
    total = Poly.zero()
    for term in terms:
        num = term.num
        for f, e in union.items():
            num = num * f ** (e - term.den.get(f, 0))
        total = total + num
    slow = ratfun_normalize(total, union.items())
    fast = algebra.ratfun_sum(terms)
    assert fast.num.sorted_terms() == slow.num.sorted_terms()
    assert fast.den == slow.den


@settings(max_examples=150, deadline=None)
@given(terms=st.lists(ratfuns(), max_size=4))
def test_sum_equals_normalized_expansion(terms):
    assert_sum_is_normalized_expansion(terms)


@st.composite
def sums_with_repeated_denominators(draw):
    """Terms over a few shared denominators, some of them negations of
    earlier terms, so groups of equal denominators form and may cancel."""
    dens = draw(st.lists(
        st.dictionaries(st.sampled_from(FACTORS), st.integers(1, 2),
                        max_size=3), min_size=1, max_size=2))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        if terms and draw(st.booleans()):
            terms.append(-draw(st.sampled_from(terms)))
        else:
            num = draw(polys()) * draw(factor_products(max_size=1))
            terms.append(RatFun(num, draw(st.sampled_from(dens))))
    return draw(st.permutations(terms))


@settings(max_examples=150, deadline=None)
@given(terms=sums_with_repeated_denominators())
def test_grouped_sum_equals_normalized_expansion(terms):
    assert_sum_is_normalized_expansion(terms)


@settings(max_examples=100, deadline=None)
@given(terms=st.lists(ratfuns(), min_size=1, max_size=4))
def test_terms_cancelling_one_for_one_expand_nothing(terms):
    def refuse(self, other):
        raise AssertionError("a numerator was expanded")

    original = Poly.__mul__
    Poly.__mul__ = refuse
    try:
        total = algebra.ratfun_sum(terms + [-t for t in terms])
    finally:
        Poly.__mul__ = original
    assert total.is_zero() and total.den == {}


def test_sum_cancels_a_factor_of_the_expanded_numerator():
    f, g = FACTORS[0], FACTORS[1]
    # y/((y+a)(y-a+1)) + a/((y+a)(y-a+1)) = 1/(y-a+1)
    terms = [RatFun(Y, {f: 1, g: 1}), RatFun(A, {f: 1, g: 1})]
    assert algebra.ratfun_sum(terms) == RatFun(Poly.const(1), {g: 1})
    # the terms with f to a lower power vanish where f does
    terms = [RatFun(Y - A + 1, {f: 2}), RatFun(Poly.const(-1), {f: 1, g: 1})]
    want = (Y - A + 1) ** 2 - (Y + A)
    assert algebra.ratfun_sum(terms) == RatFun(want, {f: 2, g: 1})


@st.composite
def linear_products(draw):
    lp = LinearProduct(draw(rationals))
    for _ in range(draw(st.integers(0, 5))):
        f = draw(st.sampled_from(FACTORS)) * draw(nonzero_rationals)
        lp.mul_factor(f, draw(st.integers(-2, 2)))
    return lp


@settings(max_examples=150, deadline=None)
@given(lp=linear_products())
def test_linear_product_builds_lowest_terms(lp):
    num = Poly.const(lp.scalar)
    den = {}
    for f, e in lp.factors.items():
        if e > 0:
            num = num * f ** e
        else:
            den[f] = -e
    slow = RatFun(num, den)
    fast = lp.to_ratfun()
    assert fast.num.sorted_terms() == slow.num.sorted_terms()
    assert fast.den == slow.den


@settings(max_examples=150, deadline=None)
@given(scalar=rationals, factors=st.lists(st.tuples(
           st.sampled_from(FACTORS), nonzero_rationals, st.integers(-2, 2)),
           max_size=5),
       num=polys(), data=st.data())
def test_results_do_not_depend_on_factor_order(scalar, factors, num, data):
    # no factor is sorted before rendering, so a shuffled build must give
    # the same fraction and the same bytes
    shuffled = data.draw(st.permutations(factors))

    def built(order):
        lp = LinearProduct(scalar)
        for f, k, e in order:
            lp.mul_factor(f * k, e)
        return lp.to_ratfun()

    assert built(factors) == built(shuffled)
    assert built(factors).to_json() == built(shuffled).to_json()
    num = num * data.draw(factor_products())
    den = [(f * k, abs(e) + 1) for f, k, e in factors]
    permuted = data.draw(st.permutations(den))
    assert ratfun_normalize(num, den) == ratfun_normalize(num, permuted)
    assert ratfun_normalize(num, den).to_json() == \
        ratfun_normalize(num, permuted).to_json()


renamings = st.one_of(
    st.permutations(VARS).map(lambda image: dict(zip(VARS, image))),
    st.dictionaries(st.sampled_from(VARS),
                    st.sampled_from(VARS + [y(3, 1, 1)]), max_size=3))


@settings(max_examples=150, deadline=None)
@given(f=ratfuns(), renaming=renamings)
def test_renaming_substitute_equals_normalized_path(f, renaming):
    # non-injective renamings can merge factors, make one constant or zero,
    # or let one divide the numerator; injective ones keep lowest terms
    num = f.num.substitute(renaming)
    den = []
    for g, e in f.den.items():
        h = g.substitute(renaming)
        if h.is_zero():
            with pytest.raises(SingularSubstitutionError):
                f.substitute(renaming)
            return
        if h.is_const():
            num = num * Fraction(1, h.const_value() ** e)
        else:
            den.append((h, e))
    slow = ratfun_normalize(num, den)
    fast = f.substitute(renaming)
    assert fast.num.sorted_terms() == slow.num.sorted_terms()
    assert fast.den == slow.den
    assert fast.to_json() == slow.to_json()


def test_substitute_of_absent_variables_skips_normalization(monkeypatch):
    f = RatFun(Poly.const(3), {A: 2})

    def refuse(num, den):
        raise AssertionError("an untouched fraction was normalized")

    monkeypatch.setattr(algebra, "ratfun_normalize", refuse)
    assert f.substitute({ambient(1): 0, ambient(2): 0}) is f
    assert f.substitute({y(1, 1, 1): y(1, 1, 2)}) is f


def test_monomial_numerator_is_decided_structurally(monkeypatch):
    y1, y2 = Poly.var(y(1, 1, 1)), Poly.var(y(1, 1, 2))
    mono = y1 ** 2 * y2 * Fraction(3, 2)
    assert algebra._divide_out(y1 ** 2 * y2, y1, 2) == (y2, 0)
    assert algebra._divide_out(y1 ** 2 * y2, y1, 3) == (y2, 1)
    # a zero numerator loses every factor
    assert algebra._divide_out(Poly.zero(), y1 - y2, 2) == (Poly.zero(), 0)

    def refuse(self, divisor):
        raise AssertionError("a one-term numerator was divided")

    monkeypatch.setattr(Poly, "divide_by_linear", refuse)
    assert algebra._divide_out(mono, y1 - y2, 2) == (mono, 2)
    assert algebra._divide_out(mono, Y + A, 1) == (mono, 1)
    assert algebra._divide_out(mono, A, 1) == (mono, 1)


# --- integral coefficients are ints, and no coefficient is a float ---------

def coefficients(value):
    """Every coefficient of a Poly, or of a RatFun's numerator and factors."""
    if isinstance(value, RatFun):
        yield from value.num.terms.values()
        for f in value.den:
            yield from f.terms.values()
    else:
        yield from value.terms.values()


def integral_ones_are_int(value) -> bool:
    return all(type(c) is int for c in coefficients(value)
               if c.denominator == 1)


def test_integral_coefficients_are_stored_as_int():
    assert Poly.const(Fraction(4, 2)).sorted_terms() == [((), 2)]
    assert type(Poly.const(Fraction(4, 2)).const_value()) is int
    lin = Poly.linear(Fraction(6, 3), {y(1, 1, 1): Fraction(-4, 2),
                                      ALPHA: Fraction(1, 2)})
    assert [type(c) for c in lin.terms.values()] == [int, int, Fraction]
    assert integral_ones_are_int((Y * Fraction(1, 2) + A) * 2)
    assert integral_ones_are_int((Y + Fraction(1, 3)) * Fraction(6, 2))
    divisor = 2 * Y + 1
    q = ((Y * Y - A * 3) * divisor).divide_by_linear(divisor)
    assert q == Y * Y - A * 3
    assert all(type(c) is int for c in q.terms.values())
    half = (Y * divisor).divide_by_linear(divisor * 2)
    assert half.sorted_terms() == [(((y(1, 1, 1), 1),), Fraction(1, 2))]
    # a sum keeps the integral Fraction it makes, and it still compares,
    # hashes and prints as the int it equals
    made = Poly.const(Fraction(1, 2)) + Y + Poly.const(Fraction(3, 2))
    constant = dict(made.sorted_terms())[()]
    assert type(constant) is Fraction and constant == 2
    assert made == Y + 2
    assert hash(made) == hash(Y + 2)
    assert made.to_text() == (Y + 2).to_text() == "2 + y[1,1;1]"


def test_canonical_linear_divides_exactly():
    e = Poly.var(ambient(1))
    canon, scale = algebra.canonical_linear(2 * Y - 3 * e)
    assert scale == 2
    assert canon == Y - Fraction(3, 2) * e
    coeffs = dict(canon.sorted_terms())
    e_coeff = coeffs[((ambient(1), 1),)]
    assert e_coeff == Fraction(-3, 2)
    assert type(e_coeff) is Fraction
    assert type(coeffs[((y(1, 1, 1), 1),)]) is int


def test_substitute_into_integer_constant_factor_is_exact():
    y2 = y(1, 1, 2)
    f = RatFun(Y, {Poly.var(y2) + A + 2: 2})
    got = f.substitute({y2: 1, ALPHA: 0})
    assert got == RatFun.from_poly(Y * Fraction(1, 9))
    y_coeff = dict(got.num.sorted_terms())[((y(1, 1, 1), 1),)]
    assert y_coeff == Fraction(1, 9)
    assert type(y_coeff) is Fraction
    assert RatFun(Y * 3, {Poly.var(y2) + 2: 1}).substitute({y2: 1}) \
        == RatFun.from_poly(Y)


@settings(max_examples=150, deadline=None)
@given(p=polys(), q=polys(), f=linear_forms(), k=rationals,
       v=st.sampled_from(VARS), value=st.integers(-3, 3))
def test_no_coefficient_is_ever_a_float(p, q, f, k, v, value):
    scaled = p * k
    quotient = (p * f).divide_by_linear(f)
    assert quotient == p
    # a sum may leave an integral Fraction, and p * 1 is p itself
    if k != 1:
        assert integral_ones_are_int(scaled)
    for exact in (Poly.const(k), f, quotient):
        assert integral_ones_are_int(exact)
    results = [p * q, p + q, p - q, scaled, quotient,
               p.substitute({v: value}), algebra.canonical_linear(f)[0],
               ratfun_normalize(p * q * f, [(f, 2)]), RatFun(p, {f: 1}) * q,
               exp_series(p, 2)]
    try:
        results.append(RatFun(q, {f: 1}).substitute({v: value}))
    except SingularSubstitutionError:
        pass
    for result in results:
        assert all(type(c) in (int, Fraction) for c in coefficients(result))


# --- packed monomials against the tuple model ------------------------------

FULL = (1 << algebra._WIDTH) - 1
# exponents that fill a field, overflow it, or need a much wider one
exponents = st.sampled_from([1, 1, 2, 3, FULL, FULL + 1, 5000])


@st.composite
def model_polys(draw, exps=exponents):
    out = {}
    for _ in range(draw(st.integers(0, 4))):
        chosen = draw(st.lists(st.sampled_from(VARS), max_size=3, unique=True))
        mono = tuple(sorted((v, draw(exps)) for v in chosen))
        out = tuple_poly.add(out, {mono: draw(nonzero_rationals)})
    return out


def assert_matches_model(got, want):
    assert got == tuple_poly.to_poly(want)
    assert got.to_text() == tuple_poly.to_text(want)
    assert got.sorted_terms() == sorted(want.items())


@settings(max_examples=150, deadline=None)
@given(p=model_polys(), q=model_polys(), v=st.sampled_from(VARS),
       u=st.sampled_from(VARS), value=st.integers(-2, 2))
def test_packed_poly_matches_tuple_model(p, q, v, u, value):
    P, Q = tuple_poly.to_poly(p), tuple_poly.to_poly(q)
    assert_matches_model(P, p)
    assert_matches_model(P * Q, tuple_poly.mul(p, q))
    assert_matches_model(P + Q, tuple_poly.add(p, q))
    for assignment in ({v: value}, {v: u}, {v: u, u: v}, {v: u, u: value}):
        assert_matches_model(P.substitute(assignment),
                             tuple_poly.substitute(p, assignment))


@settings(max_examples=150, deadline=None)
@given(p=model_polys(exps=st.integers(1, 3)), f=linear_forms())
def test_packed_division_matches_tuple_model(p, f):
    fm = dict(f.sorted_terms())
    for num in (p, tuple_poly.mul(p, fm)):
        got = tuple_poly.to_poly(num).divide_by_linear(f)
        want = tuple_poly.divide_by_linear(num, fm)
        if want is None:
            assert got is None
        else:
            assert_matches_model(got, want)


def residue_mod_p(c) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, PRIME) % PRIME


@settings(max_examples=150, deadline=None)
@given(p=model_polys(), f=linear_forms())
def test_evaluate_matches_term_by_term_evaluation(p, f):
    # the residue table of a Poly, at the floor width or wider, against the
    # point of _root computed directly from each variable's residue
    root = algebra._root(f)
    assume(root is not None)
    slot, ratio = root

    def value(v):
        x = algebra._residue(v)
        return x * ratio % PRIME if algebra._SLOTS[v] == slot else x

    def at_point(terms):
        total = 0
        for mono, c in terms:
            x = residue_mod_p(c)
            for v, e in mono:
                x = x * pow(value(v), e, PRIME) % PRIME
            total += x
        return total % PRIME

    assert at_point(f.sorted_terms()) == 0
    P = tuple_poly.to_poly(p)
    assert algebra._evaluate(P, root) == at_point(p.items())


def test_exponents_past_the_field_width_are_exact():
    # fresh variables, so their fields are neighbours
    x, z = y(97, 1, 1), y(97, 1, 2)
    X, Z = Poly.var(x), Poly.var(z)
    assert algebra._SLOTS[z] == algebra._SLOTS[x] + 1
    big = X ** 5000 * X ** 5000
    assert big.sorted_terms() == [(((x, 10000),), 1)]
    assert big.to_text() == "y[97,1;1]^10000"
    assert big.divide_by_linear(X) == X ** 9999
    # x's field is full, so one more x would carry into z's field
    p = X ** FULL * Z
    q = p * X
    assert q.sorted_terms() == [(((x, FULL + 1), (z, 1)), 1)]
    assert q.divide_by_linear(X) == p
    assert q.divide_by_linear(X - Z) is None
    assert (q * (X - Z)).divide_by_linear(X - Z) == q
    assert (p + Z).substitute({z: x}) == X ** (FULL + 1) + X
    assert q.substitute({x: 1}) == Z
    assert q.variables() == {x, z}
    assert total_degree(q) == FULL + 2
    # a result that fits the base width again is stored in it
    back = q + Z - q
    assert back == Z and back.terms == Z.terms and hash(back) == hash(Z)
    assert X ** (FULL + 1) != X ** FULL * Z


def test_exponent_vectors_round_trip_in_reverse_registration_order():
    fresh = [ambient(90 + k) for k in range(4)]
    for v in reversed(fresh):
        Poly.var(v)
    linear = {(): Fraction(1)}
    linear.update({((v, 1),): Fraction(k + 1) for k, v in enumerate(fresh)})
    square = tuple_poly.mul(linear, linear)
    p = Poly.linear(1, {v: k + 1 for k, v in enumerate(fresh)}) ** 2
    assert_matches_model(p, square)
    exps = p.exponents(fresh)
    assert exps[(1, 0, 0, 1)] == 8
    assert Poly.from_exponents(fresh, exps) == p
    with pytest.raises(ValueError):
        p.exponents(fresh[1:])


SLOT_ORDER_SCRIPT = """
import json, sys
from flaghg.algebra import Poly, ambient, kahler, y
if sys.argv[1:] == ["crowded"]:
    for v in ([ambient(k) for k in range(1, 21)]
              + [y(9, 9, k) for k in range(1, 11)]
              + [kahler(i) for i in range(1, 11)]):
        Poly.var(v)
from flaghg.fixedlocus import (canonical_roots, euler_class_closed_form,
                               euler_class_from_ledger, normal_ledger)
from flaghg.mirror import grassmannian_hg_term, integral_Id
from flaghg.tableaux import FlagSpec, block_decomposition, enumerate_tableaux
spec = FlagSpec(4, (1, 2), (1, 2))
euler = []
for t in enumerate_tableaux(spec):
    roots = canonical_roots(block_decomposition(t))
    euler.append([euler_class_from_ledger(normal_ledger(t), roots).to_json(),
                  euler_class_closed_form(t, roots).to_json()])
print(json.dumps({"hg": grassmannian_hg_term(5, 3, 2).to_json(),
                  "euler": euler, "integral": integral_Id(spec).to_json()}))
"""


def test_results_do_not_depend_on_which_variables_came_first():
    # forty variables registered first, e[1..20], y[9,9;1..10] and
    # t[1..10], move the roots and Kahler variables to other slots,
    # several digits up
    src = str(Path(algebra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for args in ([], ["crowded"]):
        proc = subprocess.run(
            [sys.executable, "-c", SLOT_ORDER_SCRIPT, *args], env=env,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0]["euler"] and outputs[0]["integral"]["t_poly"]
    assert outputs[0] == outputs[1]


# --- a single-variable factor divides out by its least exponent ------------

def divide_repeatedly(num, f, e):
    """(quotient, exponent left): f divided out of num by divide_by_linear
    until it fails or e runs out."""
    while e:
        q = num.divide_by_linear(f)
        if q is None:
            break
        num, e = q, e - 1
    return num, e


def normalized_by_division(num, v, e):
    num, e = divide_repeatedly(num, v, e)
    return algebra._ratfun(num, {v: e} if e and not num.is_zero() else {})


single_variables = st.sampled_from([A, Y])  # alpha and a root


@settings(max_examples=150, deadline=None)
@given(p=model_polys(), v=single_variables, k=st.integers(0, 3),
       e=st.integers(1, 4))
def test_single_variable_factor_divides_out_like_repeated_division(p, v, k,
                                                                   e):
    num = tuple_poly.to_poly(p) * v ** k
    got = RatFun(num, {v: e})
    want = normalized_by_division(num, v, e)
    assert got == want
    assert got.num.sorted_terms() == want.num.sorted_terms()


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(st.tuples(model_polys(exps=st.integers(1, 3)),
                                st.integers(0, 2), st.integers(0, 3)),
                      min_size=1, max_size=4),
       v=single_variables)
def test_sum_over_powers_of_a_variable_divides_like_repeated_division(parts,
                                                                      v):
    terms = [RatFun(tuple_poly.to_poly(p) * v ** k, {v: e})
             for p, k, e in parts]
    top = max(t.den.get(v, 0) for t in terms)
    total = Poly.zero()
    for t in terms:
        total = total + t.num * v ** (top - t.den.get(v, 0))
    want = normalized_by_division(total, v, top)
    assert algebra.ratfun_sum(terms) == want


@st.composite
def minus_one_led_forms(draw):
    """Linear forms whose least variable has coefficient -1."""
    const, coeffs = draw(linear_forms()).linear_parts()
    lead = -Fraction(coeffs[min(coeffs)])
    return Poly.linear(const / lead, {v: a / lead for v, a in coeffs.items()})


@settings(max_examples=150, deadline=None)
@given(f=minus_one_led_forms())
def test_canonical_linear_negation_equals_rebuild(f):
    const, coeffs = f.linear_parts()
    rebuilt = Poly.linear(-const, {v: -a for v, a in coeffs.items()})
    canon, scale = algebra.canonical_linear(f)
    assert scale == -1
    assert canon == rebuilt
    assert canon.sorted_terms() == rebuilt.sorted_terms()
    assert canon * scale == f


@settings(max_examples=150, deadline=None)
@given(scalar=st.one_of(st.integers(-6, 6), rationals),
       factors=st.lists(st.tuples(st.sampled_from(FACTORS + [A, Y]),
                                  st.one_of(st.integers(-3, 3).filter(bool),
                                            nonzero_rationals),
                                  st.integers(-2, 2)), max_size=5))
def test_linear_product_scalar_is_int_when_integral(scalar, factors):
    lp = LinearProduct(scalar)
    want = Fraction(scalar)
    for f, k, e in factors:
        lp.mul_factor(f * k, e)
        want *= Fraction(algebra.canonical_linear(f * k)[1]) ** e
    lp.mul_scalar(Fraction(3, 2))
    want *= Fraction(3, 2)
    assert lp.scalar == want
    assert (type(lp.scalar) is int) == (want.denominator == 1)
