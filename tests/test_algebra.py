import random
from fractions import Fraction

import pytest

from flaghg.algebra import (ALPHA, Poly, RatFun, ambient, exp_series, kahler,
                            ratfun_normalize, y)
from flaghg.errors import SingularSubstitutionError, ZeroDenominatorError

from conftest import random_poly

Y = Poly.var(y(1, 1, 1))
A = Poly.var(ALPHA)


def test_normalize_cancels_exactly():
    num = (Y - A) * (Y + A)
    r = ratfun_normalize(num, [(Y + A, 1)])
    assert r.is_poly() and r.num == Y - A


def test_normalize_square_over_factor():
    r = ratfun_normalize(Y * Y, [(Y, 1)])
    assert r.is_poly() and r.num == Y


def test_normalize_no_division_possible():
    r = ratfun_normalize(Y + 1, [(Y + A, 1)])
    assert not r.is_poly()
    assert r.num == Y + 1
    assert r.den == {Y + A: 1}


def test_normalize_rejects_zero_factor():
    with pytest.raises(ZeroDenominatorError):
        ratfun_normalize(Y, [(Poly.zero(), 1)])


def test_normalize_idempotent_on_random_inputs():
    rng = random.Random(0)
    variables = [y(1, 1, 1), y(1, 1, 2), ALPHA]
    for _ in range(40):
        num = random_poly(rng, variables)
        den = [(Y + A, rng.randint(1, 2)), (Y - A + 1, 1)]
        once = ratfun_normalize(num, den)
        twice = ratfun_normalize(once.num, once.den.items())
        assert once == twice


def test_ring_axioms_on_random_polys():
    rng = random.Random(1)
    variables = [y(1, 1, k) for k in range(1, 5)] + [ALPHA, ambient(1)]
    for _ in range(100):
        p = random_poly(rng, variables, degree=4)
        q = random_poly(rng, variables, degree=4)
        r = random_poly(rng, variables, degree=4)
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_multiply_then_divide_roundtrip():
    rng = random.Random(2)
    variables = [y(1, 1, 1), y(1, 1, 2), ALPHA]
    for _ in range(40):
        f = RatFun(random_poly(rng, variables), {Y + A: 1})
        g = Y - 2 * A + 1
        assert (f * g) * RatFun(Poly.const(1), {g: 1}) == f


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


def test_substitute_distributes_over_product():
    rng = random.Random(3)
    variables = [y(1, 1, 1), y(1, 1, 2), ALPHA]
    for _ in range(100):
        f = RatFun(random_poly(rng, variables), {Y + A: 1})
        g = RatFun(random_poly(rng, variables), {Y - A + 2: 1})
        # simultaneous: y[1,1;1] is renamed to y[1,1;2], which gets a value
        assignment = {y(1, 1, 1): y(1, 1, 2),
                      y(1, 1, 2): Fraction(rng.randint(-3, 3))}
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
