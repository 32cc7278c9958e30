import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaghg import pushforward
from flaghg.algebra import (ALPHA, Poly, RatFun, ambient, exp_series,
                            kahler, y)
from flaghg.errors import (BudgetExceededError, IntegrationShapeError,
                           SingularSubstitutionError, SymmetryViolationError)
from flaghg.fixedlocus import (Ledger, canonical_roots,
                               euler_class_from_ledger, normal_ledger)
from flaghg.mirror import (box_partitions, grassmannian_hg_term,
                           hyperplane_pullback, mirror_integrand,
                           schur_pairing, x_roots, zero_tableau)
from flaghg.pushforward import (BlockAlphabet, ab_integrate,
                                brion_pushforward, complete_homogeneous,
                                integrate_to_point, lam_vector, omega_class,
                                schur_polynomial, schur_polynomial_bialternant,
                                tableau_tower, weak_compositions)
from flaghg.tableaux import (FlagSpec, Tableau, component_dimension,
                             enumerate_tableaux)

from conftest import (MIXED_LAM, all_specs, random_block_symmetric,
                      small_polys, total_degree)
from expanded_oracle import expanded_ab_integrate

P = Poly.var
Y1, Y2, Y3 = y(9, 1, 1), y(9, 2, 1), y(9, 3, 1)


def two_singletons():
    return BlockAlphabet([[Y1], [Y2]])


def test_brion_hand_sums():
    ab = two_singletons()
    assert brion_pushforward(RatFun.const(1), ab) == RatFun.const(0)
    assert brion_pushforward(RatFun.from_poly(P(Y1)), ab) == RatFun.const(-1)
    assert brion_pushforward(RatFun.from_poly(P(Y1) ** 2), ab) == \
        RatFun.from_poly(-P(Y1) - P(Y2))


def test_brion_divided_difference_of_a_class_holding_the_difference():
    """p's denominator already holds y2 - y1, so the divided difference's
    terms carry it squared or cubed; the values are exact."""
    ab = two_singletons()
    d = P(Y2) - P(Y1)
    y1y3 = P(Y1) + P(Y3)
    cases = [
        (RatFun(Poly.const(1), {d: 1}), RatFun(Poly.const(2), {d: 2})),
        (RatFun(P(Y1), {d: 1}), RatFun(P(Y1) + P(Y2), {d: 2})),
        (RatFun(P(Y1), {d: 2}), RatFun(Poly.const(-1), {d: 2})),
        (RatFun(P(Y1) * P(Y3), {d: 1, y1y3: 1}),
         RatFun(2 * P(Y1) * P(Y2) * P(Y3) + (P(Y1) + P(Y2)) * P(Y3) ** 2,
                {d: 2, y1y3: 1, P(Y2) + P(Y3): 1})),
    ]
    for p, want in cases:
        assert brion_pushforward(p, ab) == want, p


SHAPES = [(1, 1, 1), (2, 1), (1, 2), (2, 2), (2, 1, 2), (2, 3, 1)]


def shape_alphabet(shape):
    return BlockAlphabet([[y(9, j, k) for k in range(1, m + 1)]
                          for j, m in enumerate(shape, start=1)])


@st.composite
def block_products(draw, alphabet, degree):
    """One complete homogeneous factor per block, of total degree degree."""
    p = Poly.const(draw(st.integers(1, 4)))
    for index, block in enumerate(alphabet.blocks):
        last = index == len(alphabet.blocks) - 1
        k = degree if last else draw(st.integers(0, degree))
        degree -= k
        p = p * complete_homogeneous(k, block)
    return p


@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_brion_degree_facts_on_random_inputs(data):
    for shape in SHAPES:
        alphabet = shape_alphabet(shape)
        blocks = alphabet.blocks
        fiber_dim = sum(len(blocks[jl]) * len(blocks[jh])
                        for jh in range(len(blocks)) for jl in range(jh))
        for degree in range(fiber_dim):
            p = sum((data.draw(block_products(alphabet, degree))
                     for _ in range(2)), Poly.zero())
            assert brion_pushforward(RatFun.from_poly(p), alphabet) \
                == RatFun.const(0), shape
        p = data.draw(block_products(alphabet, fiber_dim))
        result = brion_pushforward(RatFun.from_poly(p), alphabet)
        assert not result.den and result.num.is_const(), shape


@pytest.mark.parametrize("shape", SHAPES)
def test_brion_counts_the_cosets(shape):
    # every coset term of the cross-block product is 1, so its push-
    # forward counts the cosets; a wrong orientation flips the sign
    alphabet = shape_alphabet(shape)
    blocks = alphabet.blocks
    euler = Poly.const(1)
    for jh in range(len(blocks)):
        for jl in range(jh):
            for vl in blocks[jl]:
                for vh in blocks[jh]:
                    euler = euler * (P(vh) - P(vl))
    assert brion_pushforward(RatFun.from_poly(euler), alphabet) == \
        RatFun.const(alphabet.coset_count())


def test_brion_rejects_asymmetric_input():
    a, b, c, d = (y(9, 1, 1), y(9, 1, 2), y(9, 1, 3), Y2)
    cases = [([[a, b], [d]], P(a)), ([[a, b, c], [d]], P(b) + P(c))]
    for letters, p in cases:
        with pytest.raises(SymmetryViolationError):
            brion_pushforward(RatFun.from_poly(p), BlockAlphabet(letters))


def test_brion_budget_guard():
    letters = [[y(9, 1, k)] for k in range(1, 9)]
    with pytest.raises(BudgetExceededError):
        brion_pushforward(RatFun.const(1), BlockAlphabet(letters),
                          budget=10080)


def test_omega_class_examples():
    q1, q2 = ambient(1), ambient(2)
    assert omega_class([((Y1,), (q1,))]) == P(q1) - P(Y1)
    assert omega_class([((Y1,), (q1, q2))]) == \
        (P(q1) - P(Y1)) * (P(q2) - P(Y1))
    constraints = [((Y1,), (q1, q2)), ((Y2,), (q1,))]
    assert total_degree(omega_class(constraints)) == 3


def test_restrictive_pushforward_hand_sum():
    alphabet = two_singletons()
    omega = omega_class([((Y1,), (ambient(1),))])
    assert brion_pushforward(RatFun.const(1) * omega, alphabet) == \
        RatFun.const(1)


def test_pushforward_degree_bookkeeping():
    # deg(result) = deg(P) + deg(omega) - fiber dimension
    alphabet = two_singletons()
    omega = omega_class([((Y1,), (ambient(1),))])
    p = RatFun.from_poly(P(Y1) ** 2 + P(Y2) ** 2)
    out = brion_pushforward(p * omega, alphabet)
    assert total_degree(out.num) == 2 + 1 - 1


@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_projection_formula(data):
    for shape in SHAPES:
        alphabet = shape_alphabet(shape)
        letters = alphabet.letters
        shifted = RatFun(Poly.const(1),
                         {P(v) + P(ALPHA): 1 for v in letters})
        phi = RatFun.from_poly(data.draw(
            block_products(alphabet, data.draw(st.integers(0, 4)))))
        power_sum = sum((P(v) ** 2 for v in letters), Poly.zero())
        polynomial = RatFun.from_poly(
            data.draw(small_polys([ALPHA], degree=2)) * power_sum)
        for psi in (polynomial, shifted):
            lhs = brion_pushforward(phi * psi, alphabet)
            rhs = brion_pushforward(phi, alphabet) * psi
            assert lhs == rhs, shape


SUB_VARS = [y(9, 1, 1), y(9, 1, 2)]
P_VARS = [ambient(1), ambient(2)]
Q_VARS = [ambient(3), ambient(4), ambient(5)]


@settings(max_examples=20, deadline=None)
@given(pool=st.lists(st.builds(Fraction, st.integers(-20, 20),
                               st.integers(1, 4)),
                     min_size=7, max_size=7, unique=True))
def test_omega_rational_presentation_identity(pool):
    # the ambient roots split as sub-bundle roots plus quotient roots, so
    # prod(e - y) / prod(p - y) equals the polynomial Thom factor prod(q - y)
    values = dict(zip(SUB_VARS + P_VARS + Q_VARS, pool))
    lhs = Fraction(1)
    for yv in SUB_VARS:
        for e in P_VARS + Q_VARS:
            lhs *= values[e] - values[yv]
        for p in P_VARS:
            lhs /= values[p] - values[yv]
    assert lhs == omega_class([(SUB_VARS, Q_VARS)]).substitute(
        values).const_value()


def test_integrate_to_point_projective_line():
    t = Tableau(FlagSpec(2, (1,), (0,)), ((0,),))
    integrand = RatFun.from_poly(
        exp_series(-P(y(1, 1, 1)) * P(kahler(1)), 1))
    assert integrate_to_point(integrand, tableau_tower(t)) == \
        RatFun.from_poly(P(kahler(1)))


def test_integrate_to_point_low_degree_vanishes():
    t = Tableau(FlagSpec(3, (1,), (0,)), ((0,),))
    integrand = RatFun.from_poly(P(y(1, 1, 1)))
    assert integrate_to_point(integrand, tableau_tower(t)) == RatFun.const(0)


def test_integrate_to_point_projective_plane():
    t = Tableau(FlagSpec(3, (1,), (0,)), ((0,),))
    integrand = RatFun.from_poly(
        exp_series(-P(y(1, 1, 1)) * P(kahler(1)), 2))
    expected = RatFun.from_poly(
        P(kahler(1)) ** 2 * Fraction(1, 2))
    assert integrate_to_point(integrand, tableau_tower(t)) == expected


def test_integrate_to_point_shape_error():
    t = Tableau(FlagSpec(2, (1,), (0,)), ((0,),))
    stranger = RatFun.from_poly(P(y(5, 1, 1)) * P(y(1, 1, 1)))
    with pytest.raises(IntegrationShapeError):
        integrate_to_point(stranger, tableau_tower(t))


def test_both_routes_reject_a_root_that_is_not_the_components():
    # e[9] is no ambient root of C^3: neither route may treat it as a
    # parameter nor set it to 0
    t = Tableau(FlagSpec(3, (1,), (0,)), ((0,),))
    foreign = RatFun.from_poly(P(ambient(9)) * P(y(1, 1, 1)) ** 2)
    with pytest.raises(IntegrationShapeError):
        ab_integrate(t, foreign, lam_vector(3, 0))
    with pytest.raises(IntegrationShapeError):
        integrate_to_point(foreign, tableau_tower(t))


@pytest.mark.parametrize("integrand, expected", [
    ((P(ambient(2)) + 3) * P(y(1, 1, 1)) ** 2, 3),
    (P(ambient(1)) * P(y(1, 1, 1)), 0),
])
def test_ambient_roots_in_the_integrand_go_to_zero(integrand, expected):
    t = Tableau(FlagSpec(3, (1,), (0,)), ((0,),))
    f = RatFun.from_poly(integrand)
    assert ab_integrate(t, f, lam_vector(3, 0)) == RatFun.const(expected)
    assert integrate_to_point(f, tableau_tower(t)) == RatFun.const(expected)


@pytest.mark.parametrize("n", [138, 400])
def test_lam_vector_draws_past_the_small_pool(n):
    # the 137 values num/den with |num| <= 19 and den <= 5 come first
    small = {Fraction(a, b) for a in range(-19, 20) for b in range(1, 6)}
    for seed in range(3):
        lam = lam_vector(n, seed)
        assert len(set(lam)) == n
        assert lam[:137] == lam_vector(137, seed)
        assert set(lam[:137]) == small


def test_ab_integrate_classical_values():
    p2 = Tableau(FlagSpec(3, (1,), (0,)), ((0,),))
    lam = lam_vector(3, 0)
    h2 = RatFun.from_poly(P(y(1, 1, 1)) ** 2)
    assert ab_integrate(p2, h2, lam) == RatFun.const(1)
    gr24 = Tableau(FlagSpec(4, (2,), (0,)), ((0, 0),))
    c2 = P(y(1, 1, 1)) * P(y(1, 1, 2))
    assert ab_integrate(gr24, RatFun.from_poly(c2 * c2), lam_vector(4, 0)) \
        == RatFun.const(1)
    assert ab_integrate(gr24, RatFun.const(1), lam_vector(4, 0)) \
        == RatFun.const(0)


def test_ab_integrate_singular_weights_retry_then_raise(monkeypatch):
    from flaghg.errors import SingularSubstitutionError
    monkeypatch.setattr(pushforward, "MAX_RETRIES", 2)
    gr24 = Tableau(FlagSpec(4, (2,), (0,)), ((0, 0),))
    # an alpha-free denominator vanishes at the point {1,2} for these
    # weights; fresh weights are drawn but the class has a genuine pole
    f = RatFun(Poly.const(1),
               {P(y(1, 1, 1)) + P(y(1, 1, 2)): 1})
    bad = [Fraction(1), Fraction(-1), Fraction(2), Fraction(3)]
    with pytest.raises(SingularSubstitutionError):
        ab_integrate(gr24, f, bad, check_symmetry=False)


def test_ab_integrate_rejects_asymmetric():
    # on Gr(3,5) the integrand is symmetric in slots 1 and 2 only
    cases = [(Tableau(FlagSpec(4, (2,), (0,)), ((0, 0),)), P(y(1, 1, 1))),
             (Tableau(FlagSpec(5, (3,), (0,)), ((0, 0, 0),)),
              P(y(1, 1, 1)) + P(y(1, 1, 2)))]
    for t, p in cases:
        with pytest.raises(SymmetryViolationError):
            ab_integrate(t, RatFun.from_poly(p), lam_vector(t.spec.n, 0))


SMALL_TABLEAUX = [t for spec in all_specs(3, 2)
                  for t in enumerate_tableaux(spec)]


def shifted_block_symmetric(t: Tableau, rng: random.Random,
                            degree_cap: int) -> RatFun:
    """A random block-symmetric polynomial over prod (v + k*alpha), v the
    letters of one random block and k in {1, 2}: the oracle divides its
    series by each factor, and k = 2 gives the cells a b-power."""
    p = random_block_symmetric(t, rng, degree_cap)
    i, j = rng.choice([(i, j) for i in range(1, t.levels + 1)
                       for j in range(1, t.K(i) + 1)])
    k = rng.choice([1, 2])
    return RatFun(p, {P(v) + P(ALPHA) * k: 1 for v in t.letters(i, j)})


@settings(max_examples=48, deadline=None)
@given(t=st.sampled_from(SMALL_TABLEAUX), seed=st.integers(0, 10 ** 6))
def test_oracle_equivalence_random_polynomials(t, seed):
    rng = random.Random(seed)
    p = shifted_block_symmetric(t, rng, component_dimension(t))
    assert ab_integrate(t, p, lam_vector(t.spec.n, 0),
                        check_symmetry=False) == \
        integrate_to_point(p, tableau_tower(t)), (t.spec, t.rows)


def test_tower_trial_divisions_never_fail(monkeypatch):
    # a product or a normalization divides without a residue screen, which
    # costs nothing where the divisions go: in the tower each divided
    # difference of a polynomial is divisible by its letter difference
    outcomes = []
    divide = Poly.divide_by_linear

    def counted(self, divisor):
        q = divide(self, divisor)
        outcomes.append(q is not None)
        return q

    monkeypatch.setattr(Poly, "divide_by_linear", counted)
    rng = random.Random(0)
    for spec in all_specs(5, 2):
        for t in enumerate_tableaux(spec):
            p = random_block_symmetric(t, rng, component_dimension(t))
            integrate_to_point(RatFun.from_poly(p), tableau_tower(t))
    assert outcomes and all(outcomes)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_ab_integrate_lambda_independence_polynomials(seed):
    rng = random.Random(seed)
    t = Tableau(FlagSpec(4, (2,), (1,)), ((0, 1),))
    p = shifted_block_symmetric(t, rng, 3)
    values = {
        ab_integrate(t, p, lam_vector(4, lam_seed),
                     check_symmetry=False).to_text()
        for lam_seed in range(5)
    }
    assert len(values) == 1


def test_ab_integrate_mirror_integrand_matches_tower():
    t = Tableau(FlagSpec(2, (1,), (1,)), ((1,),))
    inverse = euler_class_from_ledger(
        normal_ledger(t).negated(), canonical_roots(t))
    integrand = RatFun.from_poly(
        exp_series(-P(y(1, 1, 1)) * P(kahler(1)), 1)) * inverse
    via_oracle = ab_integrate(t, integrand, lam_vector(2, 0))
    via_tower = integrate_to_point(integrand, tableau_tower(t))
    assert via_oracle == via_tower
    alpha = Poly.var(ALPHA)
    expected = RatFun(Poly.const(2) + alpha * P(kahler(1)), {alpha: 3})
    assert via_oracle == expected


def test_ab_integrate_mixed_alpha_degrees_matches_tower():
    # numerator terms of root degree 4, 3, 2 and 0 over two factors with
    # nonzero alpha weight
    gr24 = Tableau(FlagSpec(4, (2,), (0,)), ((0, 0),))
    alpha, y1, y2 = P(ALPHA), P(y(1, 1, 1)), P(y(1, 1, 2))
    num = (y1 * y2) ** 2 + alpha * (y1 + y2) ** 3 \
        + alpha ** 2 * y1 * y2 * P(kahler(1)) + alpha ** 5
    f = RatFun(num, {y1 + alpha: 1, y2 + alpha: 1})
    assert ab_integrate(gr24, f, lam_vector(4, 0)) == \
        integrate_to_point(f, tableau_tower(gr24))


def test_ab_integrate_alpha_free_factor_poles_cancel():
    # at both fixed points of P^1 the class equals t - y, so the s^-1
    # terms of its t-part cancel between the points and the result is 1
    p1 = Tableau(FlagSpec(2, (1,), (0,)), ((0,),))
    root, e1, e2 = P(y(1, 1, 1)), P(ambient(1)), P(ambient(2))
    f = RatFun(P(kahler(1)) * (root - e1 - e2) + e1 * e2,
               {root - e1 - e2: 1})
    assert f.den
    via_oracle = ab_integrate(p1, f, lam_vector(2, 0))
    assert via_oracle == integrate_to_point(f, tableau_tower(p1))
    assert via_oracle == RatFun.const(1)


def test_ab_integrate_positive_degree_mirror_integrand_seeds():
    t = Tableau(FlagSpec(3, (1,), (1,)), ((1,),))
    integrand = mirror_integrand(t)
    values = [ab_integrate(t, integrand, lam_vector(3, seed))
              for seed in (0, 1, 2)]
    assert values[0] == values[1] == values[2]
    assert values[0] == integrate_to_point(integrand, tableau_tower(t))


def test_ab_integrate_rejects_non_alpha_denominator():
    p1 = Tableau(FlagSpec(2, (1,), (0,)), ((0,),))
    root = P(y(1, 1, 1))
    for factor in (root + 1, root + P(kahler(1))):
        with pytest.raises(IntegrationShapeError, match="root form"):
            ab_integrate(p1, RatFun(Poly.const(1), {factor: 1}),
                         lam_vector(2, 0))


def test_schur_examples():
    roots = [y(1, 1, 1), y(1, 1, 2)]
    y1, y2 = P(roots[0]), P(roots[1])
    assert schur_polynomial([1], roots) == y1 + y2
    assert schur_polynomial([1, 1], roots) == y1 * y2
    assert schur_polynomial([2], roots) == y1 * y1 + y1 * y2 + y2 * y2
    assert schur_polynomial([], roots) == Poly.const(1)


def test_schur_routes_agree():
    roots3 = [y(1, 1, k) for k in range(1, 4)]
    for mu in [[1], [1, 1], [2], [2, 1], [3, 1], [2, 2, 1], [3, 3, 2]]:
        assert schur_polynomial(mu, roots3) == \
            schur_polynomial_bialternant(mu, roots3)


def test_schur_rejects_long_partition():
    with pytest.raises(ValueError):
        schur_polynomial([1, 1, 1], [y(1, 1, 1), y(1, 1, 2)])


def test_weak_compositions_equal_filtered_product():
    for parts in range(5):
        for total in range(5):
            want = [c for c in itertools.product(range(total + 1),
                                                 repeat=parts)
                    if sum(c) == total]
            got = list(weak_compositions(total, parts))
            assert sorted(got) == want and len(set(got)) == len(got)
    assert list(weak_compositions(0, 0)) == [()]
    assert list(weak_compositions(3, 0)) == []


def test_complete_homogeneous_basics():
    roots = [y(1, 1, 1), y(1, 1, 2)]
    assert complete_homogeneous(0, roots) == Poly.const(1)
    assert total_degree(complete_homogeneous(2, roots)) == 2
    assert len(complete_homogeneous(2, roots).terms) == 3
    assert complete_homogeneous(-1, roots) == Poly.zero()


@pytest.mark.parametrize("size,degree", [(1, 0), (1, 3), (2, 4), (3, 5),
                                         (4, 2), (1, 4100)])
def test_complete_homogeneous_equals_sum_of_monomial_products(size, degree):
    roots = [y(1, 1, k) for k in range(1, size + 1)]
    want = Poly.zero()
    for combo in itertools.combinations_with_replacement(roots, degree):
        want = want + functools.reduce(operator.mul, map(P, combo),
                                       Poly.const(1))
    assert complete_homogeneous(degree, roots) == want


def removable_pole_integrand(t, p, pole, e):
    """(p * pole^e + Z) / pole^e over (y + 2*alpha)^e (y - alpha/3), with
    y = y[1,1;1] and Z = prod_k (y - e_k).  Z vanishes at every fixed
    point, so there the first factor agrees with the polynomial p; the
    alpha-free pole (w = 0) does not divide Z and so stays."""
    root, alpha = P(y(1, 1, 1)), P(ALPHA)
    vanishing = Poly.const(1)
    for k in range(1, t.spec.n + 1):
        vanishing = vanishing * (root - P(ambient(k)))
    f = RatFun(p * pole ** e + vanishing, {pole: e}) \
        * RatFun(Poly.const(1), {root + 2 * alpha: e,
                                 root - Fraction(1, 3) * alpha: 1})
    weights = {g.linear_parts()[1].get(ALPHA, 0): exp
               for g, exp in f.den.items()}
    assert weights == {0: e, 2: e, Fraction(-1, 3): 1}
    return f


def test_ab_integrate_mixed_denominator_weights_matches_tower(monkeypatch):
    monkeypatch.setattr(pushforward, "MAX_RETRIES", 0)
    t, = enumerate_tableaux(FlagSpec(4, (1, 2), (1, 1)))
    alpha, root = P(ALPHA), P(y(1, 1, 1))
    y1, y2 = P(y(2, 1, 1)), P(y(2, 2, 1))
    p = y1 ** 3 * y2 ** 2 + alpha * P(kahler(1)) * y1 ** 3 * y2
    f = removable_pole_integrand(t, p, root - P(ambient(1)) - P(ambient(2)),
                                 1)
    via_oracle = ab_integrate(t, f, MIXED_LAM)
    assert via_oracle == integrate_to_point(f, tableau_tower(t))
    assert via_oracle == ab_integrate(t, f, lam_vector(4, 3))
    assert via_oracle == RatFun(Fraction(-15, 4) - Fraction(93, 8)
                                * P(kahler(1)), {alpha: 3})


def test_ab_integrate_squared_scaled_factors_match_tower(monkeypatch):
    # exponents 2 on a non-unit alpha weight and on an alpha-free factor
    # with a fractional coefficient
    monkeypatch.setattr(pushforward, "MAX_RETRIES", 0)
    t, = enumerate_tableaux(FlagSpec(2, (1,), (0,)))
    alpha, root = P(ALPHA), P(y(1, 1, 1))
    p = root * root + alpha * root * P(kahler(1)) + alpha ** 2
    pole = root - Fraction(1, 2) * P(ambient(1)) - P(ambient(2))
    f = removable_pole_integrand(t, p, pole, 2)
    via_oracle = ab_integrate(t, f, MIXED_LAM[:2])
    assert via_oracle == integrate_to_point(f, tableau_tower(t))
    assert via_oracle == ab_integrate(t, f, lam_vector(2, 3))
    assert via_oracle == RatFun(Fraction(3, 2) + Fraction(3, 4)
                                * P(kahler(1)), {alpha: 2})


# --- the factored oracle against the expanded one ---------------------------

ORACLE_TABLEAUX = [t for spec in (FlagSpec(3, (1,), (1,)),
                                  FlagSpec(4, (2,), (1,)),
                                  FlagSpec(3, (1, 2), (1, 1)),
                                  FlagSpec(4, (1, 2), (1, 0)))
                   for t in enumerate_tableaux(spec)]


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, len(ORACLE_TABLEAUX) - 1),
       seed=st.integers(0, 10 ** 6), use_normal=st.booleans(),
       use_exp=st.booleans(), nweights=st.integers(1, 3),
       lambda_seed=st.integers(0, 50))
def test_factored_oracle_matches_expanded_integrand(index, seed, use_normal,
                                                    use_exp, nweights,
                                                    lambda_seed):
    t = ORACLE_TABLEAUX[index]
    rng = random.Random(seed)
    dim = component_dimension(t)
    alpha = P(ALPHA)
    num = random_block_symmetric(t, rng, dim) + alpha * rng.randint(0, 2)
    if use_exp:
        # a t_i that exp also carries: their exponents add in one key field
        num = num + P(kahler(t.spec.levels)) * random_block_symmetric(
            t, rng, dim - 1)
    p = RatFun(num, {P(y(1, 1, 1)) + alpha: 1} if t.m(1, 1) == 1 else {})
    normal = exp = None
    expanded = p
    if use_normal:
        normal = normal_ledger(t)
        expanded = expanded * euler_class_from_ledger(normal.negated(),
                                                      canonical_roots(t))
    if use_exp:
        scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        hyperplanes = {kahler(i): hyperplane_pullback(t, i) * scale
                       for i in range(1, t.spec.levels + 1)}
        exp = hyperplanes
        exponent = Poly.zero()
        for v, h in hyperplanes.items():
            exponent = exponent + h * P(v)
        # the oracle truncates at the order, dim here; a degree above it
        # never reaches the s^0 row
        expanded = expanded * RatFun.from_poly(exp_series(exponent, dim + 1))
    weights = [random_block_symmetric(t, rng, dim) * Fraction(1, k)
               + rng.randint(-1, 1) for k in range(1, nweights + 1)]
    lam = lam_vector(t.spec.n, lambda_seed)
    got = [ab_integrate(t, p * w, lam, normal=normal, exp=exp)
           for w in weights]
    assert got == [expanded_ab_integrate(t, expanded * w, lam)
                   for w in weights]


@functools.cache
def hg_term(n, r, d):
    return grassmannian_hg_term(n, r, d)


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from([(3, 2, 1), (4, 2, 0), (4, 2, 1), (4, 2, 2),
                             (5, 2, 1), (4, 3, 2)]),
       subset=st.sets(st.integers(0, 9), min_size=1),
       lambda_seed=st.integers(0, 50))
def test_schur_pairing_equals_expanded_oracle(case, subset, lambda_seed):
    n, r, d = case
    spec = FlagSpec(n, (r,), (0,))
    t0 = zero_tableau(spec)
    cls = hg_term(n, r, d)
    parts = box_partitions(r, n - r)
    lam = lam_vector(n, lambda_seed)
    for mu in sorted({parts[i % len(parts)] for i in subset}):
        s_mu = schur_polynomial(mu, x_roots(spec))
        assert schur_pairing(spec, cls, mu, lambda_seed) == \
            expanded_ab_integrate(t0, cls * s_mu, lam)


def test_numerator_alpha_free_factor_vanishing_at_a_point():
    # y - e1 vanishes where y sits on coordinate 1, and that point's share
    # is zero; over P^2, (y - e1) * y integrates to 1
    t = Tableau(FlagSpec(3, (1,), (0,)), ((0,),))
    root = P(y(1, 1, 1))
    p = RatFun.from_poly(root - P(ambient(1)))
    lam = lam_vector(3, 0)
    got = [ab_integrate(t, p * w, lam) for w in (root, Poly.const(1))]
    assert got == [RatFun.const(1), RatFun.const(0)]
    assert got == [expanded_ab_integrate(t, p * w, lam)
                   for w in (root, Poly.const(1))]


def test_numerator_factor_with_alpha_weight():
    # (y + 2*alpha)^2 over P^2 against its expansion y^2 + 4*alpha*y + ...
    t = Tableau(FlagSpec(3, (1,), (0,)), ((0,),))
    root, alpha = P(y(1, 1, 1)), P(ALPHA)
    p = RatFun(3 * (root + 2 * alpha) ** 2, {root - alpha: 1})
    lam = lam_vector(3, 0)
    got = ab_integrate(t, p, lam)
    assert got == expanded_ab_integrate(t, p, lam)
    assert got == integrate_to_point(p, tableau_tower(t))


def test_ab_integrate_forced_lambda_retry(monkeypatch):
    # y - e1 - e2 vanishes at y = e2 when lam1 = 0, so the first weights are
    # refused and fresh ones are drawn; the poles cancel over the points
    p1 = Tableau(FlagSpec(2, (1,), (0,)), ((0,),))
    root, e1, e2 = P(y(1, 1, 1)), P(ambient(1)), P(ambient(2))
    f = RatFun(P(kahler(1)) * (root - e1 - e2) + e1 * e2,
               {root - e1 - e2: 1})
    bad = [Fraction(0), Fraction(1)]
    weights = [Poly.const(1), root]
    monkeypatch.setattr(pushforward, "MAX_RETRIES", 0)
    for w in weights:
        with pytest.raises(SingularSubstitutionError):
            ab_integrate(p1, f * w, bad)
    monkeypatch.setattr(pushforward, "MAX_RETRIES", 1)
    got = [ab_integrate(p1, f * w, bad) for w in weights]
    assert got == [expanded_ab_integrate(p1, f * w, lam_vector(2, 0))
                   for w in weights]
    assert got[0] == RatFun.const(1)


def test_ab_integrate_rejects_bad_inputs():
    p1 = Tableau(FlagSpec(2, (1,), (0,)), ((0,),))
    root = P(y(1, 1, 1))
    lam = lam_vector(2, 0)
    weight_zero = Ledger(p1)
    weight_zero.add((1, 1), (2, 1), 0)
    with pytest.raises(IntegrationShapeError, match="has weight 0"):
        ab_integrate(p1, RatFun.const(1), lam, normal=weight_zero)
    with pytest.raises(IntegrationShapeError, match="denominator factor"):
        ab_integrate(p1, RatFun(Poly.const(1), {root + P(kahler(1)): 1}),
                     lam)
    with pytest.raises(IntegrationShapeError, match="exponent"):
        ab_integrate(p1, RatFun.const(1), lam,
                     exp={kahler(1): root + P(kahler(2))})
    with pytest.raises(ValueError, match="distinct"):
        ab_integrate(p1, RatFun.const(1), [Fraction(1), Fraction(1)])
    with pytest.raises(ValueError, match="one torus weight"):
        ab_integrate(p1, RatFun.const(1), lam_vector(3, 0))
