from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial

import pytest

from flaghg import mirror
from flaghg.algebra import (ALPHA, Poly, RatFun, exp_series, kahler,
                            ratfun_sum, y)
from flaghg.errors import (DEFAULT_COSET_BUDGET, BudgetExceededError,
                           FormulaMismatchError)
from flaghg.fixedlocus import (assert_block_symmetric,
                               euler_class_from_ledger, normal_ledger)
from flaghg.mirror import (box_complement, box_partitions, decompose_by_kahler,
                           grassmannian_hg_term, hori_vafa_verify,
                           hyperplane_pullback, integral_Id,
                           mirror_integrand, reconstruct_class_from_pairings,
                           schur_pairing, x_roots, zero_tableau)
from flaghg.pushforward import (BlockAlphabet, ab_integrate,
                                brion_pushforward, integrate_to_point,
                                lam_vector, tableau_tower)
from flaghg.tableaux import FlagSpec, Tableau, enumerate_tableaux

from conftest import shift_tableau_route, summed, t_degree
from expanded_oracle import expanded_ab_integrate

P = Poly.var
A = Poly.var(ALPHA)
T1 = P(kahler(1))


def test_hyperplane_pullback_examples():
    t = Tableau(FlagSpec(2, (1,), (1,)), ((1,),))
    assert hyperplane_pullback(t, 1) == -P(y(1, 1, 1))
    t2 = Tableau(FlagSpec(4, (2,), (2,)), ((0, 2),))
    assert hyperplane_pullback(t2, 1) == -P(y(1, 1, 1)) - P(y(1, 2, 1))
    t0 = zero_tableau(FlagSpec(4, (2,), (1,)))
    assert hyperplane_pullback(t0, 1) == -P(y(1, 1, 1)) - P(y(1, 1, 2))


def test_integral_p1_degree_one_golden():
    result = integral_Id(FlagSpec(2, (1,), (1,)))
    assert result.value == RatFun(Poly.const(2) + A * T1, {A: 3})


def test_integral_p1_degree_two_golden():
    # frozen after dual-route agreement; matches the series expansion
    # of 1/((H-a)^2 (H-2a)^2) against 1 + H t on the line
    result = integral_Id(FlagSpec(2, (1,), (2,)))
    expected = RatFun(Poly.const(Fraction(3, 4))
                      + A * T1 * Fraction(1, 4), {A: 5})
    assert result.value == expected


def test_integral_degree_zero_classical():
    assert integral_Id(FlagSpec(2, (1,), (0,))).value == \
        RatFun.from_poly(T1)
    assert integral_Id(FlagSpec(3, (1,), (0,))).value == \
        RatFun.from_poly(T1 * T1 * Fraction(1, 2))
    # more coordinates than lam_vector's 137 small weights
    assert integral_Id(FlagSpec(138, (1,), (0,))).value == \
        RatFun.from_poly(T1 ** 137 * Fraction(1, factorial(137)))


def test_integral_gr24_plucker_degree():
    result = integral_Id(FlagSpec(4, (2,), (0,)))
    parts = decompose_by_kahler(result.value, 1)
    assert parts[(4,)] == RatFun.const(Fraction(2, 24))
    assert set(parts) == {(4,)}


def test_decompose_by_kahler_stores_integral_coefficients_as_int():
    value = integral_Id(FlagSpec(2, (1,), (1,))).value
    parts = decompose_by_kahler(value, 1)
    assert parts == {(0,): RatFun(Poly.const(2), {A: 3}),
                     (1,): RatFun(Poly.const(1), {A: 2})}
    assert [type(p.num.const_value()) for p in parts.values()] == [int, int]
    # the value it was split from is left as it was
    assert value == RatFun(Poly.const(2) + A * T1, {A: 3})


def test_integral_cross_check_tower_route():
    result = integral_Id(FlagSpec(2, (1,), (1,)))
    assert result.value == RatFun(Poly.const(2) + A * T1, {A: 3})
    # every tableau's oracle contribution equals the fibration-tower route
    for spec in [FlagSpec(2, (1,), (1,)), FlagSpec(3, (1, 2), (1, 1))]:
        for t, contribution in integral_Id(spec).per_tableau:
            assert integrate_to_point(mirror_integrand(t),
                                      tableau_tower(t)) == contribution


# specs of all_specs(5, 3) whose expanded path takes 0.03-0.11 s each on a
# 2-vCPU host: Grassmannians, two- and three-level flags, several degrees
EXPANDED_SPECS = [FlagSpec(5, (4,), (2,)), FlagSpec(5, (3,), (3,)),
                  FlagSpec(5, (1, 3), (1, 1)), FlagSpec(5, (2, 3), (1, 0)),
                  FlagSpec(4, (2, 3), (1, 2)), FlagSpec(4, (1, 2, 3), (1, 1, 0)),
                  FlagSpec(4, (1, 2, 3), (2, 0, 1))]


def test_integral_matches_expanded_oracle():
    # the factored integrand against the expanded one, tableau by tableau;
    # the expanded path runs once, at lambda seed 0
    for spec in EXPANDED_SPECS:
        lam = lam_vector(spec.n, 0)
        expected = [(t, expanded_ab_integrate(t, mirror_integrand(t), lam))
                    for t in enumerate_tableaux(spec)]
        total = RatFun.const(0)
        for _, contribution in expected:
            total = total + contribution
        for seed in (0, 3):
            result = integral_Id(spec, lambda_seed=seed)
            assert result.per_tableau == expected, (spec, seed)
            assert result.value == total, (spec, seed)


def test_integral_t_degree_bound():
    for spec in [FlagSpec(2, (1,), (2,)), FlagSpec(4, (2,), (1,)),
                 FlagSpec(3, (1, 2), (1, 1))]:
        result = integral_Id(spec)
        assert t_degree(result) <= spec.flag_dimension()


def test_integral_d0_totality_matches_direct_oracle():
    # all of n <= 4, plus the n = 5 boundary: every Grassmannian and
    # two-level flag, and the largest three-level flag
    from conftest import all_specs
    specs = [s for s in all_specs(4, 0)]
    specs += [s for s in all_specs(5, 0) if s.n == 5 and s.levels <= 2]
    specs.append(FlagSpec(5, (1, 2, 3), (0, 0, 0)))
    for spec in specs:
        t0 = zero_tableau(spec)
        exponent = Poly.zero()
        for i in range(1, spec.levels + 1):
            exponent = exponent + hyperplane_pullback(t0, i) \
                * P(kahler(i))
        direct = ab_integrate(
            t0, RatFun.from_poly(exp_series(exponent, spec.flag_dimension())),
            lam_vector(spec.n, 7), check_symmetry=False)
        assert integral_Id(spec).value == direct, spec


def test_per_tableau_lambda_independence():
    spec = FlagSpec(4, (2,), (2,))
    runs = [integral_Id(spec, lambda_seed=seed) for seed in range(3)]
    for other in runs[1:]:
        assert other.value == runs[0].value
        for (t_a, c_a), (t_b, c_b) in zip(runs[0].per_tableau,
                                          other.per_tableau):
            assert t_a == t_b and c_a == c_b


def test_integral_result_serialization():
    result = integral_Id(FlagSpec(2, (1,), (1,)))
    data = result.to_json()
    assert data["schema"] == "flaghg/result-v1"
    assert data["t_poly"] == [
        {"t_exp": [0], "alpha_ratfun": "(2) / (alpha)^3"},
        {"t_exp": [1], "alpha_ratfun": "(1) / (alpha)^2"},
    ]


def test_hg_degree_zero_is_one():
    assert grassmannian_hg_term(4, 2, 0) == RatFun.const(1)
    assert grassmannian_hg_term(3, 1, 0) == RatFun.const(1)


def test_hg_projective_line_term():
    got = grassmannian_hg_term(2, 1, 1)
    expected = RatFun(Poly.const(1), {P(y(1, 1, 1)) + A: 2})
    assert got == expected


def test_hg_dual_routes_agree_and_freeze():
    # the internal route comparison raises on disagreement; freeze one value
    cls = grassmannian_hg_term(4, 2, 1)
    x1, x2 = P(y(1, 1, 1)), P(y(1, 1, 2))
    num = (
        4 * x1 * x2 * A ** 2 + x1 * x2 ** 2 * A + 2 * x1 * A ** 3
        + x1 ** 2 * x2 * A - 2 * x1 ** 2 * A ** 2 - 3 * x1 ** 3 * A
        - x1 ** 4 + 2 * x2 * A ** 3 - 2 * x2 ** 2 * A ** 2
        - 3 * x2 ** 3 * A - x2 ** 4 + 2 * A ** 4
    )
    assert cls == RatFun(num, {x1 + A: 4, x2 + A: 4})


def test_hg_block_symmetry():
    for (n, r, d) in [(4, 2, 1), (4, 2, 2), (5, 2, 1)]:
        cls = grassmannian_hg_term(n, r, d)
        swapped = cls.substitute({y(1, 1, 1): y(1, 1, 2),
                                  y(1, 1, 2): y(1, 1, 1)})
        assert swapped == cls


def test_schubert_duality_through_the_oracle():
    # s_mu pairs to 1 against exactly the box complement of mu
    from flaghg.mirror import x_roots
    from flaghg.pushforward import schur_polynomial
    for (n, r) in [(4, 2), (5, 3)]:
        spec = FlagSpec(n, (r,), (0,))
        roots = x_roots(spec)
        parts = box_partitions(r, n - r)
        for mu in parts:
            smu = RatFun.from_poly(schur_polynomial(mu, roots))
            for nu in parts:
                expected = RatFun.const(
                    1 if nu == box_complement(mu, r, n - r) else 0)
                assert schur_pairing(spec, smu, nu) == expected


def test_grassmannian_consistency_with_integrals():
    # pairing the class against e^{Ht} reproduces the localization
    # integral; all of n <= 4 at d <= 3, with every rank sampled at n = 5
    # (the remaining n = 5 corners were checked once and take minutes each)
    cases = [(n, r, d)
             for n in range(2, 5) for r in range(1, n) for d in range(4)]
    cases += [(5, 1, 3), (5, 2, 2), (5, 3, 1), (5, 4, 1)]
    for (n, r, d) in cases:
        spec = FlagSpec(n, (r,), (d,))
        cls = grassmannian_hg_term(n, r, d)
        t0 = zero_tableau(spec)
        h = hyperplane_pullback(t0, 1)
        integrand = RatFun.from_poly(
            exp_series(h * T1, spec.flag_dimension())) * cls
        paired = ab_integrate(t0, integrand, lam_vector(n, 0),
                              check_symmetry=False)
        assert paired == integral_Id(spec).value, (n, r, d)


def test_box_partitions_and_complement():
    parts = box_partitions(2, 2)
    assert parts == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    assert box_complement((0, 0), 2, 2) == (2, 2)
    assert box_complement((2, 1), 2, 2) == (1, 0)


def test_box_partitions_equal_filtered_product():
    for r in range(5):
        for cols in range(5):
            want = [mu for mu in product(range(cols + 1), repeat=r)
                    if all(a >= b for a, b in zip(mu, mu[1:]))]
            assert box_partitions(r, cols) == want, (r, cols)


def test_box_partitions_of_a_long_row_need_no_recursion():
    parts = box_partitions(1100, 1)
    assert len(parts) == 1101
    assert parts[0] == (0,) * 1100 and parts[-1] == (1,) * 1100


def test_pairings_of_one_are_schubert_dual():
    spec = FlagSpec(4, (2,), (0,))
    for mu in box_partitions(2, 2):
        expected = RatFun.const(1 if mu == (2, 2) else 0)
        assert schur_pairing(spec, RatFun.const(1), mu) == expected


def test_reconstruct_zero_class():
    zero = {mu: RatFun.const(0) for mu in box_partitions(2, 2)}
    assert reconstruct_class_from_pairings(4, 2, zero) == RatFun.const(0)


def test_reconstruct_one():
    pairings = {
        mu: RatFun.const(1 if mu == (2, 2) else 0)
        for mu in box_partitions(2, 2)
    }
    assert reconstruct_class_from_pairings(4, 2, pairings) == RatFun.const(1)


def test_reconstruct_round_trip():
    spec = FlagSpec(4, (2,), (0,))
    cls = grassmannian_hg_term(4, 2, 1)
    pairings = {mu: schur_pairing(spec, cls, mu)
                for mu in box_partitions(2, 2)}
    rebuilt = reconstruct_class_from_pairings(4, 2, pairings)
    for mu in box_partitions(2, 2):
        assert schur_pairing(spec, rebuilt, mu) == pairings[mu]


def test_reconstruct_rejects_wrong_key_set():
    with pytest.raises(ValueError):
        reconstruct_class_from_pairings(4, 2, {(1, 0): RatFun.const(1)})


def test_reconstruct_rejects_two_values_for_one_partition():
    # (2,) pads to (2, 0), so the two keys name one partition
    pairings = {mu: RatFun.const(1 if mu == (2, 2) else 0)
                for mu in box_partitions(2, 2)}
    pairings[(2,)] = RatFun.const(5)
    with pytest.raises(ValueError, match="one partition"):
        reconstruct_class_from_pairings(4, 2, pairings)
    # a short key alone is padded and accepted
    pairings[(2,)] = pairings.pop((2, 0))
    assert reconstruct_class_from_pairings(4, 2, pairings) == RatFun.const(1)


def test_hori_vafa_small():
    report = hori_vafa_verify(3, 2, 1)
    assert report.ok
    assert report.to_json()["division_exact"] is True
    layers = {(e["degree"], tuple(e["partition"])) for e in report.residuals}
    assert (0, (0, 0)) in layers and (1, (1, 1)) in layers
    for entry in report.residuals:
        assert all(c == "0" for c in entry["residual_c_coeffs"])


def antisymmetrized_class(n, r, d):
    """The antisymmetrized product of degree d, built from the one-row
    classes alone: per weak composition c of d, (-1)^((r-1)d) times the
    one-row class of degree c_i in x_i for each i, times the shifted
    Vandermonde prod_{j<j'} (x_j' - x_j + (c_j' - c_j)*alpha), summed and
    divided by the Vandermonde prod_{j<j'} (x_j' - x_j)."""
    roots = x_roots(FlagSpec(n, (r,), (0,)))
    xs = [P(v) for v in roots]
    one_row = [[grassmannian_hg_term(n, 1, k).substitute({y(1, 1, 1): v})
                for v in roots] for k in range(d + 1)]
    terms = []
    for comp in (c for c in product(range(d + 1), repeat=r) if sum(c) == d):
        term = RatFun.const((-1) ** ((r - 1) * d))
        for i, k in enumerate(comp):
            term = term * one_row[k][i]
        for j, jp in combinations(range(r), 2):
            term = term * (xs[jp] - xs[j] + A * (comp[jp] - comp[j]))
        terms.append(term)
    inverse_vandermonde = RatFun(Poly.const(1), {
        xs[jp] - xs[j]: 1 for j, jp in combinations(range(r), 2)})
    return ratfun_sum(terms) * inverse_vandermonde


@pytest.mark.parametrize("n,r,d", [(3, 2, 1), (3, 2, 2), (4, 2, 1),
                                   (4, 2, 2)])
def test_hori_vafa_classes_pair_equally_one_at_a_time(n, r, d):
    # each class goes through the oracle, and its pole test, on its own
    spec = FlagSpec(n, (r,), (0,))
    lhs = grassmannian_hg_term(n, r, d)
    rhs = antisymmetrized_class(n, r, d)
    for mu in box_partitions(r, n - r):
        assert schur_pairing(spec, rhs, mu) == schur_pairing(spec, lhs, mu)


def test_hori_vafa_residual_is_the_difference_of_pairings(monkeypatch):
    n, r, max_degree = 4, 2, 2
    spec = FlagSpec(n, (r,), (0,))
    x1, x2 = (P(v) for v in x_roots(spec))
    extra = RatFun(x1 * x2 + A * (x1 + x2), {A: 1})
    shifted = shift_tableau_route(monkeypatch, extra)
    report = hori_vafa_verify(n, r, max_degree)
    assert report.to_json()["division_exact"] and not report.ok
    assert len(report.residuals) == (max_degree + 1) * 6
    for entry in report.residuals:
        d, mu = entry["degree"], entry["partition"]
        rhs = antisymmetrized_class(n, r, d)
        expected = schur_pairing(spec, rhs, mu) \
            - schur_pairing(spec, shifted(n, r, d), mu)
        assert entry["residual_c_coeffs"] == \
            [expected.to_text()] + ["0"] * (r * (n - r))


def test_hori_vafa_antisymmetrized_class_is_the_display():
    for n, r, d in [(3, 2, 2), (4, 2, 2), (4, 3, 1)]:
        display = ratfun_sum(mirror._grassmannian_display_terms(n, r, d))
        assert antisymmetrized_class(n, r, d) == display


def test_hori_vafa_equal_classes_divide_by_no_vandermonde(monkeypatch):
    # a zero sum is the whole check: the Vandermonde x_j' - x_j, j < j',
    # divides nothing
    xs = [P(v) for v in x_roots(FlagSpec(4, (3,), (0,)))]
    factors = {xs[jp] - xs[j] for j, jp in combinations(range(3), 2)}
    original = Poly.divide_by_linear

    def refuse(self, divisor):
        if divisor in factors:
            raise AssertionError(f"divided by {divisor.to_text()}")
        return original(self, divisor)

    monkeypatch.setattr(Poly, "divide_by_linear", refuse)
    assert hori_vafa_verify(4, 2, 2).ok
    assert hori_vafa_verify(4, 3, 1).ok


def test_hg_routes_must_sum_to_zero(monkeypatch):
    original = mirror._grassmannian_display_terms

    def perturbed(n, r, d):
        terms = original(n, r, d)
        return [terms[0] + RatFun(Poly.const(1), {A: 1})] + terms[1:]

    monkeypatch.setattr(mirror, "_grassmannian_display_terms", perturbed)
    with pytest.raises(FormulaMismatchError):
        grassmannian_hg_term(4, 2, 2)


def grassmannian_alphabet(t):
    xs = x_roots(t.spec)
    return BlockAlphabet([xs[t.r(1, j - 1):t.r(1, j)]
                          for j in range(1, t.K(1) + 1)])


@pytest.mark.parametrize("n", range(2, 7))
def test_coset_terms_sum_to_the_brion_pushforward(n):
    # the coset form is the push-forward the tower takes by divided
    # differences, and each coset's product is symmetric in its blocks,
    # the precondition brion_pushforward asserts; r * n <= 20 leaves out
    # Gr(4, 6) and Gr(5, 6), whose classes take minutes to normalize
    for r, d in product(range(1, min(n, 20 // n + 1)), range(4)):
        for t in enumerate_tableaux(FlagSpec(n, (r,), (d,))):
            alphabet = grassmannian_alphabet(t)
            roots = {(1, j): [P(v) for v in block]
                     for j, block in enumerate(alphabet.blocks, 1)}
            roots[(2, 1)] = [Poly.zero()] * n
            inverse = euler_class_from_ledger(normal_ledger(t).negated(),
                                              roots)
            terms = mirror._coset_terms(t, DEFAULT_COSET_BUDGET)
            assert summed([terms]) == brion_pushforward(inverse, alphabet)
            cosets = alphabet.cosets(DEFAULT_COSET_BUDGET)
            assert len(cosets) == len(terms) == alphabet.coset_count()
            for coset, term in zip(cosets, terms):
                assert_block_symmetric(term.to_ratfun(), coset)


def test_coset_budget_is_checked_before_any_coset(monkeypatch):
    def refuse(*args):
        raise AssertionError("a coset term was built")

    monkeypatch.setattr(mirror, "euler_product_from_ledger", refuse)
    t = Tableau(FlagSpec(5, (3,), (2,)), ((0, 1, 1),))
    with pytest.raises(BudgetExceededError,
                       match="^3 cosets exceed the budget of 2$"):
        mirror._coset_terms(t, 2)


@pytest.mark.parametrize("n,r,d", sorted(
    {(n, r, d) for n in range(2, 7) for r in range(1, n) for d in range(4)}
    | {(7, 3, 3)}))
def test_tableau_terms_are_the_display_terms(n, r, d):
    # both routes sum over the same fixed points, term for term
    def counts(terms):
        return Counter((t.scalar, frozenset(t.factors.items()))
                       for t in terms)

    assert counts(chain.from_iterable(mirror._grassmannian_tableau_terms(
        n, r, d, DEFAULT_COSET_BUDGET))) == \
        counts(mirror._grassmannian_display_products(n, r, d))


class _Refused(Exception):
    pass


def zero_sums_expanding_nothing(monkeypatch):
    """Run mirror's ratfun_sum with Poly.__mul__ refused.  A sum that
    needs a product is run again with it and must not come out zero, so
    every zero sum, each one a check, expanded nothing.  Returns the list
    that each zero sum appends its term count to."""
    original_sum, original_mul = mirror.ratfun_sum, Poly.__mul__
    refusing = False
    zero_sums = []

    def mul(self, other):
        if refusing:
            raise _Refused
        return original_mul(self, other)

    def checked(terms):
        nonlocal refusing
        refusing = True
        try:
            out = original_sum(terms)
        except _Refused:
            out = None
        finally:
            refusing = False
        if out is None:
            out = original_sum(terms)
            assert not out.is_zero(), "a zero sum expanded a numerator"
        elif out.is_zero():
            zero_sums.append(len(terms))
        return out

    monkeypatch.setattr(Poly, "__mul__", mul)
    monkeypatch.setattr(mirror, "ratfun_sum", checked)
    return zero_sums


def test_hg_check_sum_expands_nothing(monkeypatch):
    zero_sums = zero_sums_expanding_nothing(monkeypatch)
    grassmannian_hg_term(6, 3, 2)
    # the check's terms: the display's and the tableau route's, one per
    # weak composition of 2 into 3 parts
    assert zero_sums == [12]


def test_hori_vafa_check_sums_expand_nothing(monkeypatch):
    zero_sums = zero_sums_expanding_nothing(monkeypatch)
    assert hori_vafa_verify(4, 2, 2).ok
    # three one-row hg checks, then one check per degree, each with a
    # term of either class per weak composition of the degree
    assert zero_sums == [2, 2, 2, 2, 4, 6]


def test_hori_vafa_zero_difference_builds_no_schur_polynomial(monkeypatch):
    # equal classes pair to zero against every partition of the box, so no
    # Schur polynomial is needed
    def refuse(mu, roots):
        raise AssertionError(f"schur_polynomial({mu}) was built")

    monkeypatch.setattr(mirror, "schur_polynomial", refuse)
    report = hori_vafa_verify(5, 2, 2)
    assert report.ok
    assert len(report.residuals) == 3 * len(box_partitions(2, 3))


def test_hori_vafa_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hori_vafa_verify(3, 1, 2)
    with pytest.raises(ValueError):
        hori_vafa_verify(3, 2, 0)
