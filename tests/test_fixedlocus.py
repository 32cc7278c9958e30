from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest

from flaghg.algebra import ALPHA, Poly, RatFun, y
from flaghg.errors import SymmetryViolationError
from flaghg.fixedlocus import (assert_block_symmetric, canonical_roots,
                               euler_class_closed_form,
                               euler_class_from_ledger,
                               euler_product_closed_form,
                               euler_product_from_ledger,
                               grassmannian_euler_product,
                               hquot_restriction_ledger, normal_ledger,
                               scaled_weights, tangent_ledger,
                               torus_fixed_points)
from flaghg.tableaux import (FlagSpec, Tableau, component_dimension,
                             enumerate_tableaux, fixed_point_count,
                             hquot_dimension)

from conftest import (MIXED_LAM, all_specs, max_rule_index,
                      zero_ambient_roots)
from expanded_oracle import (fixed_point_values, per_pair_euler_product,
                             tangent_euler_scaled)

A = Poly.var(ALPHA)


def tangent_euler_at_point(ledger, point, lam):
    """Product of tangent weights at an isolated torus fixed point, from the
    component's tangent ledger, through the integer core."""
    weights, scale = scaled_weights(lam)
    num, den = tangent_euler_scaled(ledger, point, weights)
    return Fraction(num, den) / Fraction(scale) ** ledger.rank()


def gr(n, r, d, rows):
    return Tableau(FlagSpec(n, (r,), (d,)), (tuple(rows),))


def test_tangent_ledger_p1():
    t = gr(2, 1, 1, [1])
    ledger = tangent_ledger(t)
    terms = list(ledger.terms())
    assert terms == [((1, 1), (1, 1), 0, -1), ((1, 1), (2, 1), 0, 1)]
    assert ledger.rank() == 1 == component_dimension(t)


def test_tangent_ledger_degree_zero_grassmannian():
    t = gr(4, 2, 0, [0, 0])
    assert tangent_ledger(t).rank() == 4


def test_tangent_ledger_flag_consistency():
    t = Tableau(FlagSpec(3, (1, 2), (1, 1)), ((1,), (0, 1)))
    assert tangent_ledger(t).rank() == component_dimension(t)


def test_restriction_ledger_examples():
    t = gr(2, 1, 1, [1])
    assert hquot_restriction_ledger(t).rank() == 3
    t0 = gr(4, 2, 0, [0, 0])
    assert hquot_restriction_ledger(t0).rank() == 4
    t2 = gr(4, 2, 2, [0, 2])
    assert hquot_restriction_ledger(t2).rank() == 12


def test_normal_ledger_hand_counts():
    t = gr(4, 2, 2, [1, 1])
    terms = list(normal_ledger(t).terms())
    assert terms == [((1, 1), (2, 1), -1, 1)]
    assert normal_ledger(t).rank() == 8
    t2 = gr(4, 2, 2, [0, 2])
    by_key = {(src, tgt, w): m for src, tgt, w, m in normal_ledger(t2).terms()}
    assert by_key == {
        ((1, 2), (2, 1), -1): 1,
        ((1, 2), (2, 1), -2): 1,
        ((1, 1), (1, 2), 1): 1,
        ((1, 2), (1, 1), -1): -1,
        ((1, 2), (1, 1), -2): -1,
    }
    assert normal_ledger(t2).rank() == 7


def test_normal_ledger_degree_zero_empty():
    for spec in all_specs(4, 0):
        for t in enumerate_tableaux(spec):
            assert not list(normal_ledger(t).terms())


def test_rank_bookkeeping_full_suite():
    for spec in all_specs(5, 4):
        hd = hquot_dimension(spec)
        for t in enumerate_tableaux(spec):
            cd = component_dimension(t)
            assert tangent_ledger(t).rank() == cd
            assert hquot_restriction_ledger(t).rank() == hd
            assert normal_ledger(t).rank() == hd - cd


def test_zero_weight_purity_full_suite():
    for spec in all_specs(5, 4):
        for t in enumerate_tableaux(spec):
            normal_ledger(t)  # raises CancellationFailureError on impurity


def test_euler_class_p1_with_zero_ambient():
    t = gr(2, 1, 1, [1])
    roots = zero_ambient_roots(t)
    e = euler_class_from_ledger(normal_ledger(t), roots)
    yv = Poly.var(y(1, 1, 1))
    assert e == RatFun.from_poly((-yv - A) * (-yv - A))


def test_euler_class_empty_ledger_is_one():
    t = gr(3, 1, 0, [0])
    e = euler_class_from_ledger(normal_ledger(t), canonical_roots(t))
    assert e == RatFun.const(1)


def test_euler_class_gr24_11():
    t = gr(4, 2, 2, [1, 1])
    roots = zero_ambient_roots(t)
    e = euler_class_from_ledger(normal_ledger(t), roots)
    y1, y2 = Poly.var(y(1, 1, 1)), Poly.var(y(1, 1, 2))
    assert e == RatFun.from_poly(((-y1 - A) ** 4) * ((-y2 - A) ** 4))


def test_euler_class_rejects_weight_zero():
    t = gr(2, 1, 1, [1])
    with pytest.raises(ValueError):
        euler_class_from_ledger(tangent_ledger(t), canonical_roots(t))


def test_dual_route_full_suite_factored():
    for spec in all_specs(5, 4):
        for t in enumerate_tableaux(spec):
            roots = canonical_roots(t)
            lhs = euler_product_from_ledger(normal_ledger(t), roots)
            rhs = euler_product_closed_form(t, roots)
            assert lhs == rhs, (spec, t.rows)


def test_grouped_euler_product_equals_per_pair_product():
    # canonical roots, and the Grassmannian assignment whose ambient roots
    # are all 0, where a block's n ambient pairs share one factor
    for spec in all_specs(5, 3):
        for t in enumerate_tableaux(spec):
            ledger = normal_ledger(t)
            for roots in (canonical_roots(t), zero_ambient_roots(t)):
                want = per_pair_euler_product(ledger, roots)
                got = euler_product_from_ledger(ledger, roots)
                assert got == want, (spec, t.rows)
                assert type(got.scalar) is type(want.scalar)


def test_dual_route_expanded_small():
    for spec in [FlagSpec(2, (1,), (1,)), FlagSpec(4, (2,), (2,)),
                 FlagSpec(3, (1, 2), (1, 1))]:
        for t in enumerate_tableaux(spec):
            roots = canonical_roots(t)
            assert euler_class_from_ledger(normal_ledger(t), roots) == \
                euler_class_closed_form(t, roots), (spec, t.rows)


def test_grassmannian_display_full_suite():
    for spec in all_specs(5, 4, levels_max=1):
        for t in enumerate_tableaux(spec):
            roots = zero_ambient_roots(t)
            via_ledger = euler_product_from_ledger(normal_ledger(t), roots)
            assert via_ledger == grassmannian_euler_product(t), (spec, t.rows)


def test_factor_count_is_codimension():
    for spec in all_specs(4, 3):
        for t in enumerate_tableaux(spec):
            lp = euler_product_from_ledger(
                normal_ledger(t), canonical_roots(t))
            # numerator factors minus denominator factors, with multiplicity
            assert sum(lp.factors.values()) == \
                hquot_dimension(spec) - component_dimension(t)


def test_block_symmetry_of_euler_classes():
    for spec in all_specs(4, 3):
        for t in enumerate_tableaux(spec):
            e = euler_class_from_ledger(
                normal_ledger(t).negated(), canonical_roots(t))
            for i in range(1, t.levels + 1):
                for j in range(1, t.K(i) + 1):
                    if t.m(i, j) < 2:
                        continue
                    a, b = y(i, j, 1), y(i, j, 2)
                    swapped = e.substitute({a: b, b: a})
                    assert swapped == e


def test_torus_fixed_points_examples():
    t = gr(2, 1, 1, [1])
    pts = torus_fixed_points(t)
    assert [p[(1, 1)] for p, _ in pts] == [(1,), (2,)]
    assert [tangent for _, tangent in pts] == [((2, 1),), ((1, 2),)]
    assert len(torus_fixed_points(gr(4, 2, 2, [0, 2]))) == 12
    assert len(torus_fixed_points(gr(4, 2, 2, [1, 1]))) == 6


def test_torus_fixed_points_nested_for_flags():
    t = Tableau(FlagSpec(3, (1, 2), (1, 1)), ((1,), (0, 1)))
    for p, _ in torus_fixed_points(t):
        assert set(p[(1, 1)]) <= set(p[(2, 1)]) | set(p[(2, 2)])
    # a line inside the rank-2 step over each coordinate flag of C^3
    assert len(torus_fixed_points(t)) == 12
    assert component_dimension(t) == 4


def test_fixed_point_count_matches_enumeration():
    for spec in all_specs(5, 3):
        for t in enumerate_tableaux(spec):
            assert fixed_point_count(t) == len(torus_fixed_points(t)), t.rows


def test_torus_fixed_points_match_brute_force():
    # every choice of coordinate subsets of the block sizes, kept when each
    # level's blocks are disjoint and block (i, j) lies in the coordinates
    # of level-(i+1) blocks 1..I_A(i, j); sorted top level first, and each
    # point also maps the ambient block to 1..n
    for spec in all_specs(4, 3):
        for t in enumerate_tableaux(spec):
            refs = [(i, j) for i in range(t.levels, 0, -1)
                    for j in range(1, t.K(i) + 1)]
            subsets = [combinations(range(1, spec.n + 1), t.m(*ref))
                       for ref in refs]
            expected = []
            for choice in product(*subsets):
                point = dict(zip(refs, choice))
                nested = all(
                    set(point[(i, j)]) <= {
                        c for k in range(
                            1, max_rule_index(t, i, j) + 1)
                        for c in point[(i + 1, k)]}
                    for i, j in refs if i < t.levels)
                disjoint = all(
                    not set(point[(i, j)]) & set(point[(i, k)])
                    for i, j in refs for k in range(1, j))
                if nested and disjoint:
                    expected.append(choice)
            expected.sort()
            top = {(t.levels + 1, 1): tuple(range(1, spec.n + 1))}
            assert [p for p, _ in torus_fixed_points(t)] == [
                {**top, **dict(zip(refs, choice))} for choice in expected]


def test_specialize_examples():
    t = gr(4, 2, 2, [1, 1])
    pts = [p for p, _ in torus_fixed_points(t) if p[(1, 1)] == (1, 3)]
    lam = [Fraction(2), Fraction(5), Fraction(7), Fraction(11)]
    f = RatFun.from_poly(Poly.var(y(1, 1, 1)) + Poly.var(y(1, 1, 2)))
    values = fixed_point_values(t, pts[0], lam)
    assert f.substitute(values) == RatFun.const(9)
    assert RatFun.const(1).substitute(values) == RatFun.const(1)


def test_specialize_equivariant_euler_example():
    t = gr(2, 1, 1, [1])
    point = torus_fixed_points(t)[0][0]
    lam = [Fraction(0), Fraction(1)]
    e = euler_class_from_ledger(normal_ledger(t),
                                canonical_roots(t))
    got = e.substitute(fixed_point_values(t, point, lam))
    # (lam1 - lam1 - alpha)(lam2 - lam1 - alpha) at lam=(0,1)
    assert got == RatFun.from_poly((-A) * (Poly.const(1) - A))


def test_assert_block_symmetric_rejects_asymmetric_input():
    f = RatFun.from_poly(Poly.var(y(1, 1, 1)))
    with pytest.raises(SymmetryViolationError):
        assert_block_symmetric(f, [[y(1, 1, 1), y(1, 1, 2)]])


def test_specialize_rejects_repeated_weights():
    t = gr(4, 2, 2, [1, 1])
    point = torus_fixed_points(t)[0][0]
    lam = [Fraction(1), Fraction(1), Fraction(2), Fraction(3)]
    with pytest.raises(ValueError, match="distinct"):
        fixed_point_values(t, point, lam)


def test_tangent_euler_at_point_projective_space():
    t = gr(3, 1, 0, [0])
    lam = [Fraction(0), Fraction(1), Fraction(2)]
    values = {}
    for p, _ in torus_fixed_points(t):
        c = p[(1, 1)][0]
        values[c] = tangent_euler_at_point(tangent_ledger(t), p, lam)
    assert values == {
        1: Fraction(2),   # (l2-l1)(l3-l1)
        2: Fraction(-1),  # (l1-l2)(l3-l2)
        3: Fraction(2),   # (l1-l3)(l2-l3)
    }


def test_ledger_serialization():
    t = gr(2, 1, 1, [1])
    data = normal_ledger(t).to_json()
    assert data == [{"sign": 1, "src": [1, 1], "tgt": "ambient", "w": -1}]


def test_tangent_euler_at_point_mixed_denominators():
    # the integer core against the product of Fraction differences
    spec = FlagSpec(4, (1, 2), (1, 1))
    for t in enumerate_tableaux(spec):
        ledger = tangent_ledger(t)
        for point, _ in torus_fixed_points(t):
            expected = Fraction(1)
            for src, tgt, _, m in ledger.terms():
                for cs in point[src]:
                    for ct in point[tgt]:
                        diff = MIXED_LAM[ct - 1] - MIXED_LAM[cs - 1]
                        if diff:
                            expected *= diff ** m
            got = tangent_euler_at_point(ledger, point, MIXED_LAM)
            assert type(got) is Fraction
            assert got == expected, point


def test_tangent_euler_matches_ledger_route():
    # the product over each point's tangent pairs against the reference
    # that multiplies out the tangent ledger and cancels its zeros
    weights, _ = scaled_weights(MIXED_LAM + [Fraction(-5, 6)])
    for spec in all_specs(5, 3):
        for t in enumerate_tableaux(spec):
            ledger = tangent_ledger(t)
            for point, tangent in torus_fixed_points(t):
                assert len(tangent) == component_dimension(t), t.rows
                num, den = tangent_euler_scaled(ledger, point,
                                                weights[:spec.n])
                assert prod(weights[b - 1] - weights[a - 1]
                            for b, a in tangent) * den == num, \
                    (t.rows, point)
