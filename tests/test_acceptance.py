"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and enforces its runtime bound.
"""

import random
import time
from fractions import Fraction

from flaghg.algebra import ALPHA, Poly, RatFun, kahler, ratfun_sum
from flaghg.cli import format_report, parse_job, run_and_report
from flaghg.errors import DEFAULT_COSET_BUDGET
from flaghg.fixedlocus import (canonical_roots, euler_class_closed_form,
                               euler_class_from_ledger,
                               euler_product_closed_form,
                               euler_product_from_ledger,
                               grassmannian_euler_product,
                               hquot_restriction_ledger, normal_ledger,
                               tangent_ledger)
from flaghg.mirror import (box_partitions, decompose_by_kahler,
                           hori_vafa_verify, integral_Id, schur_pairing)
from flaghg.mirror import _grassmannian_display_terms as display_terms
from flaghg.mirror import _grassmannian_tableau_terms as tableau_terms
from flaghg.pushforward import (ab_integrate, integrate_to_point, lam_vector,
                                tableau_tower)
from flaghg.tableaux import (FlagSpec, component_dimension,
                             enumerate_tableaux, hquot_dimension)

from conftest import (all_specs, random_block_symmetric, summed, t_degree,
                      zero_ambient_roots)
from test_tableaux import brute_force_tableaux

A = Poly.var(ALPHA)
T1 = Poly.var(kahler(1))


def _report(number: int, label: str, passed: bool, elapsed: float,
            bound: float):
    status = "PASS" if passed and elapsed < bound else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} "
          f"({elapsed:.1f}s, bound {bound:.0f}s)")
    assert passed, f"criterion {number}: {label}"
    assert elapsed < bound, f"criterion {number} exceeded {bound}s"


def test_criterion_1_tableau_census():
    start = time.time()
    ok = True
    for spec in all_specs(5, 4):
        got = {t.rows for t in enumerate_tableaux(spec)}
        ok = ok and got == brute_force_tableaux(spec)

    def partition_count(d, parts):
        if d == 0:
            return 1
        count = 0

        def rec(remaining, cap, slots):
            nonlocal count
            if remaining == 0:
                count += 1
                return
            if slots == 0:
                return
            for p in range(min(remaining, cap), 0, -1):
                rec(remaining - p, p, slots - 1)

        rec(d, d, parts)
        return count

    for n in range(2, 6):
        for r in range(1, n):
            for d in range(5):
                spec = FlagSpec(n, (r,), (d,))
                ok = ok and len(enumerate_tableaux(spec)) \
                    == partition_count(d, r)
    _report(1, "tableau census equals brute-force oracle", ok,
            time.time() - start, 10)


def test_criterion_2_dimension_bookkeeping():
    start = time.time()
    ok = True
    for spec in all_specs(5, 4):
        hd = hquot_dimension(spec)
        for t in enumerate_tableaux(spec):
            cd = component_dimension(t)
            ok = ok and tangent_ledger(t).rank() == cd
            ok = ok and normal_ledger(t).rank() == hd - cd
            ok = ok and hquot_restriction_ledger(t).rank() == hd
    for n in range(2, 6):
        for r in range(1, n):
            for d in range(5):
                ok = ok and hquot_dimension(FlagSpec(n, (r,), (d,))) \
                    == n * d + r * (n - r)
    _report(2, "ledger ranks match dimensions", ok, time.time() - start, 10)


def test_criterion_3_zero_weight_purity():
    start = time.time()
    ok = True
    for spec in all_specs(5, 4):
        for t in enumerate_tableaux(spec):
            ledger = normal_ledger(t)  # raises on cancellation failure
            ok = ok and not ledger.has_weight_zero()
    _report(3, "normal ledgers carry no weight-0 term", ok,
            time.time() - start, 30)


def test_criterion_4_dual_route_euler_classes():
    start = time.time()
    ok = True
    for spec in all_specs(5, 4):
        for t in enumerate_tableaux(spec):
            roots = canonical_roots(t)
            via_ledger = euler_product_from_ledger(normal_ledger(t), roots)
            ok = ok and via_ledger == euler_product_closed_form(t, roots)
            if spec.levels == 1:
                zero_roots = zero_ambient_roots(t)
                display = grassmannian_euler_product(t)
                ok = ok and euler_product_from_ledger(
                    normal_ledger(t), zero_roots) == display
    # expanded rational-function equality on the n <= 4 subsample
    for spec in all_specs(4, 3):
        for t in enumerate_tableaux(spec):
            roots = canonical_roots(t)
            ok = ok and euler_class_from_ledger(normal_ledger(t), roots) \
                == euler_class_closed_form(t, roots)
    _report(4, "Euler class routes agree exactly", ok,
            time.time() - start, 60)


def test_criterion_5_classical_integrals():
    start = time.time()
    ok = integral_Id(FlagSpec(2, (1,), (0,))).value == RatFun.from_poly(T1)
    ok = ok and integral_Id(FlagSpec(3, (1,), (0,))).value \
        == RatFun.from_poly(T1 * T1 * Fraction(1, 2))
    parts = decompose_by_kahler(integral_Id(FlagSpec(4, (2,), (0,))).value, 1)
    ok = ok and parts[(4,)] == RatFun.const(Fraction(2, 24))
    _report(5, "degree-zero integrals are classical", ok,
            time.time() - start, 30)


def test_criterion_6_projective_line_degree_one():
    start = time.time()
    value = integral_Id(FlagSpec(2, (1,), (1,))).value
    ok = value == RatFun(Poly.const(2) + A * T1, {A: 3})
    _report(6, "line integral t/a^2 + 2/a^3", ok, time.time() - start, 30)


def test_criterion_7_oracle_equivalence():
    start = time.time()
    rng = random.Random(42)
    ok = True
    for spec in all_specs(4, 3):
        lam = lam_vector(spec.n, 0)
        for t in enumerate_tableaux(spec):
            tower = tableau_tower(t)
            dim = component_dimension(t)
            p = None
            for _ in range(10):
                p = RatFun.from_poly(random_block_symmetric(t, rng, dim))
                via_oracle = ab_integrate(t, p, lam, check_symmetry=False)
                via_tower = integrate_to_point(p, tower)
                ok = ok and via_oracle == via_tower
            seeds = {
                ab_integrate(t, p, lam_vector(spec.n, s),
                             check_symmetry=False).to_text()
                for s in range(5)
            }
            ok = ok and len(seeds) == 1
    _report(7, "integration routes agree; oracle is seed-independent", ok,
            time.time() - start, 300)


def test_criterion_8_grassmannian_hg_dual_route():
    start = time.time()
    ok = True
    for (n, r) in [(3, 1), (4, 2), (5, 2)]:
        spec = FlagSpec(n, (r,), (0,))
        partitions = box_partitions(r, n - r)
        for d in range(4):
            via_tableaux = summed(tableau_terms(n, r, d,
                                                DEFAULT_COSET_BUDGET))
            via_display = ratfun_sum(display_terms(n, r, d))
            for mu in partitions:
                left = schur_pairing(spec, via_tableaux, mu)
                right = schur_pairing(spec, via_display, mu)
                ok = ok and left == right
            ok = ok and via_tableaux == via_display
    _report(8, "hypergeometric routes agree through Schur pairings", ok,
            time.time() - start, 300)


def test_criterion_9_hori_vafa_and_flag_tables():
    start = time.time()
    ok = hori_vafa_verify(3, 2, 2).ok
    ok = ok and hori_vafa_verify(4, 2, 2).ok
    for ranks, n in [((1, 2), 3), ((1, 2), 4)]:
        for d1 in range(4):
            for d2 in range(4 - d1):
                spec = FlagSpec(n, ranks, (d1, d2))
                result = integral_Id(spec)
                other = integral_Id(spec, lambda_seed=3)
                ok = ok and result.value == other.value
                ok = ok and t_degree(result) <= spec.flag_dimension()
                for (ta, ca), (tb, cb) in zip(result.per_tableau,
                                              other.per_tableau):
                    ok = ok and ta == tb and ca == cb
    _report(9, "Hori-Vafa residuals vanish; flag tables are stable", ok,
            time.time() - start, 600)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()
    ok = True
    jobs = [
        ["tableaux", "--n", "4", "--ranks", "2", "--degrees", "2"],
        ["integral", "--n", "2", "--ranks", "1", "--degrees", "1"],
        ["integral", "--n", "2", "--ranks", "1", "--degrees", "1",
         "--lambda-seed", "5"],
        ["hg", "--n", "4", "--ranks", "2", "--degrees", "0"],
    ]
    for index, argv in enumerate(jobs):
        texts = []
        for run in ("a", "b"):
            job = parse_job(argv + ["--json", "--cache-dir",
                                    str(tmp_path / f"{index}{run}")])
            texts.append(format_report(run_and_report(job), "json"))
        ok = ok and texts[0] == texts[1]
    _report(10, "reports are byte-identical across clean runs", ok,
            time.time() - start, 60)
