import itertools
import operator
import pickle

import pytest

from flaghg import tableaux
from flaghg.algebra import ambient, y
from flaghg.errors import InfeasibleTableauError
from flaghg.tableaux import (FlagSpec, Tableau, component_dimension,
                             enumerate_general_components,
                             enumerate_tableaux, general_component_dimension,
                             hquot_dimension)

from conftest import all_specs, max_rule_index


def brute_force_tableaux(spec: FlagSpec):
    """Independent oracle: full product of per-row partitions, filtered."""
    def rows_for(level):
        r, d = spec.ranks[level], spec.degrees[level]
        out = []
        for combo in itertools.product(range(d + 1), repeat=r):
            if sum(combo) == d and all(combo[i] <= combo[i + 1]
                                       for i in range(r - 1)):
                out.append(combo)
        return out

    results = []
    for rows in itertools.product(*[rows_for(i) for i in range(spec.levels)]):
        ok = True
        for i in range(spec.levels - 1):
            if any(rows[i][j] < rows[i + 1][j]
                   for j in range(spec.ranks[i])):
                ok = False
                break
        if ok:
            results.append(rows)
    return set(results)


def test_flagspec_validation():
    with pytest.raises(ValueError):
        FlagSpec(3, (2, 1), (0, 0))
    with pytest.raises(ValueError):
        FlagSpec(3, (3,), (0,))
    with pytest.raises(ValueError):
        FlagSpec(3, (1,), (-1,))


# Fl(1,2;C^5) at d = (1,4); each case breaks exactly one rule
@pytest.mark.parametrize("rows, match", [
    pytest.param(((1,),), "per level", id="row-count"),
    pytest.param(((1,), (4,)), "length", id="row-length"),
    pytest.param(((1,), (-1, 5)), "non-negative", id="negative"),
    pytest.param(((1,), (4, 0)), "non-decreasing", id="decreasing"),
    pytest.param(((1,), (2, 2)), "admissibility", id="column"),
    pytest.param(((1,), (0, 3)), "sum", id="sum"),
])
def test_tableau_validation(rows, match):
    spec = FlagSpec(5, (1, 2), (1, 4))
    Tableau(spec, ((1,), (0, 4)))
    with pytest.raises(ValueError, match=match):
        Tableau(spec, rows)


# Fl(1,2;C^5) at d = (1,4) and the tableau ((1,), (0, 4))
_SPEC = FlagSpec(5, (1, 2), (1, 4))
_RECORD_FIELDS = {
    FlagSpec: {"n": 5, "ranks": (1, 2), "degrees": (1, 4)},
    Tableau: {"spec": _SPEC, "rows": ((1,), (0, 4))},
}
# what __init__ derives from the fields: the tableau's blocks
_DERIVED = {
    FlagSpec: {},
    Tableau: {"values": ((1,), (0, 4), (0,)), "mults": ((1,), (1, 1), (5,))},
}


@pytest.mark.parametrize("cls", list(_RECORD_FIELDS),
                         ids=lambda cls: cls.__name__)
def test_records_are_frozen_values(cls):
    fields, derived = _RECORD_FIELDS[cls], _DERIVED[cls]
    record = cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    assert {name: getattr(record, name) for name in derived} == derived
    same = cls(*fields.values())
    assert record == same and hash(record) == hash(same)
    assert record != tuple(fields.values())
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    for name, value in {**fields, **derived}.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_list_fields_are_stored_as_tuples():
    spec = FlagSpec(4, [2], [2])
    assert (spec.ranks, spec.degrees) == ((2,), (2,))
    assert spec == FlagSpec(4, (2,), (2,))
    assert hash(spec) == hash(FlagSpec(4, (2,), (2,)))
    t = Tableau(spec, [[0, 2]])
    assert t.rows == ((0, 2),)
    assert {t, enumerate_tableaux(spec)[0]} == {t}


def test_enumerate_single_partition():
    assert [t.rows for t in enumerate_tableaux(FlagSpec(2, (1,), (2,)))] \
        == [((2,),)]


def test_enumerate_gr2c4_degree2():
    rows = [t.rows for t in enumerate_tableaux(FlagSpec(4, (2,), (2,)))]
    assert rows == [((0, 2),), ((1, 1),)]


def test_enumerate_two_level():
    ts = enumerate_tableaux(FlagSpec(3, (1, 2), (1, 1)))
    assert [t.rows for t in ts] == [((1,), (0, 1))]


def test_enumeration_matches_brute_force():
    for spec in all_specs(5, 4):
        got = {t.rows for t in enumerate_tableaux(spec)}
        assert got == brute_force_tableaux(spec), spec


def test_enumeration_order_is_lexicographic():
    for spec in [FlagSpec(4, (2,), (3,)), FlagSpec(4, (1, 2), (2, 1))]:
        flat = [sum(t.rows, ()) for t in enumerate_tableaux(spec)]
        assert flat == sorted(flat)


# every cap row: non-decreasing, shorter than the row, and with entries up
# to one past the total, where a cap no longer binds
def test_rows_are_the_filtered_brute_force():
    for parts in range(1, 7):
        for total in range(11):
            every = sorted(
                row for row in itertools.combinations_with_replacement(
                    range(total + 1), parts)
                if sum(row) == total)
            for length in range(parts):
                for caps in itertools.combinations_with_replacement(
                        range(total + 2), length):
                    expected = [row for row in every
                                if all(map(operator.le, row, caps))]
                    assert list(tableaux._rows(total, parts, caps)) == \
                        expected, (total, parts, caps)


def test_census_is_never_empty():
    # the trailing free columns always leave room for the degree
    for spec in all_specs(5, 4):
        assert enumerate_tableaux(spec)


def test_partition_count_bijection():
    def partitions_at_most(d, parts):
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

    # ranks both above and below the degree: rows with leading zeros, and
    # rows whose positive parts the rank bounds
    for r in range(1, 7):
        for d in range(13):
            spec = FlagSpec(r + 3, (r,), (d,))
            assert len(enumerate_tableaux(spec)) == partitions_at_most(d, r)


# one, 1501, 7651, two and two tableaux: each entry lies between the least
# value with which the free slots can still reach the degree and its cap in
# the row above, so no prefix is a dead end and the work is the output;
# pushing every part size, or building every row of a level before the
# column check, takes seconds on these
@pytest.mark.parametrize("spec, count, first, last", [
    (FlagSpec(3, (1,), (10**6,)), 1, ((10**6,),), ((10**6,),)),
    (FlagSpec(5, (2,), (3000,)), 1501, ((0, 3000),), ((1500, 1500),)),
    (FlagSpec(6, (3,), (300,)), 7651, ((0, 0, 300),), ((100, 100, 100),)),
    (FlagSpec(3, (1, 2), (1, 10**6)), 2,
     ((1,), (0, 10**6)), ((1,), (1, 10**6 - 1))),
    (FlagSpec(100001, (99999, 100000), (1, 5)), 2,
     ((0,) * 99998 + (1,), (0,) * 99998 + (0, 5)),
     ((0,) * 99998 + (1,), (0,) * 99998 + (1, 4))),
])
def test_large_degree_rows_cost_what_they_output(spec, count, first, last):
    found = enumerate_tableaux(spec)
    assert len(found) == count
    assert (found[0].rows, found[-1].rows) == (first, last)


# Gr(1500, 2000): each block of the row adds m * (n - r), with m its size
# and r the partial rank through it
@pytest.mark.parametrize("degree, dimension", [
    (0, 1500 * 500),
    (1, 1499 * 501 + 1 * 500),
])
def test_long_rows_enumerate_without_recursion(degree, dimension):
    [t] = enumerate_tableaux(FlagSpec(2000, (1500,), (degree,)))
    assert t.rows == ((0,) * (1500 - degree) + (1,) * degree,)
    assert component_dimension(t) == dimension


def test_many_levels_enumerate_without_recursion():
    n = 1200
    [t] = enumerate_tableaux(FlagSpec(n, range(1, n), (0,) * (n - 1)))
    assert component_dimension(t) == n * (n - 1) // 2


def test_block_decomposition_examples():
    t = Tableau(FlagSpec(6, (4,), (5,)), ((0, 1, 1, 3),))
    assert t.values[0] == (0, 1, 3)
    assert t.mults[0] == (1, 2, 1)
    assert t.K(1) == 3
    assert (t.values[1], t.mults[1], t.K(2)) == ((0,), (6,), 1)
    t2 = Tableau(FlagSpec(3, (2,), (2,)), ((1, 1),))
    assert t2.values[0] == (1,) and t2.mults[0] == (2,)


@pytest.mark.parametrize("spec, rows", [
    (FlagSpec(5, (1, 3), (1, 2)), ((1,), (0, 1, 1))),
    (FlagSpec(4, (2,), (2,)), ((0, 2),))])
def test_ambient_block_letters_are_the_ambient_roots(spec, rows):
    t = Tableau(spec, rows)
    assert t.letters(t.levels + 1, 1) == [
        ambient(k) for k in range(1, spec.n + 1)]
    assert t.letters(1, 1) == [y(1, 1, k) for k in range(1, t.m(1, 1) + 1)]


def test_critical_index_examples():
    # single level: ambient convention forces the index to 1
    t = Tableau(FlagSpec(4, (2,), (2,)), ((0, 2),))
    assert t.I_A(1, 1) == 1 and t.I_A(1, 2) == 1
    # rows (1) over (0,3): max-rule gives 1, short of the last block
    t = Tableau(FlagSpec(5, (1, 2), (1, 3)), ((1,), (0, 3)))
    assert t.I_A(1, 1) == 1
    assert t.I_A(1, t.K(1)) != t.K(2)
    # rows (1) over (0,1): index 2
    t = Tableau(FlagSpec(5, (1, 2), (1, 1)), ((1,), (0, 1)))
    assert t.I_A(1, 1) == 2


def test_hquot_dimension_examples():
    assert hquot_dimension(FlagSpec(4, (2,), (2,))) == 12
    assert hquot_dimension(FlagSpec(3, (1, 2), (1, 1))) == 7
    for spec in all_specs(5, 0):
        assert hquot_dimension(spec) == spec.flag_dimension()


def test_hquot_dimension_grassmannian_closed_form():
    for n in range(2, 6):
        for r in range(1, n):
            for d in range(5):
                spec = FlagSpec(n, (r,), (d,))
                assert hquot_dimension(spec) == n * d + r * (n - r)


def test_component_dimension_examples():
    assert component_dimension(
        Tableau(FlagSpec(4, (2,), (2,)), ((1, 1),))) == 4
    assert component_dimension(
        Tableau(FlagSpec(4, (2,), (2,)), ((0, 2),))) == 5
    assert component_dimension(
        Tableau(FlagSpec(2, (1,), (1,)), ((1,),))) == 1


def test_component_dimension_bounded_by_moduli():
    for spec in all_specs(5, 4):
        for t in enumerate_tableaux(spec):
            cd = component_dimension(t)
            assert cd <= hquot_dimension(spec)
            if sum(spec.degrees) == 0:
                assert cd == hquot_dimension(spec)
            else:
                assert cd < hquot_dimension(spec)


def test_nonemptiness_of_critical_containment():
    for spec in all_specs(5, 4):
        for t in enumerate_tableaux(spec):
            for i in range(1, spec.levels + 1):
                assert t.l(i + 1, t.K(i)) >= spec.rank(i)
                for j in range(1, t.K(i) + 1):
                    assert t.l(i + 1, j) >= t.r(i, j)


def test_index_table_invariants():
    for spec in all_specs(5, 3):
        for t in enumerate_tableaux(spec):
            for i in range(1, spec.levels + 1):
                assert t.I_A(i, 0) == 0
                for j in range(1, t.K(i) + 1):
                    assert t.I_A(i, j - 1) <= t.I_A(i, j)


def test_index_methods_match_max_rule():
    # every alpha and beta decomposition, against the definition's loop
    for spec in all_specs(5, 3):
        for pair in enumerate_general_components(spec):
            for t in pair:
                for i in range(1, spec.levels + 1):
                    for j in range(t.K(i) + 1):
                        index = max_rule_index(t, i, j)
                        assert t.I_A(i, j) == index, (t.rows, i, j)
                        if j:
                            assert t.l(i + 1, j) == \
                                t.r(i + 1, index), (t.rows, i, j)


def test_negative_fibration_step_is_caught(monkeypatch):
    # column-inadmissible rows, let past validation in this test only,
    # must still stop at the guard
    monkeypatch.setattr(tableaux, "_column_admissible",
                        lambda upper, lower: True)
    t = Tableau(FlagSpec(5, (2, 3), (0, 3)), ((0, 0), (1, 1, 1)))
    with pytest.raises(InfeasibleTableauError):
        component_dimension(t)


def test_component_dimension_never_raises_on_enumerated_tableaux():
    for spec in all_specs(5, 4):
        for t in enumerate_tableaux(spec):
            component_dimension(t)


def _is_zero(t: Tableau) -> bool:
    return not any(any(row) for row in t.rows)


def test_general_components_examples():
    got = [(a.rows, b.rows)
           for a, b in enumerate_general_components(FlagSpec(2, (1,), (1,)))]
    assert got == [(((0,),), ((1,),)), (((1,),), ((0,),))]
    got0 = [(a.rows, b.rows)
            for a, b in enumerate_general_components(FlagSpec(2, (1,), (0,)))]
    assert got0 == [(((0,),), ((0,),))]
    # golden count, frozen from the brute-force census
    assert len(enumerate_general_components(FlagSpec(3, (1, 2), (1, 1)))) == 4


def test_general_components_restrict_to_distinguished():
    for spec in all_specs(4, 3):
        general = enumerate_general_components(spec)
        restricted = {a.rows for a, b in general if _is_zero(b)}
        assert restricted == {t.rows for t in enumerate_tableaux(spec)}


def test_general_dimension_reduces_at_beta_zero():
    for spec in all_specs(4, 3):
        for a, b in enumerate_general_components(spec):
            if _is_zero(b):
                plain = Tableau(spec, a.rows)
                assert general_component_dimension(a, b) == \
                    component_dimension(plain)
