import json

import pytest

import sytcount.counting as counting
import sytcount.gamma as gamma
import sytcount.shapes as shapes
from sytcount.cli import run
from sytcount.counting import syt_count_hlf
from sytcount.gamma import (DEFINITIONAL, RECURRENCE, NegativeEntryError,
                            _recurrence_entry, alpha, ballot_entry,
                            build_table, correction_r, correction_r3,
                            entry_corrections, gamma_def, gamma_rec,
                            row_correction_terms, seed_rows)
from sytcount.sequences import catalan, tau
from sytcount.shapes import ColumnShape, enumerate_family
from sytcount.verify import compare_methods


# --- two-column triangle ----------------------------------------------------

def test_alpha_examples():
    assert all(alpha(n, 0) == 1 for n in range(31))
    assert alpha(4, 2) == 2
    assert alpha(8, 3) == 28
    assert all(alpha(1, i) == 0 for i in range(1, 10))


def test_alpha_out_of_range_is_zero():
    for n in range(25):
        for i in range(n // 2 + 1, n + 3):
            assert alpha(n, i) == 0


def test_alpha_rejects_negative_indices():
    with pytest.raises(ValueError):
        alpha(-1, 0)
    with pytest.raises(ValueError):
        alpha(3, -1)


def test_alpha_matches_hook_counts():
    for n in range(21):
        for i in range(n // 2 + 1):
            cols = (n - i, i) if i else ((n,) if n else ())
            assert alpha(n, i) == syt_count_hlf(ColumnShape(cols))


def test_alpha_columnwise_sums():
    for n in range(1, 21):
        for i in range(1, n // 2 + 1):
            assert alpha(n, i) == sum(alpha(h, i - 1) for h in range(2 * i - 1, n))


def test_alpha_catalan_diagonal():
    for k in range(16):
        assert alpha(2 * k, k) == catalan(k)


def test_ballot_entries():
    assert all(ballot_entry(j, j) == 1 for j in range(12))
    assert ballot_entry(3, 2) == 3
    assert ballot_entry(3, 0) == 5
    for j in range(12):
        assert ballot_entry(j, 0) == catalan(j)
    with pytest.raises(ValueError):
        ballot_entry(2, 5)
    with pytest.raises(ValueError):
        ballot_entry(1, 3)


# --- definitional entries and corrections ------------------------------------

def test_gamma_def_examples():
    assert gamma_def(3, 5, 0) == 7    # shapes (5) and (3,1,1)
    assert gamma_def(3, 5, 1) == 9    # shapes (4,1) and (2,2,1)
    assert gamma_def(4, 4, 0) == 5    # shapes (4), (2,1,1), (1,1,1,1)
    assert gamma_def(3, 0, 0) == 1
    assert gamma_def(3, 7, 9) == 0


def test_gamma_def_validation():
    with pytest.raises(ValueError):
        gamma_def(2, 4, 0)
    with pytest.raises(ValueError):
        gamma_def(3, -1, 0)


def test_correction_r_examples():
    assert correction_r(4, 3, 3, 1) == 2   # only (2,1): c3 = c4 = 0
    assert correction_r(4, 3, 2, 0) == 1   # only (2)
    assert correction_r(3, 1, 3, 0) == 1   # only (1,1,1)
    with pytest.raises(ValueError):
        correction_r(4, 4, 3, 0)
    with pytest.raises(ValueError):
        correction_r(4, 0, 3, 0)


def test_correction_r3_examples():
    assert correction_r3(4, 1) == 1        # shape (1,1,1)
    assert correction_r3(6, 2) == 5        # shape (2,2,1)
    assert all(correction_r3(5, i) == 0 for i in range(3))


def test_correction_r3_matches_generic_family():
    for n in range(1, 26):
        for i in range(1, n // 2 + 1):
            assert correction_r3(n, i) == correction_r(3, 1, n - 1, i - 1)


def test_correction_terms_carry_their_values():
    for term in row_correction_terms(4, 6) + row_correction_terms(5, 7):
        assert term.value == correction_r(term.s, term.j, term.n, term.i)
    # width 3 rows expose the one-shape rule under generic coordinates
    for term in row_correction_terms(3, 8):
        assert term.value == correction_r(3, term.j, term.n, term.i)


# --- recurrence route ----------------------------------------------------------

def test_gamma_rec_examples():
    assert gamma_rec(4, 3, 0) == 2    # 2*1 + 1 - 1
    assert gamma_rec(4, 4, 1) == 3    # 2 + 2*2 + 0 - 1 - 2
    assert gamma_rec(3, 6, 2) == 9    # 9 + 5 + 0 - 5
    assert gamma_rec(3, 9, 7) == 0


def test_gamma_rec_matches_definitional():
    for s in (3, 4, 5):
        for n in range(15):
            for i in range(n // 2 + 1):
                assert gamma_rec(s, n, i) == gamma_def(s, n, i)


def test_seeded_rows():
    assert seed_rows(3) == 3
    assert seed_rows(4) == 3
    assert seed_rows(5) == 4


def test_negative_entry_guard():
    # a zeroed previous row cannot absorb the (4,1) correction term of 1
    with pytest.raises(NegativeEntryError):
        _recurrence_entry(3, 4, 1, [0, 0])


def test_entry_corrections_shapes():
    # i = 0 rows only carry the j >= 3 family terms
    assert [t.j for t in entry_corrections(5, 9, 0)] == [3, 4]
    assert [t.j for t in entry_corrections(5, 9, 2)] == [1, 3, 4]
    assert [t.j for t in entry_corrections(3, 9, 0)] == []
    assert [t.j for t in entry_corrections(3, 9, 2)] == [1]


# --- materialized tables ---------------------------------------------------------

def test_build_table_routes_agree():
    for s in (2, 3, 4):
        by_def = build_table(s, 10, DEFINITIONAL)
        by_rec = build_table(s, 10, RECURRENCE)
        assert by_def.rows == by_rec.rows
        assert by_def.method == DEFINITIONAL and by_rec.method == RECURRENCE
    with pytest.raises(ValueError):
        build_table(3, 5, "sideways")
    with pytest.raises(ValueError):
        build_table(1, 5, DEFINITIONAL)


def test_two_column_table_is_the_alpha_triangle():
    table = build_table(2, 12, RECURRENCE)
    for n in range(13):
        for i in range(n // 2 + 1):
            assert table.rows[n][i] == alpha(n, i)
        assert sum(table.rows[n]) == tau(2, n, "definition")


def test_table_entry_axioms():
    table = build_table(4, 12, DEFINITIONAL)
    assert table.rows[0] == [1]
    assert len(table.rows) == 13           # rows 0..12 and no more
    for n in range(13):
        assert len(table.rows[n]) == n // 2 + 1   # nothing beyond the triangular boundary
        assert sum(table.rows[n]) == tau(4, n, "definition")


def test_table_serialization(capsys):
    argv = ["table", "--columns", "3", "--max-cells", "3"]
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n,i,value", "0,0,1", "1,0,1", "2,0,1", "2,1,1", "3,0,2", "3,1,2"]
    assert run(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"s": 3, "method": "definitional",
                       "rows": [["1"], ["1"], ["1", "1"], ["2", "2"]]}


def test_compare_methods_reports():
    report = compare_methods(3, 12)
    assert report.overall
    assert report.checks[0].checked == 49
    assert report.checks[0].counterexample is None
    tiny = compare_methods(3, 0)
    assert tiny.overall and tiny.checks[0].checked == 1
    with pytest.raises(ValueError):
        compare_methods(2, 10)
    with pytest.raises(ValueError):
        compare_methods(3, -1)


def _validated_sum(s, n, i, j=None):
    """The hook counts of the shapes on n cells with at most s columns, c2 - c3 = i and,
    for a given j, c_j = c_(j+1): a brute filter over ColumnShape.column."""
    return sum(syt_count_hlf(shape) for shape in enumerate_family(n, s)
               if shape.column(2) - shape.column(3) == i
               and (j is None or shape.column(j) == shape.column(j + 1)))


def test_bucket_sums_equal_validated_shape_sums():
    for s in range(3, 8):
        for n in range(29):
            for i in range(n // 2 + 2):  # the last bucket is always empty
                assert gamma_def(s, n, i) == _validated_sum(s, n, i)
                for j in range(1, s):
                    expected = _validated_sum(s, n, i, j)
                    assert correction_r(s, j, n, i) == expected, (s, j, n, i)


def test_float_indices_raise_a_type_error():
    with pytest.raises(TypeError):
        gamma_def(3, 7.5, 0)
    with pytest.raises(TypeError):
        correction_r(4, 1, 7.5, 0)
    with pytest.raises(TypeError):
        correction_r(4, 1.5, 7, 0)


def test_the_sweep_refuses_a_level_its_digits_cannot_hold():
    with pytest.raises(OverflowError):
        gamma._next_level({}, 3, gamma._DIGIT)
    assert gamma._next_level({}, 3, gamma._DIGIT - 1)[0] == {}


def _cache_reads(cached):
    info = cached.cache_info()
    return info.hits + info.misses


def test_cold_table_builds_read_no_hook_count_and_step_each_level_once(monkeypatch):
    steps = []  # the (width, level) of every sweep step

    def counting_levels(frontier, s, n):
        steps.append((s, n))
        return next_level(frontier, s, n)

    next_level = gamma._next_level
    monkeypatch.setattr(gamma, "_next_level", counting_levels)
    frobenius_route = (counting._hook_count, shapes.partitions_at_most)
    # the recurrence reads corrections of rows 0..29 only
    for method, levels in ((DEFINITIONAL, 31), (RECURRENCE, 30)):
        for cached in (gamma.gamma_def, gamma.correction_r):
            cached.cache_clear()
        gamma._sweep.clear()
        gamma._rec_rows.clear()
        steps.clear()
        before = list(map(_cache_reads, frobenius_route))
        build_table(6, 30, method)
        assert list(map(_cache_reads, frobenius_route)) == before
        assert steps == [(6, n) for n in range(levels)]
