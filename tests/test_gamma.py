import json
from collections import Counter

import pytest

import sytcount.counting as counting
import sytcount.gamma as gamma
import sytcount.shapes as shapes
from sytcount.cli import run
from sytcount.counting import syt_count_hlf
from sytcount.gamma import (DEFINITIONAL, RECURRENCE, NegativeEntryError,
                            _entry_correction, _recurrence_entry, alpha, ballot_entry,
                            build_table, correction_r, correction_r3, gamma_def,
                            gamma_rec)
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


def test_the_ballot_gate_admits_negative_pairs_that_hold_no_shape():
    # 2j-k and j-k are both >= 0 here, and (2j-k, j-k) has i > n // 2
    for j, k in ((0, -1), (1, -2), (-1, -2)):
        assert ballot_entry(j, k) == 0


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
    # the total of entry (n, i) counts the shapes on n - 1 cells with c1 = c2 at index
    # i - 1 and, for each j = 3..s-1, those with c_j = c_(j+1) at index i
    for s, n in ((3, 8), (4, 6), (4, 9), (5, 7), (5, 10), (6, 11)):
        sums = _validated_sums(s, n - 1)
        for i in range(n // 2 + 1):
            expected = (sums[i - 1, 1] if i else 0) + sum(sums[i, j] for j in range(3, s))
            assert _entry_correction(s, n, i) == expected, (s, n, i)


def test_width_three_terms_carry_the_generic_coordinates():
    # width 3's correction total is the generic j = 1 family at (n - 1, i - 1) for
    # i >= 1 and nothing at i = 0
    for n in range(1, 31):
        assert _entry_correction(3, n, 0) == 0, n
        for i in range(1, n // 2 + 1):
            assert _entry_correction(3, n, i) == correction_r(3, 1, n - 1, i - 1), (n, i)


# --- recurrence route ----------------------------------------------------------

def test_gamma_rec_examples():
    assert gamma_rec(4, 3, 0) == 2    # 2*1 + 1 - 1
    assert gamma_rec(4, 4, 1) == 3    # 2 + 2*2 + 0 - 1 - 2
    assert gamma_rec(3, 6, 2) == 9    # 9 + 5 + 0 - 5
    assert gamma_rec(3, 9, 7) == 0


def test_gamma_rec_matches_definitional():
    # from row 1 on every row is the recurrence's, whatever the width
    for s in range(3, 13):
        for n in range(24):
            for i in range(n // 2 + 1):
                assert gamma_rec(s, n, i) == gamma_def(s, n, i), (s, n, i)


def test_the_width_three_recurrence_reads_no_sweep_level(cold, monkeypatch):
    expected = build_table(3, 40, DEFINITIONAL).rows
    assert build_table(3, 40, RECURRENCE).rows == expected

    def no_sweep(lattice, s, n):
        raise AssertionError(f"the width-{s} sweep stepped to level {n}")

    monkeypatch.setattr(gamma, "_next_level", no_sweep)
    cold()
    assert build_table(3, 40, RECURRENCE).rows == expected


def test_negative_entry_guard():
    # a zeroed previous row cannot absorb the (4,1) correction total of 1
    message = ("entry (4,1) of the width-3 table went negative: its three-term sum 0 "
               "is below its correction total 1")
    with pytest.raises(NegativeEntryError) as caught:
        _recurrence_entry(3, 4, 1, [0, 0])
    assert str(caught.value) == message


def test_entry_corrections_shapes():
    # desk values: i = 0 carries only the j >= 3 families, so width 3 has none there
    assert _entry_correction(3, 9, 0) == 0
    assert _entry_correction(3, 4, 1) == 1   # shape (1,1,1)
    assert _entry_correction(3, 6, 2) == 5   # shape (2,2,1)
    assert _entry_correction(4, 3, 0) == 1   # j=3: (2)
    assert _entry_correction(4, 4, 1) == 3   # j=1: (1,1,1) is 1, j=3: (2,1) is 2
    assert _entry_correction(5, 4, 0) == 3   # j=3: (3), j=4: (3) and (1,1,1)
    assert _entry_correction(5, 4, 1) == 5   # j=1: (1,1,1), j=3 and j=4: (2,1) is 2


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


def test_tables_start_at_the_empty_shape():
    for s in range(2, 7):
        for method in (DEFINITIONAL, RECURRENCE):
            assert build_table(s, 0, method).rows == [[1]], (s, method)


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


def _validated_sums(s, n):
    """The hook counts of the shapes on n cells with at most s columns, summed by
    i = c2 - c3 at (i, None) and, for each j, over those with c_j = c_(j+1) at (i, j):
    one brute pass over ColumnShape.column."""
    sums = Counter()
    for shape in enumerate_family(n, s):
        i, count = shape.column(2) - shape.column(3), syt_count_hlf(shape)
        sums[i, None] += count
        for j in range(1, s):
            if shape.column(j) == shape.column(j + 1):
                sums[i, j] += count
    return sums


# (width, last level): level n pulls only columns <= n, so the wide widths check that the
# columns past n read as blocked
BUCKET_RANGES = ([(s, 28) for s in range(3, 8)] + [(s, 14) for s in range(8, 13)]
                 + [(30, 10)])


def test_bucket_sums_equal_validated_shape_sums():
    for s, last in BUCKET_RANGES:
        for n in range(last + 1):
            sums = _validated_sums(s, n)
            for i in range(n // 2 + 2):  # the last bucket is always empty
                assert gamma_def(s, n, i) == sums[i, None], (s, n, i)
                for j in range(1, s):
                    assert correction_r(s, j, n, i) == sums[i, j], (s, j, n, i)


def test_float_indices_raise_a_type_error():
    with pytest.raises(TypeError):
        gamma_def(3, 7.5, 0)
    with pytest.raises(TypeError):
        correction_r(4, 1, 7.5, 0)
    with pytest.raises(TypeError):
        correction_r(4, 1.5, 7, 0)


def test_the_sweep_refuses_a_level_its_digits_cannot_hold():
    message = f"the sweep's 16-bit digits stop at {gamma._DIGIT} cells"
    with pytest.raises(OverflowError, match=f"^{message}$"):
        gamma._next_level(None, 3, gamma._DIGIT)
    # no shape was numbered below it, so every bucket of the level below is empty
    level = gamma._next_level(None, 3, gamma._DIGIT - 1)[1]
    assert level == ((0,) * (gamma._DIGIT // 2 + 1),) * 3


def test_a_failed_sweep_step_leaves_no_trace(monkeypatch):
    width = 5
    gamma._sweep.pop(width, None)
    expected = [gamma._sweep[width][n] for n in range(31)]
    gamma._sweep.pop(width, None)
    steps, next_level = [], gamma._next_level

    def counting_levels(lattice, s, n):
        steps.append(n)
        return next_level(lattice, s, n)

    def failing_sum(values):  # once, at level 20, in the bucket sums after the numbering
        if steps == list(range(21)):
            raise MemoryError("planted")
        return sum(values)

    monkeypatch.setattr(gamma, "_next_level", counting_levels)
    monkeypatch.setattr(gamma, "sum", failing_sum, raising=False)
    with pytest.raises(MemoryError):
        gamma._sweep[width][30]
    assert [gamma._sweep[width][n] for n in range(31)] == expected
    assert steps == list(range(21)) + list(range(20, 31))


def _cache_reads(cached):
    info = cached.cache_info()
    return info.hits + info.misses


def test_cold_table_builds_read_no_hook_count_and_step_each_level_once(cold, monkeypatch):
    steps = []  # the (width, level) of every sweep step

    def counting_levels(frontier, s, n):
        steps.append((s, n))
        return next_level(frontier, s, n)

    next_level = gamma._next_level
    monkeypatch.setattr(gamma, "_next_level", counting_levels)
    frobenius_route = (counting._hook_count, shapes.partitions_at_most)
    # the recurrence reads corrections of rows 0..29 only
    for method, levels in ((DEFINITIONAL, 31), (RECURRENCE, 30)):
        cold()
        steps.clear()
        before = list(map(_cache_reads, frobenius_route))
        build_table(6, 30, method)
        assert list(map(_cache_reads, frobenius_route)) == before
        assert steps == [(6, n) for n in range(levels)]
