from math import factorial

import pytest

from sytcount import counting
from sytcount.counting import (HookDivisionError, _hook_count, listed_counts,
                               syt_count_hlf, syt_count_hook_product, syt_count_recursive)
from sytcount.sequences import involutions
from sytcount.shapes import ColumnShape, conjugate, partitions_at_most


@pytest.mark.parametrize("cols, expected", [
    ((2, 1), 2),
    ((3, 3), 5),       # two equal columns of three: the third Catalan number
    ((7,), 1),
    ((), 1),
    ((2, 2), 2),
    ((2, 1, 1), 3),
    ((5, 3), 28),
    ((3, 2, 1), 16),
])
def test_hook_counts(cols, expected):
    assert syt_count_hlf(ColumnShape(cols)) == expected


def test_single_column_is_always_forced():
    for n in range(1, 25):
        assert syt_count_hlf(ColumnShape((n,))) == 1
        assert syt_count_hlf(ColumnShape((1,) * n)) == 1


@pytest.mark.parametrize("cols, expected", [
    ((2, 2), 2),
    ((1,), 1),
    ((2, 1, 1), 3),
    ((), 1),
])
def test_removal_counts(cols, expected):
    assert syt_count_recursive(ColumnShape(cols)) == expected


def test_listing_examples():
    for cols, count in (((2, 1), 2), ((1, 1, 1), 1), ((), 1), ((3, 2, 1), 16)):
        assert listed_counts(cols, sum(cols))[cols] == count


# n <= 6 lists only the last levels, from the root; larger n list whole levels first
@pytest.mark.parametrize("n", range(13))
def test_walk_tallies_need_no_memo(monkeypatch, n):
    def refuse(cols):
        raise AssertionError(f"the walk read a memo for {cols}")
    monkeypatch.setattr(counting, "_removal_count", refuse)
    monkeypatch.setattr(counting, "_hook_count", refuse)
    tally = listed_counts((n,) * 6, n)
    shapes = [cols for m in range(n + 1) for cols in partitions_at_most(m, 6)]
    assert sorted(tally) == sorted(shapes) and (n < 12 or len(tally) == 227)
    for cols in shapes:
        assert tally[cols] == syt_count_hook_product(ColumnShape(cols)), cols


@pytest.mark.parametrize("last_levels", [0, 1, 5, 7, 10, 11])
def test_any_boundary_between_the_phases_lists_the_same_fillings(monkeypatch, last_levels):
    expected = listed_counts((10,) * 5, 10)
    monkeypatch.setattr(counting, "_LAST_LEVELS", last_levels)
    assert listed_counts((10,) * 5, 10) == expected


def test_column_heights_bound_the_listing():
    # each shape on at most 9 cells as the bounds: the tally's keys are its sub-shapes
    for m in range(10):
        small = [cols for k in range(m + 2) for cols in partitions_at_most(k, m + 1)]
        for bounds in partitions_at_most(m, max(m, 1)):
            fits = [cols for cols in small
                    if len(cols) <= len(bounds) and all(map(int.__le__, cols, bounds))]
            for n in range(m + 2):
                tally = listed_counts(bounds, n)
                inside = [cols for cols in fits if sum(cols) <= n]
                assert sorted(tally) == sorted(inside), (bounds, n)
                for cols in inside:
                    assert tally[cols] == syt_count_hook_product(ColumnShape(cols)), cols


def test_listed_counts_on_n_cells_sum_to_the_involutions():
    for n in range(10):
        tally = listed_counts((n,) * n, n)
        on_n_cells = [count for cols, count in tally.items() if sum(cols) == n]
        assert sum(on_n_cells) == involutions(n)


def test_listed_counts_reject_a_negative_cell_count():
    with pytest.raises(ValueError, match=r"^cells must be >= 0$"):
        listed_counts((3,), -1)


@pytest.mark.parametrize("cells, error, message", [
    (1.5, TypeError, "cells must be an integer, got 1.5"),
    (True, TypeError, "cells must be an integer, got True"),
    (-1, ValueError, "cells must be >= 0")])
def test_listed_counts_check_the_cell_count(cells, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        listed_counts((3,), cells)


def test_a_deep_listing_does_not_recurse():
    tally = listed_counts((2000,), 2000)
    assert tally[(2000,)] == 1 and len(tally) == 2001


def test_triple_agreement_small():
    tally = listed_counts((10,) * 6, 10)
    for n in range(11):
        for cols in partitions_at_most(n, 6):
            shape = ColumnShape(cols)
            by_hook = syt_count_hlf(shape)
            assert by_hook == syt_count_recursive(shape)
            assert by_hook == tally[cols]


def test_a_shape_lists_alike_under_its_own_and_wider_bounds():
    # oracle --shape bounds the walk by the shape itself, the oracle suite by a box
    wide = listed_counts((10,) * 6, 10)
    for n in range(11):
        for cols in partitions_at_most(n, 6):
            assert listed_counts(cols, n)[cols] == wide[cols], cols


def test_conjugation_invariance():
    for n in range(15):
        for cols in partitions_at_most(n, max(n, 1)):
            shape = ColumnShape(cols)
            assert syt_count_hlf(shape) == syt_count_hlf(conjugate(shape))


def test_classical_identities():
    # sum of squared counts over all shapes of n cells is n!; the plain sum
    # follows I(n) = I(n-1) + (n-1) I(n-2)
    involution = [1, 1]
    for n in range(2, 11):
        involution.append(involution[n - 1] + (n - 1) * involution[n - 2])
    for n in range(11):
        counts = [syt_count_hlf(ColumnShape(cols))
                  for cols in partitions_at_most(n, max(n, 1))]
        assert sum(c * c for c in counts) == factorial(n)
        assert sum(counts) == involution[n]


def test_classical_identities_desk_anchor():
    counts = sorted(syt_count_hlf(ColumnShape(cols))
                    for cols in partitions_at_most(4, 4))
    assert counts == [1, 1, 2, 3, 3]
    assert sum(c * c for c in counts) == 24 == factorial(4)
    assert sum(counts) == 10


def test_hook_division_guard_fails_loudly():
    # a malformed column list (bypassing ColumnShape validation) makes the
    # exactness check trip instead of returning a silently wrong count
    for cols in ((1, 2), (2, 3, 1)):
        with pytest.raises(HookDivisionError):
            _hook_count(cols)


def test_per_shape_routes_agree():
    narrow = [cols for n in range(25) for cols in partitions_at_most(n, 6)]
    wide = [cols for n in range(1, 19) for cols in partitions_at_most(n, n)]
    for cols in narrow + wide:
        shape = ColumnShape(cols)
        assert (syt_count_hlf(shape) == syt_count_hook_product(shape)
                == syt_count_recursive(shape)), cols
