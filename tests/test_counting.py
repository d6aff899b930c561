import hashlib
from math import factorial

import pytest

from sytcount import counting
from sytcount.counting import (HookDivisionError, StandardTableau, _hook_count,
                               listed_counts, syt_count_hlf, syt_count_hook_product,
                               syt_count_recursive, syt_enumerate, tableau_walk)
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


def test_enumeration_examples():
    assert sum(1 for _ in syt_enumerate(ColumnShape((2, 1)))) == 2
    assert sum(1 for _ in syt_enumerate(ColumnShape((1, 1, 1)))) == 1
    listed = list(syt_enumerate(ColumnShape(())))
    assert len(listed) == 1 and listed[0].columns == ()


def test_enumeration_is_deterministic_valid_and_duplicate_free():
    first = list(syt_enumerate(ColumnShape((3, 2, 1))))
    second = list(syt_enumerate(ColumnShape((3, 2, 1))))
    assert first == second
    assert len(first) == 16
    assert len(set(first)) == 16
    for tableau in first:
        assert tableau.is_standard()
        assert tableau.shape == ColumnShape((3, 2, 1))
        assert tableau.cells == 6


def test_enumeration_cap_guard():
    with pytest.raises(ValueError):
        syt_enumerate(ColumnShape((9, 8)))
    # the cap is overridable
    wide = ColumnShape((9, 9))
    assert sum(1 for _ in syt_enumerate(wide, cap=18)) == syt_count_hlf(wide)


def test_enumeration_rejects_a_negative_cap_before_counting_cells():
    # the empty shape has 0 cells, so a cell check alone would blame the shape
    with pytest.raises(ValueError, match=r"^cap must be >= 0$"):
        syt_enumerate(ColumnShape(()), cap=-1)
    with pytest.raises(ValueError, match=r"^cap must be >= 0$"):
        syt_enumerate(ColumnShape((2, 1)), cap=-1)


# SHA-256 over every filling that `syt_enumerate` lists for the shapes with <= 8 cells
# and <= 6 columns, shapes in `partitions_at_most` order, one `repr(columns)` line each.
LISTING_DIGEST = "26cb9f81805b61dbed8ef5685cfa17337502e75921554c4b2da499fffd6dd5c5"


def test_listing_order_is_pinned():
    digest, listed = hashlib.sha256(), 0
    for n in range(9):
        for cols in partitions_at_most(n, 6):
            for tableau in syt_enumerate(ColumnShape(cols)):
                digest.update(repr(tableau.columns).encode() + b"\n")
                listed += 1
    assert (digest.hexdigest(), listed) == (LISTING_DIGEST, 1107)


def test_enumeration_is_lazy(monkeypatch):
    built = []
    monkeypatch.setattr(counting, "StandardTableau",
                        lambda columns: built.append(columns) or StandardTableau(columns))
    shape = ColumnShape((6, 4, 3, 2, 1))  # 16 cells, 1,153,152 fillings
    listing = syt_enumerate(shape)
    assert iter(listing) is listing and not built
    first = next(listing)
    assert first.columns == ((1, 2, 3, 4, 5, 6), (7, 8, 9, 10), (11, 12, 13), (14, 15),
                             (16,))
    next(listing)
    assert len(built) == 2 and syt_count_hlf(shape) == 1153152


def test_walk_tallies_need_no_memo(monkeypatch):
    def refuse(cols):
        raise AssertionError(f"the walk read a memo for {cols}")
    monkeypatch.setattr(counting, "_removal_count", refuse)
    monkeypatch.setattr(counting, "_hook_count", refuse)
    tally = listed_counts((12,) * 6, 12)
    shapes = [cols for n in range(13) for cols in partitions_at_most(n, 6)]
    assert len(shapes) == len(tally) == 227
    for cols in shapes:
        assert tally[cols] == syt_count_hook_product(ColumnShape(cols)), cols


def test_listed_counts_match_the_leaves_of_the_one_shape_walk():
    for n in range(10):
        for cols in partitions_at_most(n, max(n, 1)):
            leaves = sum(1 for _ in tableau_walk(cols, n))
            assert listed_counts(cols, n)[cols] == leaves, cols


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
def test_both_walks_check_the_cell_count_alike(cells, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        next(tableau_walk((3,), cells))
    with pytest.raises(error, match=f"^{message}$"):
        listed_counts((3,), cells)


def test_a_deep_listing_does_not_recurse():
    tally = listed_counts((2000,), 2000)
    assert tally[(2000,)] == 1 and len(tally) == 2001


def test_walk_nodes_are_the_distinct_standard_fillings():
    seen = set()
    for m in range(9):  # the nodes of the tree to depth 8 are the leaves of these walks
        for heights, filling in tableau_walk((8,) * 6, m):
            tableau = StandardTableau(tuple(tuple(col) for col in filling if col))
            assert tableau.is_standard() and heights == [len(col) for col in filling]
            seen.add(tableau)
    assert len(seen) == sum(syt_count_hlf(ColumnShape(cols))
                            for n in range(9) for cols in partitions_at_most(n, 6))


def test_is_standard_detects_bad_fillings():
    assert StandardTableau(((1, 2), (3,))).is_standard()
    assert StandardTableau(((1, 3), (2,))).is_standard()
    assert not StandardTableau(((2, 1), (3,))).is_standard()   # column decreases
    assert not StandardTableau(((2, 3), (1,))).is_standard()   # row decreases
    assert not StandardTableau(((1, 2), (4,))).is_standard()   # entries not 1..n
    assert not StandardTableau(((1,), (2, 3))).is_standard()   # not a shape


def test_triple_agreement_small():
    for n in range(11):
        for cols in partitions_at_most(n, 6):
            shape = ColumnShape(cols)
            by_hook = syt_count_hlf(shape)
            assert by_hook == syt_count_recursive(shape)
            assert by_hook == sum(1 for _ in syt_enumerate(shape))


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
