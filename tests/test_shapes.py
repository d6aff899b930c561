from itertools import combinations_with_replacement

import pytest

from sytcount.shapes import (ColumnShape, conjugate, enumerate_family, partitions_at_most,
                             r3_shape)


@pytest.mark.parametrize("cols, message", [
    ((2, 0), "positive integers"),
    ((-1,), "positive integers"),
    ((2, 0, 1), "positive integers"),  # also increasing: positivity is checked first
    ((True,), "positive integers"),
    ((True, True), "positive integers"),
    ((1.0,), "positive integers"),
    ((2.0, 1), "positive integers"),
    (("a", 1), "positive integers"),
    ((1, 2), "weakly decreasing"),
])
def test_columns_must_be_positive_plain_integers_then_weakly_decreasing(cols, message):
    with pytest.raises(ValueError, match=f"^column lengths must be {message}: "):
        ColumnShape(cols)


def test_cells_width_and_empty_shape():
    shape = ColumnShape((4, 2, 1))
    assert shape.cells == 7
    assert shape.width == 3
    empty = ColumnShape(())
    assert empty.cells == 0 and empty.width == 0


def test_width_never_exceeds_cells():
    for n in range(13):
        for cols in partitions_at_most(n, max(n, 1)):
            shape = ColumnShape(cols)
            assert shape.width <= shape.cells


def test_column_accessor_zero_pads():
    shape = ColumnShape((3, 1))
    assert [shape.column(j) for j in (1, 2, 3, 4)] == [3, 1, 0, 0]
    with pytest.raises(ValueError):
        shape.column(0)


def test_text_round_trip():
    assert ColumnShape.from_text("4,2,1").columns == (4, 2, 1)
    assert ColumnShape.from_text("").columns == ()
    assert ColumnShape((4, 2, 1)).to_text() == "4,2,1"
    assert ColumnShape(()).to_text() == ""
    assert str(ColumnShape((3, 3))) == "3,3"
    with pytest.raises(ValueError):
        ColumnShape.from_text("3,a")
    with pytest.raises(ValueError):
        ColumnShape.from_text("1,2")


@pytest.mark.parametrize("cols, expected", [
    ((2, 1), (2, 1)),        # self-conjugate staircase
    ((3, 3), (2, 2, 2)),     # hand transpose of a two-column rectangle
    ((), ()),
    ((3, 1), (2, 1, 1)),
])
def test_conjugate_examples(cols, expected):
    assert conjugate(ColumnShape(cols)).columns == expected


def test_conjugate_reads_each_row_off_the_columns():
    for n in range(21):
        for cols in partitions_at_most(n, max(n, 1)):
            rows = tuple(sum(1 for c in cols if c > r) for r in range(max(cols, default=0)))
            assert conjugate(ColumnShape(cols)).columns == rows, cols


def test_conjugate_is_an_involution_preserving_cells():
    for n in range(13):
        for cols in partitions_at_most(n, max(n, 1)):
            shape = ColumnShape(cols)
            flipped = conjugate(shape)
            assert conjugate(flipped) == shape
            assert flipped.cells == shape.cells


def test_family_validation():
    with pytest.raises(TypeError):
        next(enumerate_family(4.0, 3))
    with pytest.raises(TypeError):
        next(enumerate_family(4, True))
    with pytest.raises(ValueError):
        next(enumerate_family(-1, 3))
    with pytest.raises(ValueError):
        next(enumerate_family(4, 0))


def test_family_examples():
    assert list(enumerate_family(4, 3)) == [
        ColumnShape((4,)), ColumnShape((3, 1)), ColumnShape((2, 2)), ColumnShape((2, 1, 1))]
    assert list(enumerate_family(0, 3)) == [ColumnShape(())]


def test_family_order_is_lex_decreasing_without_duplicates():
    listed = [shape.columns for shape in enumerate_family(9, 4)]
    assert listed == sorted(listed, reverse=True)
    assert len(listed) == len(set(listed))


def test_r3_shape_examples():
    assert r3_shape(4, 1) == ColumnShape((1, 1, 1))
    assert r3_shape(6, 2) == ColumnShape((2, 2, 1))
    assert r3_shape(5, 0) is None  # formula would give (1,1,2): rejected
    assert r3_shape(1, 0) is None  # n - 2i = 1 is not 2 mod 3
    assert r3_shape(5, 1) is None
    assert r3_shape(5, 2) is None


def test_r3_shape_validates_arguments():
    with pytest.raises(ValueError):
        r3_shape(0, 0)
    with pytest.raises(ValueError):
        r3_shape(4, 3)
    with pytest.raises(ValueError):
        r3_shape(4, -1)


def test_r3_shape_is_the_unique_family_member():
    for n in range(1, 26):
        for i in range(1, n // 2 + 1):
            members = [shape for shape in enumerate_family(n - 1, 3)  # a brute filter
                       if shape.column(1) == shape.column(2)
                       and shape.column(2) - shape.column(3) == i - 1]
            shape = r3_shape(n, i)
            if shape is None:
                assert members == []
            else:
                assert members == [shape]
                assert shape.cells == n - 1
                assert shape.column(1) == shape.column(2)
                assert shape.column(2) - shape.column(3) == i - 1


def test_partitions_match_a_brute_generator_in_order():
    cells, width = 22, 8
    by_sum = {}  # every weakly decreasing width-tuple of 0..cells, zero-padded
    for parts in combinations_with_replacement(range(cells, -1, -1), width):
        total = sum(parts)
        if total <= cells:
            by_sum.setdefault(total, []).append(parts)
    for n in range(cells + 1):
        for w in range(1, width + 1):
            brute = sorted((tuple(p for p in parts if p) for parts in by_sum[n]
                            if not any(parts[w:])), reverse=True)
            assert list(partitions_at_most(n, w)) == brute, (n, w)
