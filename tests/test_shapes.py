from itertools import combinations_with_replacement

import pytest

from sytcount.shapes import (ColumnShape, ShapeFamilyQuery, conjugate,
                             enumerate_family, partitions_at_most, r3_shape)


def columns_in(query):
    return [shape.columns for shape in enumerate_family(query)]


def test_columns_must_be_weakly_decreasing_and_positive():
    with pytest.raises(ValueError):
        ColumnShape((1, 2))
    with pytest.raises(ValueError):
        ColumnShape((2, 0))
    with pytest.raises(ValueError):
        ColumnShape((-1,))


def test_columns_must_be_plain_integers():
    with pytest.raises(ValueError):
        ColumnShape((True, True))
    with pytest.raises(ValueError):
        ColumnShape((2.0, 1))


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


def test_conjugate_is_an_involution_preserving_cells():
    for n in range(13):
        for cols in partitions_at_most(n, max(n, 1)):
            shape = ColumnShape(cols)
            flipped = conjugate(shape)
            assert conjugate(flipped) == shape
            assert flipped.cells == shape.cells


def test_query_validation():
    with pytest.raises(ValueError):
        ShapeFamilyQuery(cells=-1, max_width=3)
    with pytest.raises(ValueError):
        ShapeFamilyQuery(cells=4, max_width=0)
    with pytest.raises(ValueError):
        ShapeFamilyQuery(cells=4, max_width=3, second_third_diff=-1)
    with pytest.raises(ValueError):
        ShapeFamilyQuery(cells=4, max_width=3, equal_pair=0)


def test_family_examples():
    assert columns_in(ShapeFamilyQuery(4, 3, second_third_diff=0)) == [(4,), (2, 1, 1)]
    assert columns_in(ShapeFamilyQuery(6, 3, second_third_diff=2)) == [(4, 2)]
    # (1,1,1) fails c3 = c4 because c4 reads as 0
    assert columns_in(ShapeFamilyQuery(3, 4, second_third_diff=0, equal_pair=3)) == [(3,)]


def test_family_order_is_lex_decreasing_without_duplicates():
    listed = columns_in(ShapeFamilyQuery(9, 4))
    assert listed == sorted(listed, reverse=True)
    assert len(listed) == len(set(listed))


def test_empty_family_and_degenerate_zero_cells():
    assert columns_in(ShapeFamilyQuery(2, 3, second_third_diff=5)) == []
    # the empty shape answers diff=0 queries at zero cells
    assert columns_in(ShapeFamilyQuery(0, 3, second_third_diff=0)) == [()]
    assert columns_in(ShapeFamilyQuery(0, 3, second_third_diff=1)) == []
    assert columns_in(ShapeFamilyQuery(0, 5, second_third_diff=0, equal_pair=4)) == [()]


def test_families_partition_the_bounded_partitions():
    # the diff classes cover every partition with at most s columns exactly once
    for s in range(3, 7):
        for n in range(26):
            everything = sorted(partitions_at_most(n, s), reverse=True)
            collected = []
            for i in range(n // 2 + 2):
                collected.extend(columns_in(ShapeFamilyQuery(n, s, second_third_diff=i)))
            assert len(collected) == len(set(collected))
            assert sorted(collected, reverse=True) == everything


def test_equal_pair_constraint_holds_literally():
    for n in range(16):
        for j in (1, 2, 3, 4):
            for shape in enumerate_family(ShapeFamilyQuery(n, 4, equal_pair=j)):
                assert shape.column(j) == shape.column(j + 1)


def test_r3_shape_examples():
    assert r3_shape(4, 1) == ColumnShape((1, 1, 1))
    assert r3_shape(6, 2) == ColumnShape((2, 2, 1))
    assert r3_shape(5, 0) is None  # formula would give (1,1,2): rejected
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
            members = list(enumerate_family(ShapeFamilyQuery(
                n - 1, 3, second_third_diff=i - 1, equal_pair=1)))
            shape = r3_shape(n, i)
            if shape is None:
                assert members == []
            else:
                assert members == [shape]
                assert shape.cells == n - 1
                assert shape.column(1) == shape.column(2)
                assert shape.column(2) - shape.column(3) == i - 1


def test_bucketed_families_match_a_brute_filter_in_order():
    for s in range(1, 7):
        for n in range(31):
            shapes = [ColumnShape(cols) for cols in partitions_at_most(n, s)]
            for diff in (None, *range(n // 2 + 2)):
                for pair in (None, *range(1, s + 1)):
                    expected = [
                        shape.columns for shape in shapes
                        if (diff is None or shape.column(2) - shape.column(3) == diff)
                        and (pair is None or shape.column(pair) == shape.column(pair + 1))]
                    query = ShapeFamilyQuery(cells=n, max_width=s,
                                             second_third_diff=diff, equal_pair=pair)
                    assert columns_in(query) == expected, query


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
