"""Exact per-shape tableau counting.

Four independent routes compute the same number: the Frobenius difference
product on the column lengths (the workhorse), the cell-by-cell hook product,
a memoized corner-removal recursion, and explicit enumeration of the
fillings. The other three exist to validate the first and each other; no
floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import factorial, prod
from typing import Iterator

from .shapes import ColumnShape, conjugate

DEFAULT_ENUMERATION_CAP = 16


class HookDivisionError(ArithmeticError):
    """Internal consistency failure: n! was not divisible by the hook product."""


@dataclass(frozen=True)
class StandardTableau:
    """A standard filling of a shape, stored column by column (top to bottom)."""

    columns: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> ColumnShape:
        return ColumnShape(tuple(len(col) for col in self.columns))

    @property
    def cells(self) -> int:
        return sum(len(col) for col in self.columns)

    def is_standard(self) -> bool:
        """Entries are 1..n, strictly increasing down columns and along rows."""
        entries = [x for col in self.columns for x in col]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            return False
        for col in self.columns:
            if any(col[r] >= col[r + 1] for r in range(len(col) - 1)):
                return False
        for k in range(len(self.columns) - 1):
            left, right = self.columns[k], self.columns[k + 1]
            if len(right) > len(left):
                return False
            if any(left[r] >= right[r] for r in range(len(right))):
                return False
        return True


@cache
def _hook_count(cols: tuple[int, ...]) -> int:
    # Frobenius: n! prod_{i<j} (l_i - l_j) / prod l_i!, with l_i = c_i + k - i.
    lengths = [c + len(cols) - i for i, c in enumerate(cols, 1)]
    if any(a <= b for a, b in zip(lengths, lengths[1:])):  # a 0 factor divides exactly
        raise HookDivisionError(f"column lengths {cols} are not a shape")
    numerator = factorial(sum(cols)) * prod(a - b for a, b in combinations(lengths, 2))
    count, remainder = divmod(numerator, prod(map(factorial, lengths)))
    if remainder:
        raise HookDivisionError(f"inexact Frobenius quotient for columns {cols}")
    return count


def syt_count_hlf(shape: ColumnShape) -> int:
    """Number of standard fillings of `shape`, by the Frobenius (difference
    product) form of the hook length formula on the column lengths."""
    return _hook_count(shape.columns)


def syt_count_hook_product(shape: ColumnShape) -> int:
    """Number of standard fillings, by the cell-by-cell hook product (uncached)."""
    cols, rows = shape.columns, conjugate(shape).columns
    product = prod(rows[r] - c + cols[c] - r - 1
                   for r in range(len(rows)) for c in range(rows[r]))
    count, remainder = divmod(factorial(shape.cells), product)
    if remainder:
        raise HookDivisionError(
            f"hook product {product} does not divide {shape.cells}! for columns {cols}")
    return count


@cache
def _removal_count(cols: tuple[int, ...]) -> int:
    if not cols:
        return 1
    total = 0
    for k in range(len(cols)):
        if k + 1 == len(cols) or cols[k] > cols[k + 1]:
            if cols[k] == 1:
                shrunk = cols[:k]  # removable 1-cell column is always the last
            else:
                shrunk = cols[:k] + (cols[k] - 1,) + cols[k + 1:]
            total += _removal_count(shrunk)
    return total


def syt_count_recursive(shape: ColumnShape) -> int:
    """Number of standard fillings, by memoized removal of corner cells."""
    return _removal_count(shape.columns)


def syt_enumerate(shape: ColumnShape,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[StandardTableau]:
    """Yield every standard filling of `shape`, deterministically ordered.

    Fillings are produced by placing 1..n at addable corners, trying columns
    left to right. Shapes above `cap` cells are rejected up front: the number
    of fillings grows super-exponentially and this enumeration exists for
    desk-scale validation only.
    """
    if shape.cells > cap:
        raise ValueError(
            f"shape has {shape.cells} cells, above the enumeration cap of {cap}")
    cols = shape.columns
    n = shape.cells
    heights = [0] * len(cols)
    filling: list[list[int]] = [[] for _ in cols]

    def place(symbol: int) -> Iterator[StandardTableau]:
        if symbol > n:
            yield StandardTableau(tuple(tuple(col) for col in filling))
            return
        for k in range(len(cols)):
            if heights[k] < cols[k] and (k == 0 or heights[k] < heights[k - 1]):
                heights[k] += 1
                filling[k].append(symbol)
                yield from place(symbol + 1)
                filling[k].pop()
                heights[k] -= 1

    return place(1)
