"""Exact per-shape tableau counting.

Four independent routes compute the same number: the Frobenius difference
product on the column lengths (single shapes, and the check on the tables' growth
sweep), the cell-by-cell hook product, a memoized corner-removal recursion, and
listing the fillings by walking the tableau tree, which reads no count:
`tableau_walk` yields one shape's fillings, and `listed_counts` tallies every
shape's listed fillings within column bounds in one walk. The other three validate
the first and each other; no floats appear anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, starmap
from math import factorial, prod
from operator import add, gt, sub
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
        cols = self.columns
        return (sorted(x for col in cols for x in col) == list(range(1, self.cells + 1))
                and all(a < b for col in cols for a, b in zip(col, col[1:]))
                and all(len(right) <= len(left) and all(a < b for a, b in zip(left, right))
                        for left, right in zip(cols, cols[1:])))


@cache
def _hook_count(cols: tuple[int, ...]) -> int:
    # Frobenius: n! prod_{i<j} (l_i - l_j) / prod l_i!, with l_i = c_i + k - i.
    lengths = list(map(add, cols, range(len(cols) - 1, -1, -1)))
    if not all(map(gt, lengths, lengths[1:])):  # a 0 factor divides exactly
        raise HookDivisionError(f"column lengths {cols} are not a shape")
    numerator = factorial(sum(cols)) * prod(starmap(sub, combinations(lengths, 2)))
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


def _check_cells(cells: int) -> None:
    if cells.__class__ is not int:  # True would list one level
        raise TypeError(f"cells must be an integer, got {cells!r}")
    if cells < 0:
        raise ValueError("cells must be >= 0")


def tableau_walk(bounds: tuple[int, ...], cells: int
                 ) -> Iterator[tuple[list[int], list[list[int]]]]:
    """Depth-first walk of the fillings of 1..`cells` with column k at most `bounds[k]`
    tall; a child adds m + 1 at a corner, trying columns left to right. Yields the live
    `(heights, filling)` at each leaf."""
    _check_cells(cells)
    width, path, k = len(bounds), [], 0 if cells else len(bounds)
    heights, filling = [0] * width, [[] for _ in bounds]
    if not cells:
        yield heights, filling
    while k < width or path:
        if k < width and heights[k] < bounds[k] and (not k or heights[k] < heights[k - 1]):
            heights[k] += 1  # place the next entry in column k and descend
            path.append(k)
            filling[k].append(len(path))
            if len(path) == cells:
                yield heights, filling
            k = width if len(path) == cells else 0
        else:
            if k == width:  # lift the last entry; its next sibling is one column right
                k = path.pop()
                filling[k].pop()
                heights[k] -= 1
            k += 1


def listed_counts(bounds: tuple[int, ...], cells: int) -> Counter:
    """Lists the fillings of 1..m (m <= `cells`) with column k at most `bounds[k]` tall,
    tallied by column tuple (no trailing zeros). A walk with one iterator per level counts
    each node's children; three levels above the leaves it lists the rest level by level."""
    _check_cells(cells)
    kids, level = {}, [()]  # each shape on fewer than `cells` cells: the shapes it grows
    for _ in range(cells):
        for shape in level:
            cols = shape + (0,)
            kids[shape] = tuple(shape[:k] + (cols[k] + 1,) + shape[k + 1:]
                                for k in range(min(len(cols), len(bounds)))
                                if cols[k] < bounds[k] and (not k or cols[k] < cols[k - 1]))
        level = dict.fromkeys(chain.from_iterable(map(kids.__getitem__, level)))
    shapes = [*kids, *level]  # walked by number: an int hashes faster than a tuple
    number = dict(zip(shapes, range(len(shapes)))).__getitem__
    children = [tuple(map(number, below)) for below in kids.values()].__getitem__
    tally, stack = Counter([0]), [iter([0])] if cells else []
    while stack:
        for node in stack[-1]:  # the number of a shape on len(stack) - 1 cells
            below = children(node)
            tally.update(below)
            if len(stack) + 3 < cells:
                stack.append(iter(below))
                break
            for _ in range(cells - len(stack)):  # each filling below is one list entry
                below = [*chain.from_iterable(map(children, below))]
                tally.update(below)
        else:
            stack.pop()
    return Counter(dict(zip(map(shapes.__getitem__, tally), tally.values())))


def syt_enumerate(shape: ColumnShape,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[StandardTableau]:
    """Lazily yield the standard fillings of `shape`, bounding `tableau_walk` by its
    columns. Above `cap` cells it raises: listing is for desk-scale validation."""
    if cap.__class__ is not int:  # True would cap at one cell, 2.5 at two
        raise TypeError(f"cap must be an integer, got {cap!r}")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if shape.cells > cap:
        raise ValueError(
            f"shape has {shape.cells} cells, above the enumeration cap of {cap}")
    return (StandardTableau(tuple(map(tuple, filling)))
            for _, filling in tableau_walk(shape.columns, shape.cells))
