"""Exact per-shape tableau counting.

Four independent routes compute the same number: the Frobenius difference
product on the column lengths (single shapes, and the check on the tables' growth
sweep), the cell-by-cell hook product, a memoized corner-removal recursion, and
listing the fillings by walking the tableau tree, which reads no count:
`listed_counts` tallies every shape's listed fillings within column bounds in one
walk, and one shape's own columns as the bounds list just that shape's fillings
(`oracle --shape`, up to `DEFAULT_ENUMERATION_CAP` cells by default). The other three
validate the first and each other; no floats appear anywhere.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import chain, combinations, islice, starmap
from math import factorial, prod
from operator import add, gt, sub

from .shapes import ColumnShape, conjugate

DEFAULT_ENUMERATION_CAP = 16
# `listed_counts` lists whole levels, then the last _LAST_LEVELS below each node, each level
# in one call into C. More last levels make fewer calls but longer lists below a node: at 6
# the oracle suite's listing and `oracle --shape 6,5,3,2` each peak under 0.1 MiB, and each
# level more raises the suite's peak by half or more.
_LAST_LEVELS = 6


class HookDivisionError(ArithmeticError):
    """Internal consistency failure: n! was not divisible by the hook product."""


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


def listed_counts(bounds: tuple[int, ...], cells: int) -> Counter:
    """Lists the fillings of 1..m (m <= `cells`) with column k at most `bounds[k]` tall,
    tallied by column tuple (no trailing zeros). Each filling is one list entry: the walk
    lists whole levels down to `_LAST_LEVELS` above the leaves, then the last levels below
    each node it reached there."""
    if cells.__class__ is not int:  # True would list one level
        raise TypeError(f"cells must be an integer, got {cells!r}")
    if cells < 0:
        raise ValueError("cells must be >= 0")
    number, children, level = {(): 0}, [], [()]  # shape i grows the shapes children[i]
    for _ in range(cells):  # the walk lists numbers: an int hashes faster than a tuple
        first = len(number)
        for shape in level:  # a shape is numbered the first time it is reached
            cols = shape + (0,)
            children.append([number.setdefault(shape[:k] + (cols[k] + 1,) + shape[k + 1:],
                                               len(number))
                             for k in range(min(len(cols), len(bounds)))
                             if cols[k] < bounds[k] and (not k or cols[k] < cols[k - 1])])
        # the shapes this level numbered, the dict's last, in the order of their numbers
        level = [*islice(reversed(number), len(number) - first)][::-1]
    children, tally, nodes = children.__getitem__, Counter([0]), [0]
    for _ in range(cells - _LAST_LEVELS):  # nodes: one entry per filling on this level
        nodes = [*chain.from_iterable(map(children, nodes))]
        tally.update(nodes)
    for node in nodes:
        below = [node]
        for _ in range(min(cells, _LAST_LEVELS)):
            below = [*chain.from_iterable(map(children, below))]
            tally.update(below)
    return Counter(dict(zip(map([*number].__getitem__, tally), tally.values())))
