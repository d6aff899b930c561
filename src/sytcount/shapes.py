"""Shapes in the column-length convention, and the shape families of a width bound.

A shape is stored as the weakly decreasing list of its column lengths; every
constraint used elsewhere (the second-minus-third column difference, equal
adjacent columns) is a statement about that list, with the convention that
columns beyond the width have length 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


@dataclass(frozen=True)
class ColumnShape:
    """A shape given by its column lengths, leftmost column first."""

    columns: tuple[int, ...]

    def __post_init__(self) -> None:
        cols = tuple(self.columns)
        object.__setattr__(self, "columns", cols)
        if any(type(c) is not int or c < 1 for c in cols):
            raise ValueError(f"column lengths must be positive integers: {cols!r}")
        if any(cols[k] < cols[k + 1] for k in range(len(cols) - 1)):
            raise ValueError(f"column lengths must be weakly decreasing: {cols!r}")

    @property
    def cells(self) -> int:
        return sum(self.columns)

    @property
    def width(self) -> int:
        return len(self.columns)

    def column(self, j: int) -> int:
        """Length of the j-th column (1-based); 0 for columns beyond the width."""
        if j < 1:
            raise ValueError("column indices are 1-based")
        return self.columns[j - 1] if j <= len(self.columns) else 0

    @classmethod
    def from_text(cls, text: str) -> "ColumnShape":
        """Parse a comma-separated column list, e.g. "4,2,1"; "" is the empty shape."""
        stripped = text.strip()
        if not stripped:
            return cls(())
        try:
            parts = tuple(int(p) for p in stripped.split(","))
        except ValueError:
            raise ValueError(f"malformed shape text: {text!r}") from None
        return cls(parts)

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.columns)

    def __str__(self) -> str:
        return self.to_text()


def conjugate(shape: ColumnShape) -> ColumnShape:
    """Transpose of a shape: row lengths of the diagram, read as column lengths."""
    cols = shape.columns
    if not cols:
        return shape
    return ColumnShape(tuple(sum(1 for c in cols if c > r) for r in range(cols[0])))


# typed: 6.0 == 6, so an untyped cache would answer a float from an int's entry
@lru_cache(maxsize=None, typed=True)
def partitions_at_most(cells: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Weakly decreasing positive tuples with at most `width` parts summing to
    `cells`, in lexicographically decreasing order."""
    if not cells.__class__ is width.__class__ is int:  # no float or bool
        raise TypeError(f"cells and width must be integers, got {(cells, width)!r}")
    if cells < 0 or width < 1:
        raise ValueError("need cells >= 0 and width >= 1")
    out: list[tuple[int, ...]] = []

    def grow(remaining: int, max_part: int, slots: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        smallest = -(-remaining // slots)  # remaining parts must still fit
        for part in range(min(remaining, max_part), smallest - 1, -1):
            if slots > 2:
                grow(remaining - part, part, slots - 1, prefix + (part,))
            else:  # the last two parts are this one and what it leaves
                out.append(prefix + (part, remaining - part) if part < remaining
                           else prefix + (part,))

    grow(cells, cells, width, ())
    return tuple(out)


def enumerate_family(cells: int, max_width: int) -> Iterator[ColumnShape]:
    """Yield every shape on `cells` cells with at most `max_width` columns exactly once, a
    validated ColumnShape, in lexicographically decreasing column-list order."""
    yield from map(ColumnShape, partitions_at_most(cells, max_width))


def r3_shape(n: int, i: int) -> ColumnShape | None:
    """The unique equal-first-two-columns shape on n-1 cells that the
    three-column recurrence subtracts at position (n, i), if it exists.

    The shape exists exactly when n - 2i is 2 mod 3 and the resulting column
    list is weakly decreasing with positive parts; it then has column lengths
    (a, a, b) with a = (n+i-2)/3 and b = (n-2i+1)/3.
    """
    if not n.__class__ is i.__class__ is int:  # no float or bool
        raise TypeError(f"n and i must be integers, got {(n, i)!r}")
    if n < 1 or i < 0 or i > n // 2:
        raise ValueError(f"need n >= 1 and 0 <= i <= n//2, got {(n, i)!r}")
    if (n - 2 * i) % 3 != 2:
        return None
    tall = (n + i - 2) // 3
    short = (n - 2 * i + 1) // 3
    if short < 1 or tall < short:
        return None
    return ColumnShape((tall, tall, short))
