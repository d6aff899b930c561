"""Reference values for every benchmark output, computed without sytcount.

Totals come from closed forms: middle binomials (s=2), Motzkin numbers (s=3)
and the Gouyou-Beauchamps formulas (s=4, 5). Per-shape counts use the
Frobenius difference-product form of the hook length formula, and table
entries sum it over this module's own partition enumeration. CLI output has
no closed form, so it is compared with digests pinned from the seed code.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

from canon import digest
from pins import CLI_DIGESTS


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def motzkin(n: int) -> int:
    return sum(comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1))


def middle_binomial(n: int) -> int:
    return comb(n, n // 2)


def tau4(n: int) -> int:
    """Gouyou-Beauchamps: C_{floor((n+1)/2)} * C_{ceil((n+1)/2)}."""
    return catalan((n + 1) // 2) * catalan((n + 2) // 2)


def tau5(n: int) -> int:
    """Gouyou-Beauchamps: 6 * sum_k binom(n,2k) C_k (2k+2)! / ((k+2)! (k+3)!)."""
    total = 6 * sum(Fraction(comb(n, 2 * k) * catalan(k) * factorial(2 * k + 2),
                             factorial(k + 2) * factorial(k + 3))
                    for k in range(n // 2 + 1))
    if total.denominator != 1:
        raise ArithmeticError(f"tau5({n}) is not an integer")
    return total.numerator


def partitions(cells: int, parts: int, largest: int | None = None):
    """Partitions of `cells` into at most `parts` parts no larger than
    `largest`, as weakly decreasing tuples."""
    if largest is None:
        largest = cells
    if cells == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(cells, largest), 0, -1):
        if first * parts < cells:
            break
        for rest in partitions(cells - first, parts - 1, first):
            yield (first,) + rest


def frobenius(lengths: tuple[int, ...]) -> int:
    """Standard fillings of a shape, by n! prod_{i<j}(h_i - h_j) / prod h_i!
    with h_i = l_i + k - i. Conjugation leaves the count unchanged, so the
    lengths may be rows or columns."""
    k = len(lengths)
    h = [length + k - 1 - i for i, length in enumerate(lengths)]
    numerator = factorial(sum(lengths)) * prod(h[i] - h[j] for i in range(k)
                                               for j in range(i + 1, k))
    count, remainder = divmod(numerator, prod(factorial(x) for x in h))
    if remainder:
        raise ArithmeticError(f"Frobenius quotient not exact for {lengths}")
    return count


@cache
def table_row(s: int, n: int) -> tuple[int, ...]:
    """Row n of the width-s table: entry i sums the shapes with c2 - c3 = i."""
    row = [0] * (n // 2 + 1)
    for cols in partitions(n, s):
        c2 = cols[1] if len(cols) > 1 else 0
        c3 = cols[2] if len(cols) > 2 else 0
        row[c2 - c3] += frobenius(cols)
    return tuple(row)


@cache
def tau(s: int, n: int) -> int:
    closed = {2: middle_binomial, 3: motzkin, 4: tau4, 5: tau5}.get(s)
    if closed is not None:
        return closed(n)
    return sum(table_row(s, n))


def ratio(s: int, n: int) -> Fraction:
    return Fraction(tau(s, n), tau(s, n - 1))


def approx(value: Fraction, digits: int = 12) -> str:
    """Plain decimal with `digits` significant digits, the ratio tables'
    presentation column."""
    with localcontext() as ctx:
        ctx.prec = digits
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return format(quotient, "f")


def decomposition(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Parity, leading-entry and correction shares of 3 - M_n / M_{n-1}."""
    denominator = tau(3, n - 1)
    parity = Fraction(catalan((n - 1) // 2) if (n - 1) % 2 == 0 else 0, denominator)
    gamma0 = Fraction(table_row(3, n - 1)[0], denominator)
    return parity, gamma0, 3 - ratio(3, n) - parity - gamma0


def build_table(s: int, max_n: int) -> list[tuple[int, ...]]:
    rows = [table_row(s, n) for n in range(max_n + 1)]
    for n, row in enumerate(rows):
        if sum(row) != tau(s, n):
            raise ArithmeticError(f"reference row {n} of width {s} misses its total")
    return rows


def cli_key(argv) -> str:
    return " ".join(argv)


def expected(op: list):
    """The output an operation must produce, in the form `canon.digest` takes."""
    kind, args = op[0], op[1:]
    if kind == "ratio_table":
        s, max_n = args
        return [(n, ratio(s, n), approx(ratio(s, n))) for n in range(1, max_n + 1)]
    if kind == "ratio_decompositions":
        lo, hi = args
        return [decomposition(n) for n in range(lo, hi + 1)]
    if kind == "build_table":
        return build_table(*args[:2])
    if kind == "syt_count_hlf":
        return frobenius(tuple(args[0]))
    if kind in ("gamma_def", "gamma_rec"):
        s, n, i = args
        row = table_row(s, n)
        return row[i] if i < len(row) else 0
    if kind == "tau":
        return tau(*args[:2])
    if kind == "ratio":
        return ratio(*args)
    if kind == "cli":
        return [0, CLI_DIGESTS[cli_key(args[0])]]
    raise ValueError(f"no reference for operation kind {kind!r}")


def expected_digests(ops: list[list]) -> list[str]:
    memo: dict[str, str] = {}
    out = []
    for op in ops:
        key = repr(op)
        if key not in memo:
            memo[key] = digest(expected(op))
        out.append(memo[key])
    return out
