from fractions import Fraction
from math import comb, factorial

import pytest

import sytcount.sequences as seq
from sytcount.sequences import (RatioParts, RecurrenceMismatchError,
                                approx_decimal, catalan, central_binomial,
                                correction_aggregate, involutions, motzkin,
                                parity_indicator, ratio, ratio_decomposition,
                                ratio_table, tau, tau_growth,
                                tau_recurrence_step, tau_series)

CATALAN_PREFIX = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
MOTZKIN_PREFIX = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
MIDDLE_BINOMIAL_PREFIX = [1, 1, 2, 3, 6, 10, 20, 35, 70, 126, 252]
INVOLUTION_PREFIX = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]
# brute-force enumeration totals for width bounds 4 and 5
TAU4_PREFIX = [1, 1, 2, 4, 10, 25, 70, 196, 588, 1764, 5544]
TAU5_PREFIX = [1, 1, 2, 4, 10, 26, 75, 225, 715, 2347, 7990]


def test_parity_indicator():
    assert [parity_indicator(n) for n in range(6)] == [1, 0, 1, 0, 1, 0]


def test_reference_sequence_prefixes():
    assert [catalan(n) for n in range(11)] == CATALAN_PREFIX
    assert [motzkin(n) for n in range(11)] == MOTZKIN_PREFIX
    assert [central_binomial(n) for n in range(11)] == MIDDLE_BINOMIAL_PREFIX
    assert [involutions(n) for n in range(11)] == INVOLUTION_PREFIX


def test_reference_sequences_against_binomial_formulas():
    for n in range(40):
        assert catalan(n) == comb(2 * n, n) // (n + 1)
        assert central_binomial(n) == comb(n, n // 2)
        # Motzkin as a Catalan transform
        assert motzkin(n) == sum(comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1))


def test_reference_sequences_reject_negative_indices():
    for fn in (catalan, motzkin, central_binomial, involutions):
        with pytest.raises(ValueError):
            fn(-1)


def test_tau_examples():
    assert tau(2, 5, "closed") == 10
    assert tau(3, 6, "definition") == 51
    assert tau(4, 4, "definition") == 10
    for s in (2, 3, 4, 5):
        for method in ("definition", "recurrence"):
            assert tau(s, 0, method) == 1
    assert tau(2, 0, "closed") == tau(3, 0, "closed") == 1


def test_tau_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tau(1, 3)
    with pytest.raises(ValueError):
        tau(3, -1)
    with pytest.raises(ValueError):
        tau(4, 5, "closed")
    with pytest.raises(ValueError):
        tau(3, 5, "sideways")


def test_tau_methods_agree():
    for n in range(31):
        assert tau(2, n, "definition") == tau(2, n, "recurrence") == tau(2, n, "closed")
    for n in range(21):
        assert tau(3, n, "definition") == tau(3, n, "recurrence") == motzkin(n)
    for s, prefix in ((4, TAU4_PREFIX), (5, TAU5_PREFIX)):
        for n, expected in enumerate(prefix):
            assert tau(s, n, "definition") == expected
            assert tau(s, n, "recurrence") == expected


def test_tau_growth_agrees_with_definition():
    for s in (2, 3, 4, 5):
        for n in range(16):
            assert tau_growth(s, n) == tau(s, n, "definition")
    with pytest.raises(ValueError):
        tau_growth(1, 5)
    with pytest.raises(ValueError):
        tau_growth(3, -1)


def test_cleared_growth_memo_rebuilds_from_the_empty_shape():
    tau_growth(4, len(TAU4_PREFIX) + 5)
    seq._growth_states[4].clear()
    assert tau_growth(4, len(TAU4_PREFIX) - 1) == TAU4_PREFIX[-1]
    assert [tau_growth(4, n) for n in range(len(TAU4_PREFIX))] == TAU4_PREFIX


def _catalan(k):
    return comb(2 * k, k) // (k + 1)


def test_tau_series_matches_closed_forms():
    for n in range(201):
        assert tau_series(2, n) == comb(n, n // 2)
        assert tau_series(3, n) == sum(comb(n, 2 * k) * _catalan(k)
                                       for k in range(n // 2 + 1))
        # Gouyou-Beauchamps, height 4
        assert tau_series(4, n) == _catalan((n + 1) // 2) * _catalan((n + 2) // 2)
    for n in range(121):
        # Gouyou-Beauchamps, height 5
        assert tau_series(5, n) == sum(
            Fraction(6 * comb(n, 2 * k) * _catalan(k) * factorial(2 * k + 2),
                     factorial(k + 2) * factorial(k + 3))
            for k in range(n // 2 + 1))


def test_tau_series_matches_the_other_routes():
    for s in (6, 7):
        for n in range(41):
            assert tau_series(s, n) == tau_growth(s, n)
    for s in (8, 9, 10):
        for n in range(21):
            assert tau_series(s, n) == tau(s, n, "definition")


def test_tau_series_counts_involutions_up_to_the_width():
    counts = [1, 1]
    for n in range(2, 11):
        counts.append(counts[-1] + (n - 1) * counts[-2])
    for s in range(2, 11):
        for n in range(s + 1):
            assert tau_series(s, n) == counts[n]


def test_tau_series_rejects_bad_arguments():
    for call in (tau_series, tau_growth):
        with pytest.raises(ValueError, match="width bound must be at least 2"):
            call(1, 5)
        with pytest.raises(ValueError, match="cell count must be >= 0"):
            call(3, -1)


def test_cleared_series_memo_rebuilds_from_degree_one(monkeypatch):
    tau_series(5, len(TAU5_PREFIX) + 60)
    degrees = []
    build = seq._determinant_totals

    def recording(s, degree):
        degrees.append(degree)
        return build(s, degree)

    monkeypatch.setattr(seq, "_determinant_totals", recording)
    seq._series_states[5].clear()
    assert tau_series(5, len(TAU5_PREFIX) - 1) == TAU5_PREFIX[-1]
    assert [tau_series(5, n) for n in range(len(TAU5_PREFIX))] == TAU5_PREFIX
    assert degrees == [1, 2, 4, 8, 16]


def test_series_pivot_without_unit_constant_term_raises(monkeypatch):
    monkeypatch.setattr(seq, "comb", lambda n, k: 2 * comb(n, k))
    with pytest.raises(ArithmeticError, match="pivot 0 has constant term 2"):
        seq._determinant_totals(4, 5)


def test_recurrence_step_desk_values():
    step = tau_recurrence_step(3, 4)
    assert (step.main, step.parity_term, step.gamma0_term,
            step.correction_total) == (12, 0, 2, 1)
    assert step.value == 9
    step = tau_recurrence_step(3, 6)
    assert (step.main, step.parity_term, step.gamma0_term,
            step.correction_total) == (63, 0, 7, 5)
    assert step.value == 51
    step = tau_recurrence_step(2, 5)
    assert (step.main, step.parity_term, step.gamma0_term,
            step.correction_total) == (12, 2, 0, 0)
    assert step.value == 10


def test_recurrence_step_both_methods():
    for s, lo in ((2, 1), (3, 3), (4, 4), (5, 5)):
        for n in range(lo, 16):
            by_def = tau_recurrence_step(s, n, method="definition")
            by_rec = tau_recurrence_step(s, n, method="recurrence")
            assert by_def == by_rec
            assert by_def.value == tau(s, n, "definition")


def test_recurrence_step_rejects_small_n():
    with pytest.raises(ValueError):
        tau_recurrence_step(2, 0)
    with pytest.raises(ValueError):
        tau_recurrence_step(3, 2)
    with pytest.raises(ValueError):
        tau_recurrence_step(5, 4)
    with pytest.raises(ValueError):
        tau_recurrence_step(3, 5, method="sideways")


def test_recurrence_step_raises_on_mismatch(monkeypatch):
    # pre-build the cached totals, then feed the step a corrupt Catalan term
    tau(2, 10, "recurrence")
    monkeypatch.setattr(seq, "catalan", lambda n: 999)
    with pytest.raises(RecurrenceMismatchError):
        tau_recurrence_step(2, 5, method="recurrence")


def test_correction_aggregate_values():
    assert correction_aggregate(2, 9) == 0
    assert correction_aggregate(3, 4) == 1
    assert correction_aggregate(3, 5) == 0
    assert correction_aggregate(3, 6) == 5
    assert correction_aggregate(4, 4) == 4


def test_ratio_examples():
    assert ratio(3, 5) == Fraction(7, 3)      # 21/9 in lowest terms
    assert ratio(3, 1) == 1
    for m in range(1, 11):
        assert ratio(2, 2 * m) == 2
        if m > 1:
            assert ratio(2, 2 * m - 1) < 2
    with pytest.raises(ValueError):
        ratio(3, 0)


def test_ratio_decomposition_desk_values():
    parts = ratio_decomposition(6)
    assert parts == RatioParts(Fraction(0), Fraction(7, 21), Fraction(5, 21))
    assert parts.total == Fraction(4, 7) == 3 - ratio(3, 6)
    parts = ratio_decomposition(4)
    assert parts == RatioParts(Fraction(0), Fraction(1, 2), Fraction(1, 4))
    # odd n keeps the parity share: n-1 is even
    parts = ratio_decomposition(5)
    assert parts == RatioParts(Fraction(2, 9), Fraction(4, 9), Fraction(0))
    with pytest.raises(ValueError):
        ratio_decomposition(2)


def test_ratio_decomposition_sums_exactly():
    for n in range(3, 31):
        assert ratio_decomposition(n).total == 3 - ratio(3, n)


def test_ratio_table():
    rows = ratio_table(3, 5)
    assert [(row.n, row.value) for row in rows] == [
        (1, Fraction(1)), (2, Fraction(2)), (3, Fraction(2)),
        (4, Fraction(9, 4)), (5, Fraction(7, 3))]
    assert rows[-1].approx == "2.33333333333"
    assert rows[3].approx == "2.25"
    with pytest.raises(ValueError):
        ratio_table(3, 0)


def test_approx_decimal_rendering():
    assert approx_decimal(Fraction(7, 3)) == "2.33333333333"
    assert approx_decimal(Fraction(1)) == "1"
    assert approx_decimal(Fraction(1, 8), digits=3) == "0.125"
    # plain decimal strings even for large values
    assert "e" not in approx_decimal(Fraction(10 ** 24, 1), digits=4).lower()
    with pytest.raises(ValueError):
        approx_decimal(Fraction(1, 3), digits=0)
