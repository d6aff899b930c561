import hashlib
from fractions import Fraction
from math import comb, factorial

import pytest

import sytcount.gamma as gamma
import sytcount.sequences as seq
from sytcount._memo import Memo
from sytcount.counting import listed_counts
from sytcount.sequences import (RatioParts, RecurrenceMismatchError, TauRecurrenceTerms,
                                approx_decimal, catalan, central_binomial, involutions,
                                motzkin, parity_indicator, ratio, ratio_decomposition,
                                ratio_table, tau, tau_growth, tau_recurrence_step,
                                tau_series)
from sytcount.shapes import partitions_at_most
from sytcount.verify import compare_methods

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


def test_cached_totals_keep_the_method_contract(cold):
    texts = []
    for _ in range(2):  # cold, then with (3, 5) answered by every known method
        with pytest.raises(ValueError) as raised:
            tau(3, 5, "sideways")
        texts.append(str(raised.value))
        for method in seq.TAU_METHODS:
            tau(3, 5, method)
    assert texts == [f"unknown method 'sideways'; expected one of {seq.TAU_METHODS}"] * 2
    # the cache hashes its key before the method is read
    with pytest.raises(TypeError, match="unhashable"):
        tau(3, 5, ["definition"])


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
    gamma._sweep[4].clear()
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
    # the recurrence's totals step subtracts each row's correction totals, summed
    for s in (8, 9, 10):
        for n in range(21):
            assert tau_series(s, n) == tau(s, n, "definition") == tau(s, n, "recurrence")


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


# sha256 of "s n tau_series(s, n)\n" for s = 2..24 and n = 0..60, pinned from the
# batch determinant build that the one-coefficient-at-a-time elimination replaced
SERIES_DIGEST = "f9bb4904e80f7aab3f226a87559e38b9b9be9e5c04b25d1300435d8384d1d127"


def test_series_totals_match_their_pinned_digest():
    text = "".join(f"{s} {n} {tau_series(s, n)}\n" for s in range(2, 25) for n in range(61))
    assert hashlib.sha256(text.encode()).hexdigest() == SERIES_DIGEST


def _recorded_steps(monkeypatch, s):
    """A cold width-s series memo, and the term index of each step it takes from now on."""
    seq._series_states.pop(s, None)
    memo, steps = seq._series_states[s], []
    step = memo._step

    def recording(totals):
        steps.append(len(totals))
        return step(totals)

    monkeypatch.setattr(memo, "_step", recording)
    return memo, steps


def test_ascending_series_sweep_steps_each_term_once(monkeypatch):
    _, steps = _recorded_steps(monkeypatch, 5)
    for n in range(1, 17):
        assert tau_series(5, n) == tau_growth(5, n)
    assert steps == list(range(17))


def test_cold_wide_series_request_steps_each_term_once(monkeypatch):
    _, steps = _recorded_steps(monkeypatch, 40)
    total = tau_series(40, 70)
    assert steps == list(range(71))
    assert involutions(40) == tau_series(40, 40) and total < involutions(70)
    assert steps == list(range(71))


def test_cleared_series_memo_restarts_from_term_zero(monkeypatch):
    values = [tau_series(7, n) for n in range(41)]
    memo, steps = _recorded_steps(monkeypatch, 7)
    assert [tau_series(7, n) for n in range(41)] == values
    memo.clear()
    steps.clear()
    assert tau_series(7, 10) == values[10]
    assert steps == list(range(11))
    assert [tau_series(7, n) for n in range(41)] == values
    assert steps == list(range(41))


def test_series_pivot_without_unit_constant_term_raises(monkeypatch):
    expected = {s: [tau_series(s, n) for n in range(21)] for s in (4, 7)}
    for s in expected:
        seq._series_states.pop(s, None)
    monkeypatch.setattr(seq, "comb", lambda n, k: 2 * comb(n, k))
    for s in expected:
        with pytest.raises(ArithmeticError, match="pivot 0 has constant term 2"):
            tau_series(s, 5)
    monkeypatch.undo()
    assert {s: [tau_series(s, n) for n in range(21)] for s in expected} == expected


def test_a_series_step_that_fails_part_way_leaves_nothing_behind(monkeypatch):
    expected = [tau_series(7, n) for n in range(21)]
    seq._series_states.pop(7, None)
    assert tau_series(7, 9) == expected[9]
    # step 10 appends coefficient 10 of row 0 and of e^x, then fails in its first product
    monkeypatch.setattr(seq, "mul", lambda a, b: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        tau_series(7, 10)
    monkeypatch.undo()
    assert [tau_series(7, n) for n in range(21)] == expected


def test_recurrence_step_desk_values():
    # (main, parity, gamma0, corrections, value); the last three are below the width
    anchors = {(3, 4): (12, 0, 2, 1, 9), (3, 6): (63, 0, 7, 5, 51),
               (2, 5): (12, 2, 0, 0, 10), (3, 1): (3, 1, 1, 0, 1),
               (3, 2): (3, 0, 1, 0, 2), (5, 4): (20, 0, 2, 8, 10)}
    for (s, n), anchor in anchors.items():
        step = tau_recurrence_step(s, n)
        assert (step.main, step.parity_term, step.gamma0_term, step.correction_total,
                step.value) == anchor


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
        tau_recurrence_step(3, 0)
    with pytest.raises(ValueError):
        tau_recurrence_step(3, 5, method="sideways")


def test_recurrence_step_holds_below_the_width():
    for s in range(3, 9):
        for n in range(1, s):
            for method in ("definition", "recurrence"):
                assert tau_recurrence_step(s, n, method).value == tau_series(s, n)


def test_a_recurrence_total_certifies_every_step_from_the_first(cold):
    assert tau(5, 4, "recurrence") == 10
    steps = list(seq._steps_checked[5]._terms)
    assert steps[0] is None
    assert [(step.__class__, step.n) for step in steps[1:]] == [
        (TauRecurrenceTerms, n) for n in range(1, 5)]


def test_recurrence_step_raises_on_mismatch(monkeypatch):
    # pre-build the cached totals, then feed the step a corrupt Catalan term
    tau(2, 10, "recurrence")
    monkeypatch.setattr(seq, "catalan", lambda n: 999)
    with pytest.raises(RecurrenceMismatchError):
        tau_recurrence_step(2, 5, method="recurrence")


def test_the_two_column_step_is_checked_from_the_first_row(cold, monkeypatch):
    # step 1 subtracts catalan(0): a wrong one must fail tau(2, 1) itself
    monkeypatch.setattr(seq, "catalan", lambda n: 999)
    with pytest.raises(RecurrenceMismatchError):
        tau(2, 1, "recurrence")


@pytest.fixture
def wrong_two_column_rows(cold, monkeypatch):
    """Two-column recurrence rows of the right length holding only 2s, in a package
    made cold before and after, so no wrong total survives."""
    monkeypatch.setattr(gamma, "_alpha_rows",
                        Memo([[1]], lambda rows: [2] * (len(rows) // 2 + 1)))


def test_two_column_definition_total_is_a_sum_of_hook_counts(wrong_two_column_rows):
    assert [tau(2, n, "definition") for n in range(31)] == [comb(n, n // 2)
                                                            for n in range(31)]


def test_two_column_recurrence_total_is_certified_by_the_step(wrong_two_column_rows):
    with pytest.raises(RecurrenceMismatchError):
        tau(2, 10, "recurrence")


def test_wide_recurrence_total_builds_only_its_own_width(cold):
    assert tau(3000, 2, "recurrence") == 2
    assert tau_growth(3000, 3) == 4
    assert list(seq._steps_checked) == list(gamma._rec_rows) == [3000]
    assert list(gamma._sweep) == [3000]


def test_a_cold_float_width_raises_and_leaves_the_width_memo_alone(cold):
    for call in (tau_growth, tau_series, lambda s, n: gamma.gamma_rec(s + 1, n, 1)):
        with pytest.raises(TypeError):
            call(3.0, 6)
    assert tau_growth(3, 6) == tau_series(3, 6) == 51
    assert gamma.gamma_rec(4, 6, 1) == gamma.gamma_def(4, 6, 1)


# Each call with integer arguments; 0 and 1 also have bool spellings.
INTEGER_CALLS = [(tau, (3, 6)), (tau, (3, 1)), (tau_growth, (3, 6)), (tau_growth, (3, 1)),
                 (tau_series, (3, 6)), (tau_series, (3, 1)),
                 (gamma.gamma_def, (3, 6, 1)), (gamma.gamma_def, (3, 1, 0)),
                 (gamma.gamma_rec, (4, 6, 1)), (gamma.gamma_rec, (4, 1, 0)),
                 (gamma.correction_r, (4, 1, 6, 1)), (gamma.correction_r, (4, 1, 1, 0)),
                 (gamma.build_table, (3, 4)), (gamma.build_table, (2, 4)),
                 (partitions_at_most, (6, 3)), (gamma.alpha, (4, 1)),
                 (catalan, (1,)), (motzkin, (1,)), (involutions, (1,)),
                 (central_binomial, (1,)), (gamma.ballot_entry, (1, 1)),
                 (gamma.correction_r3, (7, 1)), (gamma.correction_r3, (7, 2)),
                 (ratio, (3, 1)), (ratio_table, (3, 1)), (ratio_decomposition, (3,)),
                 (approx_decimal, (Fraction(1, 3), 1)), (compare_methods, (3, 1)),
                 (tau_recurrence_step, (2, 1)), (tau_recurrence_step, (3, 3)),
                 (listed_counts, ((2, 1), 3)), (listed_counts, ((1,), 0)),
                 (listed_counts, ((2, 2), 1))]


def _non_integer_spellings(args):
    for position, value in enumerate(args):
        if value.__class__ is not int:  # a Fraction to render, column bounds
            continue
        for spelling in (float(value), *([bool(value)] if value in (0, 1) else [])):
            yield args[:position] + (spelling,) + args[position + 1:]


def test_non_integer_arguments_raise_a_type_error_cold_and_warm(cold):
    for warm in (False, True):
        for call, args in INTEGER_CALLS:
            if warm:
                call(*args)
            for spelled in _non_integer_spellings(args):
                with pytest.raises(TypeError):
                    call(*spelled)
                    pytest.fail(f"{call.__name__}{spelled!r} answered (warm={warm})")
    # below the range of their own check: the class must be checked first
    for call, args in ((ratio, (3, 0.5)), (ratio_decomposition, (True,))):
        with pytest.raises(TypeError):
            call(*args)


def test_correction_aggregate_values():
    totals = {(2, 9): 0, (3, 4): 1, (3, 5): 0, (3, 6): 5, (4, 4): 4}
    for (s, n), total in totals.items():
        assert tau_recurrence_step(s, n).correction_total == total


def test_ratio_examples():
    assert ratio(3, 5) == Fraction(7, 3)      # 21/9 in lowest terms
    assert ratio(3, 1) == 1
    for m in range(1, 11):
        assert ratio(2, 2 * m) == 2
        if m > 1:
            assert ratio(2, 2 * m - 1) < 2
    with pytest.raises(ValueError):
        ratio(3, 0)


def test_a_warm_ratio_is_the_cold_fraction_object(cold):
    first = ratio(4, 9)
    assert first == Fraction(tau_series(4, 9), tau_series(4, 8))
    assert ratio(4, 9) is first


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


def test_approx_decimal_renders_only_fractions():
    for value in (0.5, "1/3", 3):  # 3 has a numerator, so it used to render as "3"
        with pytest.raises(TypeError):
            approx_decimal(value)
