"""Threads sharing the sequence memos get the same exact values as one thread."""

import sys
import threading
import time
from fractions import Fraction
from math import comb, factorial

import pytest

from sytcount._memo import Memo, MemoMap
import sytcount.gamma as gamma
from sytcount.gamma import correction_r, gamma_def, gamma_rec
from sytcount.sequences import ratio, tau, tau_growth, tau_series

THREADS = 4
JOIN_TIMEOUT_S = 120
CALLS = {
    "tau_growth(4, 50)": lambda: tau_growth(4, 50),
    "tau(4, 30, 'recurrence')": lambda: tau(4, 30, "recurrence"),
    "gamma_rec(4, 40, 5)": lambda: gamma_rec(4, 40, 5),
    # m = 2: threads read the 2 x 2 minor, and at s = 5 extend its terms together
    "tau_series(4, 60)": lambda: tau_series(4, 60),
    "tau_series(5, 60)": lambda: tau_series(5, 60),
    # m = 3: threads extend the pivot rows, factors and products of one width together
    "tau_series(7, 60)": lambda: tau_series(7, 60),
}


def _catalan(k):
    return comb(2 * k, k) // (k + 1)


def _at_most_four_columns(n):
    """Gouyou-Beauchamps: C_{floor((n+1)/2)} * C_{ceil((n+1)/2)}."""
    return _catalan((n + 1) // 2) * _catalan((n + 2) // 2)


def _at_most_five_columns(n):
    """Gouyou-Beauchamps: 6 * sum_k C(n,2k) C_k (2k+2)! / ((k+2)! (k+3)!)."""
    return sum(Fraction(6 * comb(n, 2 * k) * _catalan(k) * factorial(2 * k + 2),
                        factorial(k + 2) * factorial(k + 3))
               for k in range(n // 2 + 1))


def test_cold_drops_every_cached_answer_and_memo_term(cold, package_stores):
    caches, memos = package_stores
    for warm in (tau(4, 12, "recurrence"), tau(3, 9), ratio(5, 8), gamma_rec(5, 10, 2),
                 tau_growth(6, 9), tau_series(4, 9), correction_r(4, 3, 9, 1)):
        assert warm > 0
    assert all(cached.cache_info().currsize for cached in (tau, ratio, gamma_rec))
    cold()
    names = {f"{cached.__module__}.{cached.__qualname__}" for cached in caches}
    assert {"sytcount.sequences.tau", "sytcount.sequences.ratio",
            "sytcount.gamma.gamma_rec", "sytcount.gamma.gamma_def",
            "sytcount.gamma.correction_r", "sytcount.counting._hook_count",
            "sytcount.shapes.partitions_at_most"} <= names
    found = set(map(id, memos))
    assert {id(gamma._sweep), id(gamma._rec_rows), id(gamma._alpha_rows)} <= found
    assert [cached.cache_info().currsize for cached in caches] == [0] * len(caches)
    for memo in memos:  # a Memo keeps its seed; a MemoMap keeps no width's memo
        assert len(memo._terms) == memo._seed_len if isinstance(memo, Memo) else not memo


def _calls(results):
    got = {}
    for name, call in CALLS.items():
        try:
            got[name] = call()
        except Exception as exc:  # reported by the assertion in the main thread
            got[name] = exc
    results.append(got)


def test_memos_extend_correctly_under_threads(cold):
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=_calls, args=(results,)) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = dict(zip(CALLS, (_at_most_four_columns(50), _at_most_four_columns(30),
                                gamma_def(4, 40, 5), _at_most_four_columns(60),
                                _at_most_five_columns(60),
                                6889438252826307258236860627500081568135)))
    assert results == [expected] * THREADS
    # the memos were left consistent, not poisoned
    assert {name: call() for name, call in CALLS.items()} == expected


def test_memo_map_makes_each_width_once_under_threads():
    made = []

    def make(width):
        made.append(width)
        time.sleep(0.01)  # let the other threads reach the same miss
        return Memo([width], lambda terms: terms[-1] + 1)

    memos, results = MemoMap(make), []
    def ask():
        results.append([(id(memos[s]), memos[s][200]) for s in (7, 3, 7, 5)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(made) == [3, 5, 7] and sorted(memos) == [3, 5, 7]
    expected = [(id(memos[s]), s + 200) for s in (7, 3, 7, 5)]
    assert results == [expected] * THREADS


def test_a_fresh_memo_map_refuses_a_float_width():
    made = []
    memos = MemoMap(made.append)
    with pytest.raises(TypeError, match=r"^memo widths are integers, not 3\.0$"):
        memos[3.0]
    assert made == [] and not memos


def test_threads_on_one_cold_width_step_each_sweep_level_once(cold, monkeypatch):
    width = 6
    calls = [lambda: gamma_def(width, 30, 3), lambda: correction_r(width, 1, 29, 4),
             lambda: correction_r(width, 4, 30, 2), lambda: tau_growth(width, 30),
             lambda: gamma_def(width, 12, 0), lambda: correction_r(width, 5, 20, 0)]

    serial = [call() for call in calls]
    steps, next_level = [], gamma._next_level

    def counting_levels(frontier, s, n):
        steps.append((s, n))
        return next_level(frontier, s, n)

    monkeypatch.setattr(gamma, "_next_level", counting_levels)
    cold()
    results = [None] * 8

    def ask(t):  # each thread starts at a different call
        order = [(t + k) % len(calls) for k in range(len(calls))]
        got = {k: calls[k]() for k in order}
        results[t] = [got[k] for k in range(len(calls))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(t,)) for t in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * len(results)
    assert steps == [(width, n) for n in range(31)]
