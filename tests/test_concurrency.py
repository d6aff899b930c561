"""Threads sharing the sequence memos get the same exact values as one thread."""

import sys
import threading
from fractions import Fraction
from math import comb, factorial

from sytcount import gamma, sequences
from sytcount.gamma import gamma_def, gamma_rec
from sytcount.sequences import tau, tau_growth, tau_series

THREADS = 4
JOIN_TIMEOUT_S = 120
CALLS = {
    "tau_growth(4, 50)": lambda: tau_growth(4, 50),
    "tau(4, 30, 'recurrence')": lambda: tau(4, 30, "recurrence"),
    "gamma_rec(4, 40, 5)": lambda: gamma_rec(4, 40, 5),
    "tau_series(5, 60)": lambda: tau_series(5, 60),
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


def _clear_memos():
    for memo in (sequences._catalans, sequences._motzkins, sequences._involutions,
                 sequences._tau2_chain, sequences._growth_states,
                 sequences._series_states, sequences._steps_checked,
                 gamma._alpha_rows, gamma._rec_rows):
        memo.clear()


def _calls(results):
    got = {}
    for name, call in CALLS.items():
        try:
            got[name] = call()
        except Exception as exc:  # reported by the assertion in the main thread
            got[name] = exc
    results.append(got)


def test_memos_extend_correctly_under_threads():
    _clear_memos()
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
                                gamma_def(4, 40, 5), _at_most_five_columns(60))))
    assert results == [expected] * THREADS
    # the memos were left consistent, not poisoned
    assert {name: call() for name, call in CALLS.items()} == expected
