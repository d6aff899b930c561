"""Exact counting of standard Young tableaux with a bounded number of columns.

Counts are arbitrary-precision integers and ratios are exact rationals
throughout; no floating point enters any counting path. The same quantities
are computed along independent routes (Frobenius and cell-by-cell hook formulas,
corner removal, one walk that lists the fillings, recurrences, corner-growth sweeps,
Bessel determinants) and the verification suites cross-check the routes against
each other and against independently generated reference sequences.
"""

from .counting import (DEFAULT_ENUMERATION_CAP, HookDivisionError, syt_count_hlf,
                       syt_count_recursive)
from .gamma import (GammaTable, NegativeEntryError, alpha, ballot_entry, build_table,
                    correction_r, correction_r3, gamma_def, gamma_rec)
from .report import CheckResult, VerificationReport
from .sequences import (RatioParts, RatioRow, RecurrenceMismatchError,
                        TauRecurrenceTerms, approx_decimal, catalan,
                        central_binomial, involutions, motzkin, ratio,
                        ratio_decomposition, ratio_table, tau, tau_growth,
                        tau_recurrence_step, tau_series)
from .shapes import (ColumnShape, conjugate, enumerate_family,
                     partitions_at_most, r3_shape)
from .verify import compare_methods, run_suite

__version__ = "0.1.0"

__all__ = [
    "ColumnShape", "conjugate", "enumerate_family", "partitions_at_most",
    "r3_shape",
    "syt_count_hlf", "syt_count_recursive",
    "HookDivisionError", "DEFAULT_ENUMERATION_CAP",
    "alpha", "ballot_entry", "gamma_def", "gamma_rec", "correction_r",
    "correction_r3", "GammaTable", "build_table",
    "compare_methods", "NegativeEntryError",
    "catalan", "motzkin", "central_binomial", "involutions", "tau",
    "tau_growth", "tau_series", "tau_recurrence_step", "TauRecurrenceTerms",
    "RecurrenceMismatchError", "ratio", "ratio_decomposition", "ratio_table",
    "RatioParts", "RatioRow", "approx_decimal",
    "CheckResult", "VerificationReport", "run_suite",
]
