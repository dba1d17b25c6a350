"""Truncated-series evaluation with tail and cancellation monitoring.

All the entire functions in this package (Mittag-Leffler family, Wright
density, Appell sums, the memory-function power series) are evaluated by
direct summation somewhere.  The helpers here centralise the two failure
modes of that approach: a tail that never drops below tolerance within the
term budget, and alternating-series cancellation that silently destroys
float64 accuracy.  Cancellation is *detected* here; callers decide whether
to fall back to a high-precision or integral-representation branch.  One
absolute tolerance (_ABS_TOL) and one term budget (_MAX_TERMS) serve every
series of the package.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

__all__ = [
    "TruncationBudgetExceeded",
    "SeriesResult",
    "sum_series",
]

#: consecutive sub-tolerance terms required before declaring convergence;
#: guards against series whose terms vanish exactly on a sub-lattice
#: (e.g. reciprocal-gamma zeros every other index).
_CONSECUTIVE_SMALL = 8
#: absolute size below which a term counts as small
_ABS_TOL = 1e-14
#: terms summed before a series is given up
_MAX_TERMS = 100_000


class TruncationBudgetExceeded(RuntimeError):
    """Series did not converge within _MAX_TERMS terms.

    Signals the caller to reduce the argument range.
    """


@dataclass(frozen=True)
class SeriesResult:
    value: float
    n_terms: int
    max_abs_term: float

    @property
    def cancellation_error(self) -> float:
        """Estimated float64 roundoff floor of the summed value."""
        return self.max_abs_term * 2.3e-16 * max(1.0, math.sqrt(self.n_terms))


def sum_series(term_fn) -> SeriesResult:
    """Sum ``term_fn(n)`` for n = 0, 1, ... until the tail is negligible.

    Terms are accumulated with exact float summation (math.fsum) so the
    only rounding left is the one inside each term.  Convergence requires
    several consecutive terms below _ABS_TOL *after* the running
    maximum has been passed, which is the right notion for the
    single-peaked hypergeometric-type series used here.
    """
    terms = []
    max_abs = 0.0
    small_run = 0
    for n in range(_MAX_TERMS):
        t = term_fn(n)
        terms.append(t)
        a = abs(t)
        if a > max_abs:
            max_abs = a
            small_run = 0
        if a < _ABS_TOL:
            small_run += 1
            if small_run >= _CONSECUTIVE_SMALL:
                return SeriesResult(math.fsum(terms), n + 1, max_abs)
        else:
            small_run = 0
    raise TruncationBudgetExceeded(
        f"series tail still above {_ABS_TOL:g} after {_MAX_TERMS} terms "
        f"(max |term| seen {max_abs:g})"
    )


# entries kept by each cache; older entries are rebuilt on demand, so a
# long-running process holds a bounded amount of table memory
CACHE_SIZE = 16


def lru_get(cache: OrderedDict, key, build, size: int = CACHE_SIZE):
    """cache[key], built by ``build()`` on a miss; the cache keeps its
    ``size`` most recently used entries."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = cache[key] = build()
    if len(cache) > size:
        cache.popitem(last=False)
    return value
