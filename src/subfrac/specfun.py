"""Mittag-Leffler family, Wright density and Appell F3 evaluation.

These are the building blocks for every closed-form memory function and
mixing density in the package.  The Mittag-Leffler, Prabhakar and Wright
series are described once each, by the logs of their terms, and share one
evaluation ladder:

* one peak scan, an array pass over a coarse grid of term indices, gives
  the largest term and so the digits a float64 sum would lose,
* one float64 sum, its terms formed in blocks from their logs, serves
  while its estimated cancellation floor stays within tolerance (one
  acceptance rule: the larger of the package's absolute series tolerance
  1e-14 and 1e-13 relative, 1e-11 for the multinomial sum; the series are
  entire, single-peaked and alternate for the negative arguments that
  occur in practice; every sum shares the 100,000-term budget),
* past that, a completely-monotone integral representation (one-parameter
  case), evaluated by a fixed-node trapezoid rule that serves a whole
  array of arguments in one pass, or one adaptive-precision mpmath sum
  over shared 1/Gamma tables (Prabhakar and Wright cases; the multinomial
  sum has its own, its terms being composition sums),
* a large-argument asymptotic branch where even high-precision summation
  is uneconomical: the Prabhakar asymptotic series, optimally truncated,
  and the Wright density's stretched-exponential tail, within 2e-3 where
  it takes over.

Reciprocal-gamma convention: 1/Gamma at a non-positive integer is zero and
the corresponding term is dropped.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from math import pi
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    fone, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_lt, mpf_mul, mpf_neg, mpf_pos, mpf_sub, to_float,
)
from scipy.special import gammaln, gammasgn, rgamma

from .series import _ABS_TOL, _MAX_TERMS, SeriesResult, TruncationBudgetExceeded, lru_get, sum_series

__all__ = [
    "MLParams",
    "MultinomialMLParams",
    "OutsideConvergenceDomain",
    "appell_f3",
    "mittag_leffler",
    "multinomial_ml",
    "mwright_density",
    "prabhakar",
]

# beyond this many decimal digits of working precision the mpmath series
# branch is considered uneconomical and the asymptotic branch takes over
_DPS_CAP = 150

# 1/Gamma at the arguments of an mpmath series, per (series, parameters,
# precision class): the Gamma factors do not depend on the series'
# argument, so every call whose working precision falls in one class
# shares them.  The class is the first of _RGAMMA_CLASSES digits at or
# above the call's; an entry is computed entirely at the class precision
# and rounded to the working precision where it is used.  The Gamma
# arguments q1 n + q2 and -beta n + 1 - beta of float parameters are exact
# there (about 22 digits suffice for n < 2^20), so no entry depends on
# which call computed it.  A table of a long series at _DPS_CAP digits
# holds about 0.6 MB, so only the _RGAMMA_TABLE_COUNT most recent are kept:
# one oracle op reads at most 5 tables, one after the other (a specfun
# validation; a law derivation reads 3), and never returns to a table it
# has left, so no op rebuilds a table it built itself.
_RGAMMA_CLASSES = (40, 80, _DPS_CAP)
_RGAMMA_TABLES: OrderedDict = OrderedDict()
_RGAMMA_TABLE_COUNT = 4


def _rgamma_table(key: tuple, dps: int) -> tuple[int, list]:
    """(class precision, the shared 1/Gamma list) of one series called at
    dps <= _DPS_CAP digits; callers extend the list term by term at the
    class precision."""
    cls = next(c for c in _RGAMMA_CLASSES if c >= dps)
    return cls, lru_get(_RGAMMA_TABLES, key + (cls,), list, _RGAMMA_TABLE_COUNT)


class OutsideConvergenceDomain(ValueError):
    """Appell F3 arguments outside |x|,|y|<1 with no terminating index."""


def _sign_logrgamma(g: float) -> tuple[float, float]:
    """(sign, log|1/Gamma(g)|), with (0, -inf) at the poles of Gamma."""
    if g <= 0.0 and g == math.floor(g):
        return 0.0, -math.inf
    return float(gammasgn(g)), -float(gammaln(g))


@dataclass(frozen=True)
class MLParams:
    """Three-parameter (Prabhakar) Mittag-Leffler parameters.

    The one-parameter function corresponds to q2 = q3 = 1.
    """

    q1: float
    q2: float = 1.0
    q3: float = 1.0

    def __post_init__(self) -> None:
        if not self.q1 > 0:
            raise ValueError("q1 must be positive for an entire series")


@dataclass(frozen=True)
class MultinomialMLParams:
    alphas: tuple[float, ...]
    beta: float

    def __post_init__(self) -> None:
        if len(self.alphas) < 1:
            raise ValueError("need at least one exponent")
        if any(a <= 0 for a in self.alphas):
            raise ValueError("all exponents must be positive")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))


# ---------------------------------------------------------------------------
# series machinery shared by the Mittag-Leffler, Prabhakar and Wright sums
# ---------------------------------------------------------------------------
#
# Each series is described by logs(n) -> (g, log|term n|) over an array of
# n, g being the argument of the term's 1/Gamma(g) factor, which also sets
# the term's sign; the series alternates on top of that for a negative
# argument.

def _gamma_pole(g: np.ndarray) -> np.ndarray:
    return (g <= 0.0) & (g == np.floor(g))


def _scan_grid(n_max: int, growth: float) -> np.ndarray:
    """The coarse n grid of a peak scan: 0, 1, 2, ..., each step
    max(n + 1, int(n * growth)), up to n_max."""
    grid, n = [], 0
    while n <= n_max:
        grid.append(n)
        n = max(n + 1, int(n * growth))
    return np.array(grid, dtype=float)


# the peak-scan grid of the Mittag-Leffler and Wright series
_PEAK_N = _scan_grid(200_000, 1.2)
# terms of a float series formed per array pass
_TERM_BLOCK = 32


def _peak_log10(g: np.ndarray, la: np.ndarray) -> float:
    """log10 of the largest term over a scan grid, from the (g, log|term|)
    of its points; terms at Gamma poles and non-finite logs do not count."""
    la = la[np.isfinite(la) & ~_gamma_pole(g)]
    return (float(la.max()) if la.size else -math.inf) / math.log(10.0)


def _float_series(logs, alternate: bool) -> SeriesResult:
    """The float64 series with terms sign * exp(log|term|), formed
    _TERM_BLOCK terms per array pass; the sign is that of 1/Gamma(g),
    flipped at odd n when the series alternates."""
    terms: list = []

    def term(n: int) -> float:
        if n == len(terms):
            k = np.arange(n, n + _TERM_BLOCK, dtype=float)
            g, la = logs(k)
            sg = np.where(_gamma_pole(g), 0.0, gammasgn(g))
            if alternate:
                sg[k % 2 == 1] *= -1.0
            try:
                terms.extend(s * math.exp(v) if s else 0.0 for s, v in zip(sg.tolist(), la.tolist()))
            except OverflowError:
                # extend keeps the terms before the one that overflowed
                bad = len(terms)
                raise OverflowError(
                    f"term {bad} of the float series, e^{la[bad - n]:.6g}, is past the float range"
                ) from None
        return terms[n]

    return sum_series(term)


def _accurate(res: SeriesResult, rel: float = 1e-13) -> bool:
    """Whether a float sum's cancellation floor is within tolerance."""
    return res.cancellation_error <= max(_ABS_TOL, rel * abs(res.value))


def _mp_series(key: tuple, gamma_arg, step, dps: int) -> float:
    """sum_n coef_n / Gamma(gamma_arg(n)) at dps digits, with coef_0 = 1,
    coef_n = step(coef_{n-1}, n, prec, rnd) and 1/Gamma read from the
    shared table of `key`, until 8 terms in a row fall below 10^(10 - dps).
    The loop runs on mpmath's raw values with the operations and rounding
    of the mpf expressions

        coef = step(coef, n);  t = coef * (+rg[n]);  s += t

    in the same order, so it gives their bits without building an mpf
    object per operation."""
    with mp.workdps(dps):
        prec, rnd = mp.mp._prec_rounding  # what the mpf operators round with
        cls, rg = _rgamma_table(key, dps)
        thresh = (mp.mpf(10) ** (-dps + 10))._mpf_
        s, coef, small = fzero, fone, 0
        for n in range(500_000):
            if n:
                coef = step(coef, n, prec, rnd)
            if n == len(rg):
                with mp.workdps(cls):
                    rg.append(mp.rgamma(gamma_arg(n))._mpf_)
            t = mpf_mul(coef, mpf_pos(rg[n], prec, rnd), prec, rnd)
            s = mpf_add(s, t, prec, rnd)
            if mpf_lt(mpf_abs(t), thresh):
                small += 1
                if small >= 8:
                    break
            else:
                small = 0
        return to_float(s, rnd=rnd)


# ---------------------------------------------------------------------------
# one-parameter Mittag-Leffler
# ---------------------------------------------------------------------------

def _ml_logs(beta: float, x: float):
    """(beta n + 1, log|x^n / Gamma(beta n + 1)|) over an array of n."""
    lx = math.log(abs(x))
    return lambda n: (beta * n + 1.0, n * lx - gammaln(beta * n + 1.0))


# elements of one (arguments x nodes) block of the negative-axis rule: a
# 128 KiB buffer; 1 MiB blocks ran 15% faster but raised peak memory by 1 MiB
_ML_BLOCK = 2**14


def _ml_neg_integral(beta: float, a) -> np.ndarray:
    """E_beta(-a) for an array of a >= 0, 0 < beta < 1, from

        E_beta(-a) = sin(pi beta)/(pi beta) *
            int_0^inf exp(-a^{1/beta} u^{1/beta}) / (u^2 + 2 cos(pi beta) u + 1) du

    by the trapezoid rule in x = log u on one node set for every a.  The
    integrand is analytic for |Im x| < min(pi (1 - beta), pi beta / 2)
    (poles of the denominator; loss of the double-exponential decay), so
    the step h = 2 pi d / 37 with d = 0.8 times that width leaves an error
    near e^-37, and the window [-40 - log max(1, a), 40] cuts tails below
    e^-40 relative.  No cancellation; blocks of at most _ML_BLOCK elements.
    Where a^{1/beta} overflows, the first asymptotic term 1/(a Gamma(1 -
    beta)) is exact in float64: the next one is smaller by a factor a.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        root = a ** (1.0 / beta)
    out = np.ones_like(root)  # a == 0 (or a^{1/beta} underflowing) gives 1
    huge = np.isinf(root)
    out[huge] = rgamma(1.0 - beta) / a[huge]
    live = np.flatnonzero((root != 0.0) & ~huge)
    if live.size == 0:
        return out
    d = 0.8 * min(pi * (1.0 - beta), 0.5 * pi * beta)
    h = 2.0 * pi * d / 37.0
    lo = -40.0 - math.log(max(1.0, float(np.max(a[live]))))
    x = h * np.arange(math.floor(lo / h), math.ceil(40.0 / h) + 1)
    u = np.exp(x)
    w = (h * math.sin(pi * beta) / (pi * beta)) * u / (u * u + 2.0 * math.cos(pi * beta) * u + 1.0)
    buf = np.empty((min(live.size, max(1, _ML_BLOCK // x.size)), x.size))
    # past the float range the exponent is -inf and the factor exactly 0
    with np.errstate(over="ignore"):
        neg_growth = -np.exp(x / beta)
        for i in range(0, live.size, len(buf)):
            idx = live[i : i + len(buf)]
            block = buf[: idx.size]
            np.multiply.outer(root[idx], neg_growth, out=block)
            np.exp(block, out=block)
            out[idx] = block @ w
    return out


def mittag_leffler(beta: float, x: float) -> float:
    """One-parameter Mittag-Leffler function  sum_n x^n / Gamma(beta n + 1).

    beta must lie in (0, 1].  Intended argument range is moderate
    (|x| <= ~50); for x <= 0 the result lies in (0, 1] and is computed to
    near machine accuracy regardless of |x|.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if math.isnan(x):
        raise ValueError("x must be a number, got nan")
    if x == math.inf:
        raise ValueError("x must be finite or -inf, got inf")
    if x == 0.0:
        return 1.0
    if beta == 1.0:
        # the function *is* exp; the series is used only where it is accurate
        try:
            return math.exp(x)
        except OverflowError:
            raise OverflowError(f"E_1({x:.6g}) = e^{x:.6g} is past the float range") from None
    logs = _ml_logs(beta, x)
    if x > 0.0:
        return _float_series(logs, False).value
    # at x = -inf no log is finite; the integral rule gives the limit 0
    if x > -math.inf and _peak_log10(*logs(_PEAK_N)) <= 12.5:
        res = _float_series(logs, True)
        if _accurate(res):
            return res.value
    return float(_ml_neg_integral(beta, [-x])[0])


# ---------------------------------------------------------------------------
# Prabhakar (three-parameter Mittag-Leffler)
# ---------------------------------------------------------------------------

def _prabhakar_logs(p: MLParams, x: float):
    """(q1 n + q2, log|term n|) over an array of n, the log -inf or nan at
    the Gamma poles; requires q3 > 0 for the log route."""
    la_x = math.log(abs(x))

    def logs(n):
        g = p.q1 * n + p.q2
        with np.errstate(invalid="ignore"):
            la = gammaln(p.q3 + n) - gammaln(p.q3) - gammaln(n + 1.0) + n * la_x - gammaln(g)
        return g, la

    return logs


_PRABHAKAR_PEAK_N = _scan_grid(4000, 1.25)


def _prabhakar_peak_log10(p: MLParams, x: float) -> float:
    """log10 of the largest series term, scanned on a coarse n grid in one
    array pass (terms at Gamma poles do not count)."""
    if x == 0.0:
        return 0.0
    return _peak_log10(*_prabhakar_logs(p, x)(_PRABHAKAR_PEAK_N))


def _prabhakar_series(p: MLParams, x: float) -> SeriesResult:
    """The float series at x != 0; with q3 > 0 from the terms' logs."""
    if p.q3 <= 0:
        # direct Pochhammer recurrence; fine for the short series this
        # parameter range produces (terminating or rapidly decaying)
        poch = 1.0

        def term(n: int) -> float:
            nonlocal poch
            if n > 0:
                poch *= (p.q3 + n - 1) / n
            return poch * x**n * rgamma(p.q1 * n + p.q2)

        return sum_series(term)
    return _float_series(_prabhakar_logs(p, x), x < 0.0)


def _prabhakar_mp(p: MLParams, x: float, dps: int) -> float:
    """The series summed at dps digits by _mp_series, the coefficient
    (q3)_n x^n / n! carried as coef *= (q3 + n - 1) * xm / n."""
    # parameters become exact mpf here so the Gamma argument q1*n+q2
    # carries no float64 rounding (which the huge terms would amplify)
    q1, q2 = mp.mpf(p.q1), mp.mpf(p.q2)
    q3, xm = mp.mpf(p.q3)._mpf_, mp.mpf(x)._mpf_
    unit_q3 = p.q3 == 1.0

    def step(coef, n: int, prec: int, rnd: str):
        # with q3 = 1 every rounding of (q3 + n - 1) * xm / n is exact (n <
        # 2^19 and n * xm fit in prec bits), so the factor is xm itself;
        # every mpmath call of a law derivation, a specfun validation and an
        # msm closed form has q3 = 1, and those sums take most of their time
        if unit_q3 and prec >= 53 + 20:
            return mpf_mul(coef, xm, prec, rnd)
        fn = from_int(n)
        fac = mpf_mul(mpf_sub(mpf_add(q3, fn, prec, rnd), fone, prec, rnd), xm, prec, rnd)
        return mpf_mul(coef, mpf_div(fac, fn, prec, rnd), prec, rnd)

    return _mp_series(("prabhakar", p.q1, p.q2), lambda n: q1 * n + q2, step, dps)


def _prabhakar_asymptotic(p: MLParams, x: float) -> float:
    """E^{q3}_{q1,q2}(x) for large negative x, 0 < q1 < 1:

        sum_k (-1)^k (q3)_k / (k! Gamma(q2 - q1(q3+k))) * |x|^{-q3-k}

    truncated before the first term whose envelope grows (optimal
    truncation).  The envelope bounds |1/Gamma(g)| by Gamma(1 - g)/pi for
    g < 1/2 (reflection formula): near a pole of Gamma the term itself is
    near zero and would pass for the smallest.
    """
    la_x = math.log(-x)
    acc = []
    prev = math.inf
    for k in range(0, 200):
        g = p.q2 - p.q1 * (p.q3 + k)
        sg_g, lg = _sign_logrgamma(g)
        la = gammaln(p.q3 + k) - gammaln(p.q3) - gammaln(k + 1.0) - (p.q3 + k) * la_x
        envelope = la + (gammaln(1.0 - g) - math.log(pi) if g < 0.5 else lg)
        if envelope > prev:
            break
        acc.append((-1.0) ** k * sg_g * math.exp(la + lg))
        prev = envelope
    return math.fsum(acc)


def prabhakar(p: MLParams, x: float) -> float:
    """Three-parameter Mittag-Leffler sum  (q3)_n x^n / (Gamma(q1 n + q2) n!)."""
    if math.isnan(x):
        raise ValueError("x must be a number, got nan")
    if math.isinf(x):
        raise ValueError(f"x must be finite, got {x}")
    if x == 0.0:
        return rgamma(p.q2)
    if x < 0.0 and 0.0 < p.q1 < 1.0:
        peak = _prabhakar_peak_log10(p, x)
        if peak > 13.0:
            dps = int(peak) + 25
            if dps <= _DPS_CAP:
                return _prabhakar_mp(p, x, dps)
            return _prabhakar_asymptotic(p, x)
    res = _prabhakar_series(p, x)
    if x < 0.0 and not _accurate(res):
        dps = int(_prabhakar_peak_log10(p, x)) + 25
        return _prabhakar_mp(p, x, min(dps, _DPS_CAP))
    return res.value


# ---------------------------------------------------------------------------
# multinomial Mittag-Leffler
# ---------------------------------------------------------------------------

def _compositions(n: int, m: int):
    """All tuples of m nonnegative integers summing to n."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, m - 1):
            yield (first,) + rest


def _multinomial_order_sum(p: MultinomialMLParams, z: Sequence[float], n: int) -> float:
    m = len(p.alphas)
    lg_n = gammaln(n + 1.0)
    total = []
    for ks in _compositions(n, m):
        la = lg_n
        sg = 1.0
        skip = False
        for kj, zj in zip(ks, z):
            if kj:
                if zj == 0.0:
                    skip = True
                    break
                la += kj * math.log(abs(zj)) - gammaln(kj + 1.0)
                if zj < 0 and kj % 2:
                    sg = -sg
        if skip:
            continue
        arg = p.beta + sum(a * k for a, k in zip(p.alphas, ks))
        sg_g, lg = _sign_logrgamma(arg)
        if sg_g == 0.0:
            continue
        total.append(sg * sg_g * math.exp(la + lg))
    return math.fsum(total)


def multinomial_ml(p: MultinomialMLParams, z: Sequence[float]) -> float:
    """Multinomial Mittag-Leffler function

        sum_n sum_{k_1+..+k_m=n} n!/(k_1!..k_m!) *
              prod_j z_j^{k_j} / Gamma(beta + sum_j alpha_j k_j).

    Grouped by total order n; the order sums decay like a one-parameter
    Mittag-Leffler series in max|z_j|.
    """
    z = list(z)
    if len(z) != len(p.alphas):
        raise ValueError("need one argument per exponent")
    for j, v in enumerate(z):
        # a non-finite order sum never counts as small, so the sum would
        # run on towards the term budget through ever longer composition sums
        if not math.isfinite(v):
            raise ValueError(f"z[{j}] must be finite, got {v}")

    def order_term(n: int) -> float:
        return _multinomial_order_sum(p, z, n)

    res = sum_series(order_term)
    if not _accurate(res, 1e-11):
        return _multinomial_mp(p, z, int(math.log10(max(res.max_abs_term, 1.0))) + 25)
    return res.value


def _multinomial_mp(p: MultinomialMLParams, z: Sequence[float], dps: int) -> float:
    dps = min(dps, 4 * _DPS_CAP)
    m = len(p.alphas)
    with mp.workdps(dps):
        zm = [mp.mpf(v) for v in z]
        alm = [mp.mpf(a) for a in p.alphas]
        bem = mp.mpf(p.beta)
        s = mp.mpf(0)
        small = 0
        thresh = mp.mpf(10) ** (-dps + 10)
        for n in range(100_000):
            block = mp.mpf(0)
            fn = mp.factorial(n)
            for ks in _compositions(n, m):
                t = fn
                for kj, zj in zip(ks, zm):
                    t *= zj**kj / mp.factorial(kj)
                t *= mp.rgamma(bem + mp.fsum(a * k for a, k in zip(alm, ks)))
                block += t
            s += block
            if abs(block) < thresh:
                small += 1
                if small >= 8:
                    break
            else:
                small = 0
        return float(s)


# ---------------------------------------------------------------------------
# Mainardi-Wright density
# ---------------------------------------------------------------------------

def _mwright_logs(beta: float, z: float):
    """(-beta n + 1 - beta, log|z^n / (n! Gamma(-beta n + 1 - beta))|) over
    an array of n."""
    lz = math.log(z)

    def logs(n):
        g = -beta * n + 1.0 - beta
        return g, n * lz - gammaln(n + 1.0) - gammaln(g)

    return logs


def _mwright_peak_log10(beta: float, z: float) -> float:
    if z == 0.0:
        return 0.0
    return _peak_log10(*_mwright_logs(beta, z)(_PEAK_N))


def _mwright_mp(beta: float, z: float, dps: int) -> float:
    """The series summed at dps digits by _mp_series, the coefficient
    (-z)^n / n! carried as coef *= -zm / n."""
    neg_z, bem = mpf_neg(mp.mpf(z)._mpf_), mp.mpf(beta)

    def step(coef, n: int, prec: int, rnd: str):
        return mpf_mul(coef, mpf_div(neg_z, from_int(n), prec, rnd), prec, rnd)

    return _mp_series(("mwright", beta), lambda n: -bem * n + 1 - bem, step, dps)


def _mwright_asymptotic(beta: float, z: float) -> float:
    """Stretched-exponential tail with first-order prefactor:

        M_b(z) ~ a(b) z^{(b-1/2)/(1-b)} exp(-c(b) z^{1/(1-b)}),
        a(b) = b^{(2b-1)/(2(1-b))} / sqrt(2 pi (1-b)),
        c(b) = (1-b) b^{b/(1-b)}.

    Exact for b = 1/2; validated against high-precision summation at the
    branch crossover in the test suite.
    """
    a = beta ** ((2 * beta - 1) / (2 * (1 - beta))) / math.sqrt(2 * pi * (1 - beta))
    c = (1 - beta) * beta ** (beta / (1 - beta))
    expo = -c * z ** (1.0 / (1.0 - beta))
    if expo < -700:
        return 0.0
    return a * z ** ((beta - 0.5) / (1 - beta)) * math.exp(expo)


def mwright_density(beta: float, z: float) -> float:
    """Mainardi-Wright probability density  sum_n (-z)^n / (n! Gamma(-beta n + 1 - beta)).

    Nonnegative on z >= 0 for beta in (0, 1); integrates to one.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if math.isnan(z):
        raise ValueError("z must be a number, got nan")
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    if z == math.inf:
        raise ValueError("z must be finite, got inf")
    if z == 0.0:
        return rgamma(1.0 - beta)
    peak = _mwright_peak_log10(beta, z)
    if peak <= 13.0:
        res = _float_series(_mwright_logs(beta, z), True)
        if _accurate(res):
            return max(res.value, 0.0)
    dps = int(peak) + 25
    if dps <= _DPS_CAP:
        value = _mwright_mp(beta, z, dps)
        # the sum is off by about 0.1 * 10^(peak - dps), a relative error
        # of 1e-4 at 10^3 times that floor; below it the asymptote serves,
        # within 2e-3 where it takes over (measured against mpmath for beta
        # in [0.3, 0.85]) and closer further out
        if value >= 10.0 ** (peak - dps + 3):
            return value
    return _mwright_asymptotic(beta, z)


# ---------------------------------------------------------------------------
# Appell F3
# ---------------------------------------------------------------------------

def _is_nonpositive_int(v: float) -> bool:
    return v <= 0.0 and abs(v - round(v)) < 1e-12


def appell_f3(
    a: float,
    ap: float,
    b: float,
    bp: float,
    c: float,
    x: float,
    y: float,
) -> float:
    """Appell F3 double hypergeometric sum

        sum_{m,n} (a)_m (b)_m (ap)_n (bp)_n / ((c)_{m+n} m! n!) x^m y^n.

    Convergent for |x| < 1, |y| < 1; an index whose Pochhammer pair
    terminates (nonpositive-integer a/b resp. ap/bp) lifts the constraint
    on the corresponding argument.
    """
    if _is_nonpositive_int(c):
        raise ValueError("c must not be a non-positive integer")
    x_term = _is_nonpositive_int(a) or _is_nonpositive_int(b)
    y_term = _is_nonpositive_int(ap) or _is_nonpositive_int(bp)
    if (abs(x) >= 1.0 and not x_term) or (abs(y) >= 1.0 and not y_term):
        raise OutsideConvergenceDomain(
            f"F3 arguments (x={x:g}, y={y:g}) outside |x|,|y|<1 with no "
            "terminating index"
        )

    total = []
    n_terms = 0
    row_head = 1.0  # t(m, 0)
    small_rows = 0
    m = 0
    while True:
        # inner sum over n at fixed m
        t = row_head
        row = [t]
        small = 0
        n = 0
        while True:
            fac = (ap + n) * (bp + n) / ((c + m + n) * (n + 1.0)) * y
            t = t * fac
            n += 1
            row.append(t)
            n_terms += 1
            if abs(t) < _ABS_TOL:
                small += 1
                if small >= 4:
                    break
            else:
                small = 0
            if n_terms > _MAX_TERMS:
                raise TruncationBudgetExceeded(f"F3 double sum exceeded {_MAX_TERMS} terms")
        row_sum = math.fsum(row)
        total.append(row_sum)
        if abs(row_sum) < _ABS_TOL and abs(row_head) < _ABS_TOL:
            small_rows += 1
            if small_rows >= 4:
                break
        else:
            small_rows = 0
        row_head = row_head * (a + m) * (b + m) / ((c + m) * (m + 1.0)) * x
        m += 1
        if n_terms > _MAX_TERMS:
            raise TruncationBudgetExceeded(f"F3 double sum exceeded {_MAX_TERMS} terms")
    return math.fsum(total)
