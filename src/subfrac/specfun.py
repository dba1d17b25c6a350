"""Mittag-Leffler family, Wright density and Appell F3 evaluation.

These are the building blocks for every closed-form memory function and
mixing density in the package.  The evaluation strategy is uniform:

* direct float64 series while the estimated cancellation floor stays below
  tolerance (the series are entire, single-peaked and alternate for the
  negative arguments that occur in practice),
* once float64 cancellation would bite, a completely-monotone integral
  representation (one-parameter case), evaluated by a fixed-node trapezoid
  rule that serves a whole array of arguments in one pass, or an
  adaptive-precision mpmath summation (three-parameter / multinomial /
  Wright cases),
* a large-argument asymptotic branch where even high-precision summation
  is uneconomical; there the functions are needed only in regimes where
  relative accuracy of a few percent is harmless (Laplace-inversion nodes,
  density tails).

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
from scipy.special import gammaln, gammasgn, rgamma

from .series import DEFAULT_TOL, SeriesResult, SeriesTolerance, lru_get, sum_series

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
# precision): the Gamma factors do not depend on the series' argument, so
# the calls of one quadrature or inversion that share a precision share
# them.  Tables are kept up to _RGAMMA_TABLE_DPS digits, where a quadrature
# makes most of its calls; the rare long series above it would pin about
# 1 MB of interpreter memory for little reuse.
_RGAMMA_TABLES: OrderedDict = OrderedDict()
_RGAMMA_TABLE_DPS = 40


def _rgamma_table(key: tuple, dps: int) -> list:
    """The shared 1/Gamma list of one series at precision dps (a fresh one
    above _RGAMMA_TABLE_DPS); callers extend it term by term."""
    if dps > _RGAMMA_TABLE_DPS:
        return []
    return lru_get(_RGAMMA_TABLES, key + (dps,), list)


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
# one-parameter Mittag-Leffler
# ---------------------------------------------------------------------------

def _ml_series(beta: float, x: float, tol: SeriesTolerance) -> SeriesResult:
    lx = math.log(abs(x))
    sg = 1.0 if x > 0 else -1.0

    def term(n: int) -> float:
        return sg**n * math.exp(n * lx - gammaln(beta * n + 1.0))

    return sum_series(term, tol)


def _ml_peak_log10(beta: float, x: float) -> float:
    lx = math.log(abs(x))
    best = -math.inf
    n = 0
    while n <= 200_000:
        la = n * lx - gammaln(beta * n + 1.0)
        best = max(best, la)
        if n > 20 and la < best - 60:
            break
        n = max(n + 1, int(n * 1.2))
    return best / math.log(10.0)


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


def mittag_leffler(beta: float, x: float, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """One-parameter Mittag-Leffler function  sum_n x^n / Gamma(beta n + 1).

    beta must lie in (0, 1].  Intended argument range is moderate
    (|x| <= ~50); for x <= 0 the result lies in (0, 1] and is computed to
    near machine accuracy regardless of |x|.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if math.isnan(x):
        raise ValueError("x must be a number, got nan")
    if x == 0.0:
        return 1.0
    if beta == 1.0:
        # the function *is* exp; the series is used only where it is accurate
        return math.exp(x)
    if x > 0.0:
        return _ml_series(beta, x, tol).value
    if _ml_peak_log10(beta, x) <= 12.5:
        res = _ml_series(beta, x, tol)
        if res.cancellation_error <= max(tol.abs_tol, 1e-13 * abs(res.value)):
            return res.value
    return float(_ml_neg_integral(beta, [-x])[0])


# ---------------------------------------------------------------------------
# Prabhakar (three-parameter Mittag-Leffler)
# ---------------------------------------------------------------------------

def _prabhakar_term_log(p: MLParams, logabs_x: float, sign_x: float, n: int):
    """(sign, log|term|) of term n; requires q3 > 0 for the log route."""
    sg_g, lg = _sign_logrgamma(p.q1 * n + p.q2)
    la = (
        gammaln(p.q3 + n)
        - gammaln(p.q3)
        - gammaln(n + 1.0)
        + n * logabs_x
        + lg
    )
    return (sign_x**n) * sg_g, la


def _prabhakar_peak_log10(p: MLParams, x: float, n_hint: int = 4000) -> float:
    """log10 of the largest series term, scanned on a coarse n grid."""
    if x == 0.0:
        return 0.0
    la_x = math.log(abs(x))
    best = -math.inf
    n = 0
    while n <= n_hint:
        _, la = _prabhakar_term_log(p, la_x, 1.0, n)
        if math.isfinite(la):
            best = max(best, la)
        n = max(n + 1, int(n * 1.25))
    return best / math.log(10.0)


def _prabhakar_series(p: MLParams, x: float, tol: SeriesTolerance) -> SeriesResult:
    if p.q3 <= 0:
        # direct Pochhammer recurrence; fine for the short series this
        # parameter range produces (terminating or rapidly decaying)
        poch = 1.0

        def term(n: int) -> float:
            nonlocal poch
            if n > 0:
                poch *= (p.q3 + n - 1) / n
            return poch * x**n * rgamma(p.q1 * n + p.q2)

        return sum_series(term, tol)

    la_x = math.log(abs(x)) if x != 0.0 else -math.inf
    sg_x = 1.0 if x >= 0 else -1.0

    def term(n: int) -> float:
        if x == 0.0:
            return rgamma(p.q2) if n == 0 else 0.0
        sg, la = _prabhakar_term_log(p, la_x, sg_x, n)
        return sg * math.exp(la) if sg else 0.0

    return sum_series(term, tol)


def _prabhakar_mp(p: MLParams, x: float, dps: int) -> float:
    with mp.workdps(dps):
        # parameters become exact mpf here so the Gamma argument q1*n+q2
        # carries no float64 rounding (which the huge terms would amplify)
        q1, q2, q3 = mp.mpf(p.q1), mp.mpf(p.q2), mp.mpf(p.q3)
        xm = mp.mpf(x)
        s = mp.mpf(0)
        coef = mp.mpf(1)  # (q3)_n x^n / n!, carried from term to term
        rg = _rgamma_table(("prabhakar", p.q1, p.q2), dps)
        small = 0
        thresh = mp.mpf(10) ** (-dps + 10)
        n = 0
        while n < 500_000:
            if n == len(rg):
                rg.append(mp.rgamma(q1 * n + q2))
            t = coef * rg[n]
            s += t
            if abs(t) < thresh:
                small += 1
                if small >= 8:
                    break
            else:
                small = 0
            n += 1
            coef *= (q3 + n - 1) * xm / n
        return float(s)


def _prabhakar_asymptotic(p: MLParams, x: float) -> float:
    """E^{q3}_{q1,q2}(x) for large negative x, 0 < q1 < 1:

        sum_k (-1)^k (q3)_k / (k! Gamma(q2 - q1(q3+k))) * |x|^{-q3-k}

    truncated at the smallest term (optimal truncation).
    """
    ax = -x
    la_x = math.log(ax)
    acc = []
    prev = math.inf
    for k in range(0, 200):
        sg_g, lg = _sign_logrgamma(p.q2 - p.q1 * (p.q3 + k))
        if sg_g == 0.0:
            acc.append(0.0)
            continue
        la = (
            gammaln(p.q3 + k)
            - gammaln(p.q3)
            - gammaln(k + 1.0)
            - (p.q3 + k) * la_x
            + lg
        )
        mag = math.exp(la)
        if mag > prev:
            break
        acc.append((-1.0) ** k * sg_g * mag)
        prev = mag
    return math.fsum(acc)


def prabhakar(p: MLParams, x: float, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Three-parameter Mittag-Leffler sum  (q3)_n x^n / (Gamma(q1 n + q2) n!)."""
    if math.isnan(x):
        raise ValueError("x must be a number, got nan")
    if x == 0.0:
        return rgamma(p.q2)
    if x < 0.0 and 0.0 < p.q1 < 1.0:
        peak = _prabhakar_peak_log10(p, x)
        if peak > 13.0:
            dps = int(peak) + 25
            if dps <= _DPS_CAP:
                return _prabhakar_mp(p, x, dps)
            return _prabhakar_asymptotic(p, x)
    res = _prabhakar_series(p, x, tol)
    if x < 0.0 and res.cancellation_error > max(tol.abs_tol, 1e-13 * abs(res.value)):
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


def multinomial_ml(
    p: MultinomialMLParams, z: Sequence[float], tol: SeriesTolerance = DEFAULT_TOL
) -> float:
    """Multinomial Mittag-Leffler function

        sum_n sum_{k_1+..+k_m=n} n!/(k_1!..k_m!) *
              prod_j z_j^{k_j} / Gamma(beta + sum_j alpha_j k_j).

    Grouped by total order n; the order sums decay like a one-parameter
    Mittag-Leffler series in max|z_j|.
    """
    z = list(z)
    if len(z) != len(p.alphas):
        raise ValueError("need one argument per exponent")

    def order_term(n: int) -> float:
        return _multinomial_order_sum(p, z, n)

    res = sum_series(order_term, tol)
    if res.cancellation_error > max(tol.abs_tol, 1e-11 * abs(res.value)):
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

def _mwright_peak_log10(beta: float, z: float) -> float:
    if z == 0.0:
        return 0.0
    lz = math.log(z)
    best = -math.inf
    n = 0
    while n <= 200_000:
        g = -beta * n + 1.0 - beta
        la = n * lz - gammaln(n + 1.0) - gammaln(g)
        if math.isfinite(la):
            best = max(best, la)
            if n > 20 and la < best - 60:
                break
        n = max(n + 1, int(n * 1.2))
    return best / math.log(10.0)


def _mwright_series(beta: float, z: float, tol: SeriesTolerance) -> SeriesResult:
    lz = math.log(z)

    def term(n: int) -> float:
        sg_g, lg = _sign_logrgamma(-beta * n + 1.0 - beta)
        if sg_g == 0.0:
            return 0.0
        la = n * lz - gammaln(n + 1.0) + lg
        return (-1.0) ** n * sg_g * math.exp(la)

    return sum_series(term, tol)


def _mwright_mp(beta: float, z: float, dps: int) -> float:
    with mp.workdps(dps):
        zm = mp.mpf(z)
        bem = mp.mpf(beta)
        s = mp.mpf(0)
        coef = mp.mpf(1)  # (-z)^n / n!, carried from term to term
        rg = _rgamma_table(("mwright", beta), dps)
        small = 0
        thresh = mp.mpf(10) ** (-dps + 10)
        for n in range(500_000):
            if n:
                coef *= -zm / n
            if n == len(rg):
                rg.append(mp.rgamma(-bem * n + 1 - bem))
            t = coef * rg[n]
            s += t
            if abs(t) < thresh:
                small += 1
                if small >= 8:
                    break
            else:
                small = 0
        return float(s)


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


def mwright_density(beta: float, z: float, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Mainardi-Wright probability density  sum_n (-z)^n / (n! Gamma(-beta n + 1 - beta)).

    Nonnegative on z >= 0 for beta in (0, 1); integrates to one.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if math.isnan(z):
        raise ValueError("z must be a number, got nan")
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    if z == 0.0:
        return rgamma(1.0 - beta)
    peak = _mwright_peak_log10(beta, z)
    if peak <= 13.0:
        res = _mwright_series(beta, z, tol)
        if res.cancellation_error <= max(tol.abs_tol, 1e-13 * abs(res.value)):
            return max(res.value, 0.0)
    dps = int(peak) + 25
    if dps <= _DPS_CAP:
        return max(_mwright_mp(beta, z, dps), 0.0)
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
    tol: SeriesTolerance = DEFAULT_TOL,
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
            if abs(t) < tol.abs_tol:
                small += 1
                if small >= 4:
                    break
            else:
                small = 0
            if n_terms > tol.max_terms:
                raise _budget(tol)
        row_sum = math.fsum(row)
        total.append(row_sum)
        if abs(row_sum) < tol.abs_tol and abs(row_head) < tol.abs_tol:
            small_rows += 1
            if small_rows >= 4:
                break
        else:
            small_rows = 0
        row_head = row_head * (a + m) * (b + m) / ((c + m) * (m + 1.0)) * x
        m += 1
        if n_terms > tol.max_terms:
            raise _budget(tol)
    return math.fsum(total)


def _budget(tol: SeriesTolerance):
    from .series import TruncationBudgetExceeded

    return TruncationBudgetExceeded(
        f"F3 double sum exceeded {tol.max_terms} terms"
    )
