"""Independent references for checking benchmark outputs.

Everything here runs outside the timed region.  The special-function and
memory-function references are direct mpmath summations of the defining
series, written without any code from ``subfrac``; the Monte Carlo
references go through ``subfrac.oracle.spectral_solution`` with the
closed-form memory function, the same deterministic route the acceptance
matrix uses.  Only stateless evaluators are used, so computing a reference
never warms a cache the timed ops depend on.
"""

from __future__ import annotations

import math

import mpmath as mp

from subfrac import oracle
from subfrac.fk import GaussianBump
from subfrac.kernels import make_kernel
from subfrac.phi import ClosedFormPhi

_MAX_TERMS = 20_000


def _sum(term, dps: int) -> float:
    """Sum term(0), term(1), ... at ``dps`` digits until eight consecutive
    terms fall below the working precision relative to the largest term.
    Terms must form their Gamma arguments in mpmath: a float64 rounding of
    q*n is amplified by the cancellation this summation exists to avoid."""
    with mp.workdps(dps):
        s = mp.mpf(0)
        peak = mp.mpf(0)
        small = 0
        for n in range(_MAX_TERMS):
            t = term(n)
            s += t
            peak = max(peak, abs(t))
            if n > 4 and abs(t) <= peak * mp.mpf(10) ** (-dps + 8):
                small += 1
                if small >= 8:
                    return float(s)
            else:
                small = 0
    raise ArithmeticError("reference series did not converge")


def _dps(x: float, order: float) -> int:
    """Digits for an alternating series whose largest term is about
    exp(|x|^(1/order)); 20 digits of headroom above the cancellation."""
    return 25 + int(abs(x) ** (1.0 / max(order, 0.05)) / math.log(10.0))


def ml(beta: float, x: float) -> float:
    return prabhakar(beta, 1.0, 1.0, x)


def prabhakar(q1: float, q2: float, q3: float, x: float) -> float:
    def term(n):
        return mp.rf(q3, n) * mp.mpf(x) ** n / mp.factorial(n) * mp.rgamma(mp.mpf(q1) * n + q2)

    return _sum(term, _dps(x, q1))


def mwright(beta: float, z: float) -> float:
    def term(n):
        return (-mp.mpf(z)) ** n / mp.factorial(n) * mp.rgamma(1 - mp.mpf(beta) * (n + 1))

    return _sum(term, _dps(z, 1.0 - beta))


def multinomial_ml(alphas, beta: float, z) -> float:
    """sum over (k_1..k_m) of multinomial(k) prod z_j^k_j / Gamma(beta + a.k), m <= 2."""
    if len(alphas) == 1:
        return prabhakar(alphas[0], beta, 1.0, z[0])
    (a1, a2), (z1, z2) = alphas, z
    dps = max(_dps(z1, a1), _dps(z2, a2))

    def term(n):  # all compositions of total order n
        return mp.fsum(
            mp.binomial(n, k) * mp.mpf(z1) ** k * mp.mpf(z2) ** (n - k)
            * mp.rgamma(beta + mp.mpf(a1) * k + mp.mpf(a2) * (n - k))
            for k in range(n + 1)
        )

    return _sum(term, dps)


def appell_f3(a, ap, b, bp, c, x, y) -> float:
    with mp.workdps(30):
        return float(mp.appellf3(a, ap, b, bp, c, x, y))


def phi(spec: dict, t: float, lam: float) -> float:
    """Memory function Phi(t, lam) from its defining series per family."""
    fam = spec["family"]
    if t == 0.0 or lam == 0.0:
        return 1.0
    if fam == "ggbm":
        return ml(spec["beta"], lam * t ** spec["alpha"])
    if fam == "fractional_power":
        return ml(spec["beta"], lam * t ** spec["beta"])
    if fam == "msm":
        a, b, mu, nu = spec["a"], spec["b"], spec["mu"], spec["nu"]
        q1, q2, q3 = b / a, nu / a + mu, 1.0 + (nu - a) / b
        return math.gamma(q2) * prabhakar(q1, q2, q3, lam * t**b)
    beta, betas, bs = spec["beta"], tuple(spec["betas"]), tuple(spec["bs"])
    if fam == "conv_power_sum":
        exps, weights = (beta,) + betas, (1.0,) + bs
        return multinomial_ml(exps, 1.0, [w * lam * t**e for e, w in zip(exps, weights)])
    if fam == "conv_multinomial_ml":
        exps = (beta,) + tuple(beta - bj for bj in betas)
        args = [lam * t**beta] + [-wj * t ** (beta - bj) for bj, wj in zip(betas, bs)]
        return 1.0 + lam * t**beta * multinomial_ml(exps, beta + 1.0, args)
    raise ValueError(f"no reference for family {fam!r}")


def passage_sd_bound(spec: dict, t: float, width: float, c: float) -> float:
    """Upper bound on the standard deviation of one path's value
    u0(sqrt(E) Z) exp(c E) at x = 0 for a conv_multinomial_ml kernel, whose
    time change E = E_t inverts a drift-free stable-sum subordinator.

    With u0 a unit-height bump of width w, 1 - value <= E (Z^2/(2 w^2) - c),
    so Var(value) <= E[(1 - value)^2] <= E[E^2] (3/(4 w^4) - c/w^2 + c^2).
    E[E^2] = 2 c_2(t), the second coefficient of Phi(t, .) = E[exp(. E)],
    which is t^(2 beta) times a three-parameter Mittag-Leffler function."""
    beta, (b1,), (w1,) = spec["beta"], spec["betas"], spec["bs"]
    c2 = t ** (2 * beta) * prabhakar(beta - b1, 2 * beta + 1.0, 2.0, -w1 * t ** (beta - b1))
    return math.sqrt(2.0 * c2 * (0.75 / width**4 - c / width**2 + c * c))


class _SubordinatedPhi:
    """Closed-form Phi evaluated at the symbol of the subordinated,
    potential-weighted generator: spectral_solution passes
    a = -(xi^2/2)^gamma, and E[exp(-(xi^2/2 - c) eta_A)] = exp(-A (xi^2/2 - c)^gamma)
    turns that into Phi(t, -((-a)^(1/gamma) - c)^gamma)."""

    def __init__(self, kernel, gamma: float, c: float):
        self._closed = ClosedFormPhi(kernel)
        self._gamma, self._c = gamma, c

    def value(self, t: float, a: float) -> float:
        s = (-a) ** (1.0 / self._gamma) - self._c
        return self._closed.value(t, -(s**self._gamma))


def mc_reference(spec: dict, gamma: float, c: float, width: float, t: float, x: float,
                 xi_max: float, n_modes: int) -> float:
    """u(t, x) for the Brownian base with stable-power subordination gamma
    (1 = none), constant potential c <= 0 and a centred Gaussian bump."""
    kernel = make_kernel(spec)
    return oracle.spectral_solution(
        kernel, GaussianBump(0.0, width), "frac_laplacian", t, x,
        grid=oracle.SpectralGrid(xi_max=xi_max, n_modes=n_modes), gamma=gamma,
        phi_evaluator=_SubordinatedPhi(kernel, gamma, c),
    )
