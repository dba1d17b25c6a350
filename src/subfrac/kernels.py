"""Memory-kernel families, admissibility checks and series coefficients.

Every kernel k(t, s) supported here factors near its weak singularities as

    k(t, s) = sum_i  m_i(t, s) * (t - s)^{p_end,i} ,
    m_i(t, s) ~ s^{p_zero,i} * (smooth)   as s -> 0,

with p_end, p_zero > -1.  That factorisation powers both the product
integration used by the Volterra route and the Gauss-Jacobi quadrature
used for the coefficient recursion

    c_0(t) = 1,   c_n(t) = int_0^t k(t, s) c_{n-1}(s) ds,

whose values build the memory function's power series.  Homogeneous
kernels satisfy k(t, t*s) = t^{theta-1} k(1, s) and carry their degree in
``theta``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import mpmath as mp
import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import gamma as sp_gamma
from scipy.special import hyp2f1, roots_jacobi

from .series import CACHE_SIZE, lru_get
from .specfun import MultinomialMLParams, appell_f3, multinomial_ml

__all__ = [
    "AdmissibilityReport",
    "ConvMultinomialMLKernel",
    "ConvPowerSumKernel",
    "CustomKernel",
    "FractionalPowerKernel",
    "GGBMKernel",
    "InvalidParameters",
    "MSMKernel",
    "MemoryKernel",
    "NormDivergent",
    "QuadratureFailure",
    "SingularPart",
    "SingularPoint",
    "StretchFn",
    "TimeStretchedKernel",
    "CoefficientTables",
    "kernel_eval",
    "make_kernel",
    "phi_coefficients",
    "time_stretch_kernel",
    "verify_assumption_k",
]


class InvalidParameters(ValueError):
    """Kernel parameter constraint violated; message names the inequality."""


class SingularPoint(ValueError):
    """Kernel evaluated at s = 0 or s = t where the family is singular."""


class NormDivergent(RuntimeError):
    """The L^{1+eps} norm estimate does not stabilise under refinement."""


class QuadratureFailure(RuntimeError):
    """Coefficient quadrature did not converge under node refinement."""


@dataclass(frozen=True)
class SingularPart:
    """One additive weakly singular piece of a kernel.

    ``regular(t, s)`` is finite up to s = t.  It takes one time t with an
    array s, or a column of row times t of shape (rows, 1) with s of shape
    (rows, m); the solvers evaluate blocks of rows in one call.
    """

    p_end: float
    p_zero: float
    regular: Callable
    conv_profile: Callable | None = None  # tau -> m(tau) for convolution pieces


def _row_by_row(regular):
    """A regular factor written for one time t, made to take a column of
    row times by evaluating it one row at a time: user callables may take
    only a scalar t, and a scalar power can round differently from numpy's
    vector power, so a block row keeps the bits of a one-time call."""

    def rows(t, s):
        if np.ndim(t) == 0:
            return regular(t, s)
        s = np.broadcast_to(s, np.broadcast_shapes(np.shape(t), np.shape(s)))
        return np.stack([regular(tv, sv) for tv, sv in zip(np.ravel(t), s)])

    return rows


@dataclass(frozen=True)
class StretchFn:
    """Monotone time change g with derivative, g(0+) = 0, g increasing to inf.

    ``power`` declares g(tau) = tau^power when applicable so stretched
    kernels can keep homogeneity metadata.
    """

    g: Callable
    g_dot: Callable
    power: float | None = None

    def __post_init__(self) -> None:
        probe = np.linspace(0.05, 5.0, 25)
        gv = np.array([self.g(t) for t in probe])
        gd = np.array([self.g_dot(t) for t in probe])
        if not ((gv > 0).all() and (gd > 0).all() and (np.diff(gv) > 0).all()):
            raise InvalidParameters("stretch must satisfy g>0, g'>0, g increasing")


def _stable_power_ratio(t, s, a):
    """(t^a - s^a) / (t - s) without cancellation for s near t (0 < s <= t)."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    out = np.empty(np.broadcast(t, s).shape)
    r = np.clip(s / t, 0.0, 1.0)
    near = r > 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        np.copyto(out, (t**a - s**a) / (t - s), where=~near)
    # t^a (1 - r^a)/(t(1-r)) with expm1 keeping precision as r -> 1
    rn = np.where(near, r, 0.5)
    num = -np.expm1(a * np.log(rn))
    den = 1.0 - rn
    limit = a * np.asarray(t, dtype=float) ** (a - 1.0)
    ratio = np.where(den > 0, num / np.where(den > 0, den, 1.0), a)
    np.copyto(out, np.broadcast_to(t, out.shape) ** (a - 1.0) * ratio, where=near)
    exact = (den == 0.0) & near
    np.copyto(out, np.broadcast_to(limit, out.shape), where=exact)
    return out


class MemoryKernel:
    """Base class; subclasses are frozen dataclasses with validated params."""

    family: str = "abstract"
    theta: float | None = None  # homogeneity degree is theta - 1 when present
    nonnegative: bool = True

    # -- evaluation -------------------------------------------------------
    def eval(self, t: float, s):
        raise NotImplementedError

    def parts(self) -> list[SingularPart]:
        raise NotImplementedError

    def endpoint_exponents(self) -> tuple[float, float]:
        """(p_zero, p_end) of the dominant singular behaviour."""
        ps = self.parts()
        return (min(p.p_zero for p in ps), min(p.p_end for p in ps))

    @property
    def is_homogeneous(self) -> bool:
        return self.theta is not None

    def hp_unit_eval(self, s: mp.mpf) -> mp.mpf:
        """k(1, s) in mpmath arithmetic (homogeneous families only)."""
        raise NotImplementedError(f"{self.family} has no high-precision path")


@dataclass(frozen=True)
class FractionalPowerKernel(MemoryKernel):
    """k(t, s) = (t-s)^{beta-1} / Gamma(beta), the classical power kernel."""

    beta: float
    family: str = field(default="fractional_power", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.0:
            raise InvalidParameters("fractional_power requires 0 < beta <= 1")
        object.__setattr__(self, "theta", self.beta)

    def eval(self, t, s):
        s = np.asarray(s, dtype=float)
        return (t - s) ** (self.beta - 1.0) / sp_gamma(self.beta)

    def parts(self):
        c = 1.0 / sp_gamma(self.beta)
        return [
            SingularPart(
                p_end=self.beta - 1.0,
                p_zero=0.0,
                regular=lambda t, s, c=c: np.full_like(np.asarray(s, float), c),
                conv_profile=lambda tau, c=c: np.full_like(np.asarray(tau, float), c),
            )
        ]

    def hp_unit_eval(self, s):
        return (1 - s) ** (mp.mpf(self.beta) - 1) / mp.gamma(mp.mpf(self.beta))


@dataclass(frozen=True)
class GGBMKernel(MemoryKernel):
    """Kernel of the grey-Brownian-motion governing equation:

        k(t, s) = (alpha / (beta Gamma(beta))) s^{alpha/beta - 1}
                  (t^{alpha/beta} - s^{alpha/beta})^{beta - 1}.
    """

    alpha: float
    beta: float
    family: str = field(default="ggbm", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 2.0:
            raise InvalidParameters("ggbm requires 0 < alpha < 2")
        if not 0.0 < self.beta <= 1.0:
            raise InvalidParameters("ggbm requires 0 < beta <= 1")
        object.__setattr__(self, "theta", self.alpha)

    @property
    def _a(self) -> float:
        return self.alpha / self.beta

    @property
    def _c(self) -> float:
        return self.alpha / (self.beta * sp_gamma(self.beta))

    def eval(self, t, s):
        s = np.asarray(s, dtype=float)
        a = self._a
        return self._c * s ** (a - 1.0) * (t**a - s**a) ** (self.beta - 1.0)

    def parts(self):
        a, c, be = self._a, self._c, self.beta

        def regular(t, s):
            s = np.asarray(s, dtype=float)
            ratio = _stable_power_ratio(t, s, a)
            return c * s ** (a - 1.0) * ratio ** (be - 1.0)

        return [SingularPart(p_end=be - 1.0, p_zero=a - 1.0, regular=regular)]

    def hp_unit_eval(self, s):
        a = mp.mpf(self.alpha) / mp.mpf(self.beta)
        c = mp.mpf(self.alpha) / (mp.mpf(self.beta) * mp.gamma(mp.mpf(self.beta)))
        return c * s ** (a - 1) * (1 - s**a) ** (mp.mpf(self.beta) - 1)


@dataclass(frozen=True)
class MSMKernel(MemoryKernel):
    """Marichev-Saigo-Maeda kernel built from Appell's F3:

        k(t,s) = a/Gamma(b/a) (t^a - s^a)^{b/a-1} t^{a-nu} s^{nu-1}
                 F3(nu/a - 1, b/a, 1, mu, b/a, 1-(s/t)^a, 1-(t/s)^a),

    with b > 0, a >= b, mu >= b/a - 1, nu > max(a-b, -a mu); homogeneous
    of degree b - 1.  Pointwise evaluation is exact in the collapsing
    cases nu = a (F3 = (s/t)^{a mu}) and mu = 0 (F3 = 2F1); otherwise the
    raw double sum is used only on its provable convergence domain
    s > t 2^{-1/a}.
    """

    a: float
    b: float
    mu: float
    nu: float
    family: str = field(default="msm", init=False)

    def __post_init__(self) -> None:
        if not self.b > 0:
            raise InvalidParameters("msm requires b > 0")
        if not self.a >= self.b:
            raise InvalidParameters("msm requires a >= b")
        if not self.mu >= self.b / self.a - 1.0:
            raise InvalidParameters("msm requires mu >= b/a - 1")
        if not self.nu > max(self.a - self.b, -self.a * self.mu):
            raise InvalidParameters("msm requires nu > max(a-b, -a*mu)")
        object.__setattr__(self, "theta", self.b)

    @property
    def _pref(self) -> float:
        return self.a / sp_gamma(self.b / self.a)

    def _f3(self, t, s):
        a, b, mu, nu = self.a, self.b, self.mu, self.nu
        s = np.asarray(s, dtype=float)
        if nu == a:  # F3 = 2F1(b/a, mu; b/a; y) = (1-y)^{-mu} = (s/t)^{a mu}
            return (s / t) ** (a * mu)
        if mu == 0.0:
            x = -np.expm1(a * np.log(s / t))
            return np.vectorize(lambda xv: hyp2f1(nu / a - 1.0, 1.0, b / a, xv))(x)
        x = -np.expm1(a * np.log(np.asarray(s, float) / t))
        y = -np.expm1(a * np.log(t / np.asarray(s, float)))
        if np.any(np.abs(y) >= 1.0):
            raise SingularPoint(
                "msm F3 evaluation restricted to s > t 2^{-1/a} for these parameters"
            )
        return np.vectorize(
            lambda xv, yv: appell_f3(nu / a - 1.0, b / a, 1.0, mu, b / a, xv, yv)
        )(x, y)

    def eval(self, t, s):
        s = np.asarray(s, dtype=float)
        a, b, nu = self.a, self.b, self.nu
        return (
            self._pref
            * (t**a - s**a) ** (b / a - 1.0)
            * t ** (a - nu)
            * s ** (nu - 1.0)
            * self._f3(t, s)
        )

    def parts(self):
        a, b, mu, nu = self.a, self.b, self.mu, self.nu

        def regular(t, s):
            s = np.asarray(s, dtype=float)
            ratio = _stable_power_ratio(t, s, a) ** (b / a - 1.0)
            return self._pref * ratio * t ** (a - nu) * s ** (nu - 1.0) * self._f3(t, s)

        if nu == a:
            p_zero = nu - 1.0 + a * mu
        elif nu < b:
            p_zero = nu - 1.0
        else:
            p_zero = b - 1.0
        return [SingularPart(p_end=b / a - 1.0, p_zero=p_zero, regular=_row_by_row(regular))]

    def hp_unit_eval(self, s):
        a, b = mp.mpf(self.a), mp.mpf(self.b)
        mu, nu = mp.mpf(self.mu), mp.mpf(self.nu)
        pref = a / mp.gamma(b / a)
        base = pref * (1 - s**a) ** (b / a - 1) * s ** (nu - 1)
        if self.nu == self.a:
            return base * s ** (a * mu)
        if self.mu == 0.0:
            return base * mp.hyp2f1(nu / a - 1, 1, b / a, 1 - s**a)
        raise NotImplementedError("general msm has no high-precision path")


def _validate_conv_exponents(beta: float, betas: Sequence[float], bs: Sequence[float]):
    if not 0.0 < beta <= 1.0:
        raise InvalidParameters("requires 0 < beta <= 1")
    if len(betas) != len(bs):
        raise InvalidParameters("betas and bs must have equal length")
    prev = beta
    for bj in betas:
        if not 0.0 < bj < prev:
            raise InvalidParameters("requires beta > beta_1 > ... > beta_m > 0")
        prev = bj
    if any(w <= 0 for w in bs):
        raise InvalidParameters("requires all b_j > 0")


@dataclass(frozen=True)
class ConvPowerSumKernel(MemoryKernel):
    """Convolution kernel  K(tau) = tau^{beta-1}/Gamma(beta)
    + sum_j b_j tau^{beta_j-1}/Gamma(beta_j)  (a mixture of power kernels;
    the associated generalized derivative is a mixture of classical
    fractional derivatives).  Its reciprocal Laplace transform is the
    Bernstein function h(s) = (s^{-beta} + sum_j b_j s^{-beta_j})^{-1}.
    """

    beta: float
    betas: tuple[float, ...] = ()
    bs: tuple[float, ...] = ()
    family: str = field(default="conv_power_sum", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "betas", tuple(float(v) for v in self.betas))
        object.__setattr__(self, "bs", tuple(float(v) for v in self.bs))
        _validate_conv_exponents(self.beta, self.betas, self.bs)
        object.__setattr__(self, "theta", self.beta if not self.betas else None)

    def eval(self, t, s):
        tau = t - np.asarray(s, dtype=float)
        out = tau ** (self.beta - 1.0) / sp_gamma(self.beta)
        for bj, wj in zip(self.betas, self.bs):
            out = out + wj * tau ** (bj - 1.0) / sp_gamma(bj)
        return out

    def parts(self):
        out = []
        for expo, w in [(self.beta, 1.0)] + list(zip(self.betas, self.bs)):
            c = w / sp_gamma(expo)
            out.append(
                SingularPart(
                    p_end=expo - 1.0,
                    p_zero=0.0,
                    regular=lambda t, s, c=c: np.full_like(np.asarray(s, float), c),
                    conv_profile=lambda tau, c=c: np.full_like(
                        np.asarray(tau, float), c
                    ),
                )
            )
        return out


@dataclass(frozen=True)
class ConvMultinomialMLKernel(MemoryKernel):
    """Convolution kernel  K(tau) = tau^{beta-1} *
    E_{(beta-beta_1,...,beta-beta_m),beta}(-b_1 tau^{beta-beta_1}, ...),
    whose reciprocal Laplace transform is the Bernstein function
    h(s) = s^beta + sum_j b_j s^{beta_j}.
    """

    beta: float
    betas: tuple[float, ...] = ()
    bs: tuple[float, ...] = ()
    family: str = field(default="conv_multinomial_ml", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "betas", tuple(float(v) for v in self.betas))
        object.__setattr__(self, "bs", tuple(float(v) for v in self.bs))
        _validate_conv_exponents(self.beta, self.betas, self.bs)
        object.__setattr__(self, "theta", self.beta if not self.betas else None)

    def _profile(self, tau):
        """K(tau) * tau^{1-beta}, smooth and equal to 1/Gamma(beta) at 0+."""
        tau = np.asarray(tau, dtype=float)
        if not self.betas:
            return np.full_like(tau, 1.0 / sp_gamma(self.beta))
        p = MultinomialMLParams(
            tuple(self.beta - bj for bj in self.betas), self.beta
        )
        flat = tau.ravel()
        out = np.array(
            [
                multinomial_ml(
                    p, [-wj * tv ** (self.beta - bj) for bj, wj in zip(self.betas, self.bs)]
                )
                for tv in flat
            ]
        )
        return out.reshape(tau.shape) if tau.shape else out[0]

    def eval(self, t, s):
        tau = t - np.asarray(s, dtype=float)
        return tau ** (self.beta - 1.0) * self._profile(tau)

    def parts(self):
        return [
            SingularPart(
                p_end=self.beta - 1.0,
                p_zero=0.0,
                regular=lambda t, s: self._profile(t - np.asarray(s, float)),
                conv_profile=self._profile,
            )
        ]


@dataclass(frozen=True)
class TimeStretchedKernel(MemoryKernel):
    """kappa(tau, sigma) = k(g(tau), g(sigma)) g'(sigma) for a stretch g."""

    base: MemoryKernel
    stretch: StretchFn
    family: str = field(default="time_stretched", init=False)

    def __post_init__(self) -> None:
        th = None
        if self.base.theta is not None and self.stretch.power is not None:
            th = self.stretch.power * self.base.theta
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "nonnegative", self.base.nonnegative)

    def eval(self, t, s):
        s = np.asarray(s, dtype=float)
        gs = np.vectorize(self.stretch.g)(s)
        gds = np.vectorize(self.stretch.g_dot)(s)
        return self.base.eval(self.stretch.g(t), gs) * gds

    def parts(self):
        out = []
        for part in self.base.parts():

            def regular(t, s, part=part):
                s = np.asarray(s, dtype=float)
                gt = self.stretch.g(t)
                gs = np.vectorize(self.stretch.g)(s)
                gds = np.vectorize(self.stretch.g_dot)(s)
                # (g(t)-g(s))^{p} = (t-s)^{p} * ((g(t)-g(s))/(t-s))^{p}
                diff_ratio = np.where(
                    s < t, (gt - gs) / np.where(s < t, t - s, 1.0), gds
                )
                return part.regular(gt, gs) * diff_ratio**part.p_end * gds

            out.append(
                SingularPart(p_end=part.p_end, p_zero=part.p_zero, regular=_row_by_row(regular))
            )
        return out


@dataclass(frozen=True)
class CustomKernel(MemoryKernel):
    """User-supplied kernel; singular exponents are declared, not inferred."""

    fn: Callable
    theta_value: float | None = None
    p_zero: float = 0.0
    p_end: float = 0.0
    nonneg: bool = True
    family: str = field(default="custom", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", self.theta_value)
        object.__setattr__(self, "nonnegative", self.nonneg)

    def eval(self, t, s):
        return np.asarray(self.fn(t, np.asarray(s, dtype=float)), dtype=float)

    def parts(self):
        def regular(t, s):
            s = np.asarray(s, dtype=float)
            below = np.minimum(s, t * (1.0 - 1e-12))
            return self.eval(t, below) * (t - below) ** (-self.p_end)

        return [SingularPart(p_end=self.p_end, p_zero=self.p_zero, regular=_row_by_row(regular))]


# ---------------------------------------------------------------------------
# construction and pointwise evaluation
# ---------------------------------------------------------------------------

_FAMILIES = {
    "fractional_power": lambda d: FractionalPowerKernel(beta=d["beta"]),
    "ggbm": lambda d: GGBMKernel(alpha=d["alpha"], beta=d["beta"]),
    "msm": lambda d: MSMKernel(a=d["a"], b=d["b"], mu=d["mu"], nu=d["nu"]),
    "conv_power_sum": lambda d: ConvPowerSumKernel(
        beta=d["beta"], betas=tuple(d.get("betas", ())), bs=tuple(d.get("bs", ()))
    ),
    "conv_multinomial_ml": lambda d: ConvMultinomialMLKernel(
        beta=d["beta"], betas=tuple(d.get("betas", ())), bs=tuple(d.get("bs", ()))
    ),
}


def make_kernel(spec: dict) -> MemoryKernel:
    """Build a validated kernel from a {'family': ..., params...} mapping."""
    try:
        fam = spec["family"]
    except (KeyError, TypeError):
        raise InvalidParameters("kernel spec needs a 'family' key") from None
    try:
        builder = _FAMILIES[fam]
    except KeyError:
        raise InvalidParameters(f"unknown kernel family {fam!r}") from None
    try:
        return builder(spec)
    except KeyError as exc:
        raise InvalidParameters(f"kernel family {fam!r} missing parameter {exc}") from None


def time_stretch_kernel(kernel: MemoryKernel, stretch: StretchFn) -> TimeStretchedKernel:
    """Kernel of the time-stretched equation: kappa(tau, sigma) =
    k(g(tau), g(sigma)) g'(sigma)."""
    return TimeStretchedKernel(base=kernel, stretch=stretch)


def kernel_eval(kernel: MemoryKernel, t: float, s: float):
    """k(t, s) for 0 < s < t, rejecting the singular endpoints."""
    s_arr = np.asarray(s, dtype=float)
    if not t > 0:
        raise SingularPoint("t must be positive")
    if np.any(s_arr <= 0.0) or np.any(s_arr >= t):
        raise SingularPoint("kernel evaluation requires 0 < s < t")
    out = kernel.eval(t, s_arr)
    return float(out) if np.isscalar(s) or np.asarray(s).ndim == 0 else out


# ---------------------------------------------------------------------------
# Assumption check: K_T = sup_t t^{alpha* - 1/(1+eps)} ||k(t,.)||_{L^{1+eps}}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    T: float
    epsilon: float
    alpha_star: float
    K_T: float
    grid: str
    refinement_drift: float

    def __post_init__(self) -> None:
        if self.K_T < 0:
            raise ValueError("K_T must be nonnegative")


def _lp_norm_power(kernel: MemoryKernel, t: float, p: float, n_nodes: int) -> float:
    """int_0^t |k(t,s)|^p ds via Gauss-Jacobi matched to |k|^p's endpoints."""
    p0, p1 = kernel.endpoint_exponents()
    a_j, b_j = p1 * p, p0 * p
    if a_j <= -1.0 or b_j <= -1.0:
        raise NormDivergent(
            f"|k|^{p:g} endpoint exponent <= -1; the L^{p:g} norm diverges"
        )
    x, w = roots_jacobi(n_nodes, a_j, b_j)
    u = 0.5 * (x + 1.0)
    wu = w * 0.5 ** (a_j + b_j + 1.0)
    s = t * u
    vals = np.abs(kernel.eval(t, s))
    core = vals / (u**p0 * (1.0 - u) ** p1)  # smooth factor of |k|, carries t powers
    return t * float(np.dot(wu, core**p))


def verify_assumption_k(
    kernel: MemoryKernel,
    T: float,
    epsilon: float,
    alpha_star: float,
    grid_size: int = 40,
) -> AdmissibilityReport:
    """Numerically estimate K_T on a logarithmic t grid.

    Raises NormDivergent when the norm integral is structurally divergent
    for this (epsilon, alpha_star) or fails to stabilise under quadrature
    refinement.
    """
    if not (T > 0 and epsilon > 0 and 0.0 <= alpha_star < 1.0):
        raise ValueError("need T > 0, epsilon > 0, alpha_star in [0, 1)")
    p = 1.0 + epsilon
    tgrid = np.geomspace(T * 1e-4, T, grid_size)
    sups = []
    for n_nodes in (48, 96):
        vals = []
        for t in tgrid:
            norm = _lp_norm_power(kernel, t, p, n_nodes) ** (1.0 / p)
            vals.append(t ** (alpha_star - 1.0 / p) * norm)
        sups.append(max(vals))
    drift = abs(sups[1] - sups[0]) / max(sups[1], 1e-300)
    if not math.isfinite(sups[1]) or drift > 1e-3:
        raise NormDivergent(
            f"K_T estimate not stabilising (drift {drift:.2e}); "
            "the (epsilon, alpha_star) pair looks inadmissible"
        )
    return AdmissibilityReport(
        T=T,
        epsilon=epsilon,
        alpha_star=alpha_star,
        K_T=sups[1],
        grid=f"geometric t-grid [{T * 1e-4:g}, {T:g}] with {grid_size} points",
        refinement_drift=drift,
    )


# ---------------------------------------------------------------------------
# coefficient recursion c_n(t) = int_0^t k(t,s) c_{n-1}(s) ds
# ---------------------------------------------------------------------------

# (grid time, quadrature node) pairs of one row block of a coefficient
# level or of a Volterra solve: the kernel's temporaries stay near 16 KiB
# each, and a 256-step solve peaks near 0.3 MB (0.6 MB at 2^12 pairs, no
# faster)
_ROW_BLOCK = 2**11


class CoefficientTables:
    """Tabulated coefficients of the memory power series on [0, horizon].

    Each level is computed from the previous one by Gauss-Jacobi
    quadrature matched to the kernel's endpoint exponents; inner values
    come from monotone cubic interpolation of log c_{n-1} against log t,
    which is exact for the power-law profiles homogeneous kernels produce
    and near-exact for smooth perturbations of them.  Nothing here
    assumes homogeneity.  A level is evaluated in blocks of grid rows
    against all quadrature nodes, at most _ROW_BLOCK pairs per block.
    """

    def __init__(
        self,
        kernel: MemoryKernel,
        horizon: float,
        n_max: int,
        grid_size: int = 1200,
        quad_nodes: int = 96,
    ):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.kernel = kernel
        self.horizon = float(horizon)
        self.n_max = n_max
        self.grid_size = grid_size
        self.quad_nodes = quad_nodes
        self._master = horizon * (np.arange(1, grid_size + 1) / grid_size) ** 2.0
        self._log_master = np.log(self._master)
        # int_0^t m(t,s)(t-s)^{p1} c(s) ds in the variable u = (s/t) = v^2:
        #   = t^{p1+1} * 2 int_0^1 v^{2 p0 + 1} (1-v)^{p1}
        #                 [ (1+v)^{p1} (m(t,tv^2)/v^{2 p0}) c(t v^2) ] dv,
        # handled by the Gauss-Jacobi rule with weight v^{2 p0 + 1}(1-v)^{p1};
        # the square-root substitution doubles the effective smoothness of
        # the fractional powers the coefficients carry near the origin
        self._rules = []
        for part in kernel.parts():
            bv = 2.0 * part.p_zero + 1.0
            x, w = roots_jacobi(quad_nodes, part.p_end, bv)
            v = 0.5 * (x + 1.0)
            wu = (
                2.0
                * w
                * 0.5 ** (part.p_end + bv + 1.0)
                * (1.0 + v) ** part.p_end
                / v ** (2.0 * part.p_zero)
            )
            self._rules.append((part, v * v, wu))
        self._interps: list = [None]  # index n -> PCHIP over log t; c_0 == 1
        self._signs = [1.0]  # 1.0: table stores log c_n; 0.0: stores c_n raw
        self._edges = [None]  # (log t_min, log c(t_min), boundary slope)
        for n in range(1, n_max + 1):
            vals = self._level_values(n)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
                    ip = PchipInterpolator(self._log_master, vals, extrapolate=False)
                    self._signs.append(0.0)
                else:
                    ip = PchipInterpolator(
                        self._log_master, np.log(vals), extrapolate=False
                    )
                    self._signs.append(1.0)
            d0 = float(ip.derivative()(self._log_master[0]))
            self._interps.append(ip)
            self._edges.append((self._log_master[0], float(ip(self._log_master[0])), d0))

    def _eval_level(self, n: int, ls: np.ndarray) -> np.ndarray:
        """Table level n at log-times ls; below the table the boundary
        power law (linear continuation in log space) is used."""
        ip = self._interps[n]
        lm0, v0, d0 = self._edges[n]
        inside = ls >= lm0
        out = np.empty_like(ls)
        if inside.any():
            out[inside] = ip(ls[inside])
        below = ~inside
        if below.any():
            out[below] = v0 + d0 * (ls[below] - lm0)
        if self._signs[n] == 1.0:
            return np.exp(out)
        return out

    def _prev_values(self, n: int, s):
        if n == 1:
            return np.ones_like(np.asarray(s, dtype=float))
        ls = np.log(np.maximum(s, 1e-300))
        return self._eval_level(n - 1, ls)

    def _level_values(self, n: int) -> np.ndarray:
        """Level n at every grid time, from blocks of grid rows against the
        quadrature nodes (at most _ROW_BLOCK elements per block).  Each
        row keeps its own dot product and a scalar t^{p1+1}, so a row's
        value has the bits of a one-time evaluation."""
        tvals = self._master
        out = np.zeros_like(tvals)
        rows = max(1, _ROW_BLOCK // self.quad_nodes)
        for part, u, wu in self._rules:
            scale = [t ** (part.p_end + 1.0) for t in tvals]
            for i0 in range(0, tvals.size, rows):
                t = tvals[i0 : i0 + rows, None]
                s = t * u
                integrand = part.regular(t, s) * self._prev_values(n, s)
                for i, row in enumerate(integrand, i0):
                    out[i] += scale[i] * float(np.dot(wu, row))
        return out

    def value(self, n: int, t: float) -> float:
        if n == 0:
            return 1.0
        if t == 0.0:
            return 0.0
        if not 0.0 < t <= self.horizon:
            raise ValueError(f"t = {t:g} outside table horizon {self.horizon:g}")
        return float(self._eval_level(n, np.array([math.log(t)]))[0])

    def values(self, t: float) -> np.ndarray:
        return np.array([self.value(n, t) for n in range(self.n_max + 1)])


_COEFF_CACHE: OrderedDict = OrderedDict()


def coefficient_tables(
    kernel: MemoryKernel,
    horizon: float,
    n_max: int,
    grid_size: int = 1200,
    quad_nodes: int = 96,
) -> CoefficientTables:
    """Cached CoefficientTables; kernels are frozen dataclasses, so keying
    by the instance plus build parameters is safe."""
    key = (kernel, round(horizon, 12), n_max, grid_size, quad_nodes)
    return lru_get(
        _COEFF_CACHE, key, lambda: CoefficientTables(kernel, horizon, n_max, grid_size, quad_nodes)
    )


def phi_coefficients(
    kernel: MemoryKernel, t: float, n_max: int, check: bool = False
) -> np.ndarray:
    """c_0(t) .. c_{n_max}(t) of the memory power series at time t.

    With ``check=True`` the quadrature is repeated at half the node count
    and QuadratureFailure is raised if the levels disagree beyond 1e-8
    relative to the coefficient scale.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    horizon = max(t, 1.0)
    tab = coefficient_tables(kernel, horizon, n_max)
    vals = tab.values(t) if t > 0 else np.array([1.0] + [0.0] * n_max)
    if check and t > 0:
        coarse = coefficient_tables(
            kernel, horizon, n_max, grid_size=tab.grid_size, quad_nodes=tab.quad_nodes // 2
        )
        drift = np.abs(vals - coarse.values(t))
        scale = np.maximum(np.abs(vals), 1.0)
        if np.any(drift / scale > 1e-8):
            raise QuadratureFailure(
                f"coefficient quadrature drift {np.max(drift / scale):.2e} at t={t:g}"
            )
    return vals
