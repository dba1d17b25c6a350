"""Memory-kernel families and their series coefficients.

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

Each family states its float formula once, as that factorisation: its
``parts()``.  ``MemoryKernel.eval`` derives k(t, s) from the parts; only a
user-supplied ``CustomKernel``, whose parts are derived from its function,
evaluates k directly.  ``FAMILIES`` names each family's class and
parameters for ``make_kernel``, the command line and the problem schema.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import mpmath as mp
import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import gamma as sp_gamma
from scipy.special import hyp2f1, roots_jacobi

from .series import CACHE_SIZE, lru_get
from .specfun import MultinomialMLParams, appell_f3, multinomial_ml

__all__ = [
    "ConvMultinomialMLKernel",
    "ConvPowerSumKernel",
    "CustomKernel",
    "FAMILIES",
    "FractionalPowerKernel",
    "GGBMKernel",
    "InvalidParameters",
    "MSMKernel",
    "MemoryKernel",
    "SingularPart",
    "SingularPoint",
    "StretchFn",
    "TimeStretchedKernel",
    "CoefficientTables",
    "make_kernel",
    "phi_coefficients",
]


class InvalidParameters(ValueError):
    """Kernel parameter constraint violated; message names the inequality."""


class SingularPoint(ValueError):
    """Kernel evaluated at s = 0 or s = t where the family is singular."""


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

    # -- evaluation -------------------------------------------------------
    def eval(self, t: float, s):
        """k(t, s) = sum_i regular_i(t, s) (t - s)^{p_end,i} over the parts."""
        s = np.asarray(s, dtype=float)
        return sum(part.regular(t, s) * (t - s) ** part.p_end for part in self.parts())

    def parts(self) -> list[SingularPart]:
        raise NotImplementedError

    @property
    def is_homogeneous(self) -> bool:
        return self.theta is not None

    def hp_unit(self):
        """s -> k(1, s) in mpmath arithmetic at the current precision, with
        the parameter constants computed once (homogeneous families only)."""
        raise NotImplementedError(f"{self.family} has no high-precision path")


def _power_parts(terms) -> list[SingularPart]:
    """The parts of sum_j w_j (t-s)^{e_j-1} / Gamma(e_j), one constant
    part per (e_j, w_j) of terms."""
    out = []
    for expo, w in terms:
        c = w / sp_gamma(expo)
        out.append(
            SingularPart(
                p_end=expo - 1.0,
                p_zero=0.0,
                regular=lambda t, s, c=c: np.full_like(np.asarray(s, float), c),
                conv_profile=lambda tau, c=c: np.full_like(np.asarray(tau, float), c),
            )
        )
    return out


@dataclass(frozen=True)
class FractionalPowerKernel(MemoryKernel):
    """k(t, s) = (t-s)^{beta-1} / Gamma(beta), the classical power kernel."""

    beta: float
    family: str = field(default="fractional_power", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.0:
            raise InvalidParameters("fractional_power requires 0 < beta <= 1")
        object.__setattr__(self, "theta", self.beta)

    def parts(self):
        return _power_parts([(self.beta, 1.0)])

    def hp_unit(self):
        e, g = mp.mpf(self.beta) - 1, mp.gamma(mp.mpf(self.beta))
        return lambda s: (1 - s) ** e / g


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

    def parts(self):
        a, be = self.alpha / self.beta, self.beta
        c = self.alpha / (self.beta * sp_gamma(self.beta))

        def regular(t, s):
            s = np.asarray(s, dtype=float)
            ratio = _stable_power_ratio(t, s, a)
            return c * s ** (a - 1.0) * ratio ** (be - 1.0)

        return [SingularPart(p_end=be - 1.0, p_zero=a - 1.0, regular=regular)]

    def hp_unit(self):
        a = mp.mpf(self.alpha) / mp.mpf(self.beta)
        c = mp.mpf(self.alpha) / (mp.mpf(self.beta) * mp.gamma(mp.mpf(self.beta)))
        a1, b1 = a - 1, mp.mpf(self.beta) - 1
        return lambda s: c * s**a1 * (1 - s**a) ** b1


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

    def parts(self):
        a, b, mu, nu = self.a, self.b, self.mu, self.nu
        pref = a / sp_gamma(b / a)

        def regular(t, s):
            s = np.asarray(s, dtype=float)
            ratio = _stable_power_ratio(t, s, a) ** (b / a - 1.0)
            return pref * ratio * t ** (a - nu) * s ** (nu - 1.0) * self._f3(t, s)

        if nu == a:
            p_zero = nu - 1.0 + a * mu
        elif nu < b:
            p_zero = nu - 1.0
        else:
            p_zero = b - 1.0
        return [SingularPart(p_end=b / a - 1.0, p_zero=p_zero, regular=_row_by_row(regular))]

    def hp_unit(self):
        if self.nu != self.a and self.mu != 0.0:
            raise NotImplementedError("general msm has no high-precision path")
        a, b = mp.mpf(self.a), mp.mpf(self.b)
        mu, nu = mp.mpf(self.mu), mp.mpf(self.nu)
        pref = a / mp.gamma(b / a)
        e_end, e_zero = b / a - 1, nu - 1

        def base(s):
            return pref * (1 - s**a) ** e_end * s**e_zero

        if self.nu == self.a:
            e_f3 = a * mu
            return lambda s: base(s) * s**e_f3
        h1, h3 = nu / a - 1, b / a
        return lambda s: base(s) * mp.hyp2f1(h1, 1, h3, 1 - s**a)


@dataclass(frozen=True)
class _ConvolutionKernel(MemoryKernel):
    """A convolution kernel K(t - s): leading exponent beta and the
    (beta_j, b_j) pairs of its lower-order terms."""

    beta: float
    betas: tuple[float, ...] = ()
    bs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "betas", tuple(float(v) for v in self.betas))
        object.__setattr__(self, "bs", tuple(float(v) for v in self.bs))
        if not 0.0 < self.beta <= 1.0:
            raise InvalidParameters("requires 0 < beta <= 1")
        if len(self.betas) != len(self.bs):
            raise InvalidParameters("betas and bs must have equal length")
        prev = self.beta
        for bj in self.betas:
            if not 0.0 < bj < prev:
                raise InvalidParameters("requires beta > beta_1 > ... > beta_m > 0")
            prev = bj
        if any(w <= 0 for w in self.bs):
            raise InvalidParameters("requires all b_j > 0")
        object.__setattr__(self, "theta", self.beta if not self.betas else None)


@dataclass(frozen=True)
class ConvPowerSumKernel(_ConvolutionKernel):
    """Convolution kernel  K(tau) = tau^{beta-1}/Gamma(beta)
    + sum_j b_j tau^{beta_j-1}/Gamma(beta_j)  (a mixture of power kernels;
    the associated generalized derivative is a mixture of classical
    fractional derivatives).  Its reciprocal Laplace transform is the
    Bernstein function h(s) = (s^{-beta} + sum_j b_j s^{-beta_j})^{-1}.
    """

    family: str = field(default="conv_power_sum", init=False)

    def parts(self):
        return _power_parts([(self.beta, 1.0), *zip(self.betas, self.bs)])


@dataclass(frozen=True)
class ConvMultinomialMLKernel(_ConvolutionKernel):
    """Convolution kernel  K(tau) = tau^{beta-1} *
    E_{(beta-beta_1,...,beta-beta_m),beta}(-b_1 tau^{beta-beta_1}, ...),
    whose reciprocal Laplace transform is the Bernstein function
    h(s) = s^beta + sum_j b_j s^{beta_j}.
    """

    family: str = field(default="conv_multinomial_ml", init=False)

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
    family: str = field(default="custom", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", self.theta_value)

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

# family -> (class, its scalar parameters in their command-line order, the
# two lists of (beta_j, b_j) pairs that follow them); make_kernel, the
# CLI's --kernel parser and the problem schema all read this table
FAMILIES = {
    "ggbm": (GGBMKernel, ("alpha", "beta"), ()),
    "msm": (MSMKernel, ("a", "b", "mu", "nu"), ()),
    "fractional_power": (FractionalPowerKernel, ("beta",), ()),
    "conv_power_sum": (ConvPowerSumKernel, ("beta",), ("betas", "bs")),
    "conv_multinomial_ml": (ConvMultinomialMLKernel, ("beta",), ("betas", "bs")),
}


def make_kernel(spec: dict) -> MemoryKernel:
    """Build a validated kernel from a {'family': ..., params...} mapping."""
    try:
        fam = spec["family"]
    except (KeyError, TypeError):
        raise InvalidParameters("kernel spec needs a 'family' key") from None
    try:
        cls, scalars, pairs = FAMILIES[fam]
    except KeyError:
        raise InvalidParameters(f"unknown kernel family {fam!r}") from None
    try:
        params = {name: spec[name] for name in scalars}
    except KeyError as exc:
        raise InvalidParameters(f"kernel family {fam!r} missing parameter {exc}") from None
    return cls(**params, **{name: tuple(spec.get(name, ())) for name in pairs})


# ---------------------------------------------------------------------------
# coefficient recursion c_n(t) = int_0^t k(t,s) c_{n-1}(s) ds
# ---------------------------------------------------------------------------

# (grid time, quadrature node) pairs of one row block of a coefficient
# level or of a Volterra solve: the kernel's temporaries stay near 16 KiB
# each, and a 256-step solve peaks near 0.3 MB (0.6 MB at 2^12 pairs, no
# faster)
_ROW_BLOCK = 2**11
_GRID_SIZE = 1200  # table times, graded quadratically toward t = 0
_QUAD_NODES = 96  # Gauss-Jacobi nodes per part


class CoefficientTables:
    """Tabulated coefficients of the memory power series on [0, horizon].

    Each level is computed from the previous one by Gauss-Jacobi
    quadrature matched to the kernel's endpoint exponents; inner values
    come from monotone cubic interpolation of log c_{n-1} against log t,
    which is exact for the power-law profiles homogeneous kernels produce
    and near-exact for smooth perturbations of them.  Nothing here
    assumes homogeneity.  A level is evaluated in blocks of grid rows
    against all quadrature nodes, at most _ROW_BLOCK pairs per block; the
    kernel's regular factors on those blocks do not depend on the level,
    so each is evaluated once per table.
    """

    def __init__(self, kernel: MemoryKernel, horizon: float, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.kernel = kernel
        self.horizon = float(horizon)
        self.n_max = n_max
        self._master = horizon * (np.arange(1, _GRID_SIZE + 1) / _GRID_SIZE) ** 2.0
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
            x, w = roots_jacobi(_QUAD_NODES, part.p_end, bv)
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
        regular = self._regular_blocks()
        for n in range(1, n_max + 1):
            vals = self._level_values(n, regular)
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

    def _regular_blocks(self) -> list:
        """Per part, its regular factor on each block of grid rows against
        the quadrature nodes (at most _ROW_BLOCK elements per block); no
        level depends on them."""
        rows = max(1, _ROW_BLOCK // _QUAD_NODES)
        t = self._master[:, None]
        return [
            [part.regular(t[i0 : i0 + rows], t[i0 : i0 + rows] * u) for i0 in range(0, t.size, rows)]
            for part, u, _ in self._rules
        ]

    def _level_values(self, n: int, regular: list) -> np.ndarray:
        """Level n at every grid time from the parts' ``_regular_blocks()``.
        Each row keeps its own dot product and a scalar t^{p1+1}, so a
        row's value has the bits of a one-time evaluation."""
        tvals = self._master
        out = np.zeros_like(tvals)
        rows = max(1, _ROW_BLOCK // _QUAD_NODES)
        for (part, u, wu), blocks in zip(self._rules, regular):
            scale = [t ** (part.p_end + 1.0) for t in tvals]
            for i0, block in zip(range(0, tvals.size, rows), blocks):
                s = tvals[i0 : i0 + rows, None] * u
                integrand = block * self._prev_values(n, s)
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
# a table holds about 6 MB at SeriesPhi's n_max = 120; over the test suite
# and the demos, 10 of the 11 reuses of a table found it among the 11 most
# recently used, and the last one 23 tables back
_COEFF_CACHE_SIZE = 11


def coefficient_tables(kernel: MemoryKernel, horizon: float, n_max: int) -> CoefficientTables:
    """Cached CoefficientTables; kernels are frozen dataclasses, so keying
    by the instance, horizon and n_max is safe."""
    key = (kernel, round(horizon, 12), n_max)
    return lru_get(
        _COEFF_CACHE, key, lambda: CoefficientTables(kernel, horizon, n_max), _COEFF_CACHE_SIZE
    )


def phi_coefficients(kernel: MemoryKernel, t: float, n_max: int) -> np.ndarray:
    """c_0(t) .. c_{n_max}(t) of the memory power series at time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return np.array([1.0] + [0.0] * n_max)
    return coefficient_tables(kernel, max(t, 1.0), n_max).values(t)
