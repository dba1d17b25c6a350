"""Three interchangeable evaluators of the memory function Phi(t, lambda).

Phi is the entire function sum_n c_n(t) lambda^n built from the kernel's
coefficient recursion.  It is simultaneously

* a power series (coefficients by quadrature; high-precision moment
  recursion for homogeneous kernels, log-space tables otherwise),
* a closed form per kernel family (Mittag-Leffler / Prabhakar /
  multinomial Mittag-Leffler),
* the solution of the weakly singular Volterra equation of the second
  kind  Phi(t, lam) = 1 + lam int_0^t k(t,s) Phi(s, lam) ds,

and the three routes cross-validate each other.  For lam <= 0 the values
are Laplace transforms of the nonnegative time-change law, whose CDF is
recovered here by Gaver-Stehfest inversion.

What does not change inside a loop is computed once: the moment
recursion evaluates the kernel once per quadrature node (the node values
of the most recently extended kernel are kept), and a Volterra evaluator
tabulates its convolution profiles once and keeps only the Phi values on
its shared solve grid per lam.  Every cache keeps a bounded number of
entries (``CACHE_SIZE``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.interpolate import PchipInterpolator

from .kernels import (
    ConvMultinomialMLKernel,
    ConvPowerSumKernel,
    FractionalPowerKernel,
    GGBMKernel,
    MSMKernel,
    MemoryKernel,
    _ROW_BLOCK,
    coefficient_tables,
)
from .series import TruncationBudgetExceeded, lru_get
from .specfun import (
    MLParams,
    MultinomialMLParams,
    _ml_neg_integral,
    mittag_leffler,
    multinomial_ml,
    prabhakar,
)

__all__ = [
    "CMReport",
    "ClosedFormPhi",
    "InversionUnstable",
    "NoClosedForm",
    "NonconvergentRefinement",
    "SeriesPhi",
    "TimeLawCDF",
    "VolterraPhi",
    "check_complete_monotone",
    "gaver_stehfest",
    "phi_closed",
    "phi_on_grid",
    "phi_series",
    "phi_volterra",
    "time_law_cdf",
]


class NoClosedForm(ValueError):
    """Requested a closed-form memory function for a family without one."""


class NonconvergentRefinement(RuntimeError):
    """Volterra solution changed too much under grid refinement."""


class InversionUnstable(RuntimeError):
    """Laplace inversion oscillates beyond tolerance; use a closed-form
    sampler for this family instead."""


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def phi_closed(kernel: MemoryKernel, t: float, lam: float) -> float:
    """Closed-form Phi(t, lam) for the families that have one."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 1.0
    if isinstance(kernel, GGBMKernel):
        return mittag_leffler(kernel.beta, lam * t**kernel.alpha)
    if isinstance(kernel, FractionalPowerKernel):
        return mittag_leffler(kernel.beta, lam * t**kernel.beta)
    if isinstance(kernel, MSMKernel):
        a, b, mu, nu = kernel.a, kernel.b, kernel.mu, kernel.nu
        q1, q2, q3 = b / a, nu / a + mu, 1.0 + (nu - a) / b
        return math.gamma(q2) * prabhakar(MLParams(q1, q2, q3), lam * t**b)
    if isinstance(kernel, ConvPowerSumKernel):
        exps = (kernel.beta,) + kernel.betas
        weights = (1.0,) + kernel.bs
        p = MultinomialMLParams(exps, 1.0)
        return multinomial_ml(p, [w * lam * t**e for e, w in zip(exps, weights)])
    if isinstance(kernel, ConvMultinomialMLKernel):
        beta = kernel.beta
        exps = (beta,) + tuple(beta - bj for bj in kernel.betas)
        p = MultinomialMLParams(exps, beta + 1.0)
        args = [lam * t**beta] + [
            -wj * t ** (beta - bj) for bj, wj in zip(kernel.betas, kernel.bs)
        ]
        return 1.0 + lam * t**beta * multinomial_ml(p, args)
    raise NoClosedForm(f"kernel family {kernel.family!r} has no closed-form Phi")


def has_closed_form(kernel: MemoryKernel) -> bool:
    return isinstance(
        kernel,
        (GGBMKernel, FractionalPowerKernel, MSMKernel, ConvPowerSumKernel, ConvMultinomialMLKernel),
    )


# ---------------------------------------------------------------------------
# power series evaluators
# ---------------------------------------------------------------------------

_HP_MOMENT_DPS = 40
_HP_SUM_DPS_CAP = 320
_HP_CACHE: OrderedDict = OrderedDict()
# (k(1, s), log s) at the quadrature nodes, for the most recently extended kernel
_HP_NODES: dict = {}


def _hp_unit_coefficients(kernel: MemoryKernel, n_needed: int) -> list:
    """c_n(1) for a homogeneous kernel by the one-dimensional moment
    recursion  c_n(1) = c_{n-1}(1) * int_0^1 k(1,s) s^{(n-1) theta} ds,
    evaluated with tanh-sinh quadrature in extended precision.

    At a fixed precision every moment visits the same quadrature nodes, so
    k(1, s) and log s are evaluated once per node and reused for every n:
    mpmath forms a power s^y (2y not an integer) as exp(y log s) with log s
    at 10 extra bits, so the kept log gives the same bits.

    This is a numerical route through the coefficient recursion (not the
    closed forms), so series-vs-closed-form comparisons stay meaningful.
    """
    cache = lru_get(_HP_CACHE, kernel, lambda: [mp.mpf(1)])
    if len(cache) > n_needed:
        return cache
    if kernel not in _HP_NODES:
        _HP_NODES.clear()
        _HP_NODES[kernel] = {}
    nodes = _HP_NODES[kernel]

    def at_node(s):
        v = nodes.get(s)
        if v is None:
            with mp.extraprec(10):
                log_s = mp.log(s)
            v = nodes[s] = (kernel.hp_unit_eval(s), log_s)
        return v

    with mp.workdps(_HP_MOMENT_DPS):
        th = mp.mpf(kernel.theta)
        for n in range(len(cache), n_needed + 1):
            y = mp.fmul(th, n - 1, exact=True)
            by_log = not mp.isint(2 * y)  # mpmath powers the others by another route

            def integrand(s):
                k, log_s = at_node(s)
                return k * (mp.exp(mp.fmul(y, log_s, exact=True)) if by_log else s**y)

            cache.append(cache[-1] * mp.quad(integrand, [0, 1]))
    return cache


class SeriesPhi:
    """Truncated power-series evaluator of the memory function.

    Homogeneous kernels with a high-precision unit evaluation use the
    moment recursion for c_n(1) and the scaling c_n(t) = t^{n theta}
    c_n(1); everything else uses the generic log-space coefficient tables
    (which never assume homogeneity).  ``use_homogeneous=False`` forces
    the generic route.
    """

    def __init__(
        self,
        kernel: MemoryKernel,
        horizon: float = 2.0,
        n_max: int = 120,
        use_homogeneous: bool | None = None,
        abs_tol: float = 1e-12,
    ):
        self.kernel = kernel
        self.horizon = float(horizon)
        self.n_max = n_max
        self.abs_tol = abs_tol
        if use_homogeneous is None:
            use_homogeneous = kernel.is_homogeneous and self._has_hp()
        if use_homogeneous and not (kernel.is_homogeneous and self._has_hp()):
            raise ValueError("homogeneous moment route unavailable for this kernel")
        self.homogeneous_route = use_homogeneous
        if not self.homogeneous_route:
            self._tables = coefficient_tables(kernel, self.horizon, n_max)

    def _has_hp(self) -> bool:
        try:
            with mp.workdps(20):
                self.kernel.hp_unit_eval(mp.mpf("0.5"))
            return True
        except NotImplementedError:
            return False

    # -- homogeneous high-precision route ---------------------------------
    def _hp_value(self, x: float | complex):
        ax = abs(x)
        if ax == 0.0:
            return 1.0
        # locate the term peak and the truncation order for this argument
        n = 0
        peak = 0.0
        n_stop = None
        while True:
            coeffs = _hp_unit_coefficients(self.kernel, n)
            la = (
                n * math.log(ax) + float(mp.log(abs(coeffs[n])))
                if coeffs[n] != 0
                else -math.inf
            )
            peak = max(peak, la)
            if n > 8 and la < math.log(self.abs_tol) - 2:
                n_stop = n
                break
            n += 1
            if n > 2000:
                raise TruncationBudgetExceeded(
                    "memory series needs more than 2000 terms; use the "
                    "closed form or the Volterra solver at this argument"
                )
        dps = int(peak / math.log(10)) + 25
        if dps > _HP_SUM_DPS_CAP:
            raise TruncationBudgetExceeded(
                f"memory series cancellation needs {dps} digits; use the "
                "closed form or the Volterra solver at this argument"
            )
        with mp.workdps(dps):
            xm = mp.mpf(x) if not isinstance(x, complex) else mp.mpc(x)
            total = mp.fsum(coeffs[n] * xm**n for n in range(n_stop + 1))
        return complex(total) if isinstance(x, complex) else float(total)

    def value(self, t: float, lam: float) -> float:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t == 0.0 or lam == 0.0:
            return 1.0
        if self.homogeneous_route:
            return self._hp_value(lam * t**self.kernel.theta)
        # generic route: tabulated coefficients, float64 summation with a
        # cancellation guard (the radius guard of this evaluator)
        c = self._tables.values(t)
        terms = c * np.power(lam, np.arange(len(c)))
        tail = abs(terms[-1])
        value = math.fsum(terms)
        noise = 1e-13 * float(np.sum(np.abs(terms)))
        if tail > self.abs_tol * max(1.0, abs(value)):
            raise TruncationBudgetExceeded(
                f"series tail {tail:.2e} above tolerance at n_max={self.n_max}; "
                "raise n_max or use the closed form / Volterra solver"
            )
        if noise > 1e-6 * max(abs(value), 1e-300):
            raise TruncationBudgetExceeded(
                f"float64 cancellation ({noise:.2e}) exceeds 1e-6 of the result; "
                "use the closed form or the Volterra solver at this argument"
            )
        return value


def phi_series(evaluator: SeriesPhi, t: float, lam: float) -> float:
    """Series value of Phi(t, lam); thin wrapper over SeriesPhi.value."""
    return evaluator.value(t, lam)


# ---------------------------------------------------------------------------
# Volterra second-kind solver (product integration)
# ---------------------------------------------------------------------------

def _conv_profiles(parts, horizon: float) -> list:
    """PCHIP tables of the parts' convolution profiles on [0, horizon]
    (None for the other parts); they do not depend on lam, so an evaluator
    builds them once for all its solves."""
    tau_fine = np.linspace(0.0, horizon, 4097)
    out = []
    for part in parts:
        if part.conv_profile is None:
            out.append(None)
            continue
        prof_vals = part.conv_profile(tau_fine)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out.append(PchipInterpolator(tau_fine, prof_vals))
    return out


def _volterra_solve(kernel: MemoryKernel, lam: float, horizon: float, n_steps: int,
                    grading: float, profiles: list) -> tuple[np.ndarray, np.ndarray]:
    """Solve Phi = 1 + lam * int_0^t k(t,s) Phi(s) ds by product
    integration: on each panel the product (regular factor * Phi) is
    linearly interpolated and integrated against the exact moments of the
    singular weight (t - s)^{p_end}.  ``profiles`` are the parts'
    convolution profiles from _conv_profiles(kernel.parts(), horizon).

    The weights and kernel values of a block of rows come from one array
    pass over at most about _ROW_BLOCK (row, node) pairs, the nodes past a
    row's own time clamped to it; the forward substitution then runs row
    by row with the same two dot products per part as a one-row solve.
    """
    t = horizon * (np.arange(n_steps + 1) / n_steps) ** grading
    parts = kernel.parts()
    phi = np.empty(n_steps + 1)
    phi[0] = 1.0
    i0 = 1
    while i0 <= n_steps:
        # rows i0..i1-1 against nodes 0..i1-1: rows * i1 <= _ROW_BLOCK
        rows = max(1, int((math.sqrt(i0 * i0 + 4 * _ROW_BLOCK) - i0) / 2))
        i1 = min(n_steps + 1, i0 + rows)
        ti = t[i0:i1, None]
        s = np.minimum(t[:i1], ti)
        h = t[1:i1] - t[: i1 - 1]
        d0 = np.maximum(ti - t[: i1 - 1], 0.0)
        d1 = np.maximum(ti - t[1:i1], 0.0)
        block = []
        for part, prof in zip(parts, profiles):
            p = part.p_end
            mu0 = (d0 ** (p + 1.0) - d1 ** (p + 1.0)) / (p + 1.0)
            mu1 = d0 * mu0 - (d0 ** (p + 2.0) - d1 ** (p + 2.0)) / (p + 2.0)
            w_left = mu0 - mu1 / h
            w_right = mu1 / h
            mvals = prof(ti - s) if prof is not None else part.regular(ti, s)
            block.append((w_left * mvals[:, :-1], w_right[:, :-1] * mvals[:, 1:-1],
                          w_right, mvals))
        for r, i in enumerate(range(i0, i1)):
            acc = 0.0
            diag = 0.0
            for left, right, w_right, mvals in block:
                acc += np.dot(left[r, :i], phi[:i])
                if i > 1:
                    acc += np.dot(right[r, : i - 1], phi[1:i])
                diag += w_right[r, i - 1] * mvals[r, i]
            denom = 1.0 - lam * diag
            if denom <= 0.0:
                raise NonconvergentRefinement(
                    "implicit product-integration step lost positivity; refine the grid"
                )
            phi[i] = (1.0 + lam * acc) / denom
        i0 = i1
    return t, phi


def phi_volterra(
    kernel: MemoryKernel,
    lam: float,
    t_grid,
    n_steps: int = 1024,
    grading: float = 2.0,
    check: bool = False,
) -> np.ndarray:
    """Phi(., lam) on t_grid via the second-kind Volterra equation.

    ``check=True`` re-solves at half resolution and raises
    NonconvergentRefinement if the two solutions differ by more than 1e-3
    anywhere on t_grid.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0):
        raise ValueError("t_grid must be nonnegative")
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be nondecreasing")
    horizon = float(t_grid[-1]) if t_grid[-1] > 0 else 1.0
    if lam == 0.0:
        return np.ones_like(t_grid)
    profiles = _conv_profiles(kernel.parts(), horizon)
    grid, phi = _volterra_solve(kernel, lam, horizon, n_steps, grading, profiles)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ip = PchipInterpolator(grid, phi)
    out = ip(t_grid)
    out[t_grid == 0.0] = 1.0
    if check:
        grid2, phi2 = _volterra_solve(kernel, lam, horizon, n_steps // 2, grading, profiles)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out2 = PchipInterpolator(grid2, phi2)(t_grid)
        out2[t_grid == 0.0] = 1.0
        if np.max(np.abs(out - out2)) > 1e-3:
            raise NonconvergentRefinement(
                f"Volterra refinement drift {np.max(np.abs(out - out2)):.2e} "
                f"at n_steps={n_steps}"
            )
    return out


class VolterraPhi:
    """Deterministic Phi evaluator backed by cached Volterra solves.

    The cache is compact: one solve grid shared by every lam and the Phi
    values on it for the CACHE_SIZE most recently used lam; the monotone
    interpolant is rebuilt from them on each read.  The convolution
    profiles are tabulated once per evaluator.
    """

    def __init__(self, kernel: MemoryKernel, horizon: float = 2.0,
                 n_steps: int = 1024, grading: float = 2.0):
        self.kernel = kernel
        self.horizon = float(horizon)
        self.n_steps = n_steps
        self.grading = grading
        self._grid: np.ndarray | None = None
        self._profiles: list | None = None
        self._cache: OrderedDict = OrderedDict()  # lam -> Phi on self._grid

    def _solve(self, lam: float) -> np.ndarray:
        if self._profiles is None:
            self._profiles = _conv_profiles(self.kernel.parts(), self.horizon)
        self._grid, phi = _volterra_solve(self.kernel, lam, self.horizon, self.n_steps,
                                          self.grading, self._profiles)
        return phi

    def value(self, t: float, lam: float) -> float:
        if t == 0.0 or lam == 0.0:
            return 1.0
        if t > self.horizon:
            raise ValueError(f"t={t:g} beyond solver horizon {self.horizon:g}")
        phi = lru_get(self._cache, lam, lambda: self._solve(lam))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return float(PchipInterpolator(self._grid, phi)(t))


class ClosedFormPhi:
    """Closed-form Phi evaluator for the families that have one."""

    def __init__(self, kernel: MemoryKernel):
        if not has_closed_form(kernel):
            raise NoClosedForm(f"no closed form for family {kernel.family!r}")
        self.kernel = kernel

    def value(self, t: float, lam: float) -> float:
        return phi_closed(self.kernel, t, lam)

    def values(self, t: float, lams) -> np.ndarray:
        """value over an array of lam: one Mittag-Leffler batch for ggbm and
        fractional-power kernels on the negative axis, else a map."""
        lams = np.asarray(lams, dtype=float)
        k = self.kernel
        if isinstance(k, (GGBMKernel, FractionalPowerKernel)) and k.beta < 1.0 and t > 0.0 \
                and np.all(lams <= 0.0):
            return _ml_neg_integral(k.beta, -lams * t**k.theta)
        return np.array([self.value(t, lam) for lam in lams])


def phi_on_grid(evaluator, t: float, lams) -> np.ndarray:
    """Phi(t, lam) over an array of lam: the evaluator's ``values`` when it
    has one, else one ``value`` call per lam (or one call of the evaluator
    itself when it is a plain function of (t, lam))."""
    if hasattr(evaluator, "values"):
        return evaluator.values(t, lams)
    value = evaluator.value if hasattr(evaluator, "value") else evaluator
    return np.array([value(t, lam) for lam in lams])


# ---------------------------------------------------------------------------
# complete monotonicity spot checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMReport:
    passed: bool
    lam_grid: np.ndarray
    first_violation: tuple[int, int, float] | None  # (difference order, index, magnitude)
    checked_orders: int = 3

    def __str__(self) -> str:
        if self.passed:
            return f"completely monotone on the {len(self.lam_grid)}-point grid (orders 0..{self.checked_orders})"
        o, i, m = self.first_violation
        return (
            f"violation at difference order {o}, grid index {i}, "
            f"magnitude {m:.3e}"
        )


def check_complete_monotone(
    evaluator, t: float, lam_grid, tol: float = 1e-9
) -> CMReport:
    """Spot-check Phi(t, -lambda): positive, nonincreasing, convex,
    third differences nonpositive on the given lambda grid.

    Report-only: violations are described, never raised.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if np.any(np.diff(lam_grid) <= 0):
        raise ValueError("lam_grid must be strictly increasing")
    v = phi_on_grid(evaluator, t, -lam_grid)
    # order 0: positivity
    if np.any(v <= 0.0):
        i = int(np.argmax(v <= 0.0))
        return CMReport(False, lam_grid, (0, i, float(-v[i])))
    for order, sign in ((1, -1.0), (2, 1.0), (3, -1.0)):
        d = np.diff(v, order)
        bad = sign * d < -tol
        if np.any(bad):
            i = int(np.argmax(bad))
            return CMReport(False, lam_grid, (order, i, float(abs(d[i]))))
    return CMReport(True, lam_grid, None)


# ---------------------------------------------------------------------------
# numerical Laplace inversion -> CDF of the time-change law
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _gs_weights(order: int) -> tuple[float, ...]:
    if order % 2:
        raise ValueError("Gaver-Stehfest order must be even")
    half = order // 2
    weights = []
    for k in range(1, order + 1):
        terms = [
            j**half
            * math.factorial(2 * j)
            / (
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k)
            )
            for j in range((k + 1) // 2, min(k, half) + 1)
        ]
        weights.append((-1.0) ** (half + k) * math.fsum(terms))
    return tuple(weights)


def gaver_stehfest(fhat, x: float, order: int = 14) -> float:
    """Inverse Laplace transform of fhat at x by the Gaver-Stehfest rule
    (exact integer weights, compensated accumulation)."""
    V = _gs_weights(order)
    ln2 = math.log(2.0)
    return ln2 / x * math.fsum(V[k - 1] * fhat(k * ln2 / x) for k in range(1, order + 1))


@dataclass(frozen=True)
class TimeLawCDF:
    """CDF of the nonnegative time change at a fixed time, tabulated on
    increasing nodes with step-linear (right-continuous) interpolation."""

    t: float
    nodes: np.ndarray
    F: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diff(self.nodes) <= 0) or np.any(self.nodes < 0):
            raise ValueError("nodes must be nonnegative and increasing")
        if np.any(np.diff(self.F) < 0) or self.F[0] < 0 or self.F[-1] > 1.0 + 1e-12:
            raise ValueError("F must be a nondecreasing CDF table in [0, 1]")

    def cdf(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.nodes, self.F, left=0.0, right=1.0)

    def quantile(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        Fpad = np.concatenate(([0.0], self.F, [1.0]))
        xpad = np.concatenate(([0.0], self.nodes, [self.nodes[-1]]))
        return np.interp(u, Fpad, xpad)


def time_law_cdf(
    evaluator,
    t: float,
    nodes,
    order: int = 14,
    oscillation_tol: float = 0.12,
    precheck_grid=None,
) -> TimeLawCDF:
    """CDF of the time change A(t) by Gaver-Stehfest inversion of
    Phi(t, -lam)/lam, clamped to [0, 1] and monotonized.

    Raises InversionUnstable when the raw inversion oscillates beyond
    tolerance (the family then needs its closed-form sampler).  The
    default tolerance sits above the ~10% Gibbs ringing a point-mass law
    produces at order 14, so degenerate laws still invert to a usable
    step.  The evaluator must first pass a coarse complete-monotonicity
    check.
    """
    nodes = np.asarray(nodes, dtype=float)
    value = evaluator.value if hasattr(evaluator, "value") else evaluator
    if precheck_grid is None:
        precheck_grid = np.linspace(0.25, 8.0, 12)
    pre = check_complete_monotone(evaluator, t, precheck_grid, tol=1e-6)
    if not pre.passed:
        raise InversionUnstable(f"Phi(t,-.) fails the CM pre-check: {pre}")
    raw = np.array(
        [gaver_stehfest(lambda lam: value(t, -lam) / lam, x, order) for x in nodes]
    )
    drop = float(np.max(np.maximum(0.0, -np.diff(raw))))
    overshoot = float(max(np.max(raw) - 1.0, -np.min(raw), 0.0))
    if max(drop, overshoot) > oscillation_tol:
        raise InversionUnstable(
            f"inversion oscillation {max(drop, overshoot):.3e} beyond "
            f"tolerance {oscillation_tol:g}"
        )
    F = np.maximum.accumulate(np.clip(raw, 0.0, 1.0))
    return TimeLawCDF(t=t, nodes=nodes, F=F)
