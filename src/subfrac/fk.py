"""Monte Carlo estimators for memory-kernel evolution equations.

Every estimator averages the initial condition along a stochastic
representation of the solution:

* plain time change          u(t,x) = E[u0(xi_{A(t)})],
* potential weight           ... * exp(int_0^{A(t)} V(xi_s) ds),
* Bochner subordination      xi at eta^f_{A(t)} with V <= 0,
* randomly scaled Gaussian   x + X_t + A w t^{theta/gamma} with weight
  representations            exp(c A t^{theta/gamma}) for homogeneous
                             kernels (time-changed BM, scaled BM, scaled
                             fractional BM all share these marginals),
* diffusion with flow map    positions g(driver, x) for the Stratonovich
  diffusion with diffusion coefficient sigma and drift w sigma.

Constant-potential problems reuse the zero-potential positions and only
reweight, so the factorization identity holds exactly path by path under
shared seeds.

``base_positions`` builds the paths of xi and ``sampling.rsgp_paths`` the
scaled-Gaussian paths; one path is the call at ``start=stream_id`` with a
single row.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtri

from .kernels import MemoryKernel, StretchFn, TimeStretchedKernel
from .phi import (ClosedFormPhi, SeriesPhi, VolterraPhi, has_closed_form,
                  inverse_subordinator_cdf, time_law_cdf)
from .sampling import (
    SUB_GAUSSIAN,
    SUB_MIXING,
    SUB_SUBORDINATOR,
    BernsteinSpec,
    HomogeneousProductLaw,
    NumericCDFLaw,
    PathGrid,
    StretchedLaw,
    _clip_open,
    mixing_from_uniforms,
    path_uniforms,
    rsgp_paths,
    scriptA_draws,
    stable_symmetric_from_uniforms,
    subordinator_draws,
    time_change_draws,
)
from .series import lru_get

__all__ = [
    "BrownianDrift",
    "CallablePotential",
    "ConstantPotential",
    "DossSussmann",
    "DossSussmannResult",
    "Estimate",
    "FKProblem",
    "GaussianBump",
    "ProcessModel",
    "RsgpScopeError",
    "StepCountInsufficient",
    "StretchedLaw",
    "ZeroPotential",
    "base_positions",
    "derive_time_change_law",
    "flow_map",
    "path_values",
    "solve",
    "solve_doss_sussmann",
    "stretch_solution",
]

_ROLE_STRIDE = 8  # substream ids per evaluation point when paths are independent
_MAX_FLOW_NODES = 2**20  # flow-map trajectory nodes; bounds the Python RK4 loop
_FLOW_NODES_PER_UNIT = 512  # flow-map trajectory nodes per unit of driver
_RSGP_STEPS = 64  # grid steps of the randomly scaled Gaussian paths on [0, t]
_CHUNK_VALUES = 2**16  # path x grid values per chunk of a point's path range


class RsgpScopeError(ValueError):
    """Randomly-scaled-Gaussian representation requested outside its scope
    (Brownian base, constant potential, homogeneous kernel)."""


class StepCountInsufficient(RuntimeError):
    """A flow-map span that would need more than _MAX_FLOW_NODES
    trajectory nodes."""


# ---------------------------------------------------------------------------
# process, potential and initial-condition specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrownianDrift:
    w: float = 0.0


@dataclass(frozen=True)
class StableLevy:
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 2.0:
            raise ValueError("delta must lie in (0, 2]")


@dataclass(frozen=True)
class DossSussmann:
    sigma: Callable
    w: float = 0.0

    def __post_init__(self) -> None:
        validate_sigma_probe(self.sigma)


def validate_sigma_probe(sigma: Callable) -> None:
    """Check boundedness of sigma and its first two derivatives on a probe
    grid over [-40, 40] (finite differences)."""
    x = np.linspace(-40.0, 40.0, 641)
    v = np.asarray([sigma(xi) for xi in x], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("sigma not finite on the probe grid")
    h = x[1] - x[0]
    d1 = np.gradient(v, h)
    d2 = np.gradient(d1, h)
    sups = (float(np.max(np.abs(v))), float(np.max(np.abs(d1))), float(np.max(np.abs(d2))))
    if max(sups) > 1e6:
        raise ValueError(f"sigma or its derivatives look unbounded on the probe grid: sups={sups}")


@dataclass(frozen=True)
class ProcessModel:
    base: BrownianDrift | StableLevy | DossSussmann
    subordination: BernsteinSpec = field(default_factory=BernsteinSpec.identity)


@dataclass(frozen=True)
class ConstantPotential:
    c: float


@dataclass(frozen=True)
class ZeroPotential(ConstantPotential):
    c: float = field(default=0.0, init=False)


@dataclass(frozen=True)
class CallablePotential:
    fn: Callable
    sup_bound: float


@dataclass(frozen=True)
class GaussianBump:
    """u0(y) = amplitude * exp(-(y-center)^2 / (2 width^2)); the Gaussian
    semigroup acts on it in closed form, which the oracles rely on."""

    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not self.width > 0:
            raise ValueError("width must be positive")

    def __call__(self, y):
        # d * d, not d ** 2: a numpy scalar squares through libm pow and an
        # array through a multiply, which round differently in the last bit
        d = np.asarray(y, dtype=float) - self.center
        return self.amplitude * np.exp(-(d * d) / (2.0 * self.width**2))

    def heat_semigroup(self, a, x: float, drift: float = 0.0):
        """(G_a * u0)(x + drift * a): exact Gaussian convolution."""
        a = np.asarray(a, dtype=float)
        s2 = self.width**2 + a
        return (
            self.amplitude
            * self.width
            / np.sqrt(s2)
            * np.exp(-((x + drift * a - self.center) ** 2) / (2.0 * s2))
        )

    def fourier_transform(self, xi):
        """hat u0(xi) = int u0(y) e^{-i xi y} dy."""
        xi = np.asarray(xi, dtype=float)
        return (
            self.amplitude
            * self.width
            * math.sqrt(2.0 * math.pi)
            * np.exp(-1j * xi * self.center - 0.5 * self.width**2 * xi**2)
        )


# ---------------------------------------------------------------------------
# the problem container
# ---------------------------------------------------------------------------

REPRESENTATIONS = ("path", "timechanged_bm", "scaled_bm", "scaled_fbm")


@dataclass(frozen=True)
class FKProblem:
    kernel: MemoryKernel
    process: ProcessModel
    potential: ConstantPotential | CallablePotential
    u0: GaussianBump
    eval_points: tuple[tuple[float, float], ...]
    law: object | None = None  # derived from the kernel when None
    representation: str = "path"

    def __post_init__(self) -> None:
        object.__setattr__(self, "eval_points", tuple((float(t), float(x)) for t, x in self.eval_points))
        if any(t < 0 for t, _ in self.eval_points):
            raise ValueError("evaluation times must be nonnegative")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        sub = self.process.subordination
        if sub.stable_gamma != 1.0:
            if isinstance(self.potential, ConstantPotential) and self.potential.c > 0:
                raise ValueError(
                    "subordinated problems require a nonpositive potential (c <= 0)"
                )
            if isinstance(self.potential, CallablePotential) and self.potential.sup_bound > 0:
                raise ValueError(
                    "subordinated problems require V <= 0 (sup_bound <= 0)"
                )
        if isinstance(self.potential, CallablePotential) and self.potential.sup_bound > 0:
            warnings.warn(
                "potential bounded above by a positive constant; estimator "
                "variance may be large",
                stacklevel=2,
            )
        if self.representation != "path":
            if not isinstance(self.process.base, BrownianDrift):
                raise RsgpScopeError(
                    "scaled-Gaussian representations need a Brownian base process"
                )
            if isinstance(self.potential, CallablePotential):
                raise RsgpScopeError(
                    "scaled-Gaussian representations need a constant potential"
                )
            if not self.kernel.is_homogeneous:
                raise RsgpScopeError(
                    "scaled-Gaussian representations need a homogeneous kernel"
                )
            if sub.stable_gamma is None:
                raise RsgpScopeError(
                    "scaled-Gaussian representations need a stable-power "
                    "subordination (or none)"
                )

@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int
    grid_diagnostics: dict | None = None

    def __post_init__(self) -> None:
        if self.n_paths >= 2 and not self.stderr >= 0:
            raise ValueError("stderr must be nonnegative")


# ---------------------------------------------------------------------------
# time-change law derivation
# ---------------------------------------------------------------------------

def derive_time_change_law(kernel: MemoryKernel, eval_times: Sequence[float]):
    """Pick the canonical sampler of A(t) for a kernel.

    Homogeneous kernels use the product form A * t^theta; the amplitude is
    the stable mixing variable when the memory function is a one-parameter
    Mittag-Leffler function, otherwise a numeric inverse-CDF table from
    Laplace inversion of Phi(1, -.).  A convolution kernel with k^ = 1/h
    has A(t) = E_t, the inverse subordinator of h, drawn from its exact CDF
    (``phi.inverse_subordinator_cdf``); other kernels get Gaver-Stehfest CDF
    tables.  Both tabulate per evaluation time, so a path's draws at several
    t are the quantile coupling of the one-time laws: all that the
    Feynman-Kac formulae use.
    """
    from .kernels import ConvMultinomialMLKernel, FractionalPowerKernel, GGBMKernel

    if isinstance(kernel, (GGBMKernel, FractionalPowerKernel)):
        beta = kernel.beta
        return HomogeneousProductLaw(
            theta=kernel.theta,
            mixing_from_uniforms=lambda u1, u2: mixing_from_uniforms(u1, u2, beta),
        )
    if isinstance(kernel, ConvMultinomialMLKernel) and kernel.betas:
        pairs = ((1.0, kernel.beta),) + tuple(zip(kernel.bs, kernel.betas))
        bern = BernsteinSpec(sum(w for w, e in pairs if e >= 1.0),
                             tuple((w, e) for w, e in pairs if e < 1.0))
        return NumericCDFLaw(cdf_for_t=partial(inverse_subordinator_cdf, bern))
    if kernel.is_homogeneous:
        evaluator = ClosedFormPhi(kernel) if has_closed_form(kernel) else None
        if evaluator is None:
            evaluator = VolterraPhi(kernel, horizon=1.0, n_steps=2048)
        cdf = time_law_cdf(evaluator, 1.0, _cdf_nodes(evaluator))
        return HomogeneousProductLaw(
            theta=kernel.theta,
            mixing_from_uniforms=lambda u1, u2: cdf.quantile(u1),
        )
    # non-homogeneous without a simulable Bernstein form: CDF per time, for
    # the CACHE_SIZE most recently used times
    cache: OrderedDict = OrderedDict()
    evaluator = ClosedFormPhi(kernel) if has_closed_form(kernel) else SeriesPhi(kernel, horizon=max(eval_times) + 0.5 if eval_times else 2.0)

    def cdf_for_t(t: float):
        return lru_get(cache, t, lambda: time_law_cdf(evaluator, t, _cdf_nodes(evaluator, t)))

    return NumericCDFLaw(cdf_for_t=cdf_for_t)


def _time_change_law(problem: FKProblem):
    """The problem's law, or the one derived from its kernel."""
    if problem.law is not None:
        return problem.law
    return derive_time_change_law(problem.kernel, [p[0] for p in problem.eval_points])


def _cdf_nodes(evaluator, t: float = 1.0, n_nodes: int = 240) -> np.ndarray:
    """Node range for CDF tabulation, sized from the law's mean.

    The mean comes from the transform slope at the origin,
    E[A] = (1 - Phi(t, -eps))/eps; the laws used here are light-tailed
    (stretched-exponential or better), so 60 means cover the tail far
    below the inversion accuracy."""
    eps = 1e-3
    mean = max((1.0 - evaluator.value(t, -eps)) / eps, 1e-6)
    return np.linspace(mean / 200.0, 60.0 * mean, n_nodes)


# ---------------------------------------------------------------------------
# flow map for the diffusion case
# ---------------------------------------------------------------------------

def _rk4(sigma: Callable, x: float, step: float, n_steps: int) -> np.ndarray:
    """The trajectory z_0 = x, ..., z_{n_steps} of dz/dy = sigma(z) by
    classical fourth-order Runge-Kutta with a fixed step."""
    out = np.empty(n_steps + 1)
    out[0] = x
    z = float(x)
    for i in range(n_steps):
        k1 = sigma(z)
        k2 = sigma(z + 0.5 * step * k1)
        k3 = sigma(z + 0.5 * step * k2)
        k4 = sigma(z + step * k3)
        z = z + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = z
    return out


def flow_map(sigma: Callable, y_values, x: float) -> np.ndarray:
    """g(y, x) evaluated at many y at once.

    All values of the one-dimensional autonomous flow lie on the single
    trajectory through x, so one dense fourth-order integration of that
    trajectory plus monotone interpolation evaluates the whole batch.  The
    trajectory nodes sit at y = k h, h = 1/_FLOW_NODES_PER_UNIT, for whole
    k from two past the lowest to two past the highest queried y (and 0),
    each reached by k steps from y = 0; an interval's interpolant depends only
    on its own nodes and their neighbours, so every value is the same
    whatever batch it is queried in.
    """
    y_values = np.asarray(y_values, dtype=float)
    if y_values.size == 0:
        return y_values.copy()
    h = 1.0 / _FLOW_NODES_PER_UNIT
    y_lo = min(float(np.min(y_values)), 0.0)
    y_hi = max(float(np.max(y_values)), 0.0)
    k_lo = math.floor(y_lo / h) - 2
    k_hi = math.ceil(y_hi / h) + 2
    n = k_hi - k_lo + 1
    if n > _MAX_FLOW_NODES:
        raise StepCountInsufficient(
            f"flow map over the driver span [{y_lo:.6g}, {y_hi:.6g}] needs {n} nodes, "
            f"above the bound of {_MAX_FLOW_NODES}"
        )
    z_grid = np.concatenate((_rk4(sigma, x, -h, -k_lo)[:0:-1], _rk4(sigma, x, h, k_hi)))
    return PchipInterpolator(np.arange(k_lo, k_hi + 1) * h, z_grid)(y_values)


# ---------------------------------------------------------------------------
# core Monte Carlo machinery
# ---------------------------------------------------------------------------

def _estimate(values: np.ndarray, seed: int, diagnostics: dict | None = None) -> Estimate:
    n = len(values)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n >= 2 else 0.0
    return Estimate(mean=mean, stderr=stderr, n_paths=n, seed=seed, grid_diagnostics=diagnostics)


def _combined_amplitude(law, gamma, n_paths, master_seed, base_sub, start=0):
    """Draws of A^{1/gamma} * eta_1 for a product law, whose A is A(1)."""
    amp = time_change_draws(law, 1.0, master_seed, n_paths, start, base_sub + SUB_MIXING)
    return scriptA_draws(gamma, amp, master_seed, start, base_sub + SUB_SUBORDINATOR)


def base_positions(
    base, x: float, times, master_seed: int, start: int = 0, substream: int = SUB_GAUSSIAN
) -> np.ndarray:
    """(n, K) positions of the base process started at x, row i at the
    increasing times times[i] of path start + i.  Brownian and stable
    increments are exact in law; the flow case maps the exact Brownian
    driver through ``flow_map``, so no Euler bias enters it."""
    times = np.asarray(times, dtype=float)
    n, k = times.shape
    dt = np.diff(times, axis=1, prepend=0.0)
    if isinstance(base, StableLevy):
        u = path_uniforms(master_seed, substream, n, 2 * k, start)
        s = stable_symmetric_from_uniforms(u[:, ::2], u[:, 1::2], base.delta)
        return x + np.cumsum(2.0 ** (-0.5) * dt ** (1.0 / base.delta) * s, axis=1)
    if not isinstance(base, (BrownianDrift, DossSussmann)):
        raise TypeError(f"unknown base process {type(base).__name__}")
    z = ndtri(_clip_open(path_uniforms(master_seed, substream, n, k, start)))
    if isinstance(base, DossSussmann):
        driver = np.cumsum(np.sqrt(dt) * z, axis=1) + base.w * times
        return flow_map(base.sigma, driver, x)
    return x + np.cumsum(base.w * dt + np.sqrt(dt) * z, axis=1)


def _marginal_positions(problem: FKProblem, tau, x, master_seed, base_sub, start=0):
    """Positions xi_tau for independent per-path clocks tau (no potential
    path integral needed)."""
    base = problem.process.base
    if isinstance(base, BrownianDrift):
        # x + w tau + sqrt(tau) z, the addition order the Brownian solves keep
        u = path_uniforms(master_seed, base_sub + SUB_GAUSSIAN, len(tau), 1, start)
        return x + base.w * tau + np.sqrt(tau) * ndtri(_clip_open(u[:, 0]))
    return base_positions(base, x, tau[:, None], master_seed, start, base_sub + SUB_GAUSSIAN)[:, 0]


def _pathwise_values(problem: FKProblem, t, x, tau, master_seed, base_sub, grid_steps, start=0):
    """u0(xi_tau) * exp(int_0^tau V(xi) ds) with midpoint quadrature of the
    potential along simulated paths, all paths in one (n, grid_steps + 1)
    array: the midpoints, then tau itself."""
    n = len(tau)
    m = grid_steps
    times = np.empty((n, m + 1))
    times[:, :m] = tau[:, None] * ((np.arange(m) + 0.5) / m)
    times[:, m] = tau
    pos = base_positions(problem.process.base, x, times, master_seed, start, base_sub + SUB_GAUSSIAN)
    integral = np.sum(problem.potential.fn(pos[:, :-1]) * (tau / m)[:, None], axis=1)
    # exp in libm arithmetic: numpy's vector exp rounds differently from it
    # in the last bit for about 5% of arguments
    out = problem.u0(pos[:, -1]) * np.fromiter(map(math.exp, integral.tolist()), float, n)
    out[tau == 0.0] = problem.u0(x)
    return out


def _rsgp_values(problem: FKProblem, law, t, x, n_paths, master_seed, base_sub, start=0):
    """Values under the randomly scaled Gaussian representations: the
    final column of their paths on [0, t]."""
    gamma = problem.process.subordination.stable_gamma
    k = problem.kernel.theta / gamma
    c = problem.potential.c
    if not isinstance(law, HomogeneousProductLaw):
        raise RsgpScopeError("scaled-Gaussian representations need the product-form law")
    cal_a = _combined_amplitude(law, gamma, n_paths, master_seed, base_sub, start)
    x_final = rsgp_paths(
        problem.representation, cal_a, gamma, problem.kernel.theta, PathGrid(t, _RSGP_STEPS),
        master_seed, start, base_sub + SUB_GAUSSIAN,
    )[:, -1]
    positions = x + x_final + cal_a * problem.process.base.w * t**k
    return problem.u0(positions) * np.exp(c * (cal_a * t**k))


def path_values(
    problem: FKProblem,
    point: tuple[float, float],
    n_paths: int,
    seed: int,
    grid_steps: int = 256,
    base_sub: int = 0,
    start: int = 0,
) -> np.ndarray:
    """Per-path estimator values for paths start .. start + n_paths - 1 at
    one evaluation point (the raw sample the Estimate aggregates); exposed
    for exact pathwise identities, and called by ``solve`` once per chunk."""
    t, x = float(point[0]), float(point[1])
    if t == 0.0:
        return np.full(n_paths, float(problem.u0(x)))
    law = _time_change_law(problem)
    if problem.representation != "path":
        return _rsgp_values(problem, law, t, x, n_paths, seed, base_sub, start)
    a_t = time_change_draws(law, t, seed, n_paths, start, base_sub + SUB_MIXING)
    tau = subordinator_draws(
        problem.process.subordination, a_t, seed, n_paths, start, base_sub + SUB_SUBORDINATOR
    )
    if isinstance(problem.potential, CallablePotential):
        return _pathwise_values(problem, t, x, tau, seed, base_sub, grid_steps, start)
    positions = _marginal_positions(problem, tau, x, seed, base_sub, start)
    return np.asarray(problem.u0(positions), dtype=float) * np.exp(problem.potential.c * tau)


def solve(
    problem: FKProblem,
    n_paths: int,
    seed: int,
    grid_steps: int = 256,
    workers: int = 1,
) -> list[Estimate]:
    """Monte Carlo estimates of the solution at every evaluation point.

    Evaluation points get independent path sets (substream offsets per
    point).  Each point's path range runs in chunks of at most
    _CHUNK_VALUES path x grid values (a path is _RSGP_STEPS wide for the
    scaled-Gaussian forms, grid_steps + 1 for a callable potential and 1
    otherwise), so memory stays bounded however many paths are asked for;
    the counter-based streams make the result bit-identical for any
    partition.  ``workers`` is accepted (>= 1) and changes neither the work
    nor the output.  For callable potentials a step-doubling diagnostic
    estimate is attached to each result.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    prob = replace(problem, law=_time_change_law(problem))

    def chunked_values(point, gsteps, base_sub):
        width = (_RSGP_STEPS if prob.representation != "path" else
                 gsteps + 1 if isinstance(prob.potential, CallablePotential) else 1)
        size = max(1, _CHUNK_VALUES // width)
        return np.concatenate([
            path_values(prob, point, min(size, n_paths - a), seed, gsteps, base_sub, a)
            for a in range(0, n_paths, size)
        ])

    out = []
    for idx, point in enumerate(prob.eval_points):
        base_sub = idx * _ROLE_STRIDE
        t, x = point
        if t == 0.0:
            out.append(Estimate(float(prob.u0(x)), 0.0, n_paths, seed))
            continue
        values = chunked_values(point, grid_steps, base_sub)
        diagnostics = None
        if isinstance(prob.potential, CallablePotential):
            fine = chunked_values(point, 2 * grid_steps, base_sub + _ROLE_STRIDE // 2)
            diagnostics = {
                "grid_steps": grid_steps,
                "doubled_mean": float(np.mean(fine)),
                "bias_estimate": float(np.mean(fine) - np.mean(values)),
                "joint_stderr": float(
                    math.hypot(
                        np.std(values, ddof=1) / math.sqrt(n_paths),
                        np.std(fine, ddof=1) / math.sqrt(n_paths),
                    )
                ),
            }
        out.append(_estimate(values, seed, diagnostics))
    return out


# ---------------------------------------------------------------------------
# diffusion-with-flow solver: both displayed forms from the same paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DossSussmannResult:
    with_drift: Estimate  # u0(g(X + w A t^k, x)) exp(c A t^k)
    drift_removed: Estimate  # u0(g(X, x)) exp(A t^k (c - w^2/2) + w X)
    difference: float
    joint_stderr: float


def solve_doss_sussmann(
    problem: FKProblem,
    n_paths: int,
    seed: int,
) -> list[DossSussmannResult]:
    """Both exact estimator forms for the diffusion-with-flow problem,
    computed from the same draws; their difference must vanish within
    Monte Carlo error (they are related by a Gaussian change of variables).
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    base = problem.process.base
    if not isinstance(base, DossSussmann):
        raise ValueError("solve_doss_sussmann needs a DossSussmann base process")
    if not problem.kernel.is_homogeneous:
        raise RsgpScopeError("the flow representation needs a homogeneous kernel")
    if not isinstance(problem.potential, ConstantPotential):
        raise RsgpScopeError("the flow representation needs a constant potential")
    c = problem.potential.c
    if c > 0:
        raise ValueError("the flow representation requires c <= 0")
    gamma = problem.process.subordination.stable_gamma
    if gamma is None:
        raise RsgpScopeError("the flow representation needs stable-power subordination")
    theta = problem.kernel.theta
    k = theta / gamma
    law = _time_change_law(problem)
    if not isinstance(law, HomogeneousProductLaw):
        raise RsgpScopeError("the flow representation needs the product-form law")
    out = []
    for idx, (t, x) in enumerate(problem.eval_points):
        base_sub = idx * _ROLE_STRIDE
        if t == 0.0:
            e = Estimate(float(problem.u0(x)), 0.0, n_paths, seed)
            out.append(DossSussmannResult(e, e, 0.0, 0.0))
            continue
        cal_a = _combined_amplitude(law, gamma, n_paths, seed, base_sub)
        scale = cal_a * t**k
        u_g = path_uniforms(seed, base_sub + SUB_GAUSSIAN, n_paths, 1)
        z = ndtri(_clip_open(u_g[:, 0]))
        x_t = np.sqrt(scale) * z  # scaled-BM representation of the final value
        w = base.w
        v1 = problem.u0(flow_map(base.sigma, x_t + w * scale, x)) * np.exp(c * scale)
        v2 = problem.u0(flow_map(base.sigma, x_t, x)) * np.exp(
            scale * (c - 0.5 * w * w) + w * x_t
        )
        e1, e2 = _estimate(v1, seed), _estimate(v2, seed)
        out.append(
            DossSussmannResult(
                with_drift=e1,
                drift_removed=e2,
                difference=e1.mean - e2.mean,
                joint_stderr=math.hypot(e1.stderr, e2.stderr),
            )
        )
    return out


# ---------------------------------------------------------------------------
# time stretching
# ---------------------------------------------------------------------------

def stretch_solution(problem: FKProblem, stretch: StretchFn) -> FKProblem:
    """Problem whose kernel is the time-stretched kernel and whose
    solution at tau equals the base solution at g(tau)."""
    return replace(
        problem,
        kernel=TimeStretchedKernel(base=problem.kernel, stretch=stretch),
        law=StretchedLaw(base=_time_change_law(problem), stretch=stretch),
        representation="path",
    )
