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
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtri

from .kernels import MemoryKernel, StretchFn, time_stretch_kernel
from .phi import ClosedFormPhi, SeriesPhi, VolterraPhi, has_closed_form, time_law_cdf
from .sampling import (
    SUB_GAUSSIAN,
    SUB_MIXING,
    SUB_SUBORDINATOR,
    BernsteinSpec,
    HomogeneousProductLaw,
    InvalidHurst,
    InverseSubordinatorLaw,
    NumericCDFLaw,
    PathGrid,
    _clip_open,
    draw_subordinated_time,
    fbm_paths_batch,
    inverse_passage_batch,
    mixing_from_uniforms,
    path_uniforms,
    stable_onesided_from_uniforms,
    stable_symmetric_from_uniforms,
)
from .series import lru_get

__all__ = [
    "BoundedCallable",
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
    "derive_time_change_law",
    "doss_sussmann_flow",
    "flow_map",
    "path_values",
    "solve",
    "solve_doss_sussmann",
    "stretch_solution",
]

_ROLE_STRIDE = 8  # substream ids per evaluation point when paths are independent


class RsgpScopeError(ValueError):
    """Randomly-scaled-Gaussian representation requested outside its scope
    (Brownian base, constant potential, homogeneous kernel)."""


class StepCountInsufficient(RuntimeError):
    """Richardson estimate of the flow ODE error above tolerance."""


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


def validate_sigma_probe(sigma: Callable, half_width: float = 40.0) -> tuple[float, float, float]:
    """Check boundedness of sigma and its first two derivatives on a probe
    grid (finite differences); returns the observed sups."""
    x = np.linspace(-half_width, half_width, 641)
    v = np.asarray([sigma(xi) for xi in x], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("sigma not finite on the probe grid")
    h = x[1] - x[0]
    d1 = np.gradient(v, h)
    d2 = np.gradient(d1, h)
    sups = (float(np.max(np.abs(v))), float(np.max(np.abs(d1))), float(np.max(np.abs(d2))))
    if max(sups) > 1e6:
        raise ValueError(f"sigma or its derivatives look unbounded on the probe grid: sups={sups}")
    return sups


@dataclass(frozen=True)
class ProcessModel:
    base: BrownianDrift | StableLevy | DossSussmann
    subordination: BernsteinSpec = field(default_factory=BernsteinSpec.identity)


@dataclass(frozen=True)
class ZeroPotential:
    pass


@dataclass(frozen=True)
class ConstantPotential:
    c: float


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


@dataclass(frozen=True)
class BoundedCallable:
    fn: Callable
    bound: float

    def __call__(self, y):
        return self.fn(np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# the problem container
# ---------------------------------------------------------------------------

REPRESENTATIONS = ("path", "timechanged_bm", "scaled_bm", "scaled_fbm")


@dataclass(frozen=True)
class FKProblem:
    kernel: MemoryKernel
    process: ProcessModel
    potential: ZeroPotential | ConstantPotential | CallablePotential
    u0: GaussianBump | BoundedCallable
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
        if not sub.is_identity:
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
            if sub.kind not in ("identity", "stable_power"):
                raise RsgpScopeError(
                    "scaled-Gaussian representations need a stable-power "
                    "subordination (or none)"
                )

    @property
    def gamma(self) -> float:
        sub = self.process.subordination
        return sub.gamma if sub.kind == "stable_power" else 1.0


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
    Laplace inversion of Phi(1, -.).  Convolution kernels whose Bernstein
    exponent is a drift-plus-stable sum get the first-passage sampler;
    reciprocal forms fall back to numeric CDF tables per evaluation time.
    """
    from .kernels import ConvMultinomialMLKernel, FractionalPowerKernel, GGBMKernel

    if isinstance(kernel, (GGBMKernel, FractionalPowerKernel)):
        beta = kernel.beta
        return HomogeneousProductLaw(
            theta=kernel.theta,
            mixing_from_uniforms=lambda u1, u2: mixing_from_uniforms(u1, u2, beta),
        )
    if isinstance(kernel, ConvMultinomialMLKernel) and kernel.betas:
        terms = ((1.0, kernel.beta),) + tuple(zip(kernel.bs, kernel.betas))
        terms = tuple((w, e) for w, e in terms if e < 1.0)
        drift = sum(w for w, e in ((1.0, kernel.beta),) + tuple(zip(kernel.bs, kernel.betas)) if e >= 1.0)
        return InverseSubordinatorLaw(
            BernsteinSpec.drift_plus_stable_sum(drift, terms)
        )
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

def doss_sussmann_flow(
    sigma: Callable, y: float, x: float, ode_steps: int = 64, rich_tol: float = 1e-7
) -> float:
    """g(y, x): the flow of dz/dy = sigma(z) from z(0) = x, by classical
    fourth-order Runge-Kutta with step y/ode_steps.  A Richardson estimate
    against the half-step count guards the step budget."""

    def integrate(n: int) -> float:
        h = y / n
        z = x
        for _ in range(n):
            k1 = sigma(z)
            k2 = sigma(z + 0.5 * h * k1)
            k3 = sigma(z + 0.5 * h * k2)
            k4 = sigma(z + h * k3)
            z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return z

    if y == 0.0:
        return float(x)
    if ode_steps < 2:
        raise StepCountInsufficient("need at least 2 flow steps")
    fine = integrate(ode_steps)
    coarse = integrate(max(ode_steps // 2, 1))
    err = abs(fine - coarse) / 15.0
    if err > rich_tol * max(1.0, abs(fine)):
        raise StepCountInsufficient(
            f"flow ODE Richardson error {err:.2e} above tolerance at "
            f"ode_steps={ode_steps}"
        )
    return float(fine)


def flow_map(sigma: Callable, y_values, x: float, nodes_per_unit: int = 512) -> np.ndarray:
    """g(y, x) evaluated at many y at once.

    All values of the one-dimensional autonomous flow lie on the single
    trajectory through x, so one dense fourth-order integration of that
    trajectory plus monotone interpolation evaluates the whole batch.
    """
    y_values = np.asarray(y_values, dtype=float)
    if y_values.size == 0:
        return y_values.copy()
    y_lo = min(float(np.min(y_values)), 0.0)
    y_hi = max(float(np.max(y_values)), 0.0)
    span = max(y_hi - y_lo, 1e-9)
    n = int(max(1024, math.ceil(span * nodes_per_unit))) + 1

    def run(direction: float, length: float, n_steps: int) -> np.ndarray:
        out = np.empty(n_steps + 1)
        out[0] = x
        h = direction * length / max(n_steps, 1)
        z = float(x)
        for i in range(n_steps):
            k1 = sigma(z)
            k2 = sigma(z + 0.5 * h * k1)
            k3 = sigma(z + 0.5 * h * k2)
            k4 = sigma(z + h * k3)
            z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[i + 1] = z
        return out

    n_pos = int(max(2, round(n * (y_hi / span))))
    n_neg = int(max(2, round(n * (-y_lo / span)))) if y_lo < 0 else 0
    ys = [np.array([0.0])]
    zs = [np.array([x], dtype=float)]
    if y_hi > 0:
        ys.append(np.linspace(0.0, y_hi, n_pos + 1)[1:])
        zs.append(run(+1.0, y_hi, n_pos)[1:])
    if y_lo < 0:
        ys.append(np.linspace(0.0, y_lo, n_neg + 1)[1:])
        zs.append(run(-1.0, -y_lo, n_neg)[1:])
    y_grid = np.concatenate(ys)
    z_grid = np.concatenate(zs)
    order = np.argsort(y_grid)
    ip = PchipInterpolator(y_grid[order], z_grid[order])
    return ip(y_values)


# ---------------------------------------------------------------------------
# core Monte Carlo machinery
# ---------------------------------------------------------------------------

def _estimate(values: np.ndarray, seed: int, diagnostics: dict | None = None) -> Estimate:
    n = len(values)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n >= 2 else 0.0
    return Estimate(mean=mean, stderr=stderr, n_paths=n, seed=seed, grid_diagnostics=diagnostics)


def _draw_time_changes(law, t, n_paths, master_seed, base_sub, start=0):
    if isinstance(law, StretchedLaw):
        return _draw_time_changes(
            law.base, law.stretch.g(t), n_paths, master_seed, base_sub, start
        )
    if isinstance(law, HomogeneousProductLaw):
        u = path_uniforms(master_seed, base_sub + SUB_MIXING, n_paths, law.uniforms_needed, start)
        return np.asarray(law.sample_from_uniforms(t, u), dtype=float)
    if isinstance(law, NumericCDFLaw):
        u = path_uniforms(master_seed, base_sub + SUB_MIXING, n_paths, 1, start)
        return np.asarray(law.sample_from_uniforms(t, u), dtype=float)
    if isinstance(law, InverseSubordinatorLaw):
        return inverse_passage_batch(
            law.bernstein,
            t,
            n_paths,
            master_seed,
            substream=base_sub + SUB_MIXING,
            steps_per_unit=law.steps_per_unit,
            max_chunks=law.max_chunks,
            start=start,
        )
    raise TypeError(f"unknown time-change law {type(law).__name__}")


def _marginal_positions(problem: FKProblem, tau, x, master_seed, base_sub, start=0):
    """Positions xi_tau for independent per-path clocks tau (no potential
    path integral needed)."""
    n = len(tau)
    base = problem.process.base
    if isinstance(base, BrownianDrift):
        u = path_uniforms(master_seed, base_sub + SUB_GAUSSIAN, n, 1, start)
        z = ndtri(_clip_open(u[:, 0]))
        return x + base.w * tau + np.sqrt(tau) * z
    if isinstance(base, StableLevy):
        u = path_uniforms(master_seed, base_sub + SUB_GAUSSIAN, n, 2, start)
        s = stable_symmetric_from_uniforms(u[:, 0], u[:, 1], base.delta)
        return x + 2.0 ** (-0.5) * tau ** (1.0 / base.delta) * s
    if isinstance(base, DossSussmann):
        u = path_uniforms(master_seed, base_sub + SUB_GAUSSIAN, n, 1, start)
        z = ndtri(_clip_open(u[:, 0]))
        driver = np.sqrt(tau) * z + base.w * tau
        return flow_map(base.sigma, driver, x)
    raise TypeError(f"unknown base process {type(base).__name__}")


def _pathwise_values(problem: FKProblem, t, x, tau, master_seed, base_sub, grid_steps, start=0):
    """u0(xi_tau) * exp(int_0^tau V(xi) ds) with midpoint quadrature of the
    potential along simulated paths, all paths in one (n, grid_steps + 1)
    array: the midpoints, then tau itself."""
    n = len(tau)
    base = problem.process.base
    m = grid_steps
    stable = isinstance(base, StableLevy)
    k = (m + 1) * (2 if stable else 1)
    u = path_uniforms(master_seed, base_sub + SUB_GAUSSIAN, n, k, start)
    times = np.empty((n, m + 1))
    times[:, :m] = tau[:, None] * ((np.arange(m) + 0.5) / m)
    times[:, m] = tau
    dt = np.diff(times, axis=1, prepend=0.0)
    if stable:
        s = stable_symmetric_from_uniforms(u[:, ::2], u[:, 1::2], base.delta)
        pos = x + np.cumsum(2.0 ** (-0.5) * dt ** (1.0 / base.delta) * s, axis=1)
    elif isinstance(base, DossSussmann):
        z = ndtri(_clip_open(u))
        driver = np.cumsum(np.sqrt(dt) * z, axis=1) + base.w * times
        pos = flow_map(base.sigma, driver, x)
    else:
        z = ndtri(_clip_open(u))
        pos = x + np.cumsum(base.w * dt + np.sqrt(dt) * z, axis=1)
    integral = np.sum(problem.potential.fn(pos[:, :-1]) * (tau / m)[:, None], axis=1)
    # exp in libm arithmetic: numpy's vector exp rounds differently from it
    # in the last bit for about 5% of arguments
    out = problem.u0(pos[:, -1]) * np.fromiter(map(math.exp, integral.tolist()), float, n)
    out[tau == 0.0] = problem.u0(x)
    return out


def _rsgp_values(problem: FKProblem, t, x, n_paths, master_seed, base_sub, rsgp_steps=64, start=0):
    """Values under the randomly scaled Gaussian representations."""
    theta = problem.kernel.theta
    gamma = problem.gamma
    k = theta / gamma
    w = problem.process.base.w
    c = problem.potential.c if isinstance(problem.potential, ConstantPotential) else 0.0
    law = problem.law
    if isinstance(law, StretchedLaw):
        raise RsgpScopeError("scaled-Gaussian representations need the plain product law")
    if not isinstance(law, HomogeneousProductLaw):
        raise RsgpScopeError("scaled-Gaussian representations need the product-form law")
    u_mix = path_uniforms(master_seed, base_sub + SUB_MIXING, n_paths, 2, start)
    amp = np.asarray(law.mixing_from_uniforms(u_mix[:, 0], u_mix[:, 1]), dtype=float)
    if gamma < 1.0:
        u_sub = path_uniforms(master_seed, base_sub + SUB_SUBORDINATOR, n_paths, 2, start)
        eta1 = stable_onesided_from_uniforms(u_sub[:, 0], u_sub[:, 1], gamma)
        cal_a = amp ** (1.0 / gamma) * eta1
    else:
        cal_a = amp
    scale = cal_a * t**k
    kind = problem.representation
    nodes = np.linspace(0.0, t, rsgp_steps + 1)
    if kind in ("timechanged_bm", "scaled_bm"):
        u_g = path_uniforms(master_seed, base_sub + SUB_GAUSSIAN, n_paths, rsgp_steps, start)
        z = ndtri(_clip_open(u_g))
    if kind == "timechanged_bm":
        tau = scale[:, None] * (nodes / t) ** k if t > 0 else np.zeros((n_paths, rsgp_steps + 1))
        inc = np.sqrt(np.diff(tau, axis=1)) * z
        x_final = np.sum(inc, axis=1)
    elif kind == "scaled_bm":
        s = nodes**k
        inc = np.sqrt(np.diff(s))[None, :] * z
        x_final = np.sqrt(cal_a) * np.sum(inc, axis=1)
    elif kind == "scaled_fbm":
        H = theta / (2.0 * gamma)
        if not 0.0 < H < 1.0:
            raise InvalidHurst(
                f"theta/(2 gamma) = {H:g} outside (0,1); scaled-fBM "
                "representation unavailable"
            )
        paths = fbm_paths_batch(
            H, PathGrid(horizon=max(t, 1e-12), n_steps=rsgp_steps), master_seed,
            n_paths, substream=base_sub + SUB_GAUSSIAN, start=start,
        )
        x_final = np.sqrt(cal_a) * paths[:, -1]
    else:
        raise RsgpScopeError(f"unknown representation {kind!r}")
    positions = x + x_final + cal_a * w * t**k
    return problem.u0(positions) * np.exp(c * scale)


def path_values(
    problem: FKProblem,
    point: tuple[float, float],
    n_paths: int,
    seed: int,
    grid_steps: int = 256,
    base_sub: int = 0,
    rsgp_steps: int = 64,
    start: int = 0,
) -> np.ndarray:
    """Per-path estimator values for paths start .. start + n_paths - 1 at
    one evaluation point (the raw sample the Estimate aggregates); exposed
    for exact pathwise identities and worker chunking."""
    t, x = float(point[0]), float(point[1])
    if t == 0.0:
        return np.full(n_paths, float(problem.u0(x)))
    law = problem.law if problem.law is not None else derive_time_change_law(
        problem.kernel, [p[0] for p in problem.eval_points]
    )
    if problem.representation != "path":
        prob = problem if problem.law is not None else replace(problem, law=law)
        return _rsgp_values(prob, t, x, n_paths, seed, base_sub, rsgp_steps, start)
    a_t = _draw_time_changes(law, t, n_paths, seed, base_sub, start)
    sub = problem.process.subordination
    if sub.is_identity:
        tau = a_t
    else:
        cols = 2 * sub.n_stable_terms
        u = path_uniforms(seed, base_sub + SUB_SUBORDINATOR, n_paths, cols, start)
        tau = np.asarray(draw_subordinated_time(sub, a_t, u), dtype=float)
    if isinstance(problem.potential, CallablePotential):
        return _pathwise_values(problem, t, x, tau, seed, base_sub, grid_steps, start)
    positions = _marginal_positions(problem, tau, x, seed, base_sub, start)
    values = np.asarray(problem.u0(positions), dtype=float)
    if isinstance(problem.potential, ConstantPotential):
        values = values * np.exp(problem.potential.c * tau)
    return values


def solve(
    problem: FKProblem,
    n_paths: int,
    seed: int,
    grid_steps: int = 256,
    shared_paths: bool = False,
    rsgp_steps: int = 64,
    workers: int = 1,
) -> list[Estimate]:
    """Monte Carlo estimates of the solution at every evaluation point.

    Evaluation points get independent path sets by default (substream
    offsets per point); ``shared_paths=True`` reuses one set for exact
    pathwise comparisons.  ``workers`` is a partition setting, not a
    degree of parallelism: it splits the path range into that many chunks,
    run one after another, and the counter-based streams make the result
    bit-identical for any partition.  (Running the chunks on a thread pool
    did not shorten the benchmark's Monte Carlo workload on 2 vCPUs and
    added 10-13 MB of memory.)  For callable potentials a step-doubling
    diagnostic estimate is attached to each result.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    law = problem.law if problem.law is not None else derive_time_change_law(
        problem.kernel, [p[0] for p in problem.eval_points]
    )
    prob = replace(problem, law=law)

    def chunked_values(point, gsteps, base_sub):
        bounds = np.linspace(0, n_paths, workers + 1).astype(int)
        parts = [
            path_values(
                prob, point, int(b - a), seed, gsteps, base_sub, rsgp_steps, int(a)
            )
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        return np.concatenate(parts)

    out = []
    for idx, point in enumerate(prob.eval_points):
        base_sub = 0 if shared_paths else idx * _ROLE_STRIDE
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
    rsgp_steps: int = 64,
) -> list[DossSussmannResult]:
    """Both exact estimator forms for the diffusion-with-flow problem,
    computed from the same draws; their difference must vanish within
    Monte Carlo error (they are related by a Gaussian change of variables).
    """
    base = problem.process.base
    if not isinstance(base, DossSussmann):
        raise ValueError("solve_doss_sussmann needs a DossSussmann base process")
    if not problem.kernel.is_homogeneous:
        raise RsgpScopeError("the flow representation needs a homogeneous kernel")
    if isinstance(problem.potential, ConstantPotential):
        c = problem.potential.c
    elif isinstance(problem.potential, ZeroPotential):
        c = 0.0
    else:
        raise RsgpScopeError("the flow representation needs a constant potential")
    if c > 0:
        raise ValueError("the flow representation requires c <= 0")
    sub = problem.process.subordination
    if sub.kind not in ("identity", "stable_power"):
        raise RsgpScopeError("the flow representation needs stable-power subordination")
    gamma = problem.gamma
    theta = problem.kernel.theta
    k = theta / gamma
    law = problem.law if problem.law is not None else derive_time_change_law(
        problem.kernel, [p[0] for p in problem.eval_points]
    )
    if not isinstance(law, HomogeneousProductLaw):
        raise RsgpScopeError("the flow representation needs the product-form law")
    out = []
    for idx, (t, x) in enumerate(problem.eval_points):
        base_sub = idx * _ROLE_STRIDE
        if t == 0.0:
            e = Estimate(float(problem.u0(x)), 0.0, n_paths, seed)
            out.append(DossSussmannResult(e, e, 0.0, 0.0))
            continue
        u_mix = path_uniforms(seed, base_sub + SUB_MIXING, n_paths, 2)
        amp = np.asarray(law.mixing_from_uniforms(u_mix[:, 0], u_mix[:, 1]), dtype=float)
        if gamma < 1.0:
            u_sub = path_uniforms(seed, base_sub + SUB_SUBORDINATOR, n_paths, 2)
            eta1 = stable_onesided_from_uniforms(u_sub[:, 0], u_sub[:, 1], gamma)
            cal_a = amp ** (1.0 / gamma) * eta1
        else:
            cal_a = amp
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

@dataclass(frozen=True)
class StretchedLaw:
    """Time-change law of the stretched equation: A_kappa(tau) = A(g(tau))."""

    base: object
    stretch: StretchFn


def stretch_solution(problem: FKProblem, stretch: StretchFn) -> FKProblem:
    """Problem whose kernel is the time-stretched kernel and whose
    solution at tau equals the base solution at g(tau)."""
    base_law = problem.law if problem.law is not None else derive_time_change_law(
        problem.kernel, [p[0] for p in problem.eval_points]
    )
    return replace(
        problem,
        kernel=time_stretch_kernel(problem.kernel, stretch),
        law=StretchedLaw(base=base_law, stretch=stretch),
        representation="path",
    )
