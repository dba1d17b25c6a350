"""Deterministic reference solutions used to validate the Monte Carlo
estimators: mixing-density quadrature, Fourier-multiplier solutions built
from the memory function, the classical L1 finite-difference scheme for
the power kernel, and the double-Laplace identity of inverse
subordinators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded
from scipy.special import roots_legendre

from .fk import BrownianDrift, GaussianBump
from .kernels import FractionalPowerKernel, GGBMKernel, MemoryKernel
from .phi import ClosedFormPhi, TimeLawCDF, has_closed_form, phi_on_grid
from .sampling import BernsteinSpec, GridTooCoarse, _passage_scale, first_passage
from .specfun import mwright_density

__all__ = [
    "DensityUnavailable",
    "DoubleLaplaceReport",
    "SpectralGrid",
    "caputo_l1",
    "double_laplace_identity",
    "semigroup_quadrature",
    "spectral_solution",
]


class DensityUnavailable(ValueError):
    """No usable mixing density / CDF for this kernel family."""


@dataclass(frozen=True)
class SpectralGrid:
    """Symmetric trapezoid grid in frequency for Fourier-multiplier solves."""

    xi_max: float = 9.0
    n_modes: int = 2048

    def __post_init__(self) -> None:
        if self.n_modes % 2:
            raise ValueError("n_modes must be even")
        if not self.xi_max > 0:
            raise ValueError("xi_max must be positive")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.xi_max, self.xi_max, self.n_modes + 1)


# ---------------------------------------------------------------------------
# mixing-measure quadrature
# ---------------------------------------------------------------------------

def _wright_tail_cut(beta: float) -> float:
    """Smallest z with (tail mass bound) M_beta(z) * z below 1e-11."""
    from .specfun import _mwright_asymptotic

    z = 2.0
    while z < 60.0 and _mwright_asymptotic(beta, z) * z > 1e-11:
        z *= 1.2
    return min(z, 60.0)


def _mixing_description(kernel: MemoryKernel):
    """(kind, payload): 'wright' beta for the stable mixing density,
    'point' for the degenerate beta = 1 case."""
    if isinstance(kernel, (GGBMKernel, FractionalPowerKernel)):
        beta = kernel.beta
        if beta == 1.0:
            return "point", None
        return "wright", beta
    return None, None


_QUAD_TOL = 1e-8  # absolute and relative target of the Wright-density quadrature


def semigroup_quadrature(
    kernel: MemoryKernel,
    u0: GaussianBump,
    process: BrownianDrift,
    t: float,
    x: float,
    potential_c: float = 0.0,
    law_cdf: TimeLawCDF | None = None,
) -> float:
    """Deterministic solution value by integrating the exact Gaussian
    semigroup action over the law of the time change:

        u(t, x) = int (T_a u0)(x) P_{A(t)}(da),
        (T_a u0)(x) = e^{c a} (G_a * u0)(x + w a).

    Homogeneous Mittag-Leffler kernels integrate against the scaled Wright
    density; other laws need a tabulated CDF (``law_cdf``).
    """
    if not isinstance(u0, GaussianBump):
        raise DensityUnavailable("the semigroup oracle needs a Gaussian bump u0")
    if t == 0.0:
        return float(u0(x))
    w = process.w

    def T_a(a):
        return np.exp(potential_c * a) * u0.heat_semigroup(a, x, drift=w)

    kind, payload = _mixing_description(kernel)
    if kind == "point":
        return float(T_a(t**kernel.theta))
    if kind == "wright":
        beta = payload
        scale = t**kernel.theta

        def integrand(a):
            return T_a(a * scale) * mwright_density(beta, a)

        # beyond the stretched-exponential cut the density mass is below
        # 1e-11, negligible against the quadrature target as long as the
        # semigroup factor stays bounded (potential_c <= 0)
        upper = _wright_tail_cut(beta) if potential_c <= 0.0 else 60.0
        val, err = quad(integrand, 0.0, upper, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=400)
        return float(val)
    if law_cdf is not None:
        mid = 0.5 * (law_cdf.nodes[1:] + law_cdf.nodes[:-1])
        weights = np.diff(law_cdf.F)
        head = law_cdf.F[0]  # mass at/below the first node
        tail = 1.0 - law_cdf.F[-1]
        total = float(np.dot(weights, T_a(mid)))
        total += head * float(T_a(law_cdf.nodes[0] * 0.5))
        total += tail * float(T_a(law_cdf.nodes[-1]))
        return total
    raise DensityUnavailable(
        f"no mixing density for family {kernel.family!r}; supply law_cdf"
    )


# ---------------------------------------------------------------------------
# Fourier-multiplier (spectral) solution
# ---------------------------------------------------------------------------

def spectral_solution(
    kernel: MemoryKernel,
    u0: GaussianBump,
    symbol: str,
    t: float,
    x: float,
    grid: SpectralGrid = SpectralGrid(),
    gamma: float = 1.0,
    phi_evaluator=None,
) -> float:
    """u(t, x) = (1/2 pi) int e^{i x xi} Phi(t, symbol(xi)) hat-u0(xi) d xi.

    symbol: 'laplacian_half'  -> -xi^2/2
            'frac_laplacian'  -> -(xi^2/2)^gamma

    A drift or a constant potential is served by ``semigroup_quadrature``.

    Phi on the whole frequency grid comes from the evaluator's
    ``values(t, lams)`` when it has one (for the ggbm and fractional-power
    closed forms, one fixed-node Mittag-Leffler batch), otherwise from one
    ``value(t, lam)`` call per node.  The integral over xi is the
    trapezoid rule on ``grid``.
    """
    if symbol not in ("laplacian_half", "frac_laplacian"):
        raise ValueError(f"unknown symbol {symbol!r}")
    if t == 0.0:
        return float(u0(x))
    xi = grid.nodes
    decay = abs(u0.fourier_transform(grid.xi_max))
    if decay > 1e-12:
        raise ValueError(
            f"hat-u0({grid.xi_max:g}) = {decay:.2e} has not decayed below 1e-12; "
            "enlarge xi_max"
        )
    arg = -0.5 * xi**2
    if symbol == "frac_laplacian":
        arg = -((0.5 * xi**2) ** gamma)
    if phi_evaluator is None:
        phi_evaluator = ClosedFormPhi(kernel) if has_closed_form(kernel) else None
    if phi_evaluator is None:
        raise ValueError("no memory-function evaluator available for this kernel")
    phi_vals = phi_on_grid(phi_evaluator, t, arg)
    integrand = np.exp(1j * x * xi) * u0.fourier_transform(xi) * phi_vals
    val = np.trapezoid(integrand, xi).real / (2.0 * math.pi)
    return float(val)


# ---------------------------------------------------------------------------
# classical L1 finite-difference scheme for the power kernel
# ---------------------------------------------------------------------------

_L1_HALF_WIDTH = 12.0  # spatial truncation of the L1 scheme


def caputo_l1(
    beta: float,
    u0,
    t: float,
    n_space: int = 1201,
    n_time: int = 600,
    source=None,
):
    """Solve the fractional-in-time heat equation with the classical
    power-kernel derivative of order beta by the L1 scheme on a time mesh
    graded as t (n / n_time)^{(2 - beta)/beta}, the standard grading for
    the initial layer, second-order central differences in space,
    Dirichlet-zero truncation at |x| = _L1_HALF_WIDTH (12); u0 must have
    decayed below 1e-10 there.

    Returns (x_grid, u_values_at_t).  ``source(t, x)`` adds a forcing term
    (used by the manufactured-solution convergence test).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    grading = (2.0 - beta) / beta
    xg = np.linspace(-_L1_HALF_WIDTH, _L1_HALF_WIDTH, n_space)
    u_edge = max(abs(float(u0(xg[0]))), abs(float(u0(xg[-1]))))
    if u_edge > 1e-10:
        raise ValueError("u0 has not decayed below 1e-10 at the truncation boundary")
    dx = xg[1] - xg[0]
    tg = t * (np.arange(n_time + 1) / n_time) ** grading
    u = np.asarray(u0(xg), dtype=float)
    u[0] = u[-1] = 0.0
    history = [u.copy()]
    interior = slice(1, n_space - 1)
    # banded matrix template for (a_nn I - 0.5 D2)
    main = np.empty(n_space - 2)
    off = -0.5 / dx**2
    g1 = 1.0 / math.gamma(2.0 - beta)
    for n in range(1, n_time + 1):
        tn = tg[n]
        a_coef = g1 * (
            (tn - tg[:n]) ** (1.0 - beta) - (tn - tg[1 : n + 1]) ** (1.0 - beta)
        ) / (tg[1 : n + 1] - tg[:n])
        rhs = a_coef[-1] * history[-1][interior].copy()
        for k in range(n - 1):
            rhs -= a_coef[k] * (history[k + 1][interior] - history[k][interior])
        if source is not None:
            rhs += np.asarray(source(tn, xg[interior]), dtype=float)
        main[:] = a_coef[-1] + 1.0 / dx**2
        ab = np.zeros((3, n_space - 2))
        ab[0, 1:] = off
        ab[1, :] = main
        ab[2, :-1] = off
        un = np.zeros(n_space)
        un[interior] = solve_banded((1, 1), ab, rhs)
        history.append(un)
    return xg, history[-1]


# ---------------------------------------------------------------------------
# double-Laplace identity for inverse subordinators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubleLaplaceReport:
    lhs_monte_carlo: float
    rhs_closed_form: float
    rel_deviation: float


_DL_TIME_NODES = 96  # Gauss-Legendre nodes in time
_DL_TAIL_BOUND = 1e-6  # e^{-sigma t} at the time truncation
_DL_STEPS_PER_UNIT = 2**10  # first-passage steps per passage scale of level t_max
_DL_CHUNK, _DL_MAX_CHUNKS = 4096, 16  # first-passage steps per chunk, chunks per path


def double_laplace_identity(
    h: BernsteinSpec, sigma: float, lam: float, mc_paths: int, master_seed: int = 1
) -> DoubleLaplaceReport:
    """Check  int_0^inf e^{-sigma t} E[e^{-lam E_t}] dt = h(sigma) /
    (sigma (h(sigma) + lam))  by simulating first-passage paths of the
    subordinator with exponent h and _DL_TIME_NODES-node Gauss-Legendre
    time quadrature, truncated where e^{-sigma t} < _DL_TAIL_BOUND."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rhs = float(h.value(sigma) / (sigma * (h.value(sigma) + lam)))
    t_max = -math.log(_DL_TAIL_BOUND) / sigma
    xq, wq = roots_legendre(_DL_TIME_NODES)
    t_nodes = 0.5 * t_max * (xq + 1.0)
    t_weights = 0.5 * t_max * wq
    if h.stable_gamma == 1.0:
        mean_w = np.exp(-lam * t_nodes)
        lhs = float(np.dot(t_weights, np.exp(-sigma * t_nodes) * mean_w))
        lhs += math.exp(-(sigma + lam) * t_max) / (sigma + lam)  # exact tail
        return DoubleLaplaceReport(lhs, rhs, (lhs - rhs) / rhs)
    if mc_paths < 1:
        raise ValueError("mc_paths must be >= 1 for a non-identity exponent")
    dt = _passage_scale(h, t_max) / _DL_STEPS_PER_UNIT
    try:
        passages = first_passage(h, t_nodes, mc_paths, master_seed, dt, chunk=_DL_CHUNK,
                                 max_chunks=_DL_MAX_CHUNKS)
    except GridTooCoarse:
        raise RuntimeError(
            f"subordinator path did not exceed t_max={t_max:.6g} within {_DL_MAX_CHUNKS} "
            f"chunks of {_DL_CHUNK} steps of dt={dt:.6g}"
        ) from None
    mean_w = np.sum(np.exp(-lam * passages), axis=0) / mc_paths
    lhs = float(np.dot(t_weights, np.exp(-sigma * t_nodes) * mean_w))
    # exp tail beyond t_max: bounded by _DL_TAIL_BOUND / sigma, add midpoint value
    lhs += math.exp(-sigma * t_max) / sigma * float(mean_w[-1])
    return DoubleLaplaceReport(lhs, rhs, (lhs - rhs) / rhs)
