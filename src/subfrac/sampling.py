"""Random-variate and path generation under a counter-based seed contract.

Streams: every path owns one Philox4x64-10 stream keyed by the 64-bit
master seed, whose counter block (0, 0, substream, stream_id) advances in
word 0.  The draws of path ``stream_id`` therefore never depend on batch
size, worker count or scheduling, and the substream index keeps the
mixing variable, the subordinator and the Gaussian path of one sample
mutually independent.  A seed outside [0, 2^64) or a negative stream id
is rejected by name.

One stream is evaluated two ways, with the same bits:

* ``path_uniforms`` serves every fixed-size layout (k uniforms per path;
  the ``*_draws`` batches).  Philox is a pure function of (key, counter),
  so it computes the blocks of all paths in one vectorized numpy pass
  instead of building a generator per path.
* ``path_rng`` wraps the stream in ``np.random.Philox`` and serves only
  ``first_passage``, the simulated side of the double-Laplace oracle,
  where a path draws an open-ended stream block by block.  On long rows
  numpy's C generator is several times faster than the numpy engine, and
  there generator set-up is a small share of the work.

Batch generation consumes a fixed number of uniforms per path and maps
them through inverse CDFs (scipy.special.ndtri for normals).  Each random
variable of the Feynman-Kac formulae has one array function over a path
range: the time change A(t) (``time_change_draws``), the stable amplitude
(``A_stable_mixing_draws``), the combined amplitude A^{1/gamma} eta_1
(``scriptA_draws``) and the subordinated time eta^f
(``subordinator_draws``).  The solvers and ``subfrac sample`` both call
it, and one path is the call at ``n_paths=1, start=stream_id``, so they
agree bit for bit for the same seed, substream and path.  Paths follow
the same rule: ``rsgp_paths`` builds the randomly scaled Gaussian paths
and ``fk.base_positions`` the base Markov paths.  A time-change law is
the product form A * t^theta, a CDF table per time (Gaver-Stehfest, or the
exact inverse-subordinator CDF) or a time stretch of either.
One-sided stable draws take one log-domain Kanter formula of numpy's
vectorized tan, log and exp (``stable_onesided_from_uniforms``), which
rounds alike for strided, contiguous and scalar input.  A subordinator is
given by its Bernstein function, the pair (drift, stable terms) of
``BernsteinSpec``; the identity and the stable power are two of its values
and take the same code.  The module imports no other subfrac module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.special import ndtri

if TYPE_CHECKING:  # named in annotations only
    from .kernels import StretchFn
    from .phi import TimeLawCDF

__all__ = [
    "A_stable_mixing_draws",
    "SUB_GAUSSIAN",
    "SUB_MIXING",
    "SUB_SUBORDINATOR",
    "BernsteinSpec",
    "GridTooCoarse",
    "HomogeneousProductLaw",
    "InvalidHurst",
    "NumericCDFLaw",
    "PathGrid",
    "StretchedLaw",
    "fbm_paths_batch",
    "first_passage",
    "mixing_from_uniforms",
    "path_rng",
    "path_uniforms",
    "rsgp_paths",
    "scriptA_draws",
    "stable_onesided_from_uniforms",
    "stable_subordinator_draws",
    "stable_symmetric_from_uniforms",
    "subordinator_draws",
    "time_change_draws",
]

# substream roles within one path
SUB_MIXING = 0  # the amplitude variable of the time-change law
SUB_SUBORDINATOR = 1  # one-sided stable / Bernstein subordinator draws
SUB_GAUSSIAN = 2  # Brownian / fractional Gaussian path noise

_TINY = 1e-15


class GridTooCoarse(RuntimeError):
    """First-passage bracketing failed within the step budget."""


class InvalidHurst(ValueError):
    """Hurst parameter outside (0, 1), or one whose fractional Gaussian
    noise has no nonnegative circulant embedding on the grid; the
    scaled-fBM representation has H = theta/(2 gamma)."""


def _check_stream(master_seed: int, stream_id: int) -> None:
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {master_seed}")
    if stream_id < 0:
        raise ValueError(f"stream id must be nonnegative, got {stream_id}")


def path_rng(master_seed: int, substream: int, stream_id: int) -> np.random.Generator:
    """Generator over one path's stream, for draws of open-ended length."""
    _check_stream(master_seed, stream_id)
    bg = np.random.Philox(
        key=np.uint64(master_seed),
        # an explicit uint64 array: a list would pass through float64 and
        # merge neighbouring counters above 2^53
        counter=np.array([0, 0, substream, stream_id], dtype=np.uint64),
    )
    return np.random.Generator(bg)


# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox computes it: the
# multipliers of counter words 0 and 2, and the Weyl increments of the key.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _S32
_ROUNDS = np.arange(10, dtype=np.uint64)[:, None, None]
_CHUNK_BLOCKS = 8192  # counter blocks per vectorized pass; bounds the working set
_SUB_STEPS = 512  # first-passage steps per lockstep sub-block
_GROUP_PATHS = 8192 // _SUB_STEPS  # first-passage paths in lockstep; bounds the working set


def _mulhi(x: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products _PHILOX_M * x, from 32-bit limbs."""
    x_lo, x_hi = x & _LO32, x >> _S32
    lh = _M_LO * x_hi
    cross = ((_M_LO * x_lo) >> _S32) + (lh & _LO32) + _M_HI * x_lo
    return _M_HI * x_hi + (lh >> _S32) + (cross >> _S32)


def _philox4x64(key: int, c0, c1, c2, c3) -> np.ndarray:
    """Philox4x64-10 of the counters (c0, c1, c2, c3) under key (key, 0):
    an (N, 4) array of output words, in the order numpy emits them.

    x holds the multiplied words (c0, c2), y the xored words (c1, c3).  With
    (hi_j, lo_j) the 128-bit product of multiplier j and x_j, one round maps
    them to x' = (hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1) and y' = (lo1, lo0).
    """
    x, y = np.stack([c0, c2]), np.stack([c1, c3])
    with np.errstate(over="ignore"):  # the key schedule and low products wrap
        keys = np.array([[key], [0]], dtype=np.uint64) + _ROUNDS * _PHILOX_W
        for k in keys:
            x, y = _mulhi(x)[::-1] ^ y ^ k, (_PHILOX_M * x)[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1)


def path_uniforms(
    master_seed: int, substream: int, n_paths: int, k: int, start: int = 0
) -> np.ndarray:
    """(n_paths, k) uniforms; row i is the first k draws of the stream of
    stream_id = start + i, bit-identical to ``path_rng(...).random(k)``.

    Block b of a stream has counter (b + 1, 0, substream, stream_id) and
    yields 4 words; a uniform is (word >> 11) * 2^-53.
    """
    _check_stream(master_seed, start)
    n_blocks = -(-k // 4)
    total = n_paths * n_blocks
    u = np.empty((total, 4))
    for g0 in range(0, total, _CHUNK_BLOCKS):
        g = np.arange(g0, min(total, g0 + _CHUNK_BLOCKS), dtype=np.uint64)
        path, block = np.divmod(g, np.uint64(n_blocks))
        words = _philox4x64(
            master_seed,
            block + np.uint64(1),
            np.zeros_like(g),
            np.full_like(g, substream),
            path + np.uint64(start),
        )
        u[g0 : g0 + g.size] = (words >> np.uint64(11)) * 2.0**-53
    return np.ascontiguousarray(u.reshape(n_paths, 4 * n_blocks)[:, :k])


def _clip_open(u: np.ndarray) -> np.ndarray:
    return np.clip(u, _TINY, 1.0 - _TINY)


# ---------------------------------------------------------------------------
# stable draws (Kanter / Chambers-Mallows-Stuck)
# ---------------------------------------------------------------------------

def _log_half_sin(phi):
    """log(sin(phi) / 2) = log(t / (1 + t^2)), t = tan(phi / 2), phi in (0, pi)."""
    t = np.tan(0.5 * phi)
    return np.log(t / (1.0 + t * t))


def stable_onesided_from_uniforms(u1, u2, gamma: float):
    """Standard one-sided gamma-stable draw with E[e^{-lam X}] = e^{-lam^gamma}
    by Kanter's transform in the log domain: X = exp(r (L((1-gamma) th) - log e)
    + L(gamma th) - L(th)/gamma), th = pi u1, e = -log(1 - u2), r = (1-gamma)/gamma,
    L(phi) = log(sin(phi)/2); the log 2 terms cancel (r + 1 - 1/gamma = 0).  No
    power leaves the float range, so every gamma, near 1 too, lies within about
    1e-13 (relative) of the exact transform at the float th.  L uses tan(phi/2):
    numpy's float64 tan, log and exp are vectorized, its sin a slower scalar loop."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        return np.ones_like(np.asarray(u1, dtype=float))
    th = _clip_open(np.asarray(u1, dtype=float)) * math.pi
    e = -np.log1p(-_clip_open(np.asarray(u2, dtype=float)))
    r = (1.0 - gamma) / gamma
    log_x = r * (_log_half_sin((1.0 - gamma) * th) - np.log(e)) + _log_half_sin(gamma * th)
    return np.exp(log_x - _log_half_sin(th) / gamma)


def stable_symmetric_from_uniforms(u1, u2, delta: float):
    """Standard symmetric delta-stable draw with E[e^{i u X}] = e^{-|u|^delta}."""
    if not 0.0 < delta <= 2.0:
        raise ValueError("delta must lie in (0, 2]")
    u1 = _clip_open(np.asarray(u1, dtype=float))
    u2 = _clip_open(np.asarray(u2, dtype=float))
    if delta == 2.0:
        return math.sqrt(2.0) * ndtri(u1)
    v = (u1 - 0.5) * math.pi
    e = -np.log1p(-u2)
    return (
        np.sin(delta * v)
        / np.cos(v) ** (1.0 / delta)
        * (np.cos((1.0 - delta) * v) / e) ** ((1.0 - delta) / delta)
    )


# The *_draws functions are the only draws of their random variables, for
# paths start .. start + n_paths - 1 in one array pass.  The array
# transforms round alike at every batch size, so a row never depends on
# the batch it came in.

def stable_subordinator_draws(
    gamma: float, t: float, master_seed: int, n_paths: int, start: int = 0
) -> np.ndarray:
    """Draws of the gamma-stable subordinator at time t:
    E[e^{-lam eta_t}] = e^{-t lam^gamma}; gamma = 1 is the identity."""
    bern = BernsteinSpec.stable_power(gamma)
    if t < 0:
        raise ValueError("t must be nonnegative")
    return subordinator_draws(bern, t, master_seed, n_paths, start)


def mixing_from_uniforms(u1, u2, beta: float):
    """The amplitude with Laplace transform E_beta(-.), realized as
    eta^{-beta} for a standard beta-stable draw eta."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    return stable_onesided_from_uniforms(u1, u2, beta) ** (-beta)


def A_stable_mixing_draws(
    beta: float, master_seed: int, n_paths: int, start: int = 0
) -> np.ndarray:
    """Draws of the amplitude of mixing_from_uniforms."""
    u = path_uniforms(master_seed, SUB_MIXING, n_paths, 2, start)
    return mixing_from_uniforms(u[:, 0], u[:, 1], beta)


def scriptA_draws(
    gamma: float, a_draws, master_seed: int, start: int = 0,
    substream: int = SUB_SUBORDINATOR,
) -> np.ndarray:
    """Draws of the combined amplitude A^{1/gamma} * eta_1, the gamma-stable
    subordinator at the time A, which splits the randomness of the
    subordinated time change from its t-dependence; a_draws holds A for
    paths start, start + 1, ..."""
    a = np.asarray(a_draws, dtype=float)
    bern = BernsteinSpec.stable_power(gamma)
    return subordinator_draws(bern, a, master_seed, a.size, start, substream)


# ---------------------------------------------------------------------------
# Bernstein functions and time-change laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BernsteinSpec:
    """Laplace exponent of a driftful sum of stable subordinators:

        f(lam) = drift * lam + sum_j w_j lam^{e_j},  e_j in (0, 1).

    ``identity`` is f(lam) = lam, (1, ()); ``stable_power`` is
    f(lam) = lam^gamma, (0, ((1, gamma),)).  The killing coefficient of the
    general triplet is fixed to zero.
    """

    drift: float
    terms: tuple[tuple[float, float], ...]  # (weight, exponent)

    def __post_init__(self) -> None:
        if self.drift < 0:
            raise ValueError("drift must be nonnegative")
        for w, e in self.terms:
            if w <= 0 or not 0.0 < e < 1.0:
                raise ValueError("terms need weight > 0 and exponent in (0,1)")

    @classmethod
    def identity(cls) -> "BernsteinSpec":
        return cls(1.0, ())

    @classmethod
    def stable_power(cls, gamma: float) -> "BernsteinSpec":
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if gamma == 1.0:
            return cls.identity()
        return cls(0.0, ((1.0, gamma),))

    @classmethod
    def drift_plus_stable_sum(cls, drift, terms) -> "BernsteinSpec":
        return cls(drift, tuple(terms))

    @property
    def stable_gamma(self) -> float | None:
        """gamma of f(lam) = lam^gamma (1 for the identity); None for any
        other form."""
        if self.drift == 1.0 and not self.terms:
            return 1.0
        if self.drift == 0.0 and len(self.terms) == 1 and self.terms[0][0] == 1.0:
            return self.terms[0][1]
        return None

    def value(self, lam):
        lam = np.asarray(lam, dtype=np.result_type(lam, float))  # real or complex
        acc = self.drift * lam if self.drift else 0.0  # 0 * inf would be nan
        for w, e in self.terms:
            acc = acc + w * lam**e
        return acc

    def increments_from_uniforms(self, u: np.ndarray, dt) -> np.ndarray:
        """Subordinator increments over times dt (a number, or an array that
        broadcasts against u's leading axes); u has shape
        (..., 2 * n_stable_terms).  A driftless form starts from its first
        stable term, not from an array of zeros."""
        acc = None if self.drift == 0.0 and self.terms else np.full(u.shape[:-1], self.drift * dt)
        for j, (w, e) in enumerate(self.terms):
            draw = stable_onesided_from_uniforms(u[..., 2 * j], u[..., 2 * j + 1], e)
            inc = (w * dt) ** (1.0 / e) * draw
            acc = inc if acc is None else acc + inc
        return acc

    @property
    def n_stable_terms(self) -> int:
        return len(self.terms)


def subordinator_draws(
    bern: BernsteinSpec, tau, master_seed: int, n_paths: int, start: int = 0,
    substream: int = SUB_SUBORDINATOR,
) -> np.ndarray:
    """Draws of eta^f at the times tau (a number, or one time per path)."""
    u = path_uniforms(master_seed, substream, n_paths, 2 * bern.n_stable_terms, start)
    return bern.increments_from_uniforms(u, tau)


# -- time-change laws -------------------------------------------------------

@dataclass(frozen=True)
class HomogeneousProductLaw:
    """A(t) = A * t^theta with an amplitude sampler for A."""

    theta: float
    mixing_from_uniforms: Callable  # (u1, u2) -> draws of A

    def sample_from_uniforms(self, t: float, u: np.ndarray):
        return self.mixing_from_uniforms(u[..., 0], u[..., 1]) * t**self.theta


@dataclass(frozen=True)
class NumericCDFLaw:
    """A(t) sampled by inverting a tabulated CDF per evaluation time.  Draws
    of one path at several t are the quantile coupling of the one-time laws,
    nondecreasing in t when A(t) increases stochastically, as E_t does."""

    cdf_for_t: Callable[[float], TimeLawCDF]

    def sample_from_uniforms(self, t: float, u: np.ndarray):
        cdf = self.cdf_for_t(t)
        return cdf.quantile(u[..., 0])


@dataclass(frozen=True)
class StretchedLaw:
    """Time-change law of the stretched equation: A_kappa(tau) = A(g(tau))."""

    base: object
    stretch: StretchFn


def _passage_scale(bern: BernsteinSpec, t: float) -> float:
    """Crude deterministic proxy for the passage time of level t."""

    def proxy(s: float) -> float:
        return bern.drift * s + sum((w * s) ** (1.0 / e) for w, e in bern.terms)

    hi = 1e-9
    while proxy(hi) < t and hi < 1e12:
        hi *= 2.0
    return hi


def first_passage(
    bern: BernsteinSpec, levels, n_paths: int, master_seed: int, dt: float,
    substream: int = SUB_SUBORDINATOR, chunk: int = 8192, max_chunks: int = 64, start: int = 0,
) -> np.ndarray:
    """(n_paths, len(levels)) first-passage times of eta^f above each of the
    ascending ``levels``, with linear bracketing inside the crossing step.

    Path i steps by dt through the stream of stream_id = start + i, at most
    ``max_chunks`` chunks of ``chunk`` steps; the running sum restarts at
    each chunk as level + cumsum(increments).  _GROUP_PATHS slots advance in
    lockstep sub-blocks of _SUB_STEPS steps, and a path gives up its slot to
    the next once it has crossed its last level.  Sub-blocks continue their
    chunk's partial sum and the generator fills sequentially, so the times
    depend on neither slot nor sub-block.
    """
    levels = np.asarray(levels, dtype=float)
    if not np.all(levels >= 0) or np.any(np.diff(levels) < 0):
        raise ValueError("levels must be nonnegative and ascending")
    out = np.empty((n_paths, levels.size))
    n_cols = 2 * bern.n_stable_terms
    step = math.gcd(chunk, _SUB_STEPS)  # sub-blocks never straddle a chunk
    # per slot: path (-1: free), first uncrossed level, steps taken, eta and
    # time at the chunk start, and the sum of the chunk's steps so far
    path = np.full(_GROUP_PATHS, -1)
    rngs = [None] * _GROUP_PATHS
    nxt, steps = np.zeros(_GROUP_PATHS, dtype=int), np.zeros(_GROUP_PATHS, dtype=int)
    base, partial, s_base = (np.zeros(_GROUP_PATHS) for _ in range(3))
    queued = 0
    while True:
        for q in np.flatnonzero(path < 0)[: n_paths - queued]:
            path[q], rngs[q] = queued, path_rng(master_seed, substream, start + queued)
            nxt[q] = steps[q] = 0
            base[q] = partial[q] = s_base[q] = 0.0
            queued += 1
        live = np.flatnonzero(path >= 0)
        if not live.size:
            return out
        u = np.empty((live.size, step, n_cols))
        for r, q in enumerate(live):
            rngs[q].random(out=u[r])
        inc = bern.increments_from_uniforms(u, dt)
        cs = np.cumsum(np.concatenate([partial[live, None], inc], axis=1), axis=1)
        partial[live] = cs[:, -1]
        css = base[live, None] + cs  # column 0: eta before the sub-block
        below = np.searchsorted(levels, css)  # levels below each eta
        hit = below[:, -1]
        n_hit = hit - nxt[live]
        if n_hit.any():
            r = np.repeat(np.arange(live.size), n_hit)
            k = np.repeat(nxt[live] - np.cumsum(n_hit) + n_hit, n_hit) + np.arange(r.size)
            lv, q = levels[k], live[r]
            # searchsorted(css[r], lv, "right"): etas with <= k levels below
            cells = below + (levels.size + 1) * np.arange(live.size)[:, None]
            counts = np.bincount(cells.ravel(), minlength=live.size * (levels.size + 1))
            idx = np.cumsum(counts.reshape(live.size, -1), axis=1)[r, k]
            eta_prev, eta_next = css[r, idx - 1], css[r, idx]
            frac = (lv - eta_prev) / np.maximum(eta_next - eta_prev, 1e-300)
            out[path[q], k] = s_base[q] + (steps[q] % chunk + idx - 1 + frac) * dt
            nxt[live] = hit
        steps[live] += step
        end = live[steps[live] % chunk == 0]
        base[end] += partial[end]
        partial[end] = 0.0
        s_base[end] += chunk * dt
        path[live[hit == levels.size]] = -1
        if np.any(steps[path >= 0] == max_chunks * chunk):
            raise GridTooCoarse(
                f"no passage above t={levels[-1]:g} within {max_chunks} chunks of "
                f"{chunk} steps (dt={dt:g})"
            )


def time_change_draws(
    law, t: float, master_seed: int, n_paths: int, start: int = 0,
    substream: int = SUB_MIXING,
) -> np.ndarray:
    """Draws of the time change A(t); A(0) = 0 almost surely."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return np.zeros(n_paths)
    if isinstance(law, StretchedLaw):
        return time_change_draws(
            law.base, law.stretch.g(t), master_seed, n_paths, start, substream
        )
    if isinstance(law, (HomogeneousProductLaw, NumericCDFLaw)):
        u = path_uniforms(master_seed, substream, n_paths, 2, start)
        return np.asarray(law.sample_from_uniforms(t, u), dtype=float)
    raise TypeError(f"unknown time-change law {type(law).__name__}")


# ---------------------------------------------------------------------------
# path grids, fractional Brownian motion, process paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathGrid:
    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def _fgn_eigenvalues(H: float, n: int) -> np.ndarray:
    """The n + 1 distinct eigenvalues of the minimal circulant embedding
    (rho_0 .. rho_n, rho_{n-1} .. rho_1) of the unit-step fractional
    Gaussian noise covariance rho_k = (|k+1|^{2H} + |k-1|^{2H}) / 2 - k^{2H}."""
    k = np.arange(n + 1.0)
    rho = 0.5 * ((k + 1.0) ** (2 * H) + np.abs(k - 1.0) ** (2 * H)) - k ** (2 * H)
    return np.fft.rfft(np.concatenate([rho, rho[-2:0:-1]])).real


def fbm_paths_batch(
    H: float,
    grid: PathGrid,
    master_seed: int,
    n_paths: int,
    substream: int = SUB_GAUSSIAN,
    start: int = 0,
) -> np.ndarray:
    """(n_paths, n_steps+1) exact-covariance fractional Brownian paths by
    circulant embedding (Davies & Harte 1987; Wood & Chan 1994).

    The minimal embedding of the n-step noise covariance has order 2n; its
    eigenvalues are nonnegative for every H in (0, 1) on the grids tried
    (up to 2^16 steps), and a grid where they are not raises InvalidHurst.
    Path i takes the 2n normals of its stream: z_0 and z_n for the real
    end frequencies, z_k + i z_{n+k} for frequency k in 1 .. n-1, and one
    inverse real FFT of the half spectrum gives its noise.
    """
    if not 0.0 < H < 1.0:
        raise InvalidHurst(f"Hurst parameter H = {H:g} must lie in (0, 1)")
    n = grid.n_steps
    g = _fgn_eigenvalues(H, n)
    if np.min(g) < -1e-9 * np.max(g):
        raise InvalidHurst(
            f"the circulant embedding of fractional Gaussian noise at H = {H:g} "
            f"on {n} steps has a negative eigenvalue ({np.min(g):.3g})"
        )
    amp = np.sqrt(np.maximum(g, 0.0))
    amp[1:n] *= math.sqrt(0.5)
    z = ndtri(_clip_open(path_uniforms(master_seed, substream, n_paths, 2 * n, start)))
    half = np.zeros((n_paths, n + 1), dtype=complex)
    half.real = z[:, : n + 1]
    half.imag[:, 1:n] = z[:, n + 1 :]
    fgn = np.fft.irfft(amp * half, 2 * n, axis=1, norm="ortho")[:, :n]
    paths = np.empty((n_paths, n + 1))
    paths[:, 0] = 0.0
    paths[:, 1:] = np.cumsum(fgn, axis=1) * (grid.horizon / n) ** H
    return paths


def rsgp_paths(
    kind: str, cal_a, gamma: float, theta: float, grid: PathGrid, master_seed: int,
    start: int = 0, substream: int = SUB_GAUSSIAN,
) -> np.ndarray:
    """(n, n_steps+1) paths of the randomly scaled Gaussian representation,
    row i from the stream of path start + i, conditioned on its amplitude
    cal_a[i].

    kind: 'timechanged_bm'  B at the transformed times  a * t^{theta/gamma},
          'scaled_bm'       sqrt(a) * B at times t^{theta/gamma},
          'scaled_fbm'      sqrt(a) * fractional Brownian path, Hurst
                            H = theta/(2 gamma).
    """
    cal_a = np.asarray(cal_a, dtype=float)
    if np.any(cal_a < 0):
        raise ValueError("amplitude must be nonnegative")
    n = cal_a.size
    if kind == "scaled_fbm":
        paths = fbm_paths_batch(theta / (2.0 * gamma), grid, master_seed, n, substream, start)
    elif kind in ("timechanged_bm", "scaled_bm"):
        s = grid.nodes ** (theta / gamma)
        clock = cal_a[:, None] * s if kind == "timechanged_bm" else s
        z = ndtri(_clip_open(path_uniforms(master_seed, substream, n, grid.n_steps, start)))
        paths = np.empty((n, grid.n_steps + 1))
        paths[:, 0] = 0.0
        np.cumsum(np.sqrt(np.diff(clock, axis=-1)) * z, axis=1, out=paths[:, 1:])
    else:
        raise ValueError(f"unknown representation kind {kind!r}")
    if kind != "timechanged_bm":
        paths *= np.sqrt(cal_a)[:, None]
    return paths
