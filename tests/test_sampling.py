"""Distributional conformance of every sampler against its Laplace
transform / covariance, plus the reproducibility contract of the
counter-based streams."""

import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp

from subfrac import sampling
from subfrac.sampling import (
    SUB_MIXING,
    SUB_SUBORDINATOR,
    A_stable_mixing_draws,
    BernsteinSpec,
    GridTooCoarse,
    HomogeneousProductLaw,
    InvalidHurst,
    NumericCDFLaw,
    PathGrid,
    fbm_paths_batch,
    first_passage,
    mixing_from_uniforms,
    path_uniforms,
    rsgp_paths,
    scriptA_draws,
    stable_onesided_from_uniforms,
    stable_subordinator_draws,
    time_change_draws,
)
from subfrac.fk import derive_time_change_law
from subfrac.kernels import ConvMultinomialMLKernel
from subfrac.phi import ClosedFormPhi, inverse_subordinator_cdf
from subfrac.specfun import mittag_leffler

SEED = 20240817


def mc_dev(samples, target):
    """(sample mean - target) in units of the empirical standard error."""
    se = np.std(samples, ddof=1) / math.sqrt(len(samples))
    return (np.mean(samples) - target) / se


class TestSeedContract:
    def test_seed_validation(self):
        for seed, stream, message in (
            (-1, 0, r"^seed must lie in \[0, 2\^64\), got -1$"),
            (2**64, 0, r"^seed must lie in \[0, 2\^64\), got 18446744073709551616$"),
            (1, -2, r"^stream id must be nonnegative, got -2$"),
        ):
            with pytest.raises(ValueError, match=message):
                path_uniforms(seed, 0, 3, 2, start=stream)
            with pytest.raises(ValueError, match=message):
                sampling.path_rng(seed, 0, stream)
        # the bounds themselves are valid
        assert path_uniforms(2**64 - 1, 0, 1, 2).shape == (1, 2)
        sampling.path_rng(0, 0, 0)

    def test_chunking_invariance(self):
        whole = path_uniforms(SEED, 2, 100, 3)
        tail = path_uniforms(SEED, 2, 40, 3, start=60)
        assert np.array_equal(whole[60:], tail)

    def test_scalar_equals_batch_row(self):
        v = stable_subordinator_draws(0.5, 1.0, SEED, 1, start=7)[0]
        u = path_uniforms(SEED, SUB_SUBORDINATOR, 1, 2, start=7)
        assert v == float(stable_onesided_from_uniforms(u[0, 0], u[0, 1], 0.5))
        assert v == stable_subordinator_draws(0.5, 1.0, SEED, 10)[7]

    def test_substreams_differ(self):
        a = path_uniforms(SEED, 0, 5, 4)
        b = path_uniforms(SEED, 1, 5, 4)
        assert not np.allclose(a, b)


def reference_rows(seed, substream, n, k, start):
    """numpy's own Philox generator, one per path (the counter goes in as a
    uint64 array; a list of ints above 2^63 would be read as float64)."""
    return [
        np.random.Generator(
            np.random.Philox(
                key=seed,
                counter=np.array([0, 0, substream, start + i], dtype=np.uint64),
            )
        ).random(k)
        for i in range(n)
    ]


SEEDS = st.integers(0, 2**64 - 1)
SUBSTREAMS = st.integers(0, 2**64 - 1)
STARTS = st.integers(0, 2**64 - 2**10)


class TestEngineMatchesNumpyPhilox:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=SEEDS,
        substream=SUBSTREAMS,
        start=STARTS,
        n=st.integers(0, 50),
        k=st.integers(1, 300),
    )
    @example(seed=2**63, substream=2, start=0, n=3, k=7)
    @example(seed=2**64 - 1, substream=0, start=5, n=2, k=257)
    def test_rows_match_reference(self, seed, substream, start, n, k):
        got = path_uniforms(seed, substream, n, k, start)
        assert got.shape == (n, k)
        for i, ref in enumerate(reference_rows(seed, substream, n, k, start)):
            assert np.array_equal(got[i], ref)
            # the lazily drawn first-passage streams are the same streams
            lazy = sampling.path_rng(seed, substream, start + i)
            assert np.array_equal(lazy.random(k), ref)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=SEEDS,
        substream=SUBSTREAMS,
        start=STARTS,
        sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4),
        k=st.integers(1, 1200),
    )
    def test_chunking_invariance(self, seed, substream, start, sizes, k):
        whole = path_uniforms(seed, substream, sum(sizes), k, start)
        offsets = np.cumsum([0] + sizes[:-1])
        parts = [
            path_uniforms(seed, substream, m, k, start + int(o))
            for m, o in zip(sizes, offsets)
        ]
        assert np.array_equal(whole, np.concatenate(parts))


class TestStableSubordinator:
    def test_degenerate(self):
        assert np.all(stable_subordinator_draws(1.0, 2.5, SEED, 3) == 2.5)

    def test_laplace_conformance(self):
        n = 100_000
        u = path_uniforms(SEED, 1, n, 2)
        for gamma in (0.5, 0.8):
            s = stable_onesided_from_uniforms(u[:, 0], u[:, 1], gamma)
            for lam in (0.5, 1.0, 2.0):
                dev = mc_dev(np.exp(-lam * s), math.exp(-(lam**gamma)))
                assert abs(dev) < 4.0, (gamma, lam, dev)

    def test_scaling_law(self):
        # draws at time t are t^{1/gamma} times the unit-time draws
        s1 = stable_subordinator_draws(0.5, 1.0, SEED, 1, start=3)[0]
        s2 = stable_subordinator_draws(0.5, 4.0, SEED, 1, start=3)[0]
        assert s2 == pytest.approx(16.0 * s1, rel=1e-12)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            stable_onesided_from_uniforms(0.5, 0.5, 1.5)


class TestStableNearOne:
    """Kanter's powers 1/(1 - gamma) leave the float range for gamma near 1;
    the transform is evaluated in the log domain at every gamma."""

    @pytest.mark.parametrize("gamma", [0.99, 0.995, 0.999])
    def test_draws_finite_positive_and_stable(self, gamma):
        n = 100_000
        u = path_uniforms(SEED, 1, n, 2)
        with np.errstate(all="raise"):
            s = stable_onesided_from_uniforms(u[:, 0], u[:, 1], gamma)
        assert np.all(np.isfinite(s) & (s > 0.0))
        for lam in (0.5, 1.0, 2.0):
            dev = mc_dev(np.exp(-lam * s), math.exp(-(lam**gamma)))
            assert abs(dev) < 4.0, (gamma, lam, dev)

    @pytest.mark.parametrize("gamma", [0.3, 0.62, 0.9, 0.99, 0.999])
    def test_matches_high_precision_kanter(self, gamma):
        # Kanter's formula in 50-digit mpmath at the float th = pi * u1 and
        # e = -log(1 - u2) from the (clipped) uniform, including boundary
        # uniforms that the transform clips to [1e-15, 1 - 1e-15]
        u = path_uniforms(SEED, 2, 4000, 2)
        edge = np.array([0.0, 1e-16, 1.0 - 1e-16])
        u = np.concatenate([u, np.stack(np.meshgrid(edge, edge), axis=-1).reshape(-1, 2)])
        got = stable_onesided_from_uniforms(u[:, 0], u[:, 1], gamma)
        uc = np.clip(u, 1e-15, 1.0 - 1e-15)
        th = uc[:, 0] * math.pi
        with mp.workdps(50):
            g = mp.mpf(gamma)
            for x, t, u2 in zip(got, th, uc[:, 1]):
                t = mp.mpf(t)
                a = mp.sin((1 - g) * t) * mp.sin(g * t) ** (g / (1 - g)) / mp.sin(t) ** (1 / (1 - g))
                ref = (a / -mp.log1p(-mp.mpf(u2))) ** ((1 - g) / g)
                assert abs(x - ref) <= 1e-12 * ref, (gamma, t, u2, x, ref)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=SEEDS,
        n=st.integers(1, 4),
        steps=st.integers(1, 70),
        m=st.integers(1, 3),
        gamma=st.floats(0.05, 0.999),
    )
    @example(seed=1, n=3, steps=64, m=2, gamma=0.999)
    def test_bits_independent_of_layout(self, seed, n, steps, m, gamma):
        # first_passage hands over the strided columns of an (n, steps, 2m)
        # block; copies, one-row blocks and scalar calls give the same bits
        u = path_uniforms(seed, SUB_SUBORDINATOR, n, steps * 2 * m).reshape(n, steps, 2 * m)
        u[0, 0, :2] = (0.0, 1.0 - 2.0**-53)
        strided = stable_onesided_from_uniforms(u[..., 0], u[..., 1], gamma)
        assert np.array_equal(strided, stable_onesided_from_uniforms(
            np.ascontiguousarray(u[..., 0]), np.ascontiguousarray(u[..., 1]), gamma
        ))
        for i in range(n):
            row = u[i : i + 1]
            assert np.array_equal(
                strided[i : i + 1], stable_onesided_from_uniforms(row[..., 0], row[..., 1], gamma)
            )
            for j in range(steps):
                one = stable_onesided_from_uniforms(float(u[i, j, 0]), float(u[i, j, 1]), gamma)
                assert one == strided[i, j]


class TestMixingVariable:
    def test_degenerate(self):
        assert np.all(A_stable_mixing_draws(1.0, SEED, 3) == 1.0)

    def test_laplace_transform_is_mittag_leffler(self):
        n = 100_000
        u = path_uniforms(SEED, 0, n, 2)
        for beta in (0.5, 0.6, 0.8):
            a = mixing_from_uniforms(u[:, 0], u[:, 1], beta)
            for lam in (0.5, 1.0, 2.0):
                dev = mc_dev(np.exp(-lam * a), mittag_leffler(beta, -lam))
                assert abs(dev) < 4.0, (beta, lam, dev)

    def test_mean_matches_series_coefficient(self):
        n = 100_000
        u = path_uniforms(SEED, 0, n, 2)
        a = mixing_from_uniforms(u[:, 0], u[:, 1], 0.6)
        assert abs(mc_dev(a, 1.0 / math.gamma(1.6))) < 4.0


SUM_KERNEL = ConvMultinomialMLKernel(0.62, (0.3,), (0.5,))  # k^ = 1/(p^0.62 + 0.5 p^0.3)
DRIFT_KERNEL = ConvMultinomialMLKernel(1.0, (0.5,), (1.0,))  # k^ = 1/(p + p^0.5)
# Bernstein function of E_t and its Laplace transform Phi(t, -lam)
INVERSE_SUBORDINATORS = {
    "stable": (BernsteinSpec.stable_power(0.5), lambda t, lam: mittag_leffler(0.5, lam * t**0.5)),
    "sum": (BernsteinSpec(0.0, ((1.0, 0.62), (0.5, 0.3))), ClosedFormPhi(SUM_KERNEL).value),
    "drift": (BernsteinSpec(1.0, ((1.0, 0.5),)), ClosedFormPhi(DRIFT_KERNEL).value),
}


def exact_law(bern):
    return NumericCDFLaw(cdf_for_t=partial(inverse_subordinator_cdf, bern))


class TestTimeChange:
    LAW = HomogeneousProductLaw(
        theta=0.8,
        mixing_from_uniforms=lambda u1, u2: mixing_from_uniforms(u1, u2, 0.6),
    )

    def test_zero_time(self):
        assert np.all(time_change_draws(self.LAW, 0.0, SEED, 3, start=5) == 0.0)

    def test_product_scaling_exact(self):
        a1 = time_change_draws(self.LAW, 1.0, SEED, 1, start=5)[0]
        a2 = time_change_draws(self.LAW, 2.0, SEED, 1, start=5)[0]
        assert a2 == pytest.approx(2.0**0.8 * a1, rel=1e-12)

    def test_inverse_subordinator_paths_monotone(self):
        # quantiles of one uniform under E_t, which increases stochastically in t
        for bern, _ in INVERSE_SUBORDINATORS.values():
            draws = [time_change_draws(exact_law(bern), t, SEED, 2000, start=11)
                     for t in (0.25, 0.5, 1.0, 1.5, 2.0)]
            assert np.all(np.diff(draws, axis=0) >= 0.0)

    def test_inverse_subordinator_transform(self):
        # E[e^{-lam E_t}] = Phi(t, -lam) at 1e5 exact-CDF draws
        for case, (bern, phi) in INVERSE_SUBORDINATORS.items():
            for t in (0.5, 1.0, 1.5):
                e = time_change_draws(exact_law(bern), t, SEED, 100_000)
                for lam in (0.5, 2.0, 5.0):
                    dev = mc_dev(np.exp(-lam * e), phi(t, -lam))
                    assert abs(dev) < 4.0, (case, t, lam, dev)

    @pytest.mark.parametrize("kernel, case", [(SUM_KERNEL, "sum"), (DRIFT_KERNEL, "drift")])
    def test_conv_kernel_law_matches_first_passage(self, kernel, case):
        # the kernel's law is E_t of h = 1/k^; a two-sample KS test at the
        # 5% level against simulated first passage
        bern = INVERSE_SUBORDINATORS[case][0]
        law = derive_time_change_law(kernel, [1.0])
        assert (law.cdf_for_t.func, law.cdf_for_t.args) == (inverse_subordinator_cdf, (bern,))
        dt = sampling._passage_scale(bern, 1.0) / 2**12
        passages = first_passage(bern, [1.0], 4000, SEED, dt)[:, 0]
        assert ks_2samp(time_change_draws(law, 1.0, SEED, 4000), passages).pvalue > 0.05

    def test_numeric_cdf_law(self):
        from subfrac.kernels import GGBMKernel
        from subfrac.phi import ClosedFormPhi, time_law_cdf

        cdf = time_law_cdf(
            ClosedFormPhi(GGBMKernel(0.8, 0.5)), 1.0, np.linspace(0.05, 6.0, 80)
        )
        law = NumericCDFLaw(cdf_for_t=lambda t: cdf)
        u = path_uniforms(SEED, 0, 50_000, 1)
        a = law.sample_from_uniforms(1.0, u)
        dev = mc_dev(np.exp(-a), mittag_leffler(0.5, -1.0))
        assert abs(dev) < 5.0  # inversion bias allowed within the MC band


def passage_reference(bern, levels, n_paths, seed, dt, substream, chunk, max_chunks, start):
    """First passage one path at a time, as whole chunks of ``chunk`` steps
    from each path's generator with level + cumsum restarted per chunk."""
    n_cols = 2 * bern.n_stable_terms
    out = np.full((n_paths, len(levels)), np.nan)
    for i in range(n_paths):
        rng = sampling.path_rng(seed, substream, start + i)
        level, s_base = 0.0, 0.0
        for _ in range(max_chunks):
            inc = bern.increments_from_uniforms(rng.random((chunk, n_cols)), dt)
            css = level + np.cumsum(inc)
            for j, t in enumerate(levels):
                if np.isnan(out[i, j]) and t < css[-1]:
                    idx = np.searchsorted(css, t, side="right")
                    eta_prev = css[idx - 1] if idx > 0 else level
                    frac = (t - eta_prev) / max(css[idx] - eta_prev, 1e-300)
                    out[i, j] = s_base + (idx + frac) * dt
            if not np.isnan(out[i]).any():
                break
            level = css[-1]
            s_base += chunk * dt
    return out


MIXED = BernsteinSpec.drift_plus_stable_sum(0.1, [(1.0, 0.6), (0.5, 0.3)])


class TestFirstPassage:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=SEEDS,
        start=st.integers(0, 2**40),
        n_paths=st.integers(1, 40),
        n_levels=st.sampled_from([1, 96]),
        gamma=st.floats(0.3, 0.9),
        mixed=st.booleans(),
        chunk=st.sampled_from([512, 768, 1024]),
    )
    @example(seed=3, start=5, n_paths=33, n_levels=96, gamma=0.5, mixed=False, chunk=512)
    @example(seed=2**63, start=0, n_paths=17, n_levels=1, gamma=0.4, mixed=True, chunk=768)
    def test_matches_per_path_reference(self, seed, start, n_paths, n_levels, gamma, mixed, chunk):
        bern = MIXED if mixed else BernsteinSpec.stable_power(gamma)
        levels = np.linspace(0.05, 1.5, n_levels) if n_levels > 1 else np.array([0.8])
        dt = sampling._passage_scale(bern, 1.0) / 512
        args = (bern, levels, n_paths, seed, dt, 6)
        got = first_passage(*args, chunk=chunk, max_chunks=64, start=start)
        ref = passage_reference(*args, chunk, 64, start)
        assert np.array_equal(got, ref)

    def test_crossings_after_several_chunks(self):
        bern = BernsteinSpec.stable_power(0.5)
        levels = np.linspace(0.5, 4.0, 8)
        dt = sampling._passage_scale(bern, 1.0) / 512
        got = first_passage(bern, levels, 21, SEED, dt, chunk=1024, start=9)
        ref = passage_reference(bern, levels, 21, SEED, dt, SUB_SUBORDINATOR, 1024, 64, 9)
        assert np.array_equal(got, ref)
        # many crossings in the second chunk, some in the third or later
        assert np.sum(got > 1024 * dt) > 20 and np.any(got > 2 * 1024 * dt)

    def test_grid_too_coarse_message(self):
        bern = BernsteinSpec.stable_power(0.5)
        with pytest.raises(
            GridTooCoarse, match=r"^no passage above t=1 within 64 chunks of 8192 steps \(dt="
        ):
            first_passage(bern, [1.0], 3, SEED, sampling._passage_scale(bern, 1.0) / 2**30)

    def test_bad_levels_rejected(self):
        bern = BernsteinSpec.stable_power(0.5)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            time_change_draws(exact_law(bern), -1.0, 3, 1)
        with pytest.raises(ValueError, match="ascending"):
            first_passage(bern, [1.0, 0.5], 3, 1, 1e-3)


class TestScriptA:
    def test_gamma_one_reduces_to_amplitude(self):
        a = A_stable_mixing_draws(0.6, SEED, 5, start=4)
        assert np.array_equal(scriptA_draws(1.0, a, SEED, start=4), a)

    def test_transform_identity(self):
        # E[e^{-lam script_A t^{theta/gamma}}] = Phi(t, -lam^gamma) at t = 1
        n = 100_000
        gamma = 0.5
        um = path_uniforms(SEED, 0, n, 2)
        us = path_uniforms(SEED, 1, n, 2)
        amp = mixing_from_uniforms(um[:, 0], um[:, 1], 0.6)
        eta = stable_onesided_from_uniforms(us[:, 0], us[:, 1], gamma)
        cal_a = amp ** (1.0 / gamma) * eta
        dev = mc_dev(np.exp(-cal_a), mittag_leffler(0.6, -1.0))
        assert abs(dev) < 4.0

    def test_nonnegative(self):
        assert np.all(scriptA_draws(0.7, A_stable_mixing_draws(0.5, SEED, 50), SEED) >= 0.0)


class TestHelpersAreRowsOfOneArrayFunction:
    """Row i of each array function is its call at n_paths=1, start=i, bit
    for bit, and that function is the array arithmetic of the solvers, on
    their substreams."""

    N = 2000

    def draws(self, name):
        """(array function, solver arithmetic, one path i) of one variable."""
        from subfrac.kernels import make_kernel

        n = self.N
        um = path_uniforms(SEED, SUB_MIXING, n, 2)
        us = path_uniforms(SEED, SUB_SUBORDINATOR, n, 2)
        if name == "stable":
            return (
                stable_subordinator_draws(0.37, 1.3, SEED, n),
                1.3 ** (1.0 / 0.37) * stable_onesided_from_uniforms(us[:, 0], us[:, 1], 0.37),
                lambda i: stable_subordinator_draws(0.37, 1.3, SEED, 1, i),
            )
        if name == "mixing":
            return (
                A_stable_mixing_draws(0.63, SEED, n),
                mixing_from_uniforms(um[:, 0], um[:, 1], 0.63),
                lambda i: A_stable_mixing_draws(0.63, SEED, 1, i),
            )
        if name == "script_a":
            amp = mixing_from_uniforms(um[:, 0], um[:, 1], 0.7)
            eta1 = stable_onesided_from_uniforms(us[:, 0], us[:, 1], 0.55)
            return (
                scriptA_draws(0.55, A_stable_mixing_draws(0.7, SEED, n), SEED),
                amp ** (1.0 / 0.55) * eta1,
                lambda i: scriptA_draws(0.55, A_stable_mixing_draws(0.7, SEED, 1, i), SEED, i),
            )
        spec = {
            "ggbm": {"family": "ggbm", "alpha": 0.8, "beta": 0.6},
            "msm_numeric_cdf": {"family": "msm", "a": 1.5, "b": 1.0, "mu": 0.3, "nu": 1.5},
            "inverse_subordinator": {"family": "conv_multinomial_ml", "beta": 0.62,
                                     "betas": [0.3], "bs": [0.5]},
        }[name]
        law = derive_time_change_law(make_kernel(spec), [1.2])
        return (
            time_change_draws(law, 1.2, SEED, n),
            law.sample_from_uniforms(1.2, um),
            lambda i: time_change_draws(law, 1.2, SEED, 1, i),
        )

    @pytest.mark.parametrize(
        "name",
        ["stable", "mixing", "script_a", "ggbm", "msm_numeric_cdf", "inverse_subordinator"],
    )
    def test_helper_is_row_of_array_function(self, name):
        batch, solver, one_path = self.draws(name)
        rows = np.concatenate([one_path(i) for i in range(self.N)])
        assert np.array_equal(rows, solver), f"{np.mean(rows != solver):.1%} of rows differ"
        assert np.array_equal(batch, solver)
        assert isinstance(batch, np.ndarray)


class TestFBM:
    def test_starts_at_zero(self):
        p = fbm_paths_batch(0.7, PathGrid(1.0, 32), SEED, 3)
        assert np.all(p[:, 0] == 0.0)

    def test_brownian_case_independent_increments(self):
        paths = fbm_paths_batch(0.5, PathGrid(1.0, 16), SEED, 30_000)
        inc = np.diff(paths, axis=1)
        rho = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
        assert abs(rho) < 3.0 / math.sqrt(30_000)

    def test_covariance_structure(self):
        # E[B^H_t B^H_s] = (t^{2H} + s^{2H} - |t-s|^{2H}) / 2 at (t, s) = (1, 1/4)
        H = 0.7
        paths = fbm_paths_batch(H, PathGrid(1.0, 16), SEED, 50_000)
        prod = paths[:, -1] * paths[:, 4]
        target = 0.5 * (1.0 + 0.25 ** (2 * H) - 0.75 ** (2 * H))
        assert abs(mc_dev(prod, target)) < 4.0

    def test_variance_scaling(self):
        H = 0.3
        paths = fbm_paths_batch(H, PathGrid(2.0, 32), SEED, 30_000)
        dev = mc_dev(paths[:, -1] ** 2, 2.0 ** (2 * H))
        assert abs(dev) < 4.0

    def test_hurst_validation(self):
        with pytest.raises(InvalidHurst):
            fbm_paths_batch(1.2, PathGrid(1.0, 8), SEED, 1)

    def test_embedding_nonnegative(self):
        # the minimal circulant embedding (rho_0 .. rho_n, rho_{n-1} .. rho_1)
        # is nonnegative over the H grid at every grid size tried
        for n in (1, 2, 16, 64, 2049, 4096):
            for H in np.linspace(0.005, 0.995, 199):
                g = sampling._fgn_eigenvalues(H, n)
                assert g.min() >= -1e-9 * g.max(), (H, n)

    def test_covariance_at_high_hurst(self):
        H, n = 0.95, 64
        paths = fbm_paths_batch(H, PathGrid(1.0, n), SEED, 20_000)
        for j in (16, 64):  # E[B_1 B_s] at s = 1/4 and 1
            s = j / n
            target = 0.5 * (1.0 + s ** (2 * H) - (1.0 - s) ** (2 * H))
            assert abs(mc_dev(paths[:, -1] * paths[:, j], target)) < 4.0
        noise = np.diff(paths, axis=1) * n**H  # unit-step noise, lag-1 covariance
        assert abs(mc_dev(noise[:, 0] * noise[:, 1], 2.0 ** (2 * H - 1) - 1.0)) < 4.0


class TestRSGP:
    def test_marginals_agree_across_kinds(self):
        grid = PathGrid(1.0, 32)
        n = 20_000
        finals = {}
        for kind in ("timechanged_bm", "scaled_bm", "scaled_fbm"):
            finals[kind] = rsgp_paths(kind, np.full(n // 10, 0.7), 1.0, 0.8, grid, SEED)[:, -1]
        keys = list(finals)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                a, b = finals[keys[i]], finals[keys[j]]
                joint = math.hypot(
                    np.std(a ** 2, ddof=1) / math.sqrt(len(a)),
                    np.std(b ** 2, ddof=1) / math.sqrt(len(b)),
                )
                assert abs(np.mean(a**2) - np.mean(b**2)) < 4.0 * joint

    def test_zero_amplitude_scaled_kinds(self):
        grid = PathGrid(1.0, 8)
        for kind in ("scaled_bm", "scaled_fbm"):
            p = rsgp_paths(kind, [0.0], 1.0, 0.8, grid, SEED, start=1)
            assert np.all(p == 0.0)

    def test_invalid_hurst(self):
        with pytest.raises(InvalidHurst):
            rsgp_paths("scaled_fbm", [1.0], 0.5, 1.9, PathGrid(1.0, 8), SEED)


class TestPathHelpersAreRowsOfOneArrayFunction:
    """Path i of fk.base_positions and sampling.rsgp_paths is their
    one-row call at start=i."""

    N, GRID, HORIZON, X0 = 50, PathGrid(2.0, 24), 1.3, 0.4

    def times(self):
        return np.tile(self.GRID.nodes[1:] * (self.HORIZON / self.GRID.horizon), (self.N, 1))

    def one_rows(self, base):
        from subfrac.fk import base_positions

        times = self.times()[:1]
        return [base_positions(base, self.X0, times, SEED, start=i)[0] for i in range(self.N)]

    @pytest.mark.parametrize("name", ["brownian", "stable"])
    def test_markov_path_is_row_of_base_positions(self, name):
        from subfrac.fk import BrownianDrift, StableLevy, base_positions

        base = BrownianDrift(0.3) if name == "brownian" else StableLevy(1.2)
        batch = base_positions(base, self.X0, self.times(), SEED)
        assert np.array_equal(np.array(self.one_rows(base)), batch)

    def test_flow_path_is_row_of_base_positions(self):
        from subfrac.fk import DossSussmann, base_positions

        base = DossSussmann(sigma=lambda z: 1.0 + 0.5 * math.sin(z), w=0.2)
        batch = base_positions(base, self.X0, self.times(), SEED)
        for i, path in enumerate(self.one_rows(base)):
            # flow_map reads fixed trajectory nodes, so a row of a larger
            # batch is the same value too
            assert np.max(np.abs(path - batch[i])) < 1e-8

    @pytest.mark.parametrize("kind", ["timechanged_bm", "scaled_bm", "scaled_fbm"])
    def test_rsgp_path_is_row_of_rsgp_paths(self, kind):
        amps = 0.2 + 0.05 * np.arange(self.N)
        batch = rsgp_paths(kind, amps, 0.7, 0.8, self.GRID, SEED)
        rows = np.concatenate(
            [rsgp_paths(kind, [a], 0.7, 0.8, self.GRID, SEED, start=i) for i, a in enumerate(amps)]
        )
        assert np.array_equal(rows, batch)


def base_finals(base, grid, n, x0=0.0, start=0):
    """(n, n_steps) positions of the base process on the grid's later nodes."""
    from subfrac.fk import base_positions

    return base_positions(base, x0, np.tile(grid.nodes[1:], (n, 1)), SEED, start=start)


class TestMarkovPaths:
    @pytest.mark.parametrize("horizon", [-1.0, 0.0])
    def test_nonpositive_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive"):
            PathGrid(horizon, 8)

    def test_brownian_moments(self):
        from subfrac.fk import BrownianDrift

        finals = base_finals(BrownianDrift(2.0), PathGrid(1.0, 16), 20_000)[:, -1]
        assert abs(mc_dev(finals, 2.0)) < 4.0
        assert np.var(finals) == pytest.approx(1.0, rel=0.05)

    def test_stable_characteristic_function(self):
        from subfrac.fk import StableLevy

        finals = base_finals(StableLevy(1.5), PathGrid(1.0, 8), 20_000)[:, -1]
        # E[e^{i u X_1}] = exp(-(u^2/2)^{delta/2}) at u = 1
        target = math.exp(-(0.5**0.75))
        dev = mc_dev(np.cos(finals), target)
        assert abs(dev) < 4.0

    def test_flow_path_constant_sigma(self):
        from subfrac.fk import BrownianDrift, DossSussmann

        grid = PathGrid(1.0, 16)
        model = DossSussmann(sigma=lambda z: 3.0, w=0.5)
        p = base_finals(model, grid, 1, x0=1.0, start=2)
        # g(y, x) = x + 3 y, driver = B + 0.5 t
        b = base_finals(BrownianDrift(0.5), grid, 1, start=2)
        assert np.allclose(p, 1.0 + 3.0 * b, atol=1e-7)
