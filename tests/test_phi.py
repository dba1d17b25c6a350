"""Three-way agreement of the memory-function evaluators plus the
complete-monotonicity checks and the Laplace-inversion CDF."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from subfrac import phi as phi_module

from subfrac.kernels import (
    CACHE_SIZE,
    ConvMultinomialMLKernel,
    ConvPowerSumKernel,
    CustomKernel,
    FractionalPowerKernel,
    GGBMKernel,
    MSMKernel,
)
from subfrac.phi import (
    ClosedFormPhi,
    InversionUnstable,
    NoClosedForm,
    SeriesPhi,
    VolterraPhi,
    check_complete_monotone,
    gaver_stehfest,
    phi_closed,
    phi_series,
    phi_volterra,
    time_law_cdf,
)
from subfrac.series import TruncationBudgetExceeded
from subfrac.specfun import mittag_leffler

# Gamma(1.5) E^1_{1/2,3/2}(-1), brute-force series at 50 digits
MSM_PHI_AT_1_M1 = 0.50729084738210196063

GGBM = GGBMKernel(0.8, 0.6)
MSM = MSMKernel(a=2.0, b=1.0, mu=0.5, nu=2.0)


class TestClosedForms:
    def test_exponential_case(self):
        k = GGBMKernel(0.9, 1.0)
        assert phi_closed(k, 1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_ggbm_is_mittag_leffler(self):
        for t in (0.3, 1.0):
            for lam in (-3.0, -0.5, 0.4):
                assert phi_closed(GGBM, t, lam) == pytest.approx(
                    mittag_leffler(0.6, lam * t**0.8), rel=1e-12
                )

    def test_msm_prabhakar_parameters(self):
        # (q1, q2, q3) = (1/2, 3/2, 1) for this parameter set
        assert phi_closed(MSM, 1.0, -1.0) == pytest.approx(MSM_PHI_AT_1_M1, abs=1e-13)

    def test_no_closed_form(self):
        k = CustomKernel(fn=lambda t, s: np.ones_like(s))
        with pytest.raises(NoClosedForm):
            phi_closed(k, 1.0, -1.0)
        with pytest.raises(NoClosedForm):
            ClosedFormPhi(k)

    def test_at_time_zero(self):
        assert phi_closed(GGBM, 0.0, -3.0) == 1.0

    @pytest.mark.parametrize("kernel", [GGBM, FractionalPowerKernel(0.37)])
    def test_values_batch_matches_scalar_map(self, kernel):
        ev = ClosedFormPhi(kernel)
        lams = -0.5 * np.linspace(0.0, 9.0, 97) ** 2
        for t in (0.0, 0.3, 1.0, 1.7):
            got = ev.values(t, lams)
            ref = np.array([ev.value(t, lam) for lam in lams])
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_values_falls_back_to_scalar_map(self):
        # a positive argument, beta = 1 and a Prabhakar closed form
        lams = np.array([-2.0, 0.5, -0.1])
        for kernel in (GGBM, FractionalPowerKernel(1.0), MSM):
            ev = ClosedFormPhi(kernel)
            assert np.array_equal(ev.values(1.0, lams), [ev.value(1.0, lam) for lam in lams])


class TestSeriesEvaluator:
    def test_lambda_zero_is_one(self):
        for k in (GGBM, MSM):
            assert SeriesPhi(k).value(0.7, 0.0) == 1.0

    def test_time_zero_is_one(self):
        assert SeriesPhi(GGBM).value(0.0, -3.0) == 1.0

    def test_homogeneous_route_matches_closed(self):
        for k in (GGBM, MSM, FractionalPowerKernel(0.5)):
            sp = SeriesPhi(k)
            for t in np.linspace(0.1, 1.0, 10):
                for lam in np.linspace(0.0, 5.0, 11):
                    assert sp.value(t, -lam) == pytest.approx(
                        phi_closed(k, t, -lam), abs=1e-8
                    )

    def test_generic_route_matches_closed_at_small_argument(self):
        sp = SeriesPhi(GGBM, use_homogeneous=False, horizon=1.5)
        for t in (0.2, 0.7, 1.0):
            for lam in (-2.0, -0.5):
                assert sp.value(t, lam) == pytest.approx(
                    phi_closed(GGBM, t, lam), abs=1e-9
                )

    def test_probabilistic_range(self):
        sp = SeriesPhi(GGBM)
        for lam in np.linspace(0.0, 5.0, 21):
            v = sp.value(0.8, -lam)
            assert 0.0 < v <= 1.0

    def test_monotone_in_lambda(self):
        sp = SeriesPhi(GGBM)
        vals = [sp.value(1.0, -l) for l in np.linspace(0, 5, 26)]
        assert (np.diff(vals) < 0).all()

    def test_radius_guard(self):
        sp = SeriesPhi(GGBM, use_homogeneous=False, horizon=1.5, n_max=40)
        with pytest.raises(TruncationBudgetExceeded):
            phi_series(sp, 1.0, -40.0)

    def test_homogeneous_route_requires_theta(self):
        k = ConvPowerSumKernel(beta=0.5, betas=(0.3,), bs=(0.5,))
        with pytest.raises(ValueError):
            SeriesPhi(k, use_homogeneous=True)


class TestVolterra:
    def test_lambda_zero_exact(self):
        tg = np.linspace(0, 1, 11)
        assert (phi_volterra(GGBM, 0.0, tg) == 1.0).all()

    def test_power_kernel_against_mittag_leffler(self):
        tg = np.linspace(0, 1, 11)
        vals = phi_volterra(FractionalPowerKernel(0.5), -1.0, tg, n_steps=2048)
        exact = np.array([mittag_leffler(0.5, -math.sqrt(t)) for t in tg])
        assert np.max(np.abs(vals - exact)) < 1e-5

    def test_ggbm_against_closed(self):
        tg = np.linspace(0.1, 1.0, 10)
        for lam in (-1.0, -5.0):
            vals = phi_volterra(GGBM, lam, tg, n_steps=2048)
            exact = np.array([phi_closed(GGBM, t, lam) for t in tg])
            assert np.max(np.abs(vals - exact)) < 1e-5

    def test_conv_kernel_solver_runs(self):
        k = ConvPowerSumKernel(beta=0.5, betas=(0.3,), bs=(0.5,))
        tg = np.linspace(0.1, 1.0, 10)
        vals = phi_volterra(k, -1.0, tg, n_steps=1024)
        exact = np.array([phi_closed(k, t, -1.0) for t in tg])
        assert np.max(np.abs(vals - exact)) < 1e-4

    def test_empirical_order_at_least_1p5(self):
        # product integration on the graded mesh for beta >= 0.5 kernels
        k = FractionalPowerKernel(0.5)
        errs = []
        steps = (256, 512, 1024)
        for n in steps:
            v = phi_volterra(k, -2.0, [1.0], n_steps=n)[0]
            errs.append(abs(v - mittag_leffler(0.5, -2.0)))
        order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert -order >= 1.5

    def test_refinement_check_passes_smooth_case(self):
        tg = np.linspace(0, 1, 6)
        phi_volterra(GGBM, -1.0, tg, n_steps=1024, check=True)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            phi_volterra(GGBM, -1.0, [-0.5, 1.0])
        with pytest.raises(ValueError):
            phi_volterra(GGBM, -1.0, [1.0, 0.5])

    def test_evaluator_horizon_enforced(self):
        ev = VolterraPhi(GGBM, horizon=1.0)
        with pytest.raises(ValueError):
            ev.value(1.5, -1.0)


class TestThreeWayClosure:
    @pytest.mark.parametrize("kernel", [GGBM, MSM], ids=["ggbm", "msm"])
    def test_series_closed_volterra(self, kernel):
        sp = SeriesPhi(kernel)
        vol = VolterraPhi(kernel, horizon=1.0, n_steps=2048)
        worst_sc = worst_vc = 0.0
        for t in np.linspace(0.1, 1.0, 10):
            for lam in np.linspace(0.0, 5.0, 11):
                c = phi_closed(kernel, t, -lam)
                worst_sc = max(worst_sc, abs(sp.value(t, -lam) - c))
                worst_vc = max(worst_vc, abs(vol.value(t, -lam) - c))
        assert worst_sc <= 1e-8
        assert worst_vc <= 1e-5


class TestHomogeneousScaling:
    def test_scaling_identity_via_generic_tables(self):
        # Phi(t, -lam) = Phi(1, -lam t^theta); evaluated on the generic
        # (non-homogeneity-aware) route so the identity is informative
        sp = SeriesPhi(GGBM, use_homogeneous=False, horizon=1.5)
        rng = np.random.default_rng(42)
        for _ in range(200):
            t = rng.uniform(0.02, 1.0)
            lam = rng.uniform(0.0, 3.0)
            lhs = sp.value(t, -lam)
            rhs = sp.value(1.0, -lam * t**GGBM.theta)
            assert abs(lhs - rhs) <= 1e-9


class TestCompleteMonotonicity:
    LAM = np.linspace(0.25, 10.0, 40)

    def test_builtin_cm_families_pass(self):
        for k in (GGBM, MSM, FractionalPowerKernel(0.5)):
            rep = check_complete_monotone(ClosedFormPhi(k), 1.0, self.LAM)
            assert rep.passed, str(rep)

    def test_exponential_case(self):
        rep = check_complete_monotone(ClosedFormPhi(FractionalPowerKernel(1.0)), 1.0, self.LAM)
        assert rep.passed

    def test_crafted_signed_kernel_reported(self):
        # f(s/t) = 2 - 3.6 s/t gives c_1 > 0 but c_2 < 0, so the second
        # difference of Phi(t, -.) turns negative near lambda = 0
        bad = CustomKernel(
            fn=lambda t, s: 2.0 - 3.6 * (s / t), theta_value=1.0, nonneg=False
        )
        sp = SeriesPhi(bad, use_homogeneous=False, horizon=1.5, n_max=24)
        rep = check_complete_monotone(sp, 1.0, np.linspace(0.05, 0.8, 12))
        assert not rep.passed
        order, _, magnitude = rep.first_violation
        assert order == 2
        assert magnitude > 0

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            check_complete_monotone(ClosedFormPhi(GGBM), 1.0, [1.0, 1.0, 2.0])


class TestGaverStehfest:
    def test_known_transforms(self):
        assert gaver_stehfest(lambda s: 1.0 / s, 1.7) == pytest.approx(1.0, abs=1e-6)
        assert gaver_stehfest(lambda s: 1.0 / s**2, 2.0) == pytest.approx(2.0, abs=1e-5)
        assert gaver_stehfest(lambda s: 1.0 / (s + 1.0), 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-6
        )

    def test_order_must_be_even(self):
        with pytest.raises(ValueError):
            gaver_stehfest(lambda s: 1.0 / s, 1.0, order=13)


class TestTimeLawCDF:
    def test_point_mass_case(self):
        # beta = 1: the law of the time change is a point mass at t^alpha
        k = GGBMKernel(0.9, 1.0)
        cdf = time_law_cdf(ClosedFormPhi(k), 1.0, np.linspace(0.05, 3.0, 60))
        assert cdf.cdf(0.7) < 0.06
        assert cdf.cdf(1.3) > 0.94

    def test_mixing_density_case(self):
        # beta = 1/2 at t = 1: CDF must match the integrated Wright density
        k = GGBMKernel(0.8, 0.5)
        cdf = time_law_cdf(ClosedFormPhi(k), 1.0, np.linspace(0.05, 6.0, 80))
        for x in (0.25, 0.5, 1.0, 2.0, 3.0):
            exact = quad(lambda z: math.exp(-z * z / 4) / math.sqrt(math.pi), 0, x)[0]
            assert cdf.cdf(x) == pytest.approx(exact, abs=2e-3)

    def test_cdf_axioms_enforced(self):
        k = GGBMKernel(0.8, 0.5)
        cdf = time_law_cdf(ClosedFormPhi(k), 1.0, np.linspace(0.05, 6.0, 50))
        assert (np.diff(cdf.F) >= 0).all()
        assert 0.0 <= cdf.F[0] and cdf.F[-1] <= 1.0

    def test_non_cm_rejected(self):
        bad = CustomKernel(
            fn=lambda t, s: 2.0 - 3.6 * (s / t), theta_value=1.0, nonneg=False
        )
        sp = SeriesPhi(bad, use_homogeneous=False, horizon=1.5, n_max=24)
        with pytest.raises(InversionUnstable):
            time_law_cdf(
                sp, 0.5, np.linspace(0.05, 2.0, 20),
                precheck_grid=np.linspace(0.05, 0.8, 8),
            )

    def test_quantile_inverts_cdf(self):
        k = GGBMKernel(0.8, 0.5)
        cdf = time_law_cdf(ClosedFormPhi(k), 1.0, np.linspace(0.05, 6.0, 80))
        for u in (0.1, 0.5, 0.9):
            x = float(cdf.quantile(u))
            assert cdf.cdf(x) == pytest.approx(u, abs=2e-2)


def moment_per_n(kernel, n):
    """int_0^1 k(1, s) s^{(n-1) theta} ds by a plain mp.quad that evaluates
    the kernel afresh at every node."""
    with mp.workdps(40):
        th = mp.mpf(kernel.theta)
        return mp.quad(lambda s: kernel.hp_unit_eval(s) * s ** ((n - 1) * th), [0, 1])


class TestMomentNodeReuse:
    """The moment recursion evaluates k(1, s) once per quadrature node."""

    @pytest.mark.parametrize(
        "kernel",
        [GGBMKernel(0.7, 0.55), MSMKernel(a=1.5, b=1.0, mu=0.0, nu=1.2), FractionalPowerKernel(0.5)],
        ids=["ggbm", "msm", "half_integer_powers"],
    )
    def test_exact_against_one_quad_per_n(self, kernel):
        phi_module._HP_CACHE.pop(kernel, None)
        got = phi_module._hp_unit_coefficients(kernel, 40)
        with mp.workdps(40):
            for n in (1, 2, 17, 40):
                assert got[n] == got[n - 1] * moment_per_n(kernel, n)

    def test_node_values_kept_for_the_last_kernel_only(self):
        first, second = FractionalPowerKernel(0.41), FractionalPowerKernel(0.43)
        phi_module._hp_unit_coefficients(first, 2)
        phi_module._hp_unit_coefficients(second, 2)
        assert list(phi_module._HP_NODES) == [second]


def volterra_solve_per_row(kernel, lam, horizon, n_steps, grading):
    """Product-integration solve with the weights and kernel values built
    one row at a time."""
    t = horizon * (np.arange(n_steps + 1) / n_steps) ** grading
    parts = kernel.parts()
    profiles = []
    for part in parts:
        if part.conv_profile is not None:
            tau_fine = np.linspace(0.0, horizon, 4097)
            prof_vals = part.conv_profile(tau_fine)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                profiles.append(PchipInterpolator(tau_fine, prof_vals))
        else:
            profiles.append(None)
    phi = np.empty(n_steps + 1)
    phi[0] = 1.0
    for i in range(1, n_steps + 1):
        ti = t[i]
        acc = 0.0
        diag = 0.0
        for part, prof in zip(parts, profiles):
            p = part.p_end
            sj, sj1 = t[:i], t[1 : i + 1]
            h = sj1 - sj
            d0, d1 = ti - sj, ti - sj1
            mu0 = (d0 ** (p + 1.0) - d1 ** (p + 1.0)) / (p + 1.0)
            mu1 = d0 * mu0 - (d0 ** (p + 2.0) - d1 ** (p + 2.0)) / (p + 2.0)
            w_left = mu0 - mu1 / h
            w_right = mu1 / h
            if prof is not None:
                mvals = prof(ti - t[: i + 1])
            else:
                mvals = part.regular(ti, t[: i + 1])
            acc += np.dot(w_left * mvals[:i], phi[:i])
            if i > 1:
                acc += np.dot(w_right[:-1] * mvals[1:i], phi[1:i])
            diag += w_right[-1] * mvals[i]
        phi[i] = (1.0 + lam * acc) / (1.0 - lam * diag)
    return t, phi


class TestVolterraRowBlocks:
    """Row blocks of the Volterra solve give the bits of a per-row solve."""

    @pytest.mark.parametrize(
        "kernel",
        [
            GGBM,
            MSM,
            ConvPowerSumKernel(beta=0.5, betas=(0.3,), bs=(0.5,)),
            ConvMultinomialMLKernel(beta=0.7, betas=(0.3,), bs=(0.5,)),
            CustomKernel(fn=lambda t, s: GGBM.eval(t, s), theta_value=0.8, p_zero=0.8 / 0.6 - 1.0, p_end=-0.4),
        ],
        ids=["ggbm", "msm", "conv_power_sum", "conv_multinomial_ml", "custom"],
    )
    def test_bit_equal_to_per_row_solve(self, kernel):
        for n_steps in (7, 300):
            ref_t, ref = volterra_solve_per_row(kernel, -1.7, 1.0, n_steps, 2.0)
            profiles = phi_module._conv_profiles(kernel.parts(), 1.0)
            t, got = phi_module._volterra_solve(kernel, -1.7, 1.0, n_steps, 2.0, profiles)
            assert np.array_equal(t, ref_t)
            assert np.array_equal(got, ref)

    def test_solve_memory_is_bounded_by_the_row_block(self):
        tracemalloc.start()
        try:
            phi_module._volterra_solve(GGBM, -1.0, 1.0, 256, 2.0, [None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCompactVolterraCache:
    def test_cache_is_bounded_and_warm_reads_repeat(self):
        ev = VolterraPhi(GGBM, horizon=1.0, n_steps=32)
        lams = [-0.1 * (i + 1) for i in range(40)]
        first = [ev.value(0.5, lam) for lam in lams]
        assert len(ev._cache) <= CACHE_SIZE
        warm = lams[-CACHE_SIZE:]
        assert [ev.value(0.5, lam) for lam in warm] == first[-CACHE_SIZE:]
        assert ev.value(0.5, lams[0]) == first[0]  # evicted, solved again

    def test_six_solves_retain_little(self):
        tracemalloc.start()
        try:
            ev = VolterraPhi(GGBM, horizon=1.0, n_steps=256)
            for i in range(6):
                ev.value(0.7, -0.5 - 0.5 * i)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 30_000
