"""Deterministic oracles: closed-form anchors, cross-oracle closure,
finite-difference convergence, and the double-Laplace identity."""

import math

import numpy as np
import pytest

from subfrac import oracle
from subfrac.fk import BrownianDrift, GaussianBump
from subfrac.kernels import FractionalPowerKernel, GGBMKernel
from subfrac.oracle import (
    DensityUnavailable,
    SpectralGrid,
    caputo_l1,
    double_laplace_identity,
    semigroup_quadrature,
    spectral_solution,
)
from subfrac.phi import ClosedFormPhi
from subfrac.sampling import BernsteinSpec

U0 = GaussianBump(0.0, 1.0)
BM = BrownianDrift(0.0)

# int_0^inf (1+a)^{-1/2} exp(-a^2/4)/sqrt(pi) da by independent mpmath
# quadrature (the exact Gaussian-semigroup action against the closed-form
# Wright density for beta = 1/2), frozen for (t, x) = (1, 0)
SEMIGROUP_GGBM_HALF_AT_1_0 = 0.72457540047670301


class TestSemigroupQuadrature:
    def test_point_mass_case(self):
        # beta = 1 makes the time change deterministic: exact heat value
        k = GGBMKernel(1.0, 1.0)
        assert semigroup_quadrature(k, U0, BM, 1.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-12
        )

    def test_time_zero(self):
        k = GGBMKernel(0.8, 0.6)
        assert semigroup_quadrature(k, U0, BM, 0.0, 0.3) == float(U0(0.3))

    def test_frozen_value(self):
        k = GGBMKernel(0.5, 0.5)
        v = semigroup_quadrature(k, U0, BM, 1.0, 0.0)
        assert v == pytest.approx(SEMIGROUP_GGBM_HALF_AT_1_0, abs=1e-8)

    def test_density_unavailable(self):
        from subfrac.kernels import ConvPowerSumKernel

        k = ConvPowerSumKernel(beta=0.5, betas=(0.3,), bs=(0.5,))
        with pytest.raises(DensityUnavailable):
            semigroup_quadrature(k, U0, BM, 1.0, 0.0)

    def test_cdf_table_route(self):
        from subfrac.phi import ClosedFormPhi, time_law_cdf

        k = GGBMKernel(0.8, 0.5)
        direct = semigroup_quadrature(k, U0, BM, 1.0, 0.0)
        cdf = time_law_cdf(ClosedFormPhi(k), 1.0, np.linspace(0.01, 8.0, 400))
        # pretend the density is unavailable and integrate the CDF table;
        # the time change is A * t^theta with t = 1 so the laws coincide
        from subfrac.kernels import CustomKernel

        k2 = CustomKernel(fn=lambda t, s: k.eval(t, s), theta_value=0.8)
        tabulated = semigroup_quadrature(k2, U0, BM, 1.0, 0.0, law_cdf=cdf)
        assert tabulated == pytest.approx(direct, abs=5e-3)


class TestSpectralSolution:
    def test_classical_heat_exact(self):
        v = spectral_solution(FractionalPowerKernel(1.0), U0, "laplacian_half", 1.0, 0.0)
        assert v == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)

    def test_cross_oracle_ggbm(self):
        k = GGBMKernel(0.8, 0.6)
        v1 = spectral_solution(k, U0, "laplacian_half", 1.0, 0.0)
        v2 = semigroup_quadrature(k, U0, BM, 1.0, 0.0)
        assert v1 == pytest.approx(v2, abs=1e-6)

    def test_frac_laplacian_gamma_one_matches_laplacian(self):
        k = GGBMKernel(0.8, 0.6)
        v1 = spectral_solution(k, U0, "frac_laplacian", 1.0, 0.3, gamma=1.0)
        v2 = spectral_solution(k, U0, "laplacian_half", 1.0, 0.3)
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_x_symmetry(self):
        k = GGBMKernel(0.8, 0.6)
        v1 = spectral_solution(k, U0, "laplacian_half", 1.0, 0.5)
        v2 = spectral_solution(k, U0, "laplacian_half", 1.0, -0.5)
        assert v1 == pytest.approx(v2, abs=1e-10)

    @pytest.mark.parametrize("kernel", [GGBMKernel(0.8, 0.6), FractionalPowerKernel(0.37)])
    def test_batch_matches_scalar_loop(self, kernel):
        # an evaluator with only value() takes the per-node loop
        closed = ClosedFormPhi(kernel)

        class ScalarOnly:
            def value(self, t, lam):
                return closed.value(t, lam)

        grid = SpectralGrid(n_modes=2560)
        for t, x in ((1.0, 0.0), (0.4, 0.7)):
            batch = spectral_solution(kernel, U0, "laplacian_half", t, x, grid=grid)
            loop = spectral_solution(
                kernel, U0, "laplacian_half", t, x, grid=grid, phi_evaluator=ScalarOnly()
            )
            assert batch == pytest.approx(loop, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(n_modes=101)
        with pytest.raises(ValueError):
            spectral_solution(
                GGBMKernel(0.8, 0.6), U0, "laplacian_half", 1.0, 0.0,
                grid=SpectralGrid(xi_max=3.0),
            )

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            spectral_solution(GGBMKernel(0.8, 0.6), U0, "nope", 1.0, 0.0)


class TestCaputoL1:
    def test_against_spectral(self):
        xg, uv = caputo_l1(0.5, U0, 1.0, n_space=801, n_time=400)
        vi = float(np.interp(0.0, xg, uv))
        vs = spectral_solution(FractionalPowerKernel(0.5), U0, "laplacian_half", 1.0, 0.0)
        assert vi == pytest.approx(vs, abs=1e-3)

    def test_near_classical_limit(self):
        # beta -> 1: matches the exact heat value
        xg, uv = caputo_l1(0.95, U0, 1.0, n_space=801, n_time=400)
        vi = float(np.interp(0.0, xg, uv))
        exact = spectral_solution(FractionalPowerKernel(0.95), U0, "laplacian_half", 1.0, 0.0)
        assert vi == pytest.approx(exact, abs=2e-3)

    def test_mass_conserved(self):
        xg, uv = caputo_l1(0.5, U0, 1.0, n_space=801, n_time=300)
        m0 = float(np.trapezoid(U0(xg), xg))
        m1 = float(np.trapezoid(uv, xg))
        assert m1 == pytest.approx(m0, abs=1e-4)

    def test_manufactured_convergence_order(self):
        beta = 0.5

        def src(tn, xs):
            bump = np.exp(-(xs**2) / 2.0)
            bump2 = (xs**2 - 1.0) * bump
            return (
                2.0 * tn ** (2.0 - beta) / math.gamma(3.0 - beta) * bump
                - (1.0 + tn**2) * 0.5 * bump2
            )

        errs = []
        for nt in (50, 100, 200):
            xg, uv = caputo_l1(beta, U0, 1.0, n_space=1601, n_time=nt, source=src)
            errs.append(float(np.max(np.abs(uv - 2.0 * U0(xg)))))
        orders = [math.log(errs[i] / errs[i + 1], 2) for i in range(2)]
        assert (2.0 - beta) - 0.3 <= np.mean(orders) <= (2.0 - beta) + 0.3

    def test_boundary_decay_enforced(self):
        with pytest.raises(ValueError):
            caputo_l1(0.5, GaussianBump(0.0, 8.0), 1.0)

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            caputo_l1(1.0, U0, 1.0)


class TestDoubleLaplace:
    def test_identity_exponent(self):
        rep = double_laplace_identity(BernsteinSpec.identity(), 1.3, 0.7, 0)
        assert rep.lhs_monte_carlo == pytest.approx(rep.rhs_closed_form, rel=1e-6)

    def test_lambda_zero(self):
        rep = double_laplace_identity(BernsteinSpec.stable_power(0.5), 2.0, 0.0, 200)
        assert rep.rhs_closed_form == pytest.approx(0.5, rel=1e-12)
        assert abs(rep.rel_deviation) < 1e-3

    def test_square_root_exponent(self):
        rep = double_laplace_identity(
            BernsteinSpec.stable_power(0.5), 1.0, 1.0, 4000, master_seed=5
        )
        assert rep.rhs_closed_form == pytest.approx(0.5, rel=1e-12)
        assert abs(rep.rel_deviation) < 0.02

    def test_mixed_bernstein_runs(self):
        h = BernsteinSpec.drift_plus_stable_sum(0.0, [(1.0, 0.5), (0.5, 0.3)])
        rep = double_laplace_identity(h, 1.0, 1.0, 1500, master_seed=5)
        assert abs(rep.rel_deviation) < 0.05

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            double_laplace_identity(BernsteinSpec.identity(), 0.0, 1.0, 10)

    @pytest.mark.parametrize("mc_paths", [0, -3])
    def test_path_count_positive(self, mc_paths):
        with pytest.raises(ValueError, match="mc_paths"):
            double_laplace_identity(BernsteinSpec.stable_power(0.5), 2.0, 0.5, mc_paths)

    def test_budget_exhausted_message(self, monkeypatch):
        # a step this fine cannot reach t_max within the chunk budget
        monkeypatch.setattr(oracle, "_DL_STEPS_PER_UNIT", 2**20)
        with pytest.raises(RuntimeError) as exc:
            double_laplace_identity(BernsteinSpec.stable_power(0.5), 1.0, 1.0, 3)
        assert exc.type is RuntimeError
        assert str(exc.value) == (
            "subordinator path did not exceed t_max=13.8155 within 16 chunks of 4096 steps "
            "of dt=4.096e-06"
        )
