import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from subfrac import kernels as kernels_module
from subfrac import phi as phi_module
from subfrac.kernels import (
    CACHE_SIZE,
    ConvMultinomialMLKernel,
    ConvPowerSumKernel,
    CustomKernel,
    FractionalPowerKernel,
    GGBMKernel,
    InvalidParameters,
    MSMKernel,
    StretchFn,
    TimeStretchedKernel,
    coefficient_tables,
    make_kernel,
    phi_coefficients,
)


def matching_msm(alpha: float, beta: float) -> MSMKernel:
    """MSM parameterization that reduces to the grey-BM kernel."""
    return MSMKernel(a=alpha / beta, b=alpha, mu=0.0, nu=alpha / beta)


class TestConstruction:
    def test_ggbm_carries_homogeneity(self):
        k = make_kernel({"family": "ggbm", "alpha": 0.8, "beta": 0.6})
        assert k.theta == pytest.approx(0.8)

    def test_msm_constraint_violation_named(self):
        with pytest.raises(InvalidParameters, match="a >= b"):
            make_kernel({"family": "msm", "a": 1.0, "b": 1.5, "mu": 0.5, "nu": 2.0})

    def test_fractional_power_degenerate(self):
        k = make_kernel({"family": "fractional_power", "beta": 1.0})
        assert k.theta == pytest.approx(1.0)
        assert k.eval(2.0, 1.0) == pytest.approx(1.0)

    def test_unknown_family(self):
        with pytest.raises(InvalidParameters):
            make_kernel({"family": "nope"})

    def test_missing_parameter(self):
        with pytest.raises(InvalidParameters):
            make_kernel({"family": "ggbm", "alpha": 0.8})

    def test_conv_exponent_ordering_enforced(self):
        with pytest.raises(InvalidParameters):
            ConvPowerSumKernel(beta=0.5, betas=(0.6,), bs=(1.0,))
        with pytest.raises(InvalidParameters):
            ConvMultinomialMLKernel(beta=0.5, betas=(0.3, 0.4), bs=(1.0, 1.0))


class TestPointwise:
    def test_ggbm_time_fractional_reduction(self):
        # alpha = beta collapses to the power kernel: k(1, .5) = .5^{-1/2}/Gamma(1/2)
        k = GGBMKernel(0.5, 0.5)
        assert k.eval(1.0, 0.5) == pytest.approx(
            (1 - 0.5) ** -0.5 / math.gamma(0.5), rel=1e-13
        )

    def test_homogeneity_identity(self):
        rng = np.random.default_rng(7)
        kernels = [
            GGBMKernel(0.8, 0.6),
            FractionalPowerKernel(0.5),
            MSMKernel(a=2.0, b=1.0, mu=0.5, nu=2.0),
            matching_msm(0.8, 0.6),
        ]
        for k in kernels:
            for _ in range(100):
                t = rng.uniform(0.1, 2.0)
                s = t * rng.uniform(0.01, 0.99)
                c = rng.uniform(0.1, 3.0)
                lhs = k.eval(c * t, c * s)
                rhs = c ** (k.theta - 1.0) * k.eval(t, s)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_msm_reduces_to_ggbm_pointwise(self):
        rng = np.random.default_rng(3)
        km, kg = matching_msm(0.8, 0.6), GGBMKernel(0.8, 0.6)
        for _ in range(50):
            t = rng.uniform(0.1, 2.0)
            s = t * rng.uniform(0.02, 0.98)
            assert km.eval(t, s) == pytest.approx(kg.eval(t, s), rel=1e-12)

    def test_msm_elementary_collapse(self):
        # nu = a makes F3 collapse to (s/t)^{a mu}
        k = MSMKernel(a=2.0, b=1.0, mu=0.5, nu=2.0)
        t, s = 1.3, 0.7
        expect = 2.0 / math.sqrt(math.pi) * s**2 / (t * math.sqrt(t * t - s * s))
        assert k.eval(t, s) == pytest.approx(expect, rel=1e-13)

    def test_conv_power_sum_profile(self):
        k = ConvPowerSumKernel(beta=0.5, betas=(0.3,), bs=(0.5,))
        tau = 0.4
        expect = tau**-0.5 / math.gamma(0.5) + 0.5 * tau**-0.7 / math.gamma(0.3)
        assert k.eval(1.0, 0.6) == pytest.approx(expect, rel=1e-13)


class TestCoefficients:
    def test_c0_is_one_everywhere(self):
        for fam in (GGBMKernel(0.8, 0.6), ConvPowerSumKernel(beta=0.5, betas=(0.3,), bs=(0.5,))):
            assert phi_coefficients(fam, 1.3, 4)[0] == 1.0

    def test_at_time_zero(self):
        c = phi_coefficients(GGBMKernel(0.8, 0.6), 0.0, 5)
        assert c[0] == 1.0
        assert (c[1:] == 0.0).all()

    @pytest.mark.parametrize("beta", [0.5, 0.8, 1.0])
    def test_power_kernel_beta_integral_oracle(self, beta):
        # repeated Beta-integral identity: c_n(t) = t^{n b}/Gamma(n b + 1)
        for t in (0.4, 1.0, 1.7):
            c = phi_coefficients(FractionalPowerKernel(beta), t, 10)
            exact = np.array([t ** (n * beta) / math.gamma(n * beta + 1) for n in range(11)])
            assert np.max(np.abs(c - exact)) < 1e-8

    def test_homogeneous_scaling_of_coefficients(self):
        k = GGBMKernel(0.8, 0.6)
        tab = coefficient_tables(k, 2.0, 12)
        base = tab.values(1.0)
        for t in (0.3, 0.9, 1.7):
            v = tab.values(t)
            expect = base * t ** (k.theta * np.arange(13))
            assert np.max(np.abs(v - expect)) < 1e-8

    def test_ggbm_matches_msm_termwise(self):
        cg = phi_coefficients(GGBMKernel(0.8, 0.6), 1.0, 12)
        cm = phi_coefficients(matching_msm(0.8, 0.6), 1.0, 12)
        assert np.max(np.abs(cg - cm)) < 1e-8

    def test_nonnegative_for_nonnegative_kernels(self):
        for k in (
            GGBMKernel(0.8, 0.6),
            FractionalPowerKernel(0.5),
            MSMKernel(a=2.0, b=1.0, mu=0.5, nu=2.0),
            ConvPowerSumKernel(beta=0.5, betas=(0.3,), bs=(0.5,)),
        ):
            for t in (0.5, 1.0, 2.0):
                assert (phi_coefficients(k, t, 8) >= 0.0).all()

    def test_refinement_drift_below_tolerance(self, monkeypatch):
        # values at the table's 96 quadrature nodes and at half as many agree to 1e-6
        k = GGBMKernel(0.8, 0.6)
        fine = coefficient_tables(k, 2.0, 12)
        monkeypatch.setattr(kernels_module, "_QUAD_NODES", 48)
        monkeypatch.setattr(kernels_module, "_COEFF_CACHE", OrderedDict())
        coarse = coefficient_tables(k, 2.0, 12)
        for t in (0.25, 1.0, 2.0):
            assert np.max(np.abs(fine.values(t) - coarse.values(t))) < 1e-6


class TestBoundedCaches:
    """The coefficient-table and moment-recursion caches keep the most
    recently used _COEFF_CACHE_SIZE and CACHE_SIZE kernels, so a
    long-running process does not grow without bound."""

    KERNELS = [FractionalPowerKernel(0.3 + 0.01 * i) for i in range(40)]

    @pytest.fixture(autouse=True)
    def keep_warm_entries(self):
        # the 40 kernels would evict what earlier tests cached; put it back
        saved = phi_module._HP_CACHE.copy()
        yield
        phi_module._HP_CACHE.clear()
        phi_module._HP_CACHE.update(saved)

    def test_coefficient_tables(self, monkeypatch):
        # small tables, kept out of the cache the other tests share
        monkeypatch.setattr(kernels_module, "_GRID_SIZE", 16)
        monkeypatch.setattr(kernels_module, "_QUAD_NODES", 8)
        monkeypatch.setattr(kernels_module, "_COEFF_CACHE", OrderedDict())
        for k in self.KERNELS:
            coefficient_tables(k, 1.0, 2)
        assert len(kernels_module._COEFF_CACHE) == kernels_module._COEFF_CACHE_SIZE
        last = coefficient_tables(self.KERNELS[-1], 1.0, 2)
        assert coefficient_tables(self.KERNELS[-1], 1.0, 2) is last

    def test_moment_recursion(self):
        for k in self.KERNELS:
            phi_module._hp_unit_coefficients(k, 1)
        assert len(phi_module._HP_CACHE) <= CACHE_SIZE
        warm = phi_module._hp_unit_coefficients(self.KERNELS[-1], 1)
        assert phi_module._hp_unit_coefficients(self.KERNELS[-1], 1) is warm
        assert len(warm) == 2


class TestTimeStretch:
    def test_identity_stretch_is_noop(self):
        st = StretchFn(g=lambda u: u, g_dot=lambda u: 1.0, power=1.0)
        k = GGBMKernel(0.8, 0.6)
        ks = TimeStretchedKernel(base=k, stretch=st)
        for t, s in ((1.0, 0.3), (1.7, 1.2)):
            assert ks.eval(t, s) == pytest.approx(k.eval(t, s), rel=1e-12)
        assert ks.theta == pytest.approx(k.theta)

    def test_square_stretch_of_power_kernel(self):
        st = StretchFn(g=lambda u: u * u, g_dot=lambda u: 2.0 * u, power=2.0)
        ks = TimeStretchedKernel(base=FractionalPowerKernel(0.5), stretch=st)
        t, s = 1.2, 0.7
        expect = (t * t - s * s) ** -0.5 * 2.0 * s / math.gamma(0.5)
        assert ks.eval(t, s) == pytest.approx(expect, rel=1e-12)

    def test_power_stretch_scales_homogeneity(self):
        st = StretchFn(g=lambda u: u**1.5, g_dot=lambda u: 1.5 * u**0.5, power=1.5)
        ks = TimeStretchedKernel(base=GGBMKernel(0.8, 0.6), stretch=st)
        assert ks.theta == pytest.approx(1.5 * 0.8)
        rng = np.random.default_rng(5)
        for _ in range(40):
            t = rng.uniform(0.2, 1.5)
            s = t * rng.uniform(0.05, 0.95)
            c = rng.uniform(0.3, 2.0)
            lhs = ks.eval(c * t, c * s)
            rhs = c ** (ks.theta - 1.0) * ks.eval(t, s)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_invalid_stretch_rejected(self):
        with pytest.raises(InvalidParameters):
            StretchFn(g=lambda u: -u, g_dot=lambda u: -1.0)


class TestCustomKernel:
    def test_declared_exponents_used(self):
        k = CustomKernel(fn=lambda t, s: np.full_like(s, 2.0), theta_value=1.0)
        assert k.eval(1.0, 0.5) == pytest.approx(2.0)
        c = phi_coefficients(k, 1.0, 3)
        # k == 2: c_n(t) = (2t)^n / n!
        exact = np.array([2.0**n / math.factorial(n) for n in range(4)])
        assert np.max(np.abs(c - exact)) < 1e-9


def level_per_time(tab, n):
    """Coefficient level n at every grid time, one time at a time."""
    out = np.zeros_like(tab._master)
    for part, u, wu in tab._rules:
        for i, t in enumerate(tab._master):
            s = t * u
            integrand = part.regular(t, s) * tab._prev_values(n, s)
            out[i] += t ** (part.p_end + 1.0) * float(np.dot(wu, integrand))
    return out


class TestCoefficientRowBlocks:
    """A table level built from blocks of grid rows has the bits of the
    per-time loop, for kernels evaluated as arrays and row by row."""

    GGBM = GGBMKernel(0.8, 0.6)

    @pytest.mark.parametrize(
        "kernel",
        [
            GGBM,
            MSMKernel(a=2.0, b=1.0, mu=0.5, nu=2.0),
            ConvPowerSumKernel(0.7, (0.4,), (0.5,)),
            CustomKernel(fn=lambda t, s: TestCoefficientRowBlocks.GGBM.eval(t, s), theta_value=0.8,
                         p_zero=0.8 / 0.6 - 1.0, p_end=-0.4),
            TimeStretchedKernel(
                base=GGBM, stretch=StretchFn(g=lambda u: u**1.5, g_dot=lambda u: 1.5 * u**0.5, power=1.5)
            ),
        ],
        ids=["ggbm", "msm", "conv_power_sum", "custom", "time_stretched"],
    )
    def test_level_bit_equal_to_per_time_loop(self, kernel, monkeypatch):
        monkeypatch.setattr(kernels_module, "_GRID_SIZE", 300)
        tab = kernels_module.CoefficientTables(kernel, 1.0, 3)
        for n in (1, 3):
            assert np.array_equal(tab._level_values(n, tab._regular_blocks()), level_per_time(tab, n))

    def test_level_memory_is_bounded_by_the_row_block(self):
        tab = kernels_module.CoefficientTables(self.GGBM, 1.0, 2)
        regular = tab._regular_blocks()
        tracemalloc.start()
        try:
            tab._level_values(2, regular)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_regular_factors_evaluated_once_per_table(self, monkeypatch):
        # a custom kernel's regular factor calls its function once per grid
        # row; the table makes those calls once, whatever its depth
        calls = []

        def fn(t, s):
            calls.append(t)
            return self.GGBM.eval(t, s)

        monkeypatch.setattr(kernels_module, "_GRID_SIZE", 50)
        monkeypatch.setattr(kernels_module, "_QUAD_NODES", 16)
        for n_max in (2, 4):
            calls.clear()
            kernel = CustomKernel(fn=fn, theta_value=0.8, p_zero=0.8 / 0.6 - 1.0, p_end=-0.4)
            kernels_module.CoefficientTables(kernel, 1.0, n_max)
            assert len(calls) == 50
