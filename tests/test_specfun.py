"""Special-function identities, frozen brute-force constants, invariants.

Expected values tagged as regression constants below were generated by
independent high-precision brute-force summation (mpmath, 40-60 digits)
before the implementation was written; see the assertions for the
cross-identities used to validate them.
"""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import erfc, hyp2f1

from subfrac.series import SeriesTolerance, TruncationBudgetExceeded
from subfrac.specfun import (
    _ML_BLOCK,
    MLParams,
    MultinomialMLParams,
    OutsideConvergenceDomain,
    _ml_neg_integral,
    _mwright_mp,
    _mwright_peak_log10,
    _prabhakar_mp,
    _prabhakar_peak_log10,
    appell_f3,
    mittag_leffler,
    multinomial_ml,
    mwright_density,
    prabhakar,
)

# frozen brute-force regression constants (mpmath, dps >= 40)
PRABHAKAR_HALF_1_2_AT_M1 = 0.15437156137190843934
MULTI_ML_05_03_AT_M05_M02 = 0.53358434527497392975
MWRIGHT_HALF_AT_1 = 0.43939128946772239705
ML_HALF_AT_M1 = 0.42758357615580700441
F3_BRUTE_03_M02 = 1.0591223254840045171


class TestMittagLeffler:
    def test_exponential_case(self):
        for x in np.linspace(-10, 2, 121):
            assert mittag_leffler(1.0, x) == pytest.approx(math.exp(x), rel=1e-12)

    def test_zero_argument(self):
        assert mittag_leffler(0.7, 0.0) == 1.0

    def test_half_order_erfc_identity(self):
        for x in np.linspace(-10, 2, 121):
            rhs = math.exp(x * x) * erfc(-x)
            assert mittag_leffler(0.5, x) == pytest.approx(rhs, rel=1e-10)

    def test_frozen_value(self):
        assert mittag_leffler(0.5, -1.0) == pytest.approx(ML_HALF_AT_M1, abs=1e-13)

    def test_negative_axis_in_unit_interval(self):
        for beta in (0.3, 0.6, 0.9):
            for x in np.linspace(-40, 0, 81):
                v = mittag_leffler(beta, x)
                assert 0.0 < v <= 1.0

    def test_complete_monotonicity_spot_check(self):
        lam = np.linspace(0.0, 10.0, 41)
        for beta in (0.3, 0.5, 0.8):
            v = np.array([mittag_leffler(beta, -l) for l in lam])
            assert (v > 0).all()
            assert (np.diff(v) < 0).all()
            assert (np.diff(v, 2) >= -1e-14).all()

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.2, -1.0)

    def test_truncation_budget(self):
        with pytest.raises(TruncationBudgetExceeded):
            # positive argument forces the raw series; 5 terms cannot do it
            mittag_leffler(0.9, 8.0, tol=SeriesTolerance(1e-14, 5))


class TestPrabhakar:
    def test_exponential_reduction(self):
        assert prabhakar(MLParams(1, 1, 1), 2.0) == pytest.approx(math.exp(2), rel=1e-13)

    def test_leading_term(self):
        p = MLParams(0.6, 1.4, 1.2)
        assert prabhakar(p, 0.0) == pytest.approx(1 / math.gamma(1.4), rel=1e-14)

    def test_frozen_value(self):
        assert prabhakar(MLParams(0.5, 1, 2), -1.0) == pytest.approx(
            PRABHAKAR_HALF_1_2_AT_M1, abs=1e-13
        )

    def test_reduces_to_one_parameter(self):
        for q1 in (0.3, 0.5, 0.8):
            for x in np.linspace(-5, 0, 26):
                a = prabhakar(MLParams(q1, 1, 1), x)
                b = mittag_leffler(q1, x)
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_gamma_pole_terms_dropped(self):
        # q2 = 0 puts the n = 0 term at a Gamma pole; series starts at n = 1
        v = prabhakar(MLParams(0.5, 0.0, 1.0), 0.5)
        assert math.isfinite(v)

    def test_q1_must_be_positive(self):
        with pytest.raises(ValueError):
            MLParams(0.0, 1, 1)


class TestMultinomialML:
    def test_single_index_reduction(self):
        p = MultinomialMLParams((0.5,), 1.0)
        for x in (-2.0, -1.0, -0.25):
            assert multinomial_ml(p, [x]) == pytest.approx(
                mittag_leffler(0.5, x), rel=1e-12
            )

    def test_zero_arguments(self):
        p = MultinomialMLParams((0.5, 0.3), 1.4)
        assert multinomial_ml(p, [0.0, 0.0]) == pytest.approx(
            1 / math.gamma(1.4), rel=1e-14
        )

    def test_frozen_value(self):
        p = MultinomialMLParams((0.5, 0.3), 1.0)
        assert multinomial_ml(p, [-0.5, -0.2]) == pytest.approx(
            MULTI_ML_05_03_AT_M05_M02, abs=1e-12
        )

    def test_argument_count_checked(self):
        with pytest.raises(ValueError):
            multinomial_ml(MultinomialMLParams((0.5, 0.3), 1.0), [-0.5])


class TestMWright:
    def test_at_zero(self):
        assert mwright_density(0.5, 0.0) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-14)

    def test_frozen_value(self):
        assert mwright_density(0.5, 1.0) == pytest.approx(MWRIGHT_HALF_AT_1, abs=1e-13)

    def test_half_order_gaussian_identity(self):
        for z in np.linspace(0, 15, 61):
            rhs = math.exp(-z * z / 4) / math.sqrt(math.pi)
            assert mwright_density(0.5, z) == pytest.approx(rhs, abs=1e-12)

    def test_large_argument_tail(self):
        v = mwright_density(0.7, 30.0)
        assert v >= 0.0
        assert v < 1e-300  # stretched-exponential tail underflows float64

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_normalization(self, beta):
        from scipy.integrate import quad

        val, err = quad(
            lambda z: mwright_density(beta, z), 0, 60, epsabs=1e-10, limit=300
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("beta, z", [(0.65, 9.0), (0.6, 12.0), (0.7, 6.0)])
    def test_far_tail_above_rounding_noise(self, beta, z):
        # the mpmath sum at 25 digits beyond its largest term rounds to about
        # 1e-25 here, at or above the density itself
        ref = mwright_mp_termwise(beta, z, 200)
        assert abs(mwright_density(beta, z) / ref - 1.0) < 1e-3

    def test_sums_clear_of_the_rounding_floor_unchanged(self):
        assert mwright_density(0.6, 5.0) == 2.5504528476523863e-05
        assert mwright_density(0.6, 8.0) == 2.2673977500580678e-15
        assert mwright_density(0.8, 3.0) == 7.519718544541249e-09

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            mwright_density(1.0, 1.0)
        with pytest.raises(ValueError):
            mwright_density(0.5, -0.1)


class TestAppellF3:
    def test_unit_at_origin(self):
        assert appell_f3(0.5, 0.5, 1, 1, 1.5, 0.0, 0.0) == 1.0

    def test_y_zero_collapses_to_gauss(self):
        cases = [
            (0.5, 0.7, 1.1, 0.9, 1.5, 0.3),
            (0.2, 0.3, 0.8, 1.2, 2.5, -0.6),
            (1.0, 0.5, 2.0, 1.0, 3.0, 0.7),
        ]
        for a, ap, b, bp, c, x in cases:
            lhs = appell_f3(a, ap, b, bp, c, x, 0.0)
            assert lhs == pytest.approx(hyp2f1(a, b, c, x), rel=1e-10)

    def test_bp_zero_collapses_to_gauss(self):
        lhs = appell_f3(0.5, 0.7, 1.1, 0.0, 1.5, 0.3, -0.4)
        assert lhs == pytest.approx(hyp2f1(0.5, 1.1, 1.5, 0.3), rel=1e-10)

    def test_frozen_value(self):
        assert appell_f3(0.5, 0.5, 1, 1, 1.5, 0.3, -0.2) == pytest.approx(
            F3_BRUTE_03_M02, abs=1e-12
        )

    def test_terminating_index_lifts_domain(self):
        # ap = -2 terminates the y sum; |y| > 1 is then fine
        v = appell_f3(0.5, -2.0, 1.0, 1.0, 1.5, 0.3, -3.0)
        assert math.isfinite(v)

    def test_outside_domain_rejected(self):
        with pytest.raises(OutsideConvergenceDomain):
            appell_f3(0.5, 0.5, 1, 1, 1.5, 0.3, -1.5)

    def test_bad_c(self):
        with pytest.raises(ValueError):
            appell_f3(0.5, 0.5, 1, 1, -2.0, 0.3, 0.2)


class TestSeriesTolerance:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesTolerance(abs_tol=0.0)
        with pytest.raises(ValueError):
            SeriesTolerance(max_terms=0)


def quad_ml_neg(beta, a):
    """E_beta(-a) by two adaptive quadratures of the spectral integral (the
    route the fixed-node rule replaced), kept as an independent reference."""
    from scipy.integrate import quad

    root = a ** (1.0 / beta)
    cb = math.cos(math.pi * beta)

    def f(u):
        return math.exp(-root * u ** (1.0 / beta)) / (u * u + 2.0 * cb * u + 1.0)

    v1, _ = quad(f, 0.0, 1.0, epsabs=1e-16, epsrel=1e-13, limit=400)
    v2, _ = quad(f, 1.0, np.inf, epsabs=1e-16, epsrel=1e-13, limit=400)
    return math.sin(math.pi * beta) / (math.pi * beta) * (v1 + v2)


class TestNegativeAxisRule:
    """The fixed-node trapezoid rule for E_beta(-a) over an array of a."""

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(0.05, 0.99),
        a=st.lists(st.floats(1e-3, 60.0), min_size=1, max_size=6),
    )
    @example(beta=0.99, a=[1e-3, 5.0, 60.0])
    @example(beta=0.05, a=[1e-3, 60.0])
    def test_matches_adaptive_quadrature(self, beta, a):
        got = _ml_neg_integral(beta, a)
        ref = np.array([quad_ml_neg(beta, v) for v in a])
        assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    def test_zero_argument_is_one(self):
        assert np.array_equal(_ml_neg_integral(0.6, [0.0, 0.0]), [1.0, 1.0])

    def test_large_argument_keeps_relative_accuracy(self):
        # E_beta(-a) ~ 1/(a Gamma(1 - beta)) once a is large
        # (for beta = 1/2 the next term is 1/(2 a^2) relative, below 1e-16)
        a = 1e8
        assert _ml_neg_integral(0.5, [a])[0] == pytest.approx(1.0 / (a * math.sqrt(math.pi)), rel=1e-12)

    def test_spectral_grid_call_stays_within_one_block(self):
        def peak_bytes(a):
            tracemalloc.start()
            try:
                _ml_neg_integral(0.62, a)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 2561 arguments at about 650 nodes would be a 13 MB matrix, 100
        # blocks; rows = the arguments of one block
        rows = _ML_BLOCK // 650
        grid = 0.5 * np.linspace(-9.0, 9.0, 2561) ** 2
        one_block = peak_bytes(grid[:rows])
        # beyond a one-block call, only the per-argument vectors (a^{1/beta},
        # the result, the index of nonzero a: 24 bytes each) may be added
        assert peak_bytes(grid) - one_block < 24 * 2561 + 8 * 1024


def prabhakar_mp_termwise(p, x, dps):
    """The mpmath Prabhakar sum with each term built from xm**n and n!."""
    with mp.workdps(dps):
        q1, q2, q3 = mp.mpf(p.q1), mp.mpf(p.q2), mp.mpf(p.q3)
        xm, s, poch, small, n = mp.mpf(x), mp.mpf(0), mp.mpf(1), 0, 0
        thresh = mp.mpf(10) ** (-dps + 10)
        while n < 500_000:
            t = poch * xm**n * mp.rgamma(q1 * n + q2) / mp.factorial(n)
            s += t
            small = small + 1 if abs(t) < thresh else 0
            if small >= 8:
                break
            poch *= q3 + n
            n += 1
        return float(s)


def mwright_mp_termwise(beta, z, dps):
    """The mpmath Wright sum with each term built from (-z)**n and n!."""
    with mp.workdps(dps):
        zm, bem, s, small = mp.mpf(z), mp.mpf(beta), mp.mpf(0), 0
        thresh = mp.mpf(10) ** (-dps + 10)
        for n in range(500_000):
            t = (-zm) ** n / mp.factorial(n) * mp.rgamma(-bem * n + 1 - bem)
            s += t
            small = small + 1 if abs(t) < thresh else 0
            if small >= 8:
                break
        return float(s)


class TestMpSeriesRunningProducts:
    """The mpmath branches carry x^n/n! as a running product.  The sums run
    at 25 digits beyond the largest term; the Prabhakar values, of order
    |x|^-q3, come out float-equal to the term-by-term sum's, the Wright
    values (tail densities far below the largest term) agree to the
    absolute accuracy that precision gives."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(q1=st.floats(0.55, 0.8), q2=st.floats(0.5, 2.0), q3=st.floats(0.5, 2.0),
           x=st.floats(-18.0, -10.0))
    def test_prabhakar(self, q1, q2, q3, x):
        p = MLParams(q1, q2, q3)
        peak = _prabhakar_peak_log10(p, x)
        dps = int(peak) + 25
        assume(peak > 13.0 and dps <= 150)  # where prabhakar() sums in mpmath
        assert _prabhakar_mp(p, x, dps) == prabhakar_mp_termwise(p, x, dps)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(beta=st.floats(0.45, 0.65), z=st.floats(9.0, 16.0))
    def test_mwright(self, beta, z):
        peak = _mwright_peak_log10(beta, z)
        dps = int(peak) + 25
        assume(peak > 13.0 and dps <= 150)  # where mwright_density() sums in mpmath
        got, ref = _mwright_mp(beta, z, dps), mwright_mp_termwise(beta, z, dps)
        assert abs(got - ref) <= 10.0 ** (peak - dps + 5)


class TestNonFiniteArguments:
    def test_ml_beyond_overflowing_root_is_the_asymptote(self):
        # a^{1/beta} overflows for a above about 1e185 at beta = 0.6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = mittag_leffler(0.6, -1e300)
            batch = _ml_neg_integral(0.6, [1.0, 1e300, 1.7e308])
        assert math.isfinite(v) and v > 0.0
        assert v == pytest.approx(1.0 / (1e300 * math.gamma(0.4)), rel=1e-14)
        assert batch[0] == _ml_neg_integral(0.6, [1.0])[0]
        assert np.all(batch > 0.0)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: mittag_leffler(0.6, math.nan), "x"),
            (lambda: prabhakar(MLParams(0.5, 1.0, 1.0), math.nan), "x"),
            (lambda: mwright_density(0.5, math.nan), "z"),
        ],
    )
    def test_nan_argument_is_rejected_by_name(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got nan$"):
            call()
