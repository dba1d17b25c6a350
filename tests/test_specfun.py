"""Special-function identities, frozen brute-force constants, invariants.

Expected values tagged as regression constants below were generated by
independent high-precision brute-force summation (mpmath, 40-60 digits)
before the implementation was written; see the assertions for the
cross-identities used to validate them.
"""

import math
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import erfc, gammaln, gammasgn, hyp2f1

from subfrac import series, specfun
from subfrac.series import TruncationBudgetExceeded, sum_series
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
    _prabhakar_series,
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

    def test_truncation_budget(self, monkeypatch):
        monkeypatch.setattr(series, "_MAX_TERMS", 5)
        with pytest.raises(TruncationBudgetExceeded, match="after 5 terms"):
            # positive argument forces the raw series; 5 terms cannot do it
            mittag_leffler(0.9, 8.0)


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


class TestMWrightBranchSwitches:
    """The density against mpmath sums at (peak - log10 value + 30) digits,
    on z grids that run from the float sum through the mpmath sum into the
    asymptote; the worst point is where the asymptote takes over (2.0e-3 at
    beta = 0.3, z = 27.5)."""

    @pytest.mark.parametrize(
        "beta, z_lo, z_hi, step",
        [(0.3, 4.0, 30.0, 0.5), (0.5, 3.0, 16.0, 0.5), (0.6, 3.0, 11.0, 0.5),
         (0.75, 2.0, 5.5, 0.25), (0.85, 1.5, 3.0, 0.125)],
    )
    def test_within_2e_3_of_mpmath(self, beta, z_lo, z_hi, step):
        zs = np.arange(z_lo, z_hi + step / 2, step)
        assert _mwright_peak_log10(beta, zs[0]) <= 13.0  # the float sum serves
        assert mwright_density(beta, zs[-1]) == specfun._mwright_asymptotic(beta, zs[-1])
        worst = 0.0
        for z in zs:
            v = mwright_density(beta, z)
            dps = int(max(_mwright_peak_log10(beta, z), 0.0) - math.log10(v)) + 30
            worst = max(worst, abs(v / mwright_mp_termwise(beta, z, dps) - 1.0))
        assert worst <= 2e-3


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


class TestPrabhakarAsymptote:
    """Past 150 digits of cancellation the asymptotic series serves; its
    truncation must not stop at a term that is small only because its
    1/Gamma factor sits next to a pole."""

    @pytest.mark.parametrize(
        "q, x",
        [
            ((0.99 / 1.52, 1.3, 1.0), -60.0),  # Gamma argument -0.0026 at k = 1
            ((0.522, 0.909, 1.741), -26.0),
        ],
    )
    def test_matches_an_mpmath_sum(self, q, x):
        p = MLParams(*q)
        peak = _prabhakar_peak_log10(p, x)
        assert int(peak) + 25 > specfun._DPS_CAP  # beyond the mpmath branch
        ref = prabhakar_mp_termwise(p, x, int(peak) + 30)
        assert abs(prabhakar(p, x) / ref - 1.0) <= 1e-12


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

    def test_ml_at_minus_infinity_is_its_limit(self):
        assert mittag_leffler(0.6, -math.inf) == 0.0

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: mittag_leffler(0.6, math.inf), "x must be finite or -inf, got inf"),
            (lambda: prabhakar(MLParams(0.5, 1.0, 1.0), math.inf), "x must be finite, got inf"),
            (lambda: prabhakar(MLParams(0.5, 1.0, 1.0), -math.inf), "x must be finite, got -inf"),
            (lambda: mwright_density(0.5, math.inf), "z must be finite, got inf"),
        ],
    )
    def test_infinite_argument_is_rejected_by_name(self, call, message):
        # the float series would run to its term budget: its first term is
        # 0 * inf = nan, and a nan or infinite term never counts as small
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "call", [lambda: mittag_leffler(0.3, 700.0), lambda: prabhakar(MLParams(0.3), 700.0)]
    )
    def test_overflowing_term_is_named(self, call):
        with pytest.raises(
            OverflowError, match=r"^term 124 of the float series, e\^712\.278, is past the float range$"
        ):
            call()

    def test_overflowing_exponential_is_named(self):
        # beta = 1 is exp itself; e^x leaves the float range above x = 709.78
        assert mittag_leffler(1.0, 709.78) == math.exp(709.78)
        with pytest.raises(OverflowError, match=r"^E_1\(710\) = e\^710 is past the float range$"):
            mittag_leffler(1.0, 710.0)

    @pytest.mark.parametrize("z, name, value", [([math.nan, -0.2], "z[0]", "nan"), ([-0.5, -math.inf], "z[1]", "-inf")])
    def test_multinomial_rejects_a_non_finite_argument_by_name(self, z, name, value):
        # a non-finite order sum never counts as small, so the sum would
        # run on through its composition sums towards the term budget
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite, got {value}$"):
            multinomial_ml(MultinomialMLParams((0.5, 0.3), 1.0), z)


def prabhakar_peak_log10_loop(p, x):
    """The Prabhakar peak scan one grid point at a time."""
    la_x = math.log(abs(x))
    best = -math.inf
    n = 0
    while n <= 4000:
        g = p.q1 * n + p.q2
        if not (g <= 0.0 and g == math.floor(g)):
            la = gammaln(p.q3 + n) - gammaln(p.q3) - gammaln(n + 1.0) + n * la_x - float(gammaln(g))
            if math.isfinite(la):
                best = max(best, la)
        n = max(n + 1, int(n * 1.25))
    return best / math.log(10.0)


class TestPrabhakarPeakScan:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(q1=st.floats(0.05, 0.99), q2=st.floats(-3.0, 3.0), q3=st.floats(-2.5, 3.0),
           x=st.floats(-1e3, -1e-3))
    @example(q1=0.5, q2=0.0, q3=1.0, x=-3.0)  # Gamma pole at n = 0
    @example(q1=0.5, q2=-1.0, q3=1.0, x=-50.0)  # poles at n = 0 and 2
    @example(q1=0.25, q2=-2.0, q3=0.5, x=-0.5)  # poles at n = 0 and 4
    @example(q1=0.5, q2=1.0, q3=-1.0, x=-3.0)  # no finite term
    def test_array_pass_equals_the_loop(self, q1, q2, q3, x):
        p = MLParams(q1, q2, q3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = prabhakar_peak_log10_loop(p, x)
        assert _prabhakar_peak_log10(p, x) == ref


class TestRgammaTables:
    """The mpmath branches share their 1/Gamma tables per (series,
    parameters, precision class); a value does not depend on which calls
    built the table it reads."""

    @pytest.mark.parametrize(
        "f, x, same_class, other_class",
        [
            # working precisions 60, 78 (class 80) and 101 (class 150) digits
            (lambda x: prabhakar(MLParams(0.4, 1.3, 0.9), x), -6.0, -7.0, -8.0),
            # 48, 63 (class 80) and 105 (class 150) digits
            (lambda z: mwright_density(0.6, z), 10.0, 12.0, 16.0),
        ],
        ids=["prabhakar", "mwright"],
    )
    def test_value_independent_of_table_history(self, f, x, same_class, other_class):
        def entries():
            return sum(map(len, specfun._RGAMMA_TABLES.values()))

        specfun._RGAMMA_TABLES.clear()
        cold = f(x)
        specfun._RGAMMA_TABLES.clear()
        f(same_class)
        before = entries()
        extended = f(x)
        assert entries() == before  # read from the table the larger argument built
        specfun._RGAMMA_TABLES.clear()
        f(other_class)
        after_other_class = f(x)
        assert len(specfun._RGAMMA_TABLES) == 2
        assert cold == extended == after_other_class

    def test_retained_memory_bounded(self):
        def fill(count):
            for i in range(count):
                prabhakar(MLParams(0.5, 1.0 + 0.1 * i, 1.0), -8.0)

        fill(1)  # mpmath's own constants and caches at this precision
        specfun._RGAMMA_TABLES.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fill(specfun._RGAMMA_TABLE_COUNT)
            at_count = tracemalloc.get_traced_memory()[0] - base
            specfun._RGAMMA_TABLES.clear()
            fill(specfun._RGAMMA_TABLE_COUNT + 2)
            beyond = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        kept = sum(map(len, specfun._RGAMMA_TABLES.values()))
        assert len(specfun._RGAMMA_TABLES) == specfun._RGAMMA_TABLE_COUNT
        # an entry is one raw mpmath value (about 210 bytes at 80 digits)
        assert beyond < 300 * kept + 64 * 1024
        assert beyond < at_count + 16 * 1024


def prabhakar_series_loop(p, x):
    """The float Prabhakar series (q3 > 0) one term at a time."""
    la_x, sg_x = math.log(abs(x)), (1.0 if x >= 0 else -1.0)

    def term(n):
        g = p.q1 * n + p.q2
        if g <= 0.0 and g == math.floor(g):
            return 0.0
        la = gammaln(p.q3 + n) - gammaln(p.q3) - gammaln(n + 1.0) + n * la_x - float(gammaln(g))
        return (sg_x**n) * float(gammasgn(g)) * math.exp(la)

    return sum_series(term)


class TestPrabhakarSeriesBlocks:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(q1=st.floats(0.05, 2.5), q2=st.floats(-3.0, 3.0), q3=st.floats(0.01, 3.0),
           x=st.floats(-25.0, 25.0))
    @example(q1=0.5, q2=-1.0, q3=1.0, x=-2.0)  # Gamma poles at n = 0 and 2
    def test_blocks_equal_the_loop(self, q1, q2, q3, x):
        assume(x != 0.0)
        p = MLParams(q1, q2, q3)
        try:
            ref = prabhakar_series_loop(p, x)
        except (OverflowError, TruncationBudgetExceeded) as exc:
            with pytest.raises(type(exc)):
                _prabhakar_series(p, x)
            return
        got = _prabhakar_series(p, x)
        assert (got.value, got.n_terms, got.max_abs_term) == (ref.value, ref.n_terms, ref.max_abs_term)


def prabhakar_mp_objects(p, x, dps):
    """_prabhakar_mp written with mpf objects, on the same 1/Gamma tables."""
    with mp.workdps(dps):
        q3, xm = mp.mpf(p.q3), mp.mpf(x)
        cls, rg = specfun._rgamma_table(("prabhakar", p.q1, p.q2), dps)
        s, coef, small, n = mp.mpf(0), mp.mpf(1), 0, 0
        thresh = mp.mpf(10) ** (-dps + 10)
        while True:
            if n == len(rg):
                with mp.workdps(cls):
                    rg.append(mp.rgamma(mp.mpf(p.q1) * n + mp.mpf(p.q2))._mpf_)
            t = coef * (+mp.mpf(rg[n]))
            s += t
            small = small + 1 if abs(t) < thresh else 0
            if small >= 8:
                return float(s)
            n += 1
            coef *= (q3 + n - 1) * xm / n


def mwright_mp_objects(beta, z, dps):
    """_mwright_mp written with mpf objects, on the same 1/Gamma tables."""
    with mp.workdps(dps):
        zm, bem = mp.mpf(z), mp.mpf(beta)
        cls, rg = specfun._rgamma_table(("mwright", beta), dps)
        s, coef, small = mp.mpf(0), mp.mpf(1), 0
        thresh = mp.mpf(10) ** (-dps + 10)
        for n in range(500_000):
            if n:
                coef *= -zm / n
            if n == len(rg):
                with mp.workdps(cls):
                    rg.append(mp.rgamma(-bem * n + 1 - bem)._mpf_)
            t = coef * (+mp.mpf(rg[n]))
            s += t
            small = small + 1 if abs(t) < thresh else 0
            if small >= 8:
                return float(s)


class TestMpSumsOnRawValues:
    """The mpmath loops on raw values give the bits of the same loops on
    mpf objects, the q3 = 1 factor included."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(q1=st.floats(0.4, 0.8), q2=st.floats(0.5, 2.0), q3=st.sampled_from([1.0, 0.7, 1.6]),
           x=st.floats(-12.0, -3.0), dps=st.integers(26, 90))
    def test_prabhakar(self, q1, q2, q3, x, dps):
        p = MLParams(q1, q2, q3)
        assert _prabhakar_mp(p, x, dps) == prabhakar_mp_objects(p, x, dps)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(beta=st.floats(0.45, 0.7), z=st.floats(4.0, 12.0), dps=st.integers(26, 90))
    def test_mwright(self, beta, z, dps):
        assert _mwright_mp(beta, z, dps) == mwright_mp_objects(beta, z, dps)


def ml_peak_log10_loop(beta, x):
    """The Mittag-Leffler peak scan one grid point at a time, stopping 60
    e-folds below the largest term."""
    lx = math.log(abs(x))
    best = -math.inf
    n = 0
    while n <= 200_000:
        la = n * lx - gammaln(beta * n + 1.0)
        best = max(best, la)
        if n > 20 and la < best - 60:
            break
        n = max(n + 1, int(n * 1.2))
    return best / math.log(10.0)


def mwright_peak_log10_loop(beta, z):
    """The Wright peak scan one grid point at a time, skipping non-finite
    logs (the Gamma poles) and stopping 60 e-folds below the largest term."""
    if z == 0.0:
        return 0.0
    lz = math.log(z)
    best = -math.inf
    n = 0
    while n <= 200_000:
        g = -beta * n + 1.0 - beta
        la = n * lz - gammaln(n + 1.0) - gammaln(g)
        if math.isfinite(la):
            best = max(best, la)
            if n > 20 and la < best - 60:
                break
        n = max(n + 1, int(n * 1.2))
    return best / math.log(10.0)


def ml_series_loop(beta, x):
    """The float Mittag-Leffler series one term at a time."""
    lx = math.log(abs(x))
    sg = 1.0 if x > 0 else -1.0
    return sum_series(lambda n: sg**n * math.exp(n * lx - gammaln(beta * n + 1.0)))


def mwright_series_loop(beta, z):
    """The float Wright series one term at a time."""
    lz = math.log(z)

    def term(n):
        g = -beta * n + 1.0 - beta
        if g <= 0.0 and g == math.floor(g):
            return 0.0
        sg_g, lg = float(gammasgn(g)), -float(gammaln(g))
        la = n * lz - gammaln(n + 1.0) + lg
        return (-1.0) ** n * sg_g * math.exp(la)

    return sum_series(term)


def assert_same_sum(got_fn, ref_fn):
    """Equal (value, terms, largest term), or the same exception."""
    try:
        ref = ref_fn()
    except (OverflowError, TruncationBudgetExceeded) as exc:
        with pytest.raises(type(exc)):
            got_fn()
        return
    got = got_fn()
    assert (got.value, got.n_terms, got.max_abs_term) == (ref.value, ref.n_terms, ref.max_abs_term)


class TestSharedSeriesEqualTheLoops:
    """The Mittag-Leffler and Wright series through the shared array peak
    scan and blocked float sum give the bits of their one-term loops."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(beta=st.floats(0.05, 0.99), x=st.floats(-1e3, -1e-3))
    @example(beta=0.5, x=-40.0)
    @example(beta=0.05, x=-1e-3)
    def test_ml_peak(self, beta, x):
        got = specfun._peak_log10(*specfun._ml_logs(beta, x)(specfun._PEAK_N))
        assert got == ml_peak_log10_loop(beta, x)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(beta=st.floats(0.05, 0.95), z=st.floats(1e-3, 60.0))
    @example(beta=0.25, z=7.0)  # Gamma poles at n = 3, 7, 11, ...
    @example(beta=0.5, z=20.0)  # poles at every odd n
    @example(beta=0.75, z=3.0)  # poles at n = 1, 3, 5, ...
    def test_mwright_peak(self, beta, z):
        assert _mwright_peak_log10(beta, z) == mwright_peak_log10_loop(beta, z)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(beta=st.floats(0.05, 0.99), x=st.floats(-60.0, 60.0))
    @example(beta=0.5, x=-5.0)
    @example(beta=0.3, x=700.0)  # a term overflows
    def test_ml_series(self, beta, x):
        assume(x != 0.0)
        logs = specfun._ml_logs(beta, x)
        assert_same_sum(lambda: specfun._float_series(logs, x < 0.0),
                        lambda: ml_series_loop(beta, x))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(beta=st.floats(0.05, 0.95), z=st.floats(1e-3, 12.0))
    @example(beta=0.25, z=7.0)
    @example(beta=0.5, z=3.0)
    @example(beta=0.75, z=2.0)
    def test_mwright_series(self, beta, z):
        logs = specfun._mwright_logs(beta, z)
        assert_same_sum(lambda: specfun._float_series(logs, True),
                        lambda: mwright_series_loop(beta, z))
