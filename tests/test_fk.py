"""Monte Carlo solver: exact pathwise identities, closed-form anchors,
representation equivalence, and the diffusion-with-flow consistency."""

import math
import time
import tracemalloc
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from subfrac import fk as fk_module
from subfrac.fk import (
    BrownianDrift,
    CallablePotential,
    ConstantPotential,
    DossSussmann,
    Estimate,
    FKProblem,
    GaussianBump,
    ProcessModel,
    RsgpScopeError,
    StableLevy,
    StepCountInsufficient,
    ZeroPotential,
    derive_time_change_law,
    flow_map,
    path_values,
    solve,
    solve_doss_sussmann,
    stretch_solution,
    _pathwise_values,
)
from subfrac.kernels import (
    CACHE_SIZE,
    ConvMultinomialMLKernel,
    ConvPowerSumKernel,
    FractionalPowerKernel,
    GGBMKernel,
    StretchFn,
)
from subfrac.oracle import SpectralGrid, spectral_solution
from subfrac.phi import ClosedFormPhi
from subfrac.sampling import (
    SUB_GAUSSIAN,
    BernsteinSpec,
    path_uniforms,
    stable_symmetric_from_uniforms,
    time_change_draws,
)
from subfrac.validate import _fk_case_a

SEED = 31415
U0 = GaussianBump(0.0, 1.0)


def ggbm_problem(**kw):
    base = dict(
        kernel=GGBMKernel(0.8, 0.6),
        process=ProcessModel(base=BrownianDrift(0.0)),
        potential=ZeroPotential(),
        u0=U0,
        eval_points=((1.0, 0.0),),
    )
    base.update(kw)
    return FKProblem(**base)


class TestDispatchAndInvariants:
    def test_time_zero_recovers_initial_condition(self):
        prob = ggbm_problem(eval_points=((0.0, 0.4),))
        est = solve(prob, 100, SEED)[0]
        assert est.mean == float(U0(0.4))
        assert est.stderr == 0.0

    def test_reproducible_estimates(self):
        prob = ggbm_problem()
        a = solve(prob, 5000, SEED)[0]
        b = solve(prob, 5000, SEED)[0]
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_zero_vs_constant_zero_identical(self):
        prob0 = ggbm_problem()
        probc = ggbm_problem(potential=ConstantPotential(0.0))
        v0 = path_values(prob0, (1.0, 0.0), 2000, SEED)
        vc = path_values(probc, (1.0, 0.0), 2000, SEED)
        assert np.array_equal(v0, vc)

    def test_constant_potential_factorization(self):
        # values with potential c equal the bare values times e^{c A(t)}
        prob = ggbm_problem()
        law = derive_time_change_law(prob.kernel, [1.0])
        tau = time_change_draws(law, 1.0, SEED, 2000)
        v0 = path_values(prob, (1.0, 0.0), 2000, SEED)
        vc = path_values(
            ggbm_problem(potential=ConstantPotential(-0.3)), (1.0, 0.0), 2000, SEED
        )
        assert np.allclose(vc, v0 * np.exp(-0.3 * tau), rtol=1e-13)

    def test_classical_heat_anchor(self):
        prob = FKProblem(
            kernel=FractionalPowerKernel(1.0),
            process=ProcessModel(base=BrownianDrift(0.0)),
            potential=ZeroPotential(),
            u0=U0,
            eval_points=((1.0, 0.0),),
        )
        est = solve(prob, 60_000, SEED)[0]
        exact = 1.0 / math.sqrt(2.0)  # width/sqrt(width^2 + t) at x = 0
        assert abs(est.mean - exact) < 3.5 * est.stderr

    def test_subordinated_positive_potential_rejected(self):
        with pytest.raises(ValueError):
            ggbm_problem(
                process=ProcessModel(
                    base=BrownianDrift(0.0),
                    subordination=BernsteinSpec.stable_power(0.5),
                ),
                potential=ConstantPotential(0.1),
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ggbm_problem(eval_points=((-1.0, 0.0),))

    def test_n_paths_floor(self):
        with pytest.raises(ValueError):
            solve(ggbm_problem(), 1, SEED)

    def test_estimate_fields(self):
        est = solve(ggbm_problem(), 4000, SEED)[0]
        assert isinstance(est, Estimate)
        assert est.n_paths == 4000
        assert est.seed == SEED
        assert est.stderr > 0

    def test_numeric_cdf_mixing_for_f3_family(self):
        # the Appell-family kernel has no closed-form sampler; its product
        # law is built by Laplace inversion and must reproduce the
        # closed-form transform of the memory function
        from subfrac.kernels import MSMKernel
        from subfrac.phi import ClosedFormPhi

        k = MSMKernel(a=2.0, b=1.0, mu=0.5, nu=2.0)
        law = derive_time_change_law(k, [1.0])
        draws = time_change_draws(law, 1.0, 77, 50_000)
        for lam in (0.5, 1.0, 2.0):
            w = np.exp(-lam * draws)
            se = np.std(w, ddof=1) / math.sqrt(len(w))
            target = ClosedFormPhi(k).value(1.0, -lam)
            assert abs(np.mean(w) - target) < 4.0 * se + 2e-3  # inversion bias
        # homogeneous product structure is exact pathwise
        d1 = time_change_draws(law, 1.0, 77, 500)
        d2 = time_change_draws(law, 2.0, 77, 500)
        assert np.allclose(d2, d1 * 2.0**k.theta, rtol=1e-12)

    def test_numeric_cdf_law_of_a_kernel_near_a_gamma_pole(self):
        # 1 + mu - 2 b / a = -0.0026 puts a Prabhakar asymptote term next to
        # a pole of Gamma; the Laplace inversion of the law amplifies any
        # error of that branch
        from subfrac.kernels import MSMKernel
        from subfrac.phi import ClosedFormPhi

        k = MSMKernel(a=1.52, b=0.99, mu=0.3, nu=1.52)
        law = derive_time_change_law(k, [1.0])
        draws = time_change_draws(law, 1.0, 77, 50_000)
        for lam in (0.5, 1.0, 2.0):
            w = np.exp(-lam * draws)
            se = np.std(w, ddof=1) / math.sqrt(len(w))
            assert abs(np.mean(w) - ClosedFormPhi(k).value(1.0, -lam)) < 4.0 * se + 2e-3


class TestConvKernelAgainstFourier:
    def test_path_solve_matches_spectral_solution(self):
        # A(t) is the inverse subordinator of h = p^0.62 + 0.5 p^0.3; hat-u0
        # of the wide bump is below 1e-17 beyond |xi| = 1.5
        kernel = ConvMultinomialMLKernel(0.62, (0.3,), (0.5,))
        u0 = GaussianBump(0.0, 6.0)
        problem = FKProblem(kernel=kernel, process=ProcessModel(base=BrownianDrift(0.0)),
                            potential=ZeroPotential(), u0=u0, eval_points=((0.5, 0.0), (1.5, 2.0)))
        grid = SpectralGrid(xi_max=1.5, n_modes=64)
        for (t, x), e in zip(problem.eval_points, solve(problem, 20_000, SEED)):
            ref = spectral_solution(kernel, u0, "laplacian_half", t, x, grid=grid,
                                    phi_evaluator=ClosedFormPhi(kernel))
            assert abs(e.mean - ref) < 4.0 * e.stderr, (t, x, e, ref)


class TestRepresentations:
    @pytest.mark.parametrize("rep", ["timechanged_bm", "scaled_bm", "scaled_fbm"])
    def test_rsgp_matches_path_route(self, rep):
        base = solve(ggbm_problem(), 40_000, SEED)[0]
        alt = solve(ggbm_problem(representation=rep), 40_000, SEED + 1)[0]
        joint = math.hypot(base.stderr, alt.stderr)
        assert abs(base.mean - alt.mean) < 3.5 * joint

    def test_pairwise_equivalence(self):
        ests = {
            rep: solve(ggbm_problem(representation=rep), 40_000, SEED + i)[0]
            for i, rep in enumerate(("timechanged_bm", "scaled_bm", "scaled_fbm"))
        }
        reps = list(ests)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                a, b = ests[reps[i]], ests[reps[j]]
                assert abs(a.mean - b.mean) < 3.0 * math.hypot(a.stderr, b.stderr)

    def test_scope_checks(self):
        with pytest.raises(RsgpScopeError):
            ggbm_problem(
                representation="scaled_bm",
                process=ProcessModel(base=StableLevy(1.5)),
            )
        with pytest.raises(RsgpScopeError):
            FKProblem(
                kernel=ConvPowerSumKernel(beta=0.5, betas=(0.3,), bs=(0.5,)),
                process=ProcessModel(base=BrownianDrift(0.0)),
                potential=ZeroPotential(),
                u0=U0,
                eval_points=((1.0, 0.0),),
                representation="scaled_bm",
            )
        with pytest.raises(RsgpScopeError):
            ggbm_problem(
                representation="scaled_bm",
                potential=CallablePotential(fn=lambda y: -(y**2), sup_bound=0.0),
            )

    def test_invalid_hurst_for_scaled_fbm(self):
        from subfrac.sampling import InvalidHurst

        prob = FKProblem(
            kernel=GGBMKernel(1.5, 0.9),
            process=ProcessModel(
                base=BrownianDrift(0.0),
                subordination=BernsteinSpec.stable_power(0.5),
            ),
            potential=ZeroPotential(),
            u0=U0,
            eval_points=((1.0, 0.0),),
            representation="scaled_fbm",
        )
        with pytest.raises(InvalidHurst):
            solve(prob, 100, SEED)


class TestCallablePotential:
    def test_grid_bias_diagnostic(self):
        prob = ggbm_problem(
            potential=CallablePotential(fn=lambda y: -0.5 * np.tanh(y) ** 2, sup_bound=0.0)
        )
        est = solve(prob, 4000, SEED, grid_steps=64)[0]
        d = est.grid_diagnostics
        assert d is not None
        assert abs(d["bias_estimate"]) < 4.0 * max(d["joint_stderr"], 1e-12) + 5e-4

    def test_constant_callable_matches_constant_dispatch(self):
        c = -0.25
        probc = ggbm_problem(potential=ConstantPotential(c))
        probf = ggbm_problem(
            potential=CallablePotential(fn=lambda y: np.full_like(y, c), sup_bound=c)
        )
        a = solve(probc, 20_000, SEED)[0]
        b = solve(probf, 20_000, SEED + 3, grid_steps=32)[0]
        assert abs(a.mean - b.mean) < 3.5 * math.hypot(a.stderr, b.stderr)

    def test_stable_base_with_potential_runs(self):
        prob = ggbm_problem(
            process=ProcessModel(base=StableLevy(1.5)),
            potential=CallablePotential(fn=lambda y: -0.1 * np.ones_like(y), sup_bound=-0.1),
        )
        est = solve(prob, 2000, SEED, grid_steps=32)[0]
        assert 0.0 < est.mean < 1.0


def pathwise_reference(problem, x, tau, seed, base_sub, m, flow=None):
    """The pathwise estimator one path at a time: midpoint quadrature of V
    along each path, u0 and exp in scalar arithmetic."""
    base = problem.process.base
    V = problem.potential.fn
    stable = isinstance(base, StableLevy)
    k = (m + 1) * (2 if stable else 1)
    u = path_uniforms(seed, base_sub + SUB_GAUSSIAN, len(tau), k)
    frac_mid = (np.arange(m) + 0.5) / m
    out = np.empty(len(tau))
    for i, ti in enumerate(tau):
        if ti == 0.0:
            out[i] = problem.u0(x)
            continue
        times = np.concatenate([frac_mid * ti, [ti]])
        dt = np.diff(np.concatenate([[0.0], times]))
        if stable:
            s = stable_symmetric_from_uniforms(u[i, ::2], u[i, 1::2], base.delta)
            pos = x + np.cumsum(2.0 ** (-0.5) * dt ** (1.0 / base.delta) * s)
        elif flow is not None:
            z = ndtri(np.clip(u[i], 1e-15, 1.0 - 1e-15))
            pos = flow(np.cumsum(np.sqrt(dt) * z) + base.w * times)
        else:
            z = ndtri(np.clip(u[i], 1e-15, 1.0 - 1e-15))
            pos = x + np.cumsum(base.w * dt + np.sqrt(dt) * z)
        integral = float(np.sum(V(pos[:-1]) * (ti / m)))
        out[i] = problem.u0(pos[-1]) * math.exp(integral)
    return out


class TestPathwiseVectorized:
    """The all-paths pathwise estimator against the per-path reference."""

    TAU = np.array([0.7, 0.0, 1.3, 0.05, 0.0, 2.2, 0.4, 1.0, 0.9, 3.1])

    @pytest.mark.parametrize(
        "base", [BrownianDrift(0.4), BrownianDrift(-0.3), StableLevy(1.5), StableLevy(0.8)]
    )
    @pytest.mark.parametrize("m", [1, 7, 32])
    def test_bit_identical_to_per_path_loop(self, base, m):
        prob = ggbm_problem(
            process=ProcessModel(base=base),
            potential=CallablePotential(fn=lambda y: -0.5 * np.tanh(y) ** 2, sup_bound=0.0),
            u0=GaussianBump(0.2, 0.8, 1.5),
        )
        tau = np.tile(self.TAU, 30)
        got = _pathwise_values(prob, 1.0, 0.3, tau, SEED, 8, m)
        ref = pathwise_reference(prob, 0.3, tau, SEED, 8, m)
        assert np.array_equal(got, ref)
        assert np.all(got[tau == 0.0] == prob.u0(0.3))

    def test_doss_sussmann_matches_per_path_flow(self):
        sigma = lambda z: 1.0 + 0.5 * math.sin(z)
        prob = ggbm_problem(
            process=ProcessModel(base=DossSussmann(sigma=sigma, w=0.3)),
            potential=CallablePotential(fn=lambda y: -0.2 * np.cos(y) ** 2, sup_bound=0.0),
        )
        tau = np.tile(self.TAU, 5)
        got = _pathwise_values(prob, 1.0, 0.1, tau, SEED, 0, 16)
        ref = pathwise_reference(
            prob, 0.1, tau, SEED, 0, 16, flow=lambda d: flow_map(sigma, d, 0.1)
        )
        assert np.max(np.abs(got - ref)) < 1e-8
        assert np.all(got[tau == 0.0] == U0(0.1))


def exact_sin_flow(y, x):
    """g(y, x) for dz/dy = 2 + sin z.  In u = tan(z/2) it separates as
    du / (u^2 + u + 1) = dy, so tan(g/2) = (sqrt(3) tan W - 1) / 2 with
    W = y sqrt(3)/2 + arctan((2 tan(x/2) + 1) / sqrt(3)), valid while
    |W| < pi/2 (the trajectory stays inside (-pi, pi))."""
    r3 = math.sqrt(3.0)
    w = 0.5 * r3 * np.asarray(y, dtype=float) + math.atan((2.0 * math.tan(0.5 * x) + 1.0) / r3)
    assert np.all(np.abs(w) < 0.5 * math.pi)
    return 2.0 * np.arctan((r3 * np.tan(w) - 1.0) / 2.0)


class TestFlow:
    SIGMA = staticmethod(lambda z: 2.0 + math.sin(z))

    def test_constant_sigma_linear(self):
        assert flow_map(lambda z: 2.5, [1.3], 0.4)[0] == pytest.approx(0.4 + 2.5 * 1.3, rel=1e-12)

    def test_initial_condition(self):
        assert flow_map(self.SIGMA, [0.0], 0.7)[0] == 0.7

    def test_fourth_order_convergence(self):
        # the fixed-step integrator under the flow map, against the exact flow
        ref = exact_sin_flow(1.0, 0.0)
        errs = [abs(fk_module._rk4(self.SIGMA, 0.0, 1.0 / n, n)[-1] - ref) for n in (8, 16, 32)]
        orders = [math.log(errs[i] / errs[i + 1], 2) for i in range(2)]
        assert min(orders) > 3.5

    def test_step_budget_guard(self):
        # 2500 units of driver at 512 nodes per unit pass the 2^20 node bound
        with pytest.raises(StepCountInsufficient, match="driver span"):
            flow_map(self.SIGMA, [-1.0, 2500.0], 0.0)

    def test_flow_map_matches_scalar(self):
        # queried values on and between trajectory nodes, against the
        # closed form on a range whose trajectory stays inside (-pi, pi)
        ys = np.concatenate([[-1.5, -0.2, 0.0, 0.4], np.linspace(-2.5, 1.05, 71)])
        assert np.max(np.abs(flow_map(self.SIGMA, ys, 0.3) - exact_sin_flow(ys, 0.3))) < 1e-8

    def test_flow_map_value_independent_of_batch(self):
        sigma = lambda z: 2.0 + math.sin(z)
        ys = 3.0 * np.random.default_rng(4).standard_normal(400)
        full = flow_map(sigma, ys, 0.3)
        for part in (slice(0, 1), slice(50, 80), slice(399, 400)):
            assert np.array_equal(flow_map(sigma, ys[part], 0.3), full[part])
        positive = np.flatnonzero(ys > 0.5)
        assert np.array_equal(flow_map(sigma, ys[positive], 0.3), full[positive])


class TestDossSussmannSolver:
    def test_both_forms_agree(self):
        prob = ggbm_problem(
            process=ProcessModel(base=DossSussmann(sigma=lambda z: 2.0 + np.sin(z), w=0.5)),
            potential=ConstantPotential(-0.1),
        )
        res = solve_doss_sussmann(prob, 50_000, SEED)[0]
        assert abs(res.difference) < 3.0 * res.joint_stderr

    def test_time_zero(self):
        prob = ggbm_problem(
            process=ProcessModel(base=DossSussmann(sigma=lambda z: 2.0 + np.sin(z), w=0.5)),
            potential=ConstantPotential(-0.1),
            eval_points=((0.0, 0.2),),
        )
        res = solve_doss_sussmann(prob, 100, SEED)[0]
        assert res.with_drift.mean == float(U0(0.2))
        assert res.difference == 0.0

    def test_constant_sigma_reduction(self):
        # sigma == s0: the flow solution equals the Brownian solver on the
        # problem with the bump rescaled through y -> x + s0 (y - x)
        s0, w, c, x = 2.0, 0.5, -0.1, 0.0
        prob = ggbm_problem(
            process=ProcessModel(base=DossSussmann(sigma=lambda z: s0, w=w)),
            potential=ConstantPotential(c),
            eval_points=((1.0, x),),
        )
        res = solve_doss_sussmann(prob, 60_000, SEED)[0]
        equiv = ggbm_problem(
            process=ProcessModel(base=BrownianDrift(w)),
            potential=ConstantPotential(c),
            u0=GaussianBump(center=x + (U0.center - x) / s0, width=U0.width / s0),
            eval_points=((1.0, x),),
        )
        ref = solve(equiv, 60_000, SEED + 9)[0]
        joint = math.hypot(res.with_drift.stderr, ref.stderr)
        assert abs(res.with_drift.mean - ref.mean) < 3.0 * joint

    def test_positive_c_rejected(self):
        prob = ggbm_problem(
            process=ProcessModel(base=DossSussmann(sigma=lambda z: 2.0, w=0.0)),
            potential=ConstantPotential(0.2),
        )
        with pytest.raises(ValueError):
            solve_doss_sussmann(prob, 100, SEED)

    def test_requires_flow_base(self):
        with pytest.raises(ValueError):
            solve_doss_sussmann(ggbm_problem(), 100, SEED)

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_too_few_paths_rejected(self, n_paths):
        prob = ggbm_problem(process=ProcessModel(base=DossSussmann(sigma=lambda z: 2.0, w=0.0)))
        with pytest.raises(ValueError, match="n_paths must be >= 2"):
            solve_doss_sussmann(prob, n_paths, SEED)

    def test_flow_base_solve_identical_for_any_workers(self):
        prob = ggbm_problem(
            process=ProcessModel(base=DossSussmann(sigma=lambda z: 2.0 + np.sin(z), w=0.2)),
            eval_points=((1.0, 0.3),),
        )
        runs = [solve(prob, 2000, 5, workers=w)[0] for w in (1, 2, 3)]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].stderr == runs[1].stderr == runs[2].stderr

    def test_heavy_tailed_driver_span_fails_fast(self):
        # stable-power subordination makes A^{1/gamma} eta_1 heavy-tailed: the
        # largest of 1500 combined amplitudes (seed 9) is 8.4e5, a flow span
        # of ~10^8 RK4 steps, so the flow map refuses it before integrating
        prob = ggbm_problem(
            process=ProcessModel(
                base=DossSussmann(sigma=lambda z: 2.0 + np.sin(z), w=0.2),
                subordination=BernsteinSpec.stable_power(0.6),
            ),
        )
        t0 = time.perf_counter()
        with pytest.raises(StepCountInsufficient, match="driver span"):
            solve_doss_sussmann(prob, 1500, 9)
        assert time.perf_counter() - t0 < 30.0


class TestStableNearOne:
    def test_ggbm_near_one_solve_finite(self):
        # Kanter's powers 1/(1 - gamma) underflowed here: NaN path values
        est = solve(ggbm_problem(kernel=GGBMKernel(0.99, 0.99)), 5000, 1)[0]
        assert math.isfinite(est.mean) and 0.0 < est.stderr < 0.05


class TestStretch:
    def test_identity_stretch_same_estimates(self):
        prob = ggbm_problem()
        st = StretchFn(g=lambda u: u, g_dot=lambda u: 1.0, power=1.0)
        stretched = stretch_solution(prob, st)
        a = solve(prob, 5000, SEED)[0]
        b = solve(stretched, 5000, SEED)[0]
        assert a.mean == pytest.approx(b.mean, rel=1e-12)

    def test_square_stretch_exact_time_map(self):
        # with shared seeds the stretched estimate at tau equals the base
        # estimate at g(tau) exactly, not just within MC error
        prob = ggbm_problem(eval_points=((0.25, 0.0),))
        st = StretchFn(g=lambda u: u * u, g_dot=lambda u: 2.0 * u, power=2.0)
        stretched = stretch_solution(replace(prob, eval_points=((0.5, 0.0),)), st)
        a = solve(prob, 5000, SEED)[0]
        b = solve(stretched, 5000, SEED)[0]
        assert b.mean == pytest.approx(a.mean, rel=1e-12)

    def test_stretched_kernel_attached(self):
        st = StretchFn(g=lambda u: u * u, g_dot=lambda u: 2.0 * u, power=2.0)
        stretched = stretch_solution(ggbm_problem(), st)
        assert stretched.kernel.family == "time_stretched"
        assert stretched.kernel.theta == pytest.approx(1.6)


class TestBoundedCDFCache:
    """Per-time CDF tables of a numeric-CDF law keep the CACHE_SIZE most
    recently used times."""

    def test_tables_are_bounded_and_warm_reads_repeat(self, monkeypatch):
        built = []

        def fake_cdf(evaluator, t, nodes):
            built.append(t)
            return object()

        monkeypatch.setattr(fk_module, "time_law_cdf", fake_cdf)
        monkeypatch.setattr(fk_module, "_cdf_nodes", lambda evaluator, t=1.0: None)
        law = derive_time_change_law(ConvPowerSumKernel(0.6, (0.3,), (0.5,)), [1.0])
        times = [0.05 * (i + 1) for i in range(40)]
        tables = [law.cdf_for_t(t) for t in times]
        cache = next(c.cell_contents for c in law.cdf_for_t.__closure__
                     if isinstance(c.cell_contents, OrderedDict))
        assert len(cache) <= CACHE_SIZE
        assert law.cdf_for_t(times[-1]) is tables[-1]
        assert len(built) == 40
        law.cdf_for_t(times[0])  # evicted: built again
        assert len(built) == 41


class TestChunking:
    """solve splits each point's path range into chunks of at most
    _CHUNK_VALUES path x grid values; the counter-based streams make any
    chunking give the same bits."""

    CASES = {
        "marginal_stable_power_constant": (ggbm_problem(
            process=ProcessModel(base=BrownianDrift(0.3),
                                 subordination=BernsteinSpec.stable_power(0.6)),
            potential=ConstantPotential(-0.2),
            eval_points=((0.5, 0.0), (1.0, 0.4)),
        ), 300, {}),
        "stable_base": (ggbm_problem(
            process=ProcessModel(base=StableLevy(1.5)), potential=ConstantPotential(-0.1),
        ), 300, {}),
        "flow_base": (ggbm_problem(
            process=ProcessModel(base=DossSussmann(sigma=lambda z: 2.0 + np.sin(z), w=0.2)),
        ), 300, {}),
        "callable_potential": (ggbm_problem(
            potential=CallablePotential(fn=lambda y: -0.5 * np.tanh(y) ** 2, sup_bound=0.0),
            eval_points=((0.5, 0.0), (1.0, 0.4)),
        ), 60, {"grid_steps": 16}),
        "timechanged_bm": (ggbm_problem(representation="timechanged_bm"), 150, {}),
        "scaled_bm": (ggbm_problem(representation="scaled_bm"), 150, {}),
        "scaled_fbm": (ggbm_problem(representation="scaled_fbm"), 150, {}),
        "conv_multinomial_ml": (ggbm_problem(
            kernel=ConvMultinomialMLKernel(0.62, (0.3,), (0.5,)),
            eval_points=((0.5, 0.0), (1.5, 2.0)),
        ), 300, {}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_small_chunks_bit_identical(self, case, monkeypatch):
        prob, n_paths, kw = self.CASES[case]
        whole = solve(prob, n_paths, SEED, **kw)
        monkeypatch.setattr(fk_module, "_CHUNK_VALUES", 97)
        chunked = solve(prob, n_paths, SEED, **kw)
        assert [(e.mean, e.stderr, e.grid_diagnostics) for e in chunked] == [
            (e.mean, e.stderr, e.grid_diagnostics) for e in whole
        ]
        if "grid_steps" in kw:
            assert all(e.grid_diagnostics is not None for e in chunked)

    def test_scaled_fbm_memory_bounded(self):
        # one pass over all 2e4 paths peaked near 166 MB; 1024-path chunks
        # keep it near 9 MB
        prob = replace(_fk_case_a(), representation="scaled_fbm")
        tracemalloc.start()
        try:
            solve(prob, 20_000, SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
