"""Monte Carlo solver: exact pathwise identities, closed-form anchors,
representation equivalence, and the diffusion-with-flow consistency."""

import math
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
    doss_sussmann_flow,
    flow_map,
    path_values,
    solve,
    solve_doss_sussmann,
    stretch_solution,
    _draw_time_changes,
    _pathwise_values,
)
from subfrac.kernels import CACHE_SIZE, ConvPowerSumKernel, FractionalPowerKernel, GGBMKernel, StretchFn
from subfrac.sampling import (
    SUB_GAUSSIAN,
    BernsteinSpec,
    path_uniforms,
    stable_symmetric_from_uniforms,
)

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
        tau = _draw_time_changes(law, 1.0, 2000, SEED, 0)
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
        from subfrac.phi import phi_closed

        k = MSMKernel(a=2.0, b=1.0, mu=0.5, nu=2.0)
        law = derive_time_change_law(k, [1.0])
        draws = _draw_time_changes(law, 1.0, 50_000, 77, 0)
        for lam in (0.5, 1.0, 2.0):
            w = np.exp(-lam * draws)
            se = np.std(w, ddof=1) / math.sqrt(len(w))
            target = phi_closed(k, 1.0, -lam)
            assert abs(np.mean(w) - target) < 4.0 * se + 2e-3  # inversion bias
        # homogeneous product structure is exact pathwise
        d1 = _draw_time_changes(law, 1.0, 500, 77, 0)
        d2 = _draw_time_changes(law, 2.0, 500, 77, 0)
        assert np.allclose(d2, d1 * 2.0**k.theta, rtol=1e-12)


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


class TestFlow:
    def test_constant_sigma_linear(self):
        assert doss_sussmann_flow(lambda z: 2.5, 1.3, 0.4) == pytest.approx(
            0.4 + 2.5 * 1.3, rel=1e-12
        )

    def test_initial_condition(self):
        assert doss_sussmann_flow(lambda z: math.sin(z) + 2.0, 0.0, 0.7) == 0.7

    def test_fourth_order_convergence(self):
        sigma = lambda z: 2.0 + math.sin(z)
        ref = doss_sussmann_flow(sigma, 1.0, 0.0, ode_steps=2048)
        errs = [
            abs(doss_sussmann_flow(sigma, 1.0, 0.0, ode_steps=n, rich_tol=1e9) - ref)
            for n in (8, 16, 32)
        ]
        orders = [math.log(errs[i] / errs[i + 1], 2) for i in range(2)]
        assert min(orders) > 3.5

    def test_step_budget_guard(self):
        with pytest.raises(StepCountInsufficient):
            doss_sussmann_flow(lambda z: 2.0 + math.sin(5 * z), 4.0, 0.0, ode_steps=2)

    def test_flow_map_matches_scalar(self):
        sigma = lambda z: 2.0 + math.sin(z)
        ys = np.array([-1.5, -0.2, 0.0, 0.4, 2.0])
        batch = flow_map(sigma, ys, 0.3)
        for y, v in zip(ys, batch):
            assert v == pytest.approx(doss_sussmann_flow(sigma, float(y), 0.3, 512), abs=1e-8)


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
