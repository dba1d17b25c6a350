"""The acceptance matrix: one callable per criterion, shared by the
command-line ``validate`` subcommand and the test suite.

Each criterion compares stochastic estimators or series evaluations
against an independent deterministic route and reports the observed
worst-case figure against its frozen tolerance.  Statistical criteria
scale their expectations with the path budget: running under budget makes
them honestly fail, which is the documented behaviour.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfc, hyp2f1

from .fk import (
    BrownianDrift,
    ConstantPotential,
    DossSussmann,
    FKProblem,
    GaussianBump,
    ProcessModel,
    ZeroPotential,
    solve,
    solve_doss_sussmann,
)
from .kernels import (
    ConvMultinomialMLKernel,
    ConvPowerSumKernel,
    FractionalPowerKernel,
    GGBMKernel,
    MSMKernel,
)
from .oracle import (
    caputo_l1,
    double_laplace_identity,
    semigroup_quadrature,
    spectral_solution,
)
from .phi import (
    ClosedFormPhi,
    SeriesPhi,
    VolterraPhi,
    check_complete_monotone,
)
from .sampling import (
    BernsteinSpec,
    mixing_from_uniforms,
    path_uniforms,
    scriptA_draws,
)
from .specfun import MLParams, appell_f3, mittag_leffler, prabhakar

__all__ = ["Budget", "CriterionResult", "CRITERIA", "list_criteria", "run", "run_one"]

GGBM_STD = GGBMKernel(0.8, 0.6)
MSM_STD = MSMKernel(a=2.0, b=1.0, mu=0.5, nu=2.0)
U0_STD = GaussianBump(0.0, 1.0)


@dataclass(frozen=True)
class Budget:
    paths: int = 100_000
    seed: int = 20240811

    def __post_init__(self) -> None:
        # the statistical criteria need a sample standard deviation
        if self.paths < 2:
            raise ValueError(f"paths must be >= 2, got {self.paths}")


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    passed: bool
    observed: float
    tolerance: float
    detail: str
    runtime_s: float

    @property
    def margin(self) -> float:
        """Positive distance inside tolerance (negative when failing)."""
        return self.tolerance - self.observed


def _result(cid, observed, tolerance, detail, t0) -> CriterionResult:
    return CriterionResult(
        cid=cid,
        passed=bool(observed <= tolerance),
        observed=float(observed),
        tolerance=float(tolerance),
        detail=detail,
        runtime_s=time.time() - t0,
    )


# -- 1: special-function identities ----------------------------------------

def criterion_specfun_identities(budget: Budget) -> CriterionResult:
    t0 = time.time()
    worst = 0.0
    for x in np.linspace(-10.0, 2.0, 121):
        worst = max(worst, abs(mittag_leffler(1.0, x) - math.exp(x)) / math.exp(x))
    for x in np.linspace(-4.0, 2.0, 121):
        rhs = math.exp(x * x) * erfc(-x)
        worst = max(worst, abs(mittag_leffler(0.5, x) - rhs) / abs(rhs))
    for q1 in (0.3, 0.5, 0.8):
        for x in np.linspace(-5.0, 0.0, 26):
            a = prabhakar(MLParams(q1, 1.0, 1.0), x)
            b = mittag_leffler(q1, x)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    for a, ap, b, bp, c, x in (
        (0.5, 0.7, 1.1, 0.9, 1.5, 0.3),
        (0.2, 0.3, 0.8, 1.2, 2.5, -0.6),
        (1.0, 0.5, 2.0, 1.0, 3.0, 0.7),
    ):
        lhs = appell_f3(a, ap, b, bp, c, x, 0.0)
        rhs = hyp2f1(a, b, c, x)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    runtime = time.time() - t0
    detail = f"max rel err {worst:.2e} over 4 identity families in {runtime:.1f}s"
    res = _result("specfun-identities", worst, 1e-10, detail, t0)
    if runtime > 5.0:
        res = replace(res, passed=False, detail=detail + " (runtime budget 5s exceeded)")
    return res


# -- 2: three-way closure of the memory function ----------------------------

def criterion_phi_three_way(budget: Budget) -> CriterionResult:
    t0 = time.time()
    worst_sc = worst_vc = 0.0
    for kernel in (GGBM_STD, MSM_STD):
        sp = SeriesPhi(kernel)
        closed = ClosedFormPhi(kernel)
        vol = VolterraPhi(kernel, horizon=1.0, n_steps=2048)
        for t in np.linspace(0.1, 1.0, 10):
            for lam in np.linspace(0.0, 5.0, 11):
                c = closed.value(t, -lam)
                worst_sc = max(worst_sc, abs(sp.value(t, -lam) - c))
                worst_vc = max(worst_vc, abs(vol.value(t, -lam) - c))
    runtime = time.time() - t0
    observed = max(worst_sc / 1e-8, worst_vc / 1e-5)  # normalized to 1
    detail = (
        f"|series-closed| {worst_sc:.2e} (tol 1e-8), "
        f"|volterra-closed| {worst_vc:.2e} (tol 1e-5) in {runtime:.1f}s"
    )
    res = _result("phi-three-way", observed, 1.0, detail, t0)
    if runtime > 60.0:
        res = replace(res, passed=False, detail=detail + " (runtime budget 60s exceeded)")
    return res


# -- 3: homogeneous scaling identity ----------------------------------------

def criterion_homogeneous_scaling(budget: Budget) -> CriterionResult:
    t0 = time.time()
    sp = SeriesPhi(GGBM_STD, use_homogeneous=False, horizon=1.5)
    rng = np.random.default_rng(budget.seed)
    worst = 0.0
    for _ in range(200):
        t = rng.uniform(0.02, 1.0)
        lam = rng.uniform(0.0, 3.0)
        worst = max(
            worst, abs(sp.value(t, -lam) - sp.value(1.0, -lam * t**GGBM_STD.theta))
        )
    return _result(
        "homogeneous-scaling",
        worst,
        1e-9,
        f"max |Phi(t,-lam) - Phi(1,-lam t^theta)| = {worst:.2e} over 200 samples",
        t0,
    )


# -- 4: complete monotonicity spot checks ------------------------------------

def criterion_complete_monotonicity(budget: Budget) -> CriterionResult:
    t0 = time.time()
    lam_closed = np.linspace(0.25, 10.0, 40)
    lam_volterra = np.linspace(0.5, 10.0, 20)
    failures = []
    for kernel in (GGBM_STD, MSM_STD, FractionalPowerKernel(0.5), FractionalPowerKernel(1.0)):
        rep = check_complete_monotone(ClosedFormPhi(kernel), 1.0, lam_closed)
        if not rep.passed:
            failures.append(f"{kernel.family}: {rep}")
    for kernel in (
        ConvPowerSumKernel(beta=0.5, betas=(0.3,), bs=(0.5,)),
        ConvMultinomialMLKernel(beta=0.5, betas=(0.3,), bs=(0.5,)),
    ):
        ev = VolterraPhi(kernel, horizon=1.0, n_steps=2048)
        rep = check_complete_monotone(ev, 1.0, lam_volterra, tol=1e-5)
        if not rep.passed:
            failures.append(f"{kernel.family}: {rep}")
    detail = "all built-in CM families pass orders 0..3 on lambda in [0, 10]" if not failures else "; ".join(failures)
    return _result("complete-monotonicity", float(len(failures)), 0.0, detail, t0)


# -- 5: mixing-law conformance ------------------------------------------------

def criterion_mixing_laws(budget: Budget) -> CriterionResult:
    t0 = time.time()
    n = budget.paths
    worst = 0.0
    details = []
    u = path_uniforms(budget.seed, 0, n, 2)
    for beta in (0.5, 0.6, 0.8):
        a = mixing_from_uniforms(u[:, 0], u[:, 1], beta)
        for lam in (0.5, 1.0, 2.0):
            w = np.exp(-lam * a)
            se = np.std(w, ddof=1) / math.sqrt(n)
            dev = abs(np.mean(w) - mittag_leffler(beta, -lam)) / se
            worst = max(worst, dev)
    details.append(f"amplitude transform worst dev {worst:.2f} se")
    gamma = 0.5
    cal_a = scriptA_draws(gamma, mixing_from_uniforms(u[:, 0], u[:, 1], 0.6), budget.seed)
    for lam in (0.5, 1.0, 2.0):
        w = np.exp(-lam * cal_a)
        se = np.std(w, ddof=1) / math.sqrt(n)
        target = mittag_leffler(0.6, -(lam**gamma))
        dev = abs(np.mean(w) - target) / se
        worst = max(worst, dev)
    details.append(f"combined-amplitude worst dev {worst:.2f} se")
    runtime = time.time() - t0
    res = _result(
        "mixing-laws", worst, 4.0, "; ".join(details) + f" at {n} draws in {runtime:.1f}s", t0
    )
    if runtime > 30.0:
        res = replace(res, passed=False, detail=res.detail + " (runtime budget 30s exceeded)")
    return res


# -- 6: double-Laplace identity ------------------------------------------------

def criterion_double_laplace(budget: Budget) -> CriterionResult:
    t0 = time.time()
    worst = 0.0
    details = []
    for sigma, lam in ((1.0, 1.0), (2.0, 0.5)):
        rep = double_laplace_identity(
            BernsteinSpec.stable_power(0.5), sigma, lam, budget.paths,
            master_seed=budget.seed,
        )
        worst = max(worst, abs(rep.rel_deviation))
        details.append(f"(sigma={sigma:g}, lam={lam:g}): {rep.rel_deviation:+.2%}")
    return _result("double-laplace", worst, 0.02, "; ".join(details), t0)


# -- 7: Feynman-Kac estimators vs deterministic oracles -------------------------

def _fk_case_a():
    return FKProblem(
        kernel=GGBM_STD,
        process=ProcessModel(base=BrownianDrift(0.0)),
        potential=ZeroPotential(),
        u0=U0_STD,
        eval_points=((0.5, 0.0), (1.0, 0.0), (1.0, 0.5)),
    )


def criterion_fk_vs_oracles(budget: Budget) -> CriterionResult:
    t0 = time.time()
    worst_sigma = 0.0
    worst_rel = 0.0
    details = []
    # (a) homogeneous kernel, Brownian path, no potential
    prob_a = _fk_case_a()
    ests = solve(prob_a, budget.paths, budget.seed)
    for est, (t, x) in zip(ests, prob_a.eval_points):
        oracle = semigroup_quadrature(GGBM_STD, U0_STD, BrownianDrift(0.0), t, x)
        worst_sigma = max(worst_sigma, abs(est.mean - oracle) / est.stderr)
        worst_rel = max(worst_rel, abs(est.mean - oracle) / abs(oracle))
    details.append(f"plain time change: worst dev {worst_sigma:.2f} se")
    # (b) power kernel + fractional generator through subordination, V = 0
    kern_b = FractionalPowerKernel(0.7)
    prob_b = FKProblem(
        kernel=kern_b,
        process=ProcessModel(
            base=BrownianDrift(0.0), subordination=BernsteinSpec.stable_power(0.5)
        ),
        potential=ZeroPotential(),
        u0=U0_STD,
        eval_points=((0.5, 0.0), (1.0, 0.0), (1.0, 0.5)),
    )
    ests = solve(prob_b, budget.paths, budget.seed)
    for est, (t, x) in zip(ests, prob_b.eval_points):
        oracle = spectral_solution(kern_b, U0_STD, "frac_laplacian", t, x, gamma=0.5)
        worst_sigma = max(worst_sigma, abs(est.mean - oracle) / est.stderr)
        worst_rel = max(worst_rel, abs(est.mean - oracle) / abs(oracle))
    details.append("subordinated case checked against the Fourier-multiplier oracle")
    # (c) constant potential variant of (a)
    prob_c = replace(prob_a, potential=ConstantPotential(-0.2))
    ests = solve(prob_c, budget.paths, budget.seed)
    for est, (t, x) in zip(ests, prob_c.eval_points):
        oracle = semigroup_quadrature(
            GGBM_STD, U0_STD, BrownianDrift(0.0), t, x, potential_c=-0.2
        )
        worst_sigma = max(worst_sigma, abs(est.mean - oracle) / est.stderr)
        worst_rel = max(worst_rel, abs(est.mean - oracle) / abs(oracle))
    runtime = time.time() - t0
    observed = max(worst_sigma / 3.0, worst_rel / 0.02)
    details.append(
        f"worst |dev| {worst_sigma:.2f} se (tol 3), worst rel {worst_rel:.3%} (tol 2%)"
    )
    res = _result("fk-vs-oracles", observed, 1.0, "; ".join(details) + f" in {runtime:.0f}s", t0)
    if runtime > 180.0:
        res = replace(res, passed=False, detail=res.detail + " (runtime budget 180s exceeded)")
    return res


# -- 8: representation equivalence ----------------------------------------------

def criterion_rsgp_equivalence(budget: Budget) -> CriterionResult:
    t0 = time.time()
    prob = _fk_case_a()
    reps = ("timechanged_bm", "scaled_bm", "scaled_fbm")
    ests = {
        rep: solve(replace(prob, representation=rep), budget.paths, budget.seed + i)
        for i, rep in enumerate(reps)
    }
    worst = 0.0
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            for ea, eb in zip(ests[reps[i]], ests[reps[j]]):
                joint = math.hypot(ea.stderr, eb.stderr)
                worst = max(worst, abs(ea.mean - eb.mean) / (3.0 * joint))
    return _result(
        "rsgp-equivalence",
        worst,
        1.0,
        f"worst pairwise |diff|/(3 joint se) = {worst:.2f} across 3 representations x 3 points",
        t0,
    )


# -- 9: flow-map consistency ------------------------------------------------------

def criterion_doss_sussmann(budget: Budget) -> CriterionResult:
    t0 = time.time()
    prob = FKProblem(
        kernel=GGBM_STD,
        process=ProcessModel(base=DossSussmann(sigma=lambda z: 2.0 + np.sin(z), w=0.5)),
        potential=ConstantPotential(-0.1),
        u0=U0_STD,
        eval_points=((1.0, 0.0),),
    )
    res_forms = solve_doss_sussmann(prob, budget.paths, budget.seed)[0]
    dev_forms = abs(res_forms.difference) / (3.0 * res_forms.joint_stderr)
    # constant-sigma reduction against the Brownian solver
    s0, w, c = 2.0, 0.5, -0.1
    prob_const = replace(
        prob, process=ProcessModel(base=DossSussmann(sigma=lambda z: s0, w=w))
    )
    red = solve_doss_sussmann(prob_const, budget.paths, budget.seed)[0]
    equiv = FKProblem(
        kernel=GGBM_STD,
        process=ProcessModel(base=BrownianDrift(w)),
        potential=ConstantPotential(c),
        u0=GaussianBump(center=0.0, width=U0_STD.width / s0),
        eval_points=((1.0, 0.0),),
    )
    ref = solve(equiv, budget.paths, budget.seed + 13)[0]
    joint = math.hypot(red.with_drift.stderr, ref.stderr)
    dev_red = abs(red.with_drift.mean - ref.mean) / (3.0 * joint)
    worst = max(dev_forms, dev_red)
    return _result(
        "doss-sussmann",
        worst,
        1.0,
        f"form agreement dev {dev_forms:.2f}, constant-sigma reduction dev {dev_red:.2f} "
        "(units of 3 joint se)",
        t0,
    )


# -- 10: finite-difference cross-check ----------------------------------------------

def criterion_caputo_cross_check(budget: Budget) -> CriterionResult:
    t0 = time.time()
    kern = FractionalPowerKernel(0.5)
    xg, uv = caputo_l1(0.5, U0_STD, 1.0, n_space=1201, n_time=600)
    fd = float(np.interp(0.0, xg, uv))
    sp = spectral_solution(kern, U0_STD, "laplacian_half", 1.0, 0.0)
    prob = FKProblem(
        kernel=kern,
        process=ProcessModel(base=BrownianDrift(0.0)),
        potential=ZeroPotential(),
        u0=U0_STD,
        eval_points=((1.0, 0.0),),
    )
    mc = solve(prob, budget.paths, budget.seed)[0]
    pairs = {
        "fd-spectral": (abs(fd - sp), max(0.02 * abs(sp), 0.0)),
        "fd-mc": (abs(fd - mc.mean), max(0.02 * abs(fd), 3.0 * mc.stderr)),
        "spectral-mc": (abs(sp - mc.mean), max(0.02 * abs(sp), 3.0 * mc.stderr)),
    }
    worst = max(d / tol for d, tol in pairs.values())
    detail = ", ".join(f"{k}: {d:.2e} (tol {tol:.2e})" for k, (d, tol) in pairs.items())
    return _result("caputo-cross-check", worst, 1.0, detail, t0)


CRITERIA = {
    "specfun-identities": criterion_specfun_identities,
    "phi-three-way": criterion_phi_three_way,
    "homogeneous-scaling": criterion_homogeneous_scaling,
    "complete-monotonicity": criterion_complete_monotonicity,
    "mixing-laws": criterion_mixing_laws,
    "double-laplace": criterion_double_laplace,
    "fk-vs-oracles": criterion_fk_vs_oracles,
    "rsgp-equivalence": criterion_rsgp_equivalence,
    "doss-sussmann": criterion_doss_sussmann,
    "caputo-cross-check": criterion_caputo_cross_check,
}


def list_criteria() -> list[str]:
    return list(CRITERIA)


def run_one(cid: str, budget: Budget | None = None) -> CriterionResult:
    if cid not in CRITERIA:
        raise KeyError(f"unknown criterion {cid!r}")
    return CRITERIA[cid](budget or Budget())


def run(budget: Budget | None = None, only: list[str] | None = None) -> list[CriterionResult]:
    budget = budget or Budget()
    ids = only or list_criteria()
    return [run_one(cid, budget) for cid in ids]
