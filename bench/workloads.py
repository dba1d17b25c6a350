"""The three benchmark workloads: op generators and op executors.

A workload is a list of ops (plain JSON-able dicts) generated from the
seed before the first op runs.  Ops come in blocks of a fixed composition
of op kinds; the seed draws the parameters (and, where blocks are short,
the order inside a block).  A run stops at a block boundary, so every run
of a workload covers whole blocks and its figures stay comparable across
seeds while the inputs still change with the seed.

``execute(op)`` runs one op through subfrac's public functions and returns
``(work, outputs, check)``: the units of work the op did, its output
values, and a closure that verifies the outputs against an independent
reference.  Only ``execute`` is timed; ``check`` runs afterwards.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

from subfrac import cli, fk, oracle, phi, specfun, validate
from subfrac.kernels import make_kernel
from subfrac.sampling import BernsteinSpec

import refs

# op counts per block are fixed; sizes shrink only for the self-check
SIZES = {
    "full": {
        "blocks": 400, "mc_paths": 2000, "callable_paths": 150, "callable_grid": 16,
        "conv_paths": 60, "dl_paths": 300, "generic_n_max": 20, "volterra_steps": 256,
        "spectral_modes": 2560, "caputo_space": 201, "caputo_time": 60,
    },
    "tiny": {
        "blocks": 40, "mc_paths": 200, "callable_paths": 100, "callable_grid": 4,
        "conv_paths": 48, "dl_paths": 20, "generic_n_max": 20, "volterra_steps": 64,
        "spectral_modes": 256, "caputo_space": 101, "caputo_time": 20,
    },
}

MC_POINTS = ((0.5, 0.0), (1.0, 0.0), (1.0, 0.5))
CONV_WIDTH = 6.0  # wide bump: hat-u0 is negligible beyond |xi| = 1.5
Z_SIGMA = 6.0  # Monte Carlo tolerance in standard errors


# ---------------------------------------------------------------------------
# parameter draws
# ---------------------------------------------------------------------------

def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _kernel(rng: random.Random, family: str) -> dict:
    """Parameters near one centre per family: per-op cost depends on them
    (series lengths, quadrature effort), and a narrow band keeps it alike
    across seeds."""
    if family == "ggbm":
        return {"family": "ggbm", "alpha": _u(rng, 0.78, 0.82), "beta": _u(rng, 0.6, 0.62)}
    if family == "fractional_power":
        return {"family": "fractional_power", "beta": _u(rng, 0.58, 0.66)}
    if family == "msm":
        # b = 1: at b = 0.955 Gaver-Stehfest inversion of the closed form
        # oscillates and derive_time_change_law raises InversionUnstable
        a = _u(rng, 1.48, 1.52)
        return {"family": "msm", "a": a, "b": 1.0, "mu": _u(rng, 0.28, 0.32), "nu": a}
    if family in ("conv_power_sum", "conv_multinomial_ml"):
        return {"family": family, "beta": _u(rng, 0.58, 0.66), "betas": [_u(rng, 0.27, 0.33)],
                "bs": [_u(rng, 0.45, 0.55)]}
    raise ValueError(family)


def _sorted_draws(rng, lo, hi, n):
    return sorted(_u(rng, lo, hi) for _ in range(n))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _mc_mix(rng: random.Random, size: dict) -> list[dict]:
    pool = [_kernel(rng, "ggbm"), _kernel(rng, "ggbm"), _kernel(rng, "fractional_power")]
    gamma = _u(rng, 0.6, 0.7)
    c = _u(rng, -0.3, -0.2)
    # (representation, subordinated, potential) per slot of a block.  The
    # slot counts put the median and the tail rank (11th largest of 130-170
    # ops) inside groups of similar cost: scaled-fBM solves are the
    # slowest, plain path solves sit in the middle, and flow-map and
    # callable-potential requests (fewer paths) are the fastest.
    slots = [
        ("scaled_fbm", True, "constant"), ("scaled_fbm", True, "zero"),
        ("scaled_fbm", False, "constant"), ("scaled_fbm", False, "zero"),
        ("cli", False, "zero"), ("path", True, "zero"), ("scaled_bm", True, "constant"),
        ("path", False, "zero"), ("path", False, "constant"), ("path", False, "zero"),
        ("path", False, "constant"), ("timechanged_bm", False, "constant"),
        ("doss", False, "constant"), ("doss", False, "constant"),
        ("path", False, "callable"), ("path", True, "callable"), ("path", False, "callable"),
        ("path", True, "callable"), ("path", False, "callable"),
    ]
    point_sets = [[list(p) for p in pair] for pair in
                  ((MC_POINTS[0], MC_POINTS[1]), (MC_POINTS[0], MC_POINTS[2]),
                   (MC_POINTS[1], MC_POINTS[2]))]
    ops = []
    for b in range(size["blocks"]):
        block = []
        # kernel and evaluation points follow the slot, not the seed, so
        # every block costs the same whatever the seed
        for i, (rep, sub, pot) in enumerate(slots):
            seed = rng.randrange(2**32)
            if rep == "cli":
                block.append({"kind": "cli_solve", "paths": size["mc_paths"], "seed": seed})
            elif rep == "doss":
                block.append({"kind": "doss", "kernel": pool[i % 2], "c": -0.1, "w": 0.5,
                              "points": [[1.0, 0.0]], "paths": size["mc_paths"], "seed": seed})
            else:
                block.append({
                    "kind": "solve", "representation": rep, "kernel": pool[i % 3],
                    "gamma": gamma if sub else 1.0,
                    "potential": pot, "c": 0.0 if pot == "zero" else c, "width": 1.0,
                    "points": point_sets[(i + b) % 3],
                    "paths": size["callable_paths" if pot == "callable" else "mc_paths"],
                    "grid_steps": size["callable_grid"], "seed": seed,
                })
        rng.shuffle(block)
        ops.extend(dict(op, block=b) for op in block)
    return ops


def _passage(rng: random.Random, size: dict) -> list[dict]:
    """Three cost groups per block, so that the median falls in the middle
    one and the tail rank in the top one: double-Laplace calls on few paths
    (cheapest), solves on the base path count, solves on twice as many."""
    pool = [_kernel(rng, "conv_multinomial_ml"), _kernel(rng, "conv_multinomial_ml")]
    c = _u(rng, -0.3, -0.2)
    solves = ((1, "zero", (0.5, 1.0)), (1, "constant", (0.5, 1.5)), (1, "zero", (1.0, 1.5)),
              (1, "constant", (0.5, 1.0)), (2, "zero", (0.5, 1.5)), (2, "constant", (1.0, 1.5)),
              (2, "zero", (0.5, 1.0)))
    forms = ("stable_power", "drift_plus_stable_sum", "stable_power")
    ops = []
    for b in range(size["blocks"]):
        block = []
        for i, (scale, pot, levels) in enumerate(solves):
            block.append({
                "kind": "solve", "representation": "path", "kernel": pool[(i + b) % 2],
                "gamma": 1.0, "potential": pot, "c": 0.0 if pot == "zero" else c,
                "width": CONV_WIDTH, "points": [[t, 0.0] for t in levels],
                "paths": scale * size["conv_paths"], "grid_steps": 16,
                "seed": rng.randrange(2**32),
            })
        for j, form in enumerate(forms):
            if form == "stable_power":
                bern = {"kind": form, "gamma": _u(rng, 0.5, 0.6)}
            else:
                bern = {"kind": form, "drift": 0.0,
                        "terms": [[1.0, _u(rng, 0.6, 0.66)], [_u(rng, 0.4, 0.5), _u(rng, 0.3, 0.36)]]}
            paths = size["dl_paths"] // (2 if form == "drift_plus_stable_sum" else 1)
            block.append({"kind": "double_laplace", "bernstein": bern,
                          "sigma": (1.0, 2.0)[j % 2], "lam": _u(rng, 0.5, 1.5),
                          "paths": paths, "seed": rng.randrange(2**32)})
        rng.shuffle(block)
        ops.extend(dict(op, block=b) for op in block)
    return ops


def _oracle_op(rng, kind, spec, size, earlier=None):
    """One deterministic op on kernel ``spec``; ``earlier`` is the op whose
    kernel this one reuses (its evaluator caches are then warm)."""
    op = {"kind": kind, "kernel": spec, "reuse": earlier is not None}
    if kind == "series_moment":
        op.update(ts=[0.5, 1.0], lams=_sorted_draws(rng, 0.5, 0.6, 2))
    elif kind == "series_generic":
        op.update(ts=[0.5, 1.0], lams=_sorted_draws(rng, 0.4, 0.5, 2), n_max=size["generic_n_max"])
    elif kind == "volterra":
        # a dense lambda grid, equispaced so that a warm CM check can reuse
        # it; a warm table re-reads the cached lambda solves at new times
        start = _u(rng, 0.25, 0.5)
        lams = earlier["lams"] if earlier else [start + 0.5 * i for i in range(6)]
        op.update(ts=_sorted_draws(rng, 0.2, 1.0, 2), lams=lams, n_steps=size["volterra_steps"])
    elif kind == "closed":
        op.update(ts=_sorted_draws(rng, 0.1, 1.0, 4), lams=_sorted_draws(rng, 0.25, 5.0, 6))
    elif kind == "cm_check":
        # equispaced: the check takes plain differences along the grid.  A
        # closed form gets a fresh 12-point grid; a Volterra evaluator is
        # checked warm, on the lambda grid an earlier table solved
        if earlier is None:
            start = _u(rng, 0.5, 1.0)
            op.update(evaluator="closed", t=1.0, lams=[start + 0.5 * i for i in range(12)])
        else:
            op.update(evaluator="volterra", t=_u(rng, 0.5, 1.0), lams=earlier["lams"],
                      n_steps=earlier["n_steps"])
    elif kind in ("semigroup", "spectral"):
        # one point: quadrature effort depends on it, and the spectral
        # reference (a semigroup quadrature) is then one per pooled kernel
        op.update(t=1.0, x=0.0)
        if kind == "spectral":
            op["n_modes"] = size["spectral_modes"]
    return op


def _specfun_op(rng) -> dict:
    return {
        "kind": "specfun",
        "ml": [[_u(rng, 0.4, 0.9), _u(rng, -6.0, 2.0)] for _ in range(16)],
        "prabhakar": [[_u(rng, 0.4, 0.8), _u(rng, 0.8, 1.5), _u(rng, 0.5, 1.5), _u(rng, -3.0, 1.0)]
                      for _ in range(8)],
        "mwright": [[_u(rng, 0.3, 0.7), _u(rng, 0.0, 3.0)] for _ in range(16)],
        "multinomial_ml": [[_u(rng, 0.5, 0.8), _u(rng, 0.2, 0.4), _u(rng, 0.8, 1.2),
                            _u(rng, -1.0, 0.0), _u(rng, -1.0, 0.0)] for _ in range(2)],
        "appell_f3": [[_u(rng, 0.2, 1.0), _u(rng, 0.3, 0.7), _u(rng, 0.8, 2.0), _u(rng, 0.9, 1.2),
                       _u(rng, 1.5, 3.0), _u(rng, -0.6, 0.6), _u(rng, -0.6, 0.6)]
                      for _ in range(6)],
    }


# Per-op cost falls into tiers: builds that no argument makes cheap
# (2-4 s), quadratures, Fourier solves and cold msm series (0.4-1 s), dense
# ggbm Volterra tables on new kernels (~0.15 s), and cheap ops and
# warm-cache reads (< 0.05 s).  Every block holds one build, 6 ops of the
# second tier, 6 tables and 8 cheap ops, so the median falls among the
# tables and the tail rank (11th largest) in the second tier, whether a run
# covers 3 blocks or 6.  Of that tier, only the quadrature's effort swings
# with the kernel (0.6-1 s), so a block holds one quadrature and four
# Fourier solves, on a grid fine enough that they cost as much as a cold
# msm series.  The builds rotate, one per block, so that a run's work
# per second does not depend on how many blocks it covers.  The two whose
# input never changes come first, so that every run holds them.
_BUILDS = (("validate_specfun", None), ("derive_law", "msm"), ("series_moment", "ggbm"),
           ("series_generic", "ggbm"))
_QUADRATURES = (("semigroup", "ggbm"),)
_TABLES = (("volterra", "ggbm"),) * 6
_CHEAP = (("closed", "ggbm"), ("closed", "msm"), ("cm_check", "ggbm"))


def _build_op(rng, kind, family, size):
    if kind == "validate_specfun":
        return {"kind": kind}
    if kind == "derive_law":
        return {"kind": kind, "kernel": _kernel(rng, family), "reuse": False}
    return _oracle_op(rng, kind, _kernel(rng, family), size)


def _oracle_tables(rng: random.Random, size: dict) -> list[dict]:
    """Blocks in a fixed order; the seed draws kernels and grids."""
    # spectral ops draw from a small kernel pool: their reference is a
    # semigroup quadrature, computed once per distinct case.  Quadratures
    # use ggbm only: their effort on fractional-power kernels swings by 60%
    # with beta.
    pool = [_kernel(rng, "ggbm"), _kernel(rng, "fractional_power")]
    ops = []
    for b in range(size["blocks"]):
        block = [_build_op(rng, *_BUILDS[b % len(_BUILDS)], size)]
        block += [_oracle_op(rng, kind, _kernel(rng, family), size)
                  for kind, family in _QUADRATURES + _TABLES + _CHEAP]
        block += [_oracle_op(rng, "spectral", spec, size) for spec in pool + pool]
        moment = _oracle_op(rng, "series_moment", _kernel(rng, "msm"), size)
        table = block[len(_QUADRATURES) + len(_TABLES)]
        block += [
            moment,
            _oracle_op(rng, "series_moment", moment["kernel"], size, earlier=moment),
            _oracle_op(rng, "volterra", table["kernel"], size, earlier=table),
            _oracle_op(rng, "cm_check", table["kernel"], size, earlier=table),
            {"kind": "caputo", "kernel": _kernel(rng, "fractional_power"), "reuse": False,
             "n_space": size["caputo_space"], "n_time": size["caputo_time"]},
            _specfun_op(rng),
        ]
        ops.extend(dict(op, block=b) for op in block)
    return ops


GENERATORS = {"mc_mix": _mc_mix, "passage": _passage, "oracle_tables": _oracle_tables}


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), SIZES[size])


def input_properties(ops: list[dict]) -> dict:
    """Input properties the generator produced: op-kind counts, paths per
    Monte Carlo request and the share of ops that reuse an earlier kernel."""
    kinds: dict[str, int] = {}
    for op in ops:
        key = op["kind"] + (f":{op['representation']}" if "representation" in op else "")
        kinds[key] = kinds.get(key, 0) + 1
    paths = sorted({op["paths"] for op in ops if "paths" in op})
    seen, reused = set(), 0
    with_kernel = [op for op in ops if "kernel" in op]
    for op in with_kernel:
        key = json.dumps(op["kernel"], sort_keys=True)
        reused += key in seen
        seen.add(key)
    return {
        "ops_generated": len(ops),
        "op_kinds": kinds,
        "paths_per_request": paths,
        "kernel_reuse_share": round(reused / max(len(with_kernel), 1), 4),
        "distinct_kernels": len(seen),
    }


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------

def _within(value, ref, tol, what):
    if not (math.isfinite(value) and abs(value - ref) <= tol):
        raise AssertionError(f"{what}: {value!r} vs reference {ref!r} (tol {tol:.3g})")


def _rel(value, ref, rtol, what, atol=1e-14):
    _within(value, ref, rtol * abs(ref) + atol, what)


def _const_potential(c):
    def V(y):
        return np.full(np.shape(y), c)

    return V


def _sigma(z):
    return 2.0 + math.sin(z)


class Executor:
    """Runs ops of one workload.  It holds what a long-lived caller would
    hold between requests: evaluator instances per kernel (so a reused
    kernel finds its Volterra cache warm) and the reference cache."""

    def __init__(self, root: Path, out_dir: Path, workers: int):
        self.root = root
        self.out_dir = out_dir
        self.workers = workers
        self._evaluators: dict = {}
        self._refs: dict = {}
        self._demo_expected = None

    # references are computed once per distinct case, never timed
    def _ref(self, key, fn):
        if key not in self._refs:
            self._refs[key] = fn()
        return self._refs[key]

    def _evaluator(self, op, factory):
        key = (op["kind"], json.dumps(op["kernel"], sort_keys=True))
        ev = self._evaluators.get(key)
        if ev is None:
            ev = self._evaluators[key] = factory()
        return ev

    def execute(self, op):
        return getattr(self, "_op_" + op["kind"])(op)

    # -- Monte Carlo ------------------------------------------------------
    def _op_solve(self, op):
        kernel = make_kernel(op["kernel"])
        sub = BernsteinSpec.stable_power(op["gamma"])
        c = op["c"]
        potential = {
            "zero": fk.ZeroPotential,
            "constant": lambda: fk.ConstantPotential(c),
            "callable": lambda: fk.CallablePotential(_const_potential(c), sup_bound=c),
        }[op["potential"]]()
        problem = fk.FKProblem(
            kernel=kernel,
            process=fk.ProcessModel(base=fk.BrownianDrift(0.0), subordination=sub),
            potential=potential,
            u0=fk.GaussianBump(0.0, op["width"]),
            eval_points=tuple(map(tuple, op["points"])),
            representation=op["representation"],
        )
        ests = fk.solve(problem, op["paths"], op["seed"], grid_steps=op["grid_steps"],
                        workers=self.workers)
        outputs = [v for e in ests for v in (e.mean, e.stderr)]
        # the Fourier grid must reach where hat-u0 has decayed below 1e-12
        xi_max, modes = (1.5, 64) if op["width"] == CONV_WIDTH else (9.0, 256)

        def check():
            for (t, x), e in zip(op["points"], ests):
                case = (json.dumps(op["kernel"], sort_keys=True), op["gamma"], c, op["width"], t, x)
                ref = self._ref(("mc",) + case, lambda: refs.mc_reference(
                    op["kernel"], op["gamma"], c, op["width"], t, x, xi_max, modes))
                se = e.stderr
                if op["kernel"]["family"] == "conv_multinomial_ml":
                    # passage values are strongly skewed, so 60 paths can
                    # underestimate the spread; floor it by a proven bound
                    sd = self._ref(("sd",) + case, lambda: refs.passage_sd_bound(
                        op["kernel"], t, op["width"], c))
                    se = max(se, sd / math.sqrt(op["paths"]))
                _within(e.mean, ref, Z_SIGMA * se + 1e-6, f"u({t}, {x})")

        return op["paths"] * len(op["points"]), outputs, check

    def _op_doss(self, op):
        problem = fk.FKProblem(
            kernel=make_kernel(op["kernel"]),
            process=fk.ProcessModel(base=fk.DossSussmann(sigma=_sigma, w=op["w"])),
            potential=fk.ConstantPotential(op["c"]),
            u0=fk.GaussianBump(0.0, 1.0),
            eval_points=tuple(map(tuple, op["points"])),
        )
        res = fk.solve_doss_sussmann(problem, op["paths"], op["seed"])
        outputs = [v for r in res for v in (r.with_drift.mean, r.drift_removed.mean, r.difference)]

        def check():
            for r in res:
                _within(r.difference, 0.0, Z_SIGMA * r.joint_stderr, "form difference")

        return op["paths"] * len(op["points"]), outputs, check

    def _op_cli_solve(self, op):
        out = self.out_dir / "demo_solve.csv"
        argv = ["solve", "--problem", str(self.root / "demos" / "problems" / "ggbm_heat.json"),
                "--paths", str(op["paths"]), "--seed", str(op["seed"]),
                "--workers", str(self.workers), "--out", str(out)]
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"subfrac solve exited {rc}")
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [(float(r["t"]), float(r["x"]), float(r["mean"]), float(r["stderr"]))
                for r in csv.DictReader(lines)]
        outputs = [v for r in rows for v in r[2:]]

        def check():
            if self._demo_expected is None:
                path = self.root / "tests" / "data" / "ggbm_heat_expected.csv"
                with open(path) as fh:
                    self._demo_expected = {(float(r["t"]), float(r["x"])): float(r["oracle_mean"])
                                           for r in csv.DictReader(fh)}
            if len(rows) != len(self._demo_expected):
                raise AssertionError("demo solve row count differs from the fixture")
            for t, x, mean, se in rows:
                _within(mean, self._demo_expected[(t, x)], Z_SIGMA * se + 1e-6, f"demo u({t}, {x})")

        return op["paths"] * sum(1 for r in rows if r[0] > 0), outputs, check

    def _op_double_laplace(self, op):
        b = op["bernstein"]
        bern = (BernsteinSpec.stable_power(b["gamma"]) if b["kind"] == "stable_power"
                else BernsteinSpec.drift_plus_stable_sum(b["drift"], [tuple(t) for t in b["terms"]]))
        rep = oracle.double_laplace_identity(bern, op["sigma"], op["lam"], op["paths"],
                                             master_seed=op["seed"])
        outputs = [rep.lhs_monte_carlo, rep.rhs_closed_form]

        def check():
            # each path's weight lies in [0, 1/sigma], so the standard error
            # of the mean is at most 1/(2 sigma sqrt(n)) (Popoviciu)
            h = float(bern.value(op["sigma"]))
            bound = (h + op["lam"]) / (2.0 * h * math.sqrt(op["paths"]))
            _within(rep.rel_deviation, 0.0, Z_SIGMA * bound + 1e-3, "double-Laplace deviation")

        return op["paths"], outputs, check

    # -- deterministic oracles ---------------------------------------------
    def _phi_table(self, op, ev):
        vals = [ev.value(t, -lam) for t in op["ts"] for lam in op["lams"]]

        def check(tol):
            for (t, lam), v in zip(((t, l) for t in op["ts"] for l in op["lams"]), vals):
                key = ("phi", json.dumps(op["kernel"], sort_keys=True), t, -lam)
                ref = self._ref(key, lambda: refs.phi(op["kernel"], t, -lam))
                _within(v, ref, tol, f"Phi({t}, {-lam})")

        return len(vals), vals, check

    def _op_series_moment(self, op):
        n, vals, check = self._phi_table(op, phi.SeriesPhi(make_kernel(op["kernel"])))
        return n, vals, lambda: check(1e-9)

    def _op_series_generic(self, op):
        ev = phi.SeriesPhi(make_kernel(op["kernel"]), horizon=1.0, n_max=op["n_max"],
                           use_homogeneous=False)
        n, vals, check = self._phi_table(op, ev)
        return n, vals, lambda: check(1e-8)

    def _op_volterra(self, op):
        ev = self._evaluator(op, lambda: phi.VolterraPhi(
            make_kernel(op["kernel"]), horizon=1.0, n_steps=op["n_steps"]))
        n, vals, check = self._phi_table(op, ev)
        return n, vals, lambda: check(1e-4 if op["n_steps"] >= 256 else 1e-2)

    def _op_closed(self, op):
        n, vals, check = self._phi_table(op, phi.ClosedFormPhi(make_kernel(op["kernel"])))
        return n, vals, lambda: check(1e-9)

    def _op_cm_check(self, op):
        kernel = make_kernel(op["kernel"])
        if op["evaluator"] == "volterra":
            ev = self._evaluator(dict(op, kind="volterra"), lambda: phi.VolterraPhi(
                kernel, horizon=1.0, n_steps=op["n_steps"]))
        else:
            ev = phi.ClosedFormPhi(kernel)
        rep = phi.check_complete_monotone(ev, op["t"], op["lams"])

        def check():
            if not rep.passed:
                raise AssertionError(f"complete monotonicity: {rep}")

        return len(op["lams"]), [float(rep.passed)], check

    def _op_derive_law(self, op):
        law = fk.derive_time_change_law(make_kernel(op["kernel"]), [1.0])
        u = (np.arange(2000) + 0.5) / 2000
        a = np.asarray(law.sample_from_uniforms(1.0, np.stack([u, u], axis=-1)), dtype=float)
        outputs = list(a[::125])

        def check():
            # the tabulated law must reproduce its Laplace transform Phi(1, -lam)
            for lam in (0.5, 1.0, 2.0):
                _within(float(np.mean(np.exp(-lam * a))), refs.phi(op["kernel"], 1.0, -lam), 1e-2,
                        f"E[exp(-{lam} A)]")

        return len(outputs), outputs, check

    def _op_semigroup(self, op):
        val = oracle.semigroup_quadrature(
            make_kernel(op["kernel"]), fk.GaussianBump(0.0, 1.0), fk.BrownianDrift(0.0),
            op["t"], op["x"])

        def check():
            key = ("mc", json.dumps(op["kernel"], sort_keys=True), 1.0, 0.0, 1.0, op["t"], op["x"])
            ref = self._ref(key, lambda: refs.mc_reference(
                op["kernel"], 1.0, 0.0, 1.0, op["t"], op["x"], 9.0, 256))
            _within(val, ref, 1e-6, "semigroup quadrature")

        return 1, [val], check

    def _op_spectral(self, op):
        kernel = make_kernel(op["kernel"])
        u0 = fk.GaussianBump(0.0, 1.0)
        val = oracle.spectral_solution(kernel, u0, "laplacian_half", op["t"], op["x"],
                                       grid=oracle.SpectralGrid(n_modes=op["n_modes"]))

        def check():
            key = ("semigroup", json.dumps(op["kernel"], sort_keys=True), op["t"], op["x"])
            ref = self._ref(key, lambda: oracle.semigroup_quadrature(
                kernel, u0, fk.BrownianDrift(0.0), op["t"], op["x"]))
            _within(val, ref, 1e-6, "spectral solution")

        return 1, [val], check

    def _op_caputo(self, op):
        beta = op["kernel"]["beta"]
        xg, uv = oracle.caputo_l1(beta, fk.GaussianBump(0.0, 1.0), 1.0,
                                  n_space=op["n_space"], n_time=op["n_time"])
        val = float(np.interp(0.0, xg, uv))

        def check():
            ref = self._ref(("mc", json.dumps(op["kernel"], sort_keys=True), 1.0, 0.0, 1.0, 1.0, 0.0),
                            lambda: refs.mc_reference(op["kernel"], 1.0, 0.0, 1.0, 1.0, 0.0, 9.0, 256))
            _rel(val, ref, 2e-2, "L1 scheme at x=0")

        return 1, [val], check

    def _op_specfun(self, op):
        out = {
            "ml": [specfun.mittag_leffler(b, x) for b, x in op["ml"]],
            "prabhakar": [specfun.prabhakar(specfun.MLParams(q1, q2, q3), x)
                          for q1, q2, q3, x in op["prabhakar"]],
            "mwright": [specfun.mwright_density(b, z) for b, z in op["mwright"]],
            "multinomial_ml": [specfun.multinomial_ml(specfun.MultinomialMLParams((a1, a2), b), [z1, z2])
                               for a1, a2, b, z1, z2 in op["multinomial_ml"]],
            "appell_f3": [specfun.appell_f3(*args) for args in op["appell_f3"]],
        }
        reference = {
            "ml": lambda b, x: refs.ml(b, x),
            "prabhakar": refs.prabhakar,
            "mwright": refs.mwright,
            "multinomial_ml": lambda a1, a2, b, z1, z2: refs.multinomial_ml((a1, a2), b, (z1, z2)),
            "appell_f3": refs.appell_f3,
        }
        outputs = [v for name in out for v in out[name]]

        def check():
            for name, vals in out.items():
                for args, v in zip(op[name], vals):
                    _rel(v, reference[name](*args), 1e-8, f"{name}{tuple(args)}")

        return len(outputs), outputs, check

    def _op_validate_specfun(self, op):
        res = validate.run_one("specfun-identities")

        def check():
            if not res.passed:
                raise AssertionError(f"specfun-identities: {res.detail}")

        return 1, [res.observed], check
