"""Command-line surface: JSON problem files in, RFC-4180 CSV out.

Exit codes: 0 success, 1 validation-criterion failure, 2 schema or
parameter error, 3 numerical failure, 4 representation-scope violation.
CSV files carry a commented metadata block (version, seed, effective
config hash) and are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import jsonschema
import numpy as np

from . import __version__
from .fk import (
    REPRESENTATIONS,
    BrownianDrift,
    ConstantPotential,
    FKProblem,
    GaussianBump,
    ProcessModel,
    RsgpScopeError,
    StableLevy,
    StepCountInsufficient,
    ZeroPotential,
    derive_time_change_law,
    solve,
)
from .kernels import FAMILIES, InvalidParameters, make_kernel
from .phi import (
    ClosedFormPhi,
    InversionUnstable,
    NoClosedForm,
    NonconvergentRefinement,
    SeriesPhi,
    VolterraPhi,
    has_closed_form,
)
from .sampling import (
    BernsteinSpec,
    InvalidHurst,
    A_stable_mixing_draws,
    PathGrid,
    fbm_paths_batch,
    scriptA_draws,
    stable_subordinator_draws,
    time_change_draws,
)
from .series import TruncationBudgetExceeded
from .specfun import (
    MLParams,
    MultinomialMLParams,
    appell_f3,
    mittag_leffler,
    multinomial_ml,
    mwright_density,
    prabhakar,
)
from .validate import Budget, list_criteria, run as run_criteria

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_SCOPE = 4

_NUMERICAL_ERRORS = (
    TruncationBudgetExceeded,
    NonconvergentRefinement,
    InversionUnstable,
    NoClosedForm,
    StepCountInsufficient,
    OverflowError,
)
_SCHEMA_ERRORS = (InvalidParameters, jsonschema.ValidationError, ValueError, KeyError)


PROBLEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kernel", "u0", "eval_points", "mc"],
    "properties": {
        "kernel": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": list(FAMILIES)},
                **{name: {"type": "number"} for _, scalars, _ in FAMILIES.values() for name in scalars},
                **{
                    name: {"type": "array", "items": {"type": "number"}}
                    for _, _, pairs in FAMILIES.values()
                    for name in pairs
                },
            },
        },
        "process": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "base": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["brownian_drift", "stable_levy"]},
                        "w": {"type": "number"},
                        "delta": {"type": "number"},
                    },
                },
                "subordination": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["identity", "stable_power"]},
                        "gamma": {"type": "number"},
                    },
                },
            },
        },
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["zero", "constant"]},
                "c": {"type": "number"},
            },
        },
        "u0": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["gaussian_bump"]},
                "center": {"type": "number"},
                "width": {"type": "number", "exclusiveMinimum": 0},
                "amplitude": {"type": "number"},
            },
        },
        "eval_points": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": {"type": "number"},
            },
        },
        "representation": {"enum": list(REPRESENTATIONS)},
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "paths": {"type": "integer", "minimum": 2},
                "seed": {"type": "integer", "minimum": 0},
                "grid_steps": {"type": "integer", "minimum": 2},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"path": {"type": "string"}},
        },
    },
}

_MC_DEFAULTS = {"paths": 100_000, "seed": 20240811, "grid_steps": 256}


def _reject_nonfinite(node, where: str = "") -> None:
    """Python's json accepts NaN and Infinity, and the schema lets them
    through; name the first field that holds one."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ValueError(f"{where} must be a finite number, got {node}")
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_nonfinite(value, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _reject_nonfinite(value, f"{where}[{i}]")


@functools.cache
def _problem_validator():
    """jsonschema.validate's validator, with its meta-schema check, built once."""
    cls = jsonschema.validators.validator_for(PROBLEM_SCHEMA)
    cls.check_schema(PROBLEM_SCHEMA)
    return cls(PROBLEM_SCHEMA)


def load_problem(doc: dict):
    """Validate the JSON document and materialize the effective config +
    FKProblem.  Unknown keys are rejected by the schema."""
    _reject_nonfinite(doc)
    error = jsonschema.exceptions.best_match(_problem_validator().iter_errors(doc))
    if error is not None:
        raise error
    effective = {
        "kernel": dict(doc["kernel"]),
        "process": {
            "base": {"kind": "brownian_drift", "w": 0.0},
            "subordination": {"kind": "identity"},
        },
        "potential": {"kind": "zero"},
        "u0": {"kind": "gaussian_bump", "center": 0.0, "width": 1.0, "amplitude": 1.0},
        "eval_points": [list(map(float, p)) for p in doc["eval_points"]],
        "representation": doc.get("representation", "path"),
        "mc": dict(_MC_DEFAULTS),
    }
    if "process" in doc:
        if "base" in doc["process"]:
            effective["process"]["base"].update(doc["process"]["base"])
        if "subordination" in doc["process"]:
            effective["process"]["subordination"] = dict(doc["process"]["subordination"])
    if "potential" in doc:
        effective["potential"].update(doc["potential"])
    effective["u0"].update(doc["u0"])
    effective["mc"].update(doc.get("mc", {}))

    kernel = make_kernel(effective["kernel"])
    b = effective["process"]["base"]
    if b["kind"] == "brownian_drift":
        base = BrownianDrift(w=float(b.get("w", 0.0)))
    else:
        base = StableLevy(delta=float(b["delta"]))
    s = effective["process"]["subordination"]
    sub = (
        BernsteinSpec.identity()
        if s["kind"] == "identity"
        else BernsteinSpec.stable_power(float(s["gamma"]))
    )
    p = effective["potential"]
    potential = ZeroPotential() if p["kind"] == "zero" else ConstantPotential(float(p["c"]))
    u = effective["u0"]
    u0 = GaussianBump(center=u["center"], width=u["width"], amplitude=u["amplitude"])
    problem = FKProblem(
        kernel=kernel,
        process=ProcessModel(base=base, subordination=sub),
        potential=potential,
        u0=u0,
        eval_points=tuple((p[0], p[1]) for p in effective["eval_points"]),
        representation=effective["representation"],
    )
    return problem, effective


def config_hash(effective: dict) -> str:
    canon = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path: str | None, header: list[str], rows, meta: dict) -> str:
    """Render the CSV (comment block + header + rows); write atomically
    when a path is given, also echoing to stdout otherwise."""
    buf = io.StringIO()
    for k, v in meta.items():
        buf.write(f"# {k}={v}\r\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if path:
        d = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    else:
        sys.stdout.write(text)
    return text


def _parse_range(spec: str) -> np.ndarray:
    """start:stop:count inclusive linspace."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:count, got {spec!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("range count must be >= 1")
    return np.linspace(start, stop, count)


def _parse_kernel_arg(spec: str) -> dict:
    """family:comma-separated-params, the family's scalar parameters in
    their kernels.FAMILIES order, then for a convolution family one or more
    (beta_j, b_j) pairs: e.g. ggbm:0.8,0.6, msm:2,1,0.5,2 or
    conv_power_sum:beta,beta1,b1[,beta2,b2...]."""
    fam, _, rest = spec.partition(":")
    vals = [float(v) for v in rest.split(",")] if rest else []
    try:
        _, scalars, pairs = FAMILIES[fam]
    except KeyError:
        raise ValueError(f"unsupported kernel spec {spec!r}") from None
    n = len(scalars)
    out = {"family": fam, **dict(zip(scalars, vals))}
    if not pairs:
        if len(vals) != n:
            raise ValueError(f"kernel {fam!r} needs {n} parameters")
        return out
    if len(vals) < n + 2 or (len(vals) - n) % 2:
        raise ValueError(
            f"kernel {fam!r} needs {', '.join(scalars)} followed by (beta_j, b_j) pairs, "
            f"got {len(vals)} parameters"
        )
    return {**out, **dict(zip(pairs, (vals[n::2], vals[n + 1 :: 2])))}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_phi(args) -> int:
    kernel = make_kernel(_parse_kernel_arg(args.kernel))
    t_vals = _parse_range(args.t)
    lam_vals = _parse_range(getattr(args, "lambda_range"))
    if np.any(lam_vals < 0):
        raise ValueError("lambda range must be nonnegative (values used as -lambda)")
    horizon = float(max(t_vals.max(), 1e-6))
    series = SeriesPhi(kernel, horizon=max(horizon, 1.0))
    vol = VolterraPhi(kernel, horizon=horizon, n_steps=args.grid_steps)
    closed = ClosedFormPhi(kernel) if has_closed_form(kernel) else None
    rows = []
    worst = 0.0
    failed = False

    def served(route, fn, t, lam):
        """fn(t, -lam), or None (named on stderr) when the route fails there."""
        try:
            return fn(t, -lam)
        except _NUMERICAL_ERRORS as exc:
            print(f"{route} route failed at t={t:g}, lambda={lam:g}: {exc}", file=sys.stderr)
            return None

    for t in t_vals:
        for lam in lam_vals:
            t, lam = float(t), float(lam)
            s = served("series", series.value, t, lam)
            # without a closed form the closed column repeats the series value
            c = served("closed-form", closed.value, t, lam) if closed else s
            v = served("volterra", vol.value, t, lam) if t > 0 else 1.0
            failed = failed or None in (s, c, v)
            gaps = [abs(a - b) for a, b in ((s, c), (v, c), (s, v)) if a is not None and b is not None]
            worst = max([worst, *gaps])
            rows.append([t, lam, s, c, v, max(gaps, default=None)])
    meta = {
        "subfrac_version": __version__,
        "kernel": args.kernel,
        "grid_steps": args.grid_steps,
        "tol": args.tol,
    }
    write_csv(args.out, ["t", "lambda", "phi_series", "phi_closed", "phi_volterra", "max_discrepancy"], rows, meta)
    return EXIT_OK if worst < args.tol and not failed else EXIT_NUMERICAL


def cmd_specfun(args) -> int:
    xs = _parse_range(args.x)
    params = [float(v) for v in args.params.split(",")] if args.params else []
    if args.fn in ("ml", "mwright") and len(params) != 1:
        raise ValueError(f"--fn {args.fn} needs one parameter (--params beta), got {len(params)}")
    rows = []
    for x in xs:
        if args.fn == "ml":
            v = mittag_leffler(params[0], float(x))
        elif args.fn == "prabhakar":
            v = prabhakar(MLParams(*params), float(x))
        elif args.fn == "mwright":
            v = mwright_density(params[0], float(x))
        elif args.fn == "multinomial_ml":
            m = (len(params) - 1) // 2
            p = MultinomialMLParams(tuple(params[:m]), params[m])
            v = multinomial_ml(p, [float(x) * w for w in params[m + 1 :]])
        elif args.fn == "appell_f3":
            v = appell_f3(*params, float(x), args.y)
        else:
            raise ValueError(f"unknown function {args.fn!r}")
        rows.append([x, v])
    meta = {"subfrac_version": __version__, "fn": args.fn, "params": args.params}
    write_csv(args.out, ["x", "value"], rows, meta)
    return EXIT_OK


def _scalar_draws(args) -> np.ndarray:
    n, seed = args.paths, args.seed
    if args.dist == "stable":
        return stable_subordinator_draws(args.gamma, args.t, seed, n)
    if args.dist == "mixing":
        return A_stable_mixing_draws(args.beta, seed, n)
    if args.dist == "script_a":
        return scriptA_draws(args.gamma, A_stable_mixing_draws(args.beta, seed, n), seed)
    if args.dist == "time_change":
        kernel = make_kernel(_parse_kernel_arg(args.kernel))
        law = derive_time_change_law(kernel, [args.t])
        return time_change_draws(law, args.t, seed, n)
    raise ValueError(f"unknown distribution {args.dist!r}")


def cmd_sample(args) -> int:
    """All rows come from one batch of the variable's array function; row i
    holds its draw for path i, as the call at n_paths=1, start=i gives it."""
    if args.paths < 0:
        raise ValueError(f"--paths must be nonnegative, got {args.paths}")
    if args.dist == "fbm":
        grid = PathGrid(horizon=args.t, n_steps=args.grid_steps)
        header = ["stream_id"] + [f"t_{v:.6g}" for v in grid.nodes]
        paths = fbm_paths_batch(args.hurst, grid, args.seed, args.paths)
        rows = [[i] + list(p) for i, p in enumerate(paths)]
    else:
        header = ["stream_id", "draw"]
        rows = [[i, v] for i, v in enumerate(_scalar_draws(args))]
    meta = {
        "subfrac_version": __version__,
        "dist": args.dist,
        "seed": args.seed,
        "paths": args.paths,
    }
    write_csv(args.out, header, rows, meta)
    return EXIT_OK


def cmd_solve(args) -> int:
    with open(args.problem) as fh:
        doc = json.load(fh)
    problem, effective = load_problem(doc)
    if args.paths is not None:
        effective["mc"]["paths"] = args.paths
    if args.seed is not None:
        effective["mc"]["seed"] = args.seed
    mc = effective["mc"]
    ests = solve(
        problem,
        mc["paths"],
        mc["seed"],
        grid_steps=mc["grid_steps"],
        workers=args.workers,
    )
    rows = [
        [t, x, est.mean, est.stderr, est.n_paths, problem.representation]
        for (t, x), est in zip(problem.eval_points, ests)
    ]
    out_path = args.out or effective.get("output", {}).get("path") or doc.get(
        "output", {}
    ).get("path")
    meta = {
        "subfrac_version": __version__,
        "seed": mc["seed"],
        "config_hash": config_hash(effective),
        "effective_config": json.dumps(effective, sort_keys=True),
    }
    write_csv(out_path, ["t", "x", "mean", "stderr", "n_paths", "form_id"], rows, meta)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.list:
        for cid in list_criteria():
            print(cid)
        return EXIT_OK
    only = args.only.split(",") if args.only else None
    given = {"paths": args.paths, "seed": args.seed}
    budget = Budget(**{k: v for k, v in given.items() if v is not None})
    results = run_criteria(budget, only)
    rows = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.cid}: observed {r.observed:.4g} vs tol {r.tolerance:.4g} "
              f"(margin {r.margin:+.4g}) [{r.runtime_s:.1f}s]")
        print(f"     {r.detail}")
        # the CSV carries only the deterministic payload (no wall-clock
        # fields) so identical (seed, paths) runs are byte-identical
        rows.append([r.cid, status, r.observed, r.tolerance, r.margin])
    meta = {
        "subfrac_version": __version__,
        "seed": budget.seed,
        "paths": budget.paths,
    }
    if args.out:
        write_csv(args.out, ["criterion", "status", "observed", "tolerance", "margin"], rows, meta)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CRITERION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subfrac",
        description="Monte Carlo and deterministic solvers for memory-kernel "
        "evolution equations, with built-in cross-validation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="three-way memory-function table")
    p.add_argument("--kernel", required=True, help="family:params, e.g. ggbm:0.8,0.6 or conv_power_sum:0.5,0.3,0.5")
    p.add_argument("--t", required=True, help="start:stop:count")
    p.add_argument("--lambda", dest="lambda_range", required=True, help="start:stop:count (used as -lambda)")
    p.add_argument("--grid-steps", type=int, default=2048)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("specfun", help="pointwise special-function evaluation")
    p.add_argument("--fn", required=True, choices=["ml", "prabhakar", "mwright", "multinomial_ml", "appell_f3"])
    p.add_argument("--params", default="", help="comma-separated parameters")
    p.add_argument("--x", required=True, help="start:stop:count")
    p.add_argument("--y", type=float, default=0.0, help="second argument (appell_f3)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_specfun)

    p = sub.add_parser("sample", help="draw variates or path tables")
    p.add_argument(
        "--dist",
        required=True,
        choices=["stable", "mixing", "script_a", "time_change", "fbm"],
    )
    p.add_argument(
        "--kernel", default="ggbm:0.8,0.6",
        help="for --dist time_change; family:params as for phi",
    )
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--hurst", type=float, default=0.5)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=10)
    p.add_argument("--grid-steps", type=int, default=64)
    p.add_argument("--seed", type=int, default=20240811)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("solve", help="solve a JSON problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; changes neither the work nor the output",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="run the acceptance matrix")
    p.add_argument("--list", action="store_true", help="print criterion ids and exit")
    p.add_argument("--only", default=None, help="comma-separated criterion ids")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (RsgpScopeError, InvalidHurst) as exc:
        print(f"scope violation: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _SCHEMA_ERRORS as exc:
        msg = getattr(exc, "message", None) or str(exc)
        print(f"invalid input: {msg.splitlines()[0]}", file=sys.stderr)
        return EXIT_SCHEMA
    except FileNotFoundError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
