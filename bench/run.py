#!/usr/bin/env python3
"""subfrac benchmark runner.

    python3 bench/run.py --workload mc_mix --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  The run imports subfrac from ``src/``,
generates the workload's ops from the seed, then sends them one at a time
(a closed loop with one client, one thread) until the timed op latencies
add up to ``--seconds`` and the current block of ops is complete.  Every
op's outputs are checked against an independent reference outside the
timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layers (see tracing.py), reports the per-layer metrics, and runs a plain
child run with the same arguments to measure the tracing overhead.  The
last line of standard output is the JSON result; details (environment,
input properties, output digest, failures) go to the line before it and
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2  # extra fresh-process set-ups per run; setup_s is the median
MIN_TAIL_OPS = 10


def setup(workload: str, seed: int, size: str):
    """Fresh-process import of subfrac plus input generation (timed)."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import subfrac

    if Path(subfrac.__file__).resolve().parent != src / "subfrac":
        sys.exit(f"subfrac was imported from {subfrac.__file__}, not from {src}")
    import workloads

    ops = workloads.generate(workload, seed, size)
    return time.perf_counter() - t0, ops


def tail(latencies: list[float]):
    """Latency at the highest whole percentile with at least MIN_TAIL_OPS
    ops beyond it (nearest rank); (value, percentile)."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= MIN_TAIL_OPS:
        return ordered[-1], 100
    pct = math.floor(100 * (n - MIN_TAIL_OPS) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1], pct


def measure(ops, executor, seconds: float, tracer=None) -> dict:
    latencies, hashes, failures, by_kind = [], [], [], {}
    work = timed = checking = 0.0
    for i, op in enumerate(ops):
        if timed >= seconds and op["block"] != ops[i - 1]["block"]:
            break
        if tracer is not None:
            tracer.op, tracer.active = i, True
        t0 = time.perf_counter()
        try:
            result = executor.execute(op)
            error = None
        except Exception as exc:  # a failed op is counted, the run goes on
            result, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        timed += dt
        latencies.append(dt)
        count, total = by_kind.get(op["kind"], (0, 0.0))
        by_kind[op["kind"]] = (count + 1, total + dt)
        if error is None:
            units, outputs, check = result
            t1 = time.perf_counter()
            try:
                if not all(math.isfinite(v) for v in outputs):
                    raise ArithmeticError("non-finite output")
                check()
            except Exception as exc:
                error = exc
            checking += time.perf_counter() - t1
        if error is not None:
            failures.append(f"op {i} {op['kind']}: {type(error).__name__}: {error}")
            hashes.append("failed")
            continue
        work += units
        hashes.append(hashlib.sha256(struct.pack(f"{len(outputs)}d", *outputs)).hexdigest()[:16])
    return {"latencies": latencies, "work": work, "timed": timed, "hashes": hashes,
            "failures": failures, "by_kind": by_kind, "checking": checking}


def setup_probe_times(args) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment(args) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src_lines = sum(p.read_text().count("\n") for p in sorted((ROOT / "src" / "subfrac").glob("*.py")))
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "git_commit": commit, "seed": args.seed, "workload": args.workload, "size": args.size,
        "seconds": args.seconds, "blas_threads": os.environ["OMP_NUM_THREADS"],
        "src_lines": src_lines,
    }


def layer_metrics(tracer, spans, timed: float, overhead: float) -> dict:
    from tracing import self_times
    import numpy as np

    own = dict(zip(tracer.names, self_times(spans)))
    incl = dict(zip(tracer.names, np.bincount(spans["name"], weights=spans["t1"] - spans["t0"],
                                              minlength=len(tracer.names))))
    calls = dict(zip(tracer.names, tracer.calls))
    units = dict(zip(tracer.names, tracer.units))

    def rate(name):
        return units[name] / incl[name] if incl[name] > 0 else 0.0

    m = {
        "sampling.path_rng.calls": (calls["sampling.path_rng"], "count"),
        "sampling.path_rng.self_s": (own["sampling.path_rng"], "s"),
        "sampling.path_uniforms.self_s": (own["sampling.path_uniforms"], "s"),
        "sampling.path_uniforms.uniforms": (units["sampling.path_uniforms"], "count"),
        "sampling.path_uniforms.uniforms_per_s": (rate("sampling.path_uniforms"), "1/s"),
        "sampling.stable.self_s": (own["sampling.stable"], "s"),
        "sampling.stable.draws": (units["sampling.stable"], "count"),
        "sampling.stable.draws_per_s": (rate("sampling.stable"), "1/s"),
        "sampling.inverse_passage_batch.self_s": (own["sampling.inverse_passage_batch"], "s"),
        "sampling.inverse_passage_batch.calls": (calls["sampling.inverse_passage_batch"], "count"),
        "sampling.inverse_passage_batch.paths": (units["sampling.inverse_passage_batch"], "count"),
        "sampling.fbm_paths_batch.self_s": (own["sampling.fbm_paths_batch"], "s"),
        "fk.solve.self_s": (own["fk.solve"], "s"),
        "fk.path_values.self_s": (own["fk.path_values"], "s"),
        "fk.flow_map.self_s": (own["fk.flow_map"], "s"),
        "fk.flow_map.calls": (calls["fk.flow_map"], "count"),
        "fk.derive_time_change_law.self_s": (own["fk.derive_time_change_law"], "s"),
        "cli.self_s": (own["cli"], "s"),
    }
    for name in ("phi.SeriesPhi", "phi.VolterraPhi.value", "phi.ClosedFormPhi.value",
                 "phi.check_complete_monotone", "phi.time_law_cdf", "kernels.coefficient_tables"):
        m[f"{name}.self_s"] = (own[name], "s")
        m[f"{name}.calls"] = (calls[name], "count")
    for fn in ("mittag_leffler", "prabhakar", "mwright_density", "multinomial_ml", "appell_f3"):
        name = f"specfun.{fn}"
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (own[name], "s")
        m[f"{name}.us_per_call"] = (1e6 * incl[name] / calls[name] if calls[name] else 0.0, "us")
    for name in ("oracle.semigroup_quadrature", "oracle.spectral_solution", "oracle.caputo_l1",
                 "oracle.double_laplace_identity", "validate.run_one"):
        m[f"{name}.self_s"] = (own[name], "s")
    m["trace.wall_s"] = (timed, "s")
    m["trace.untraced_s"] = (timed - sum(own.values()), "s")
    m["trace.overhead"] = (overhead, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("mc_mix", "passage", "oracle_tables"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small op sizes for the self-check")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    setup_s, ops = setup(args.workload, args.seed, args.size)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import workloads

    OUT.mkdir(exist_ok=True)
    workers = min(2, os.cpu_count() or 1)
    executor = workloads.Executor(ROOT, OUT, workers)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    res = measure(ops, executor, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = res["latencies"]
    attempted, failed = len(lat), len(res["failures"])
    work_per_s = res["work"] / res["timed"] if res["timed"] > 0 else 0.0
    tail_s, tail_pct = tail(lat)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {
        "environment": environment(args),
        "inputs": workloads.input_properties(ops),
        "ops_list_digest": hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest(),
        "outputs_digest": hashlib.sha256("".join(res["hashes"]).encode()).hexdigest(),
        "ops_done": attempted, "work": res["work"], "timed_s": res["timed"],
        "untimed_check_s": res["checking"],
        "op_tail_percentile": tail_pct, "failures": res["failures"][:20],
        "ops_and_seconds_by_kind": res["by_kind"],
    }

    if args.trace:
        import numpy as np

        spans = tracer.spans()
        np.savez_compressed(OUT / f"spans-{tag}.npz", **spans)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0",
             "--size", args.size],
            capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
        plain = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["work_per_s"]["value"]
        metrics = layer_metrics(tracer, spans, res["timed"], 1.0 - work_per_s / plain)
        info.update(absent=tracer.absent, traced_work_per_s=work_per_s, plain_work_per_s=plain)
    else:
        setups = [setup_s] + setup_probe_times(args)
        info["setup_samples_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "work_per_s": {"value": work_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info["op_hashes"] = res["hashes"]
    info["op_latencies_s"] = lat
    info["metrics"] = metrics
    (OUT / f"run-{tag}.json").write_text(json.dumps(info, indent=1))
    brief = {k: v for k, v in info.items() if k not in ("op_hashes", "op_latencies_s", "metrics")}
    print(json.dumps({"info": brief}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
