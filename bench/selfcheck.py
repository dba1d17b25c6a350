#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny size.

    python3 bench/selfcheck.py

Run from the root of a checkout.  For every workload it makes two plain
runs with one seed, one with another seed and one traced run, all at the
tiny op size, and confirms that:

* every metric BENCHMARK.json names is printed, with its unit, and no op fails;
* the same seed gives the same op list and the same output digests;
* another seed gives a different op list;
* every traced span lies inside its parent, and the layer self times plus
  ``trace.untraced_s`` add up to the traced wall time.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SECONDS = "4"


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600, check=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = json.loads((OUT / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, info


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def require(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            result, info = run(workload, seed, trace)
            runs[seed, trace] = info
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            require(set(result) == {"correct", "attempted", "failed", "metrics"}
                    and result["attempted"] >= 1 and result["failed"] == 0,
                    f"{workload} seed {seed} trace {trace}: result keys, {result['attempted']} ops, "
                    f"{result['failed']} failed")
            require(got == expected[trace], f"{workload} trace {trace}: every metric with its unit")
        again = run(workload, 1, 0)[1]
        first = runs[1, 0]
        common = min(len(first["op_hashes"]), len(again["op_hashes"]))
        require(first["ops_list_digest"] == again["ops_list_digest"]
                and first["op_hashes"][:common] == again["op_hashes"][:common] and common > 0,
                f"{workload}: same seed, same op list and output digests ({common} ops compared)")
        require(first["ops_list_digest"] != runs[2, 0]["ops_list_digest"],
                f"{workload}: another seed, another op list")

        traced = runs[1, 1]["metrics"]
        spans = np.load(OUT / f"spans-{workload}-seed1-trace1.npz")
        parent, t0, t1 = spans["parent"], spans["t0"], spans["t1"]
        inner = parent >= 0
        nested = bool(np.all(t0[inner] >= t0[parent[inner]]) and np.all(t1[inner] <= t1[parent[inner]]))
        wall = traced["trace.wall_s"]["value"]
        self_sum = sum(v["value"] for k, v in traced.items() if k.endswith(".self_s"))
        roots = float(np.sum((t1 - t0)[~inner]))
        untraced = traced["trace.untraced_s"]["value"]
        require(nested and untraced >= 0 and abs(self_sum - roots) <= 1e-6 * max(wall, 1.0)
                and abs(self_sum + untraced - wall) <= 1e-6 * max(wall, 1.0),
                f"{workload}: {len(t0)} spans nested; self {self_sum:.4f} s + untraced "
                f"{untraced:.4f} s = wall {wall:.4f} s")
    print("self-check " + ("passed" if not problems else f"FAILED: {len(problems)} checks"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
