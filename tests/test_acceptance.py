"""Acceptance gate: every criterion of the validation matrix at its frozen
tolerance and full path budget, plus the byte-identical reproducibility
check of the command-line surface.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The full run takes several minutes; the same matrix
is available from the command line as ``subfrac validate``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from subfrac.validate import Budget, list_criteria, run_one

BUDGET = Budget(paths=100_000, seed=20240811)
REPO = Path(__file__).resolve().parents[1]
PROBLEM = REPO / "demos" / "problems" / "ggbm_heat.json"


@pytest.mark.parametrize("cid", list_criteria())
def test_criterion(cid):
    result = run_one(cid, BUDGET)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status} {cid}: observed {result.observed:.4g} vs tolerance "
          f"{result.tolerance:.4g} [{result.runtime_s:.1f}s]\n     {result.detail}")
    assert result.passed, f"{cid}: {result.detail}"


def test_reproducibility_across_worker_counts(tmp_path):
    """Two runs of the validate/solve surface with identical seeds and
    different --workers must produce byte-identical CSVs."""
    outs = []
    for i, workers in enumerate((1, 4)):
        out = tmp_path / f"run{i}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "subfrac.cli", "solve",
                "--problem", str(PROBLEM),
                "--paths", "20000",
                "--workers", str(workers),
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    print("\nPASS reproducibility: solve CSVs byte-identical for workers 1 vs 4")
    assert outs[0] == outs[1]


def test_validate_csv_reproducible(tmp_path):
    """Two runs of ``subfrac validate`` with identical seeds emit
    byte-identical CSVs (restricted to two fast criteria to keep the double
    run reasonable)."""
    outs = []
    for i in range(2):
        out = tmp_path / f"val{i}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "subfrac.cli", "validate",
                "--only", "homogeneous-scaling,mixing-laws",
                "--paths", "20000",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out.read_bytes())
    print("\nPASS reproducibility: validate CSVs byte-identical over two runs")
    assert outs[0] == outs[1]
