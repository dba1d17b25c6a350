"""Command-line surface: schema rejection, exit codes, CSV shape,
reproducibility across worker counts, and the committed regression
fixture."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from subfrac import __version__, sampling
from subfrac.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_SCOPE,
    load_problem,
    main,
    write_csv,
)
from subfrac.fk import derive_time_change_law
from subfrac.kernels import make_kernel
from subfrac.sampling import PathGrid, SeedSpec

REPO = Path(__file__).resolve().parents[1]
PROBLEM = REPO / "demos" / "problems" / "ggbm_heat.json"
EXPECTED = REPO / "tests" / "data" / "ggbm_heat_expected.csv"
GGBM_LAW = derive_time_change_law(
    make_kernel({"family": "ggbm", "alpha": 0.8, "beta": 0.6}), [1.2]
)
MSM_LAW = derive_time_change_law(
    make_kernel({"family": "msm", "a": 1.5, "b": 1.0, "mu": 0.3, "nu": 1.5}), [0.7]
)


def read_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


class TestPhiCommand:
    def test_table_shape_and_discrepancy(self, tmp_path):
        out = tmp_path / "phi.csv"
        rc = main(
            [
                "phi",
                "--kernel", "ggbm:0.8,0.6",
                "--t", "0:1:11",
                "--lambda", "0:5:11",
                "--grid-steps", "2048",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 121
        assert all(float(r["max_discrepancy"]) < 1e-5 for r in rows)
        lam0 = [r for r in rows if float(r["lambda"]) == 0.0]
        assert all(float(r["phi_series"]) == 1.0 for r in lam0)
        assert all(float(r["phi_closed"]) == 1.0 for r in lam0)

    def test_invalid_kernel_exit_2(self, capsys):
        rc = main(["phi", "--kernel", "ggbm:1.8,1.6", "--t", "0:1:2", "--lambda", "0:1:2"])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "beta" in err and len(err.strip().splitlines()) == 1

    def test_tight_tolerance_exit_3(self, tmp_path):
        rc = main(
            [
                "phi",
                "--kernel", "ggbm:0.8,0.6",
                "--t", "0:1:3",
                "--lambda", "0:5:3",
                "--grid-steps", "256",
                "--tol", "1e-12",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == EXIT_NUMERICAL


class TestSolveCommand:
    def test_regression_fixture_within_three_stderr(self, tmp_path):
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--problem", str(PROBLEM), "--out", str(out)])
        assert rc == EXIT_OK
        got = read_rows(out)
        expected = read_rows(EXPECTED)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            mean, stderr = float(g["mean"]), float(g["stderr"])
            oracle = float(e["oracle_mean"])
            if float(g["t"]) == 0.0:
                assert mean == oracle
                assert stderr == 0.0
            else:
                assert abs(mean - oracle) <= 3.5 * stderr

    def test_byte_identical_across_workers(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--problem", str(PROBLEM), "--paths", "5000", "--out", str(a)]) == EXIT_OK
        assert main(["solve", "--problem", str(PROBLEM), "--paths", "5000", "--workers", "5", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_key_rejected(self, tmp_path):
        doc = json.loads(PROBLEM.read_text())
        doc["typo_section"] = {}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--problem", str(bad)]) == EXIT_SCHEMA

    def test_scope_violation_exit_4(self, tmp_path):
        doc = json.loads(PROBLEM.read_text())
        doc["kernel"] = {"family": "conv_power_sum", "beta": 0.5, "betas": [0.3], "bs": [0.5]}
        doc["representation"] = "scaled_bm"
        bad = tmp_path / "scope.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--problem", str(bad)]) == EXIT_SCOPE

    @pytest.mark.parametrize(
        "point, field",
        [([1.0, float("nan")], "eval_points[0][1]"), ([float("inf"), 0.0], "eval_points[0][0]")],
    )
    def test_nonfinite_number_rejected(self, tmp_path, capsys, point, field):
        doc = json.loads(PROBLEM.read_text())
        doc["eval_points"] = [point]
        bad = tmp_path / "nonfinite.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--problem", str(bad)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert field in err and len(err.strip().splitlines()) == 1

    def test_time_zero_row_exact(self, tmp_path):
        out = tmp_path / "sol.csv"
        main(["solve", "--problem", str(PROBLEM), "--paths", "2000", "--out", str(out)])
        row0 = read_rows(out)[0]
        assert float(row0["t"]) == 0.0
        assert float(row0["mean"]) == 1.0
        assert float(row0["stderr"]) == 0.0

    def test_metadata_block_present(self, tmp_path):
        out = tmp_path / "sol.csv"
        main(["solve", "--problem", str(PROBLEM), "--paths", "2000", "--out", str(out)])
        head = out.read_text().splitlines()
        assert head[0].startswith("# subfrac_version=")
        assert any(l.startswith("# config_hash=") for l in head[:4])


class TestLoadProblem:
    def test_defaults_materialized(self):
        doc = json.loads(PROBLEM.read_text())
        del doc["process"]
        del doc["potential"]
        problem, effective = load_problem(doc)
        assert effective["process"]["base"] == {"kind": "brownian_drift", "w": 0.0}
        assert effective["potential"] == {"kind": "zero"}
        assert effective["mc"]["paths"] == 50000

    def test_schema_validation(self):
        with pytest.raises(Exception):
            load_problem({"kernel": {"family": "ggbm"}})


class TestOtherCommands:
    def test_specfun_point_eval(self, capsys):
        rc = main(["specfun", "--fn", "ml", "--params", "0.6", "--x=-1:-1:1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "x,value"
        assert float(rows[1].split(",")[1]) == pytest.approx(0.413327340943106, rel=1e-12)

    def test_sample_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample", "--dist", "stable", "--gamma", "0.5", "--paths", "5", "--seed", "3", "--out", str(a)])
        main(["sample", "--dist", "stable", "--gamma", "0.5", "--paths", "5", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "dist, args, helper",
        [
            ("stable", ["--gamma", "0.37", "--t", "1.3"],
             lambda i: sampling.sample_stable_subordinator(0.37, 1.3, SeedSpec(5, i))),
            ("stable", ["--gamma", "1.0"],
             lambda i: sampling.sample_stable_subordinator(1.0, 1.0, SeedSpec(5, i))),
            ("mixing", ["--beta", "0.63"],
             lambda i: sampling.sample_A_stable_mixing(0.63, SeedSpec(5, i))),
            ("script_a", ["--gamma", "0.55", "--beta", "0.7"],
             lambda i: sampling.sample_scriptA(
                 0.55, lambda s: sampling.sample_A_stable_mixing(0.7, s), SeedSpec(5, i))),
            ("time_change", ["--kernel", "ggbm:0.8,0.6", "--t", "1.2"],
             lambda i: sampling.sample_time_change(GGBM_LAW, 1.2, SeedSpec(5, i))),
            ("time_change", ["--kernel", "msm:1.5,1,0.3,1.5", "--t", "0.7"],
             lambda i: sampling.sample_time_change(MSM_LAW, 0.7, SeedSpec(5, i))),
            ("fbm", ["--hurst", "0.3", "--grid-steps", "16"],
             lambda i: list(sampling.sample_fbm_path(0.3, PathGrid(1.0, 16), SeedSpec(5, i)))),
            ("fbm", ["--hurst", "0.95", "--grid-steps", "16"],
             lambda i: list(sampling.sample_fbm_path(0.95, PathGrid(1.0, 16), SeedSpec(5, i)))),
        ],
    )
    def test_sample_matches_per_row_helpers(self, tmp_path, dist, args, helper):
        n = 60
        out = tmp_path / "batch.csv"
        argv = ["sample", "--dist", dist, *args, "--paths", str(n), "--seed", "5"]
        rc = main(argv + ["--out", str(out)])
        assert rc == EXIT_OK
        header = out.read_text().splitlines()[4].split(",")
        meta = {"subfrac_version": __version__, "dist": dist, "seed": 5, "paths": n}
        rows = []
        for i in range(n):
            v = helper(i)
            rows.append([i] + (v if isinstance(v, list) else [v]))
        write_csv(str(tmp_path / "rows.csv"), header, rows, meta)
        assert out.read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_sample_time_change_inverse_subordinator(self, tmp_path):
        spec = {"family": "conv_multinomial_ml", "beta": 0.7, "betas": [0.3], "bs": [1.0]}
        law = derive_time_change_law(make_kernel(spec), [0.8])
        assert isinstance(law, sampling.InverseSubordinatorLaw)
        out = tmp_path / "tc.csv"
        rc = main(["sample", "--dist", "time_change", "--kernel", "conv_multinomial_ml:0.7,0.3,1.0",
                   "--t", "0.8", "--paths", "6", "--seed", "5", "--out", str(out)])
        assert rc == EXIT_OK
        ref = tmp_path / "ref.csv"
        write_csv(
            str(ref), ["stream_id", "draw"],
            [[i, v] for i, v in enumerate(sampling.time_change_draws(law, 0.8, 5, 6))],
            {"subfrac_version": __version__, "dist": "time_change", "seed": 5, "paths": 6},
        )
        assert out.read_bytes() == ref.read_bytes()

    def test_conv_kernel_spec_needs_pairs(self, capsys):
        rc = main(["sample", "--dist", "time_change", "--kernel", "conv_multinomial_ml:0.7,0.3,1.0,0.2"])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "(beta_j, b_j) pairs" in err and "got 4 parameters" in err

    def test_sample_negative_paths_rejected(self, capsys):
        assert main(["sample", "--dist", "mixing", "--paths", "-3"]) == EXIT_SCHEMA
        assert "--paths must be nonnegative" in capsys.readouterr().err

    def test_validate_list(self, capsys):
        rc = main(["validate", "--list"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out.split()
        assert "phi-three-way" in out
        assert len(out) == 10

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subfrac.cli", "validate", "--list"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "specfun-identities" in proc.stdout


class TestSpecfunArguments:
    def test_nan_argument_exits_2_naming_it(self, capsys):
        rc = main(["specfun", "--fn", "ml", "--params", "0.6", "--x=nan:nan:1"])
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err.strip() == "invalid input: x must be a number, got nan"

    def test_missing_parameter_exits_2(self, capsys):
        rc = main(["specfun", "--fn", "ml", "--x=nan:nan:1"])
        assert rc == EXIT_SCHEMA
        assert "--fn ml needs one parameter" in capsys.readouterr().err
