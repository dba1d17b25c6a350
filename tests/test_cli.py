"""Command-line surface: schema rejection, exit codes, CSV shape,
reproducibility across worker counts, and the committed regression
fixture."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from subfrac import __version__, sampling
from subfrac.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_SCOPE,
    PROBLEM_SCHEMA,
    _parse_kernel_arg,
    config_hash,
    load_problem,
    main,
    write_csv,
)
from subfrac.fk import derive_time_change_law
from subfrac.kernels import FAMILIES, make_kernel
from subfrac.sampling import PathGrid

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

    def test_conv_power_sum_table(self, tmp_path):
        out = tmp_path / "phi.csv"
        rc = main(["phi", "--kernel", "conv_power_sum:0.5,0.3,0.5", "--t", "0:1:3",
                   "--lambda", "0:1:3", "--grid-steps", "256", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 9
        assert all(float(r["max_discrepancy"]) < 1e-5 for r in rows)

    def test_failed_route_leaves_its_cell_empty(self, tmp_path, capsys):
        # the series route (fixed n_max = 120) leaves a tail of 1.35e-7 at
        # t = 1, lambda = 2, where the closed form and Volterra routes serve
        out = tmp_path / "phi.csv"
        rc = main(["phi", "--kernel", "conv_power_sum:0.5,0.3,0.5", "--t", "0:1:3",
                   "--lambda", "0:2:3", "--grid-steps", "256", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("series route failed at t=1, lambda=2: series tail")
        rows = read_rows(out)
        assert len(rows) == 9
        assert [(r["t"], r["lambda"]) for r in rows if r["phi_series"] == ""] == [("1", "2")]
        assert all(r["phi_closed"] and r["phi_volterra"] for r in rows)
        # the discrepancy of that row compares the two routes that served
        last = rows[-1]
        assert float(last["max_discrepancy"]) == abs(float(last["phi_volterra"]) - float(last["phi_closed"]))
        assert all(float(r["max_discrepancy"]) < 1e-5 for r in rows)

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

    def test_schema_errors_match_jsonschema_validate(self):
        good = json.loads(PROBLEM.read_text())
        bad_type = dict(good, eval_points="x")
        for doc in ({"kernel": {"family": "ggbm"}}, bad_type):
            with pytest.raises(jsonschema.ValidationError) as want:
                jsonschema.validate(doc, PROBLEM_SCHEMA)
            for _ in range(2):  # the first call builds the validator
                with pytest.raises(jsonschema.ValidationError) as got:
                    load_problem(doc)
                assert str(got.value) == str(want.value)


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

    # each case draws path i alone: the array function at n_paths=1, start=i
    @pytest.mark.parametrize(
        "dist, args, one_path",
        [
            ("stable", ["--gamma", "0.37", "--t", "1.3"],
             lambda i: sampling.stable_subordinator_draws(0.37, 1.3, 5, 1, i)),
            ("stable", ["--gamma", "1.0"],
             lambda i: sampling.stable_subordinator_draws(1.0, 1.0, 5, 1, i)),
            ("mixing", ["--beta", "0.63"],
             lambda i: sampling.A_stable_mixing_draws(0.63, 5, 1, i)),
            ("script_a", ["--gamma", "0.55", "--beta", "0.7"],
             lambda i: sampling.scriptA_draws(0.55, sampling.A_stable_mixing_draws(0.7, 5, 1, i), 5, i)),
            ("time_change", ["--kernel", "ggbm:0.8,0.6", "--t", "1.2"],
             lambda i: sampling.time_change_draws(GGBM_LAW, 1.2, 5, 1, i)),
            ("time_change", ["--kernel", "msm:1.5,1,0.3,1.5", "--t", "0.7"],
             lambda i: sampling.time_change_draws(MSM_LAW, 0.7, 5, 1, i)),
            ("fbm", ["--hurst", "0.3", "--grid-steps", "16"],
             lambda i: sampling.fbm_paths_batch(0.3, PathGrid(1.0, 16), 5, 1, start=i)),
            ("fbm", ["--hurst", "0.95", "--grid-steps", "16"],
             lambda i: sampling.fbm_paths_batch(0.95, PathGrid(1.0, 16), 5, 1, start=i)),
        ],
    )
    def test_sample_matches_per_row_helpers(self, tmp_path, dist, args, one_path):
        n = 60
        out = tmp_path / "batch.csv"
        argv = ["sample", "--dist", dist, *args, "--paths", str(n), "--seed", "5"]
        rc = main(argv + ["--out", str(out)])
        assert rc == EXIT_OK
        header = out.read_text().splitlines()[4].split(",")
        meta = {"subfrac_version": __version__, "dist": dist, "seed": 5, "paths": n}
        rows = [[i] + list(np.ravel(one_path(i))) for i in range(n)]
        write_csv(str(tmp_path / "rows.csv"), header, rows, meta)
        assert out.read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_sample_fbm_high_hurst_long_grid(self, tmp_path):
        out = tmp_path / "fbm.csv"
        argv = ["sample", "--dist", "fbm", "--hurst", "0.97", "--grid-steps", "4096", "--paths", "2"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK

    def test_sample_time_change_inverse_subordinator(self, tmp_path):
        spec = {"family": "conv_multinomial_ml", "beta": 0.7, "betas": [0.3], "bs": [1.0]}
        law = derive_time_change_law(make_kernel(spec), [0.8])
        assert isinstance(law, sampling.NumericCDFLaw)
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

    @pytest.mark.parametrize("dist", ["stable", "script_a"])
    def test_sample_gamma_zero_rejected(self, capsys, dist):
        assert main(["sample", "--dist", dist, "--gamma", "0", "--paths", "3"]) == EXIT_SCHEMA
        assert "invalid input: gamma must lie in (0, 1]" in capsys.readouterr().err

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


class TestSeedArguments:
    """A seed outside [0, 2^64) is an input error (exit 2) naming the seed,
    from the flags and from a problem file alike."""

    def test_negative_solve_seed_flag(self, capsys):
        rc = main(["solve", "--problem", str(PROBLEM), "--paths", "100", "--seed", "-5"])
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err.strip() == "invalid input: seed must lie in [0, 2^64), got -5"

    def test_problem_seed_beyond_64_bits(self, tmp_path, capsys):
        doc = json.loads(PROBLEM.read_text())
        doc["mc"] = {"paths": 100, "seed": 2**64}
        bad = tmp_path / "seed.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--problem", str(bad)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.strip() == (
            "invalid input: seed must lie in [0, 2^64), got 18446744073709551616"
        )

    @pytest.mark.parametrize("dist", ["stable", "fbm"])
    def test_negative_sample_seed_flag(self, capsys, dist):
        assert main(["sample", "--dist", dist, "--seed", "-1"]) == EXIT_SCHEMA
        assert capsys.readouterr().err.strip() == "invalid input: seed must lie in [0, 2^64), got -1"


class TestValidateArguments:
    def test_seed_zero_is_used(self, tmp_path):
        out = tmp_path / "v.csv"
        main(["validate", "--only", "mixing-laws", "--paths", "2000", "--seed", "0", "--out", str(out)])
        head = out.read_text().splitlines()
        assert "# seed=0" in head and "# paths=2000" in head

    @pytest.mark.parametrize("paths", [-3, 0, 1])
    def test_too_few_paths_rejected(self, capsys, paths):
        assert main(["validate", "--only", "mixing-laws", "--paths", str(paths)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.strip() == f"invalid input: paths must be >= 2, got {paths}"


class TestSpecfunArguments:
    def test_nan_argument_exits_2_naming_it(self, capsys):
        rc = main(["specfun", "--fn", "ml", "--params", "0.6", "--x=nan:nan:1"])
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err.strip() == "invalid input: x must be a number, got nan"

    def test_non_finite_multinomial_argument_exits_2_naming_it(self, capsys):
        rc = main(["specfun", "--fn", "multinomial_ml", "--params", "0.5,0.3,1.0,1.0,1.0", "--x=nan:nan:1"])
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err.strip() == "invalid input: z[0] must be finite, got nan"

    def test_overflowing_series_exits_3_naming_the_term(self, capsys):
        rc = main(["specfun", "--fn", "ml", "--params", "0.3", "--x=700:700:1"])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err.strip() == (
            "numerical failure: term 124 of the float series, e^712.278, is past the float range"
        )

    def test_missing_parameter_exits_2(self, capsys):
        rc = main(["specfun", "--fn", "ml", "--x=nan:nan:1"])
        assert rc == EXIT_SCHEMA
        assert "--fn ml needs one parameter" in capsys.readouterr().err


def _enum(*path):
    """The enum of PROBLEM_SCHEMA at the given chain of property names."""
    node = PROBLEM_SCHEMA
    for key in path:
        node = node["properties"][key]
    return node["enum"]


_NUMBERS = st.floats(-3.0, 3.0, allow_nan=False) | st.integers(-3, 3)
_PARAMS = st.floats(0.05, 2.5)


@st.composite
def kernel_specs(draw):
    family = draw(st.sampled_from(_enum("kernel", "family")))
    _, scalars, pairs = FAMILIES[family]
    spec = {"family": family, **{name: draw(_PARAMS) for name in scalars}}
    if pairs:
        m = draw(st.integers(0, 2))
        exponents = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)), reverse=True)
        spec.update(zip(pairs, (exponents, [draw(_PARAMS) for _ in range(m)])))
    return spec


@st.composite
def problem_docs(draw):
    doc = {
        "kernel": draw(kernel_specs()),
        "u0": {"kind": draw(st.sampled_from(_enum("u0", "kind")))},
        "eval_points": draw(st.lists(st.tuples(st.floats(0.0, 2.0), _NUMBERS).map(list), min_size=1, max_size=3)),
        "mc": draw(st.fixed_dictionaries({}, optional={
            "paths": st.integers(2, 10**6), "seed": st.integers(0, 2**32), "grid_steps": st.integers(2, 512)})),
    }
    if draw(st.booleans()):
        doc["u0"].update(center=draw(_NUMBERS), width=draw(st.floats(0.1, 3.0)))
    if draw(st.booleans()):
        base = {"kind": draw(st.sampled_from(_enum("process", "base", "kind")))}
        base.update({"w": draw(_NUMBERS)} if base["kind"] == "brownian_drift" else {"delta": draw(_PARAMS)})
        sub = {"kind": draw(st.sampled_from(_enum("process", "subordination", "kind")))}
        if sub["kind"] == "stable_power":
            sub["gamma"] = draw(st.floats(0.1, 1.0))
        doc["process"] = {"base": base, "subordination": sub}
    if draw(st.booleans()):
        potential = {"kind": draw(st.sampled_from(_enum("potential", "kind")))}
        if potential["kind"] == "constant":
            potential["c"] = draw(_NUMBERS)
        doc["potential"] = potential
    if draw(st.booleans()):
        doc["representation"] = draw(st.sampled_from(_enum("representation")))
    return doc


def cli_spelling(spec):
    """The --kernel argument of a JSON kernel spec: the scalar parameters in
    table order, then the (beta_j, b_j) pairs."""
    _, scalars, pairs = FAMILIES[spec["family"]]
    vals = [spec[name] for name in scalars]
    vals += [v for pair in zip(*(spec.get(name, []) for name in pairs)) for v in pair]
    return spec["family"] + ":" + ",".join(repr(float(v)) for v in vals)


_CONV_POWER_SUM_DOC = {
    "kernel": {"family": "conv_power_sum", "beta": 0.5, "betas": [0.3], "bs": [0.5]},
    "u0": {"kind": "gaussian_bump"},
    "eval_points": [[1.0, 0.0]],
    "mc": {},
}


class TestSchemaRoundTrip:
    """Documents built from the schema's enums, with every kernel family."""

    @given(problem_docs())
    @example(_CONV_POWER_SUM_DOC)
    @settings(max_examples=80, deadline=None)
    def test_effective_config_loads_to_itself(self, doc):
        try:
            problem, effective = load_problem(doc)
        except ValueError:  # parameters outside a family's or a process's range
            assume(False)
        again_problem, again = load_problem(effective)
        assert again == effective
        assert config_hash(again) == config_hash(effective)
        assert again_problem == problem

    @given(kernel_specs())
    @example(_CONV_POWER_SUM_DOC["kernel"])
    @settings(max_examples=80, deadline=None)
    def test_cli_spelling_builds_the_json_kernel(self, spec):
        # the command line takes a convolution family with at least one pair
        assume(not FAMILIES[spec["family"]][2] or spec.get("betas"))
        try:
            kernel = make_kernel(spec)
        except ValueError:
            assume(False)
        assert make_kernel(_parse_kernel_arg(cli_spelling(spec))) == kernel
