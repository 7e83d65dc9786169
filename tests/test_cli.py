"""CLI contract: config validation, exit codes, report/table output,
determinism."""

import csv
import json
import math

import pytest

from tentomo import cli
from tentomo.cli import (ConfigError, emit_tables, load_config, main,
                         validate_config)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PASS_CONFIG = {
    "schema": 1,
    "seed": 424242,
    "suites": [
        {"suite": "ucp.ray", "n": 2, "m": 1, "num_lines": 6, "num_points": 3},
    ],
}

FAIL_CONFIG = {
    "schema": 1,
    "seed": 424242,
    "suites": [
        # deliberately non-potential field with the vanishing assertions kept:
        # the negative control demonstrated through the exit code
        {"suite": "ucp.ray", "n": 2, "m": 1, "potential": False,
         "num_lines": 6, "num_points": 3},
    ],
}

INVALID_JSON = "{ this is not json }"

BAD_PRECONDITION = {
    "schema": 1,
    "seed": 1,
    "suites": [
        {"suite": "ucp.mrt", "n": 2, "m": 1, "k": 1},
    ],
}


class TestValidation:
    def test_pass_config_validates(self, tmp_path):
        doc = validate_config(load_config(write_config(tmp_path, PASS_CONFIG)))
        assert doc["seed"] == 424242

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(INVALID_JSON)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.exit_code == 2
        assert "line" in str(err.value)

    def test_unknown_suite_rejected(self, tmp_path):
        doc = {"schema": 1, "suites": [{"suite": "nope"}]}
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert err.value.exit_code == 2

    def test_missing_schema_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"suites": [{"suite": "decompose"}]})

    def test_precondition_violation_code_3(self):
        with pytest.raises(ConfigError) as err:
            validate_config(BAD_PRECONDITION)
        assert err.value.exit_code == 3

    def test_validate_subcommand_exit_codes(self, tmp_path, capsys):
        ok = write_config(tmp_path, PASS_CONFIG)
        assert main(["validate", "--config", ok]) == 0
        bad = tmp_path / "broken.json"
        bad.write_text(INVALID_JSON)
        assert main(["validate", "--config", str(bad)]) == 2
        pre = write_config(tmp_path, BAD_PRECONDITION, "pre.json")
        assert main(["validate", "--config", str(pre)]) == 3


class TestRun:
    def test_golden_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PASS_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert all(c["pass"] for blk in report["suites"]
                   for c in blk["residuals"])
        assert (out / "ucp_ray.csv").exists()

    def test_golden_fail_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, FAIL_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == 1

    def test_golden_invalid_exit_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text(INVALID_JSON)
        assert main(["run", "--config", str(bad), "--out",
                     str(tmp_path / "o")]) == 2

    def test_precondition_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, BAD_PRECONDITION)
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 3

    def test_suite_filter(self, tmp_path):
        doc = dict(PASS_CONFIG)
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", cfg, "--suite", "ucp.ray",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert main(["run", "--config", cfg, "--suite", "decompose",
                     "--out", str(tmp_path / "o2")]) == 2

    def test_deterministic_reruns_byte_identical_csv(self, tmp_path):
        cfg = write_config(tmp_path, PASS_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "ucp_ray.csv").read_bytes() == \
            (out2 / "ucp_ray.csv").read_bytes()
        rep1 = json.loads((out1 / "report.json").read_text())
        rep2 = json.loads((out2 / "report.json").read_text())
        for blk in rep1["suites"] + rep2["suites"]:
            blk.pop("timing", None)
        assert rep1 == rep2

    def test_seed_changes_values(self, tmp_path):
        cfg = write_config(tmp_path, PASS_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out1)])
        main(["run", "--config", cfg, "--seed", "7", "--out", str(out2)])
        rep1 = json.loads((out1 / "report.json").read_text())
        rep2 = json.loads((out2 / "report.json").read_text())
        v1 = [c["value"] for blk in rep1["suites"] for c in blk["residuals"]]
        v2 = [c["value"] for blk in rep2["suites"] for c in blk["residuals"]]
        assert v1 != v2

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, PASS_CONFIG)
        envdir = tmp_path / "envout"
        monkeypatch.setenv("OUTPUT_DIR", str(envdir))
        assert main(["run", "--config", cfg]) == 0
        assert (envdir / "report.json").exists()

    def test_lines_csv_artifact(self, tmp_path):
        cfg = write_config(tmp_path, PASS_CONFIG)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        from tentomo.xray import read_lines_csv
        lines = read_lines_csv(out / "ucp_ray_lines.csv")
        assert len(lines) == 6


class TestValidateAcceptsOnlyWhatRuns:
    def test_john_case_without_m_runs_with_default(self, tmp_path, capsys):
        doc = {"schema": 1, "suites": [{"suite": "identities.john",
                                        "cases": [{"n": 2}]}]}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((out / "report.json").read_text())["suites"][0]["residuals"]
        assert {row["parameters"]["m"] for row in rows} == {1}

    @pytest.mark.parametrize("suite", ["identities.prop-ray", "identities.mrt"])
    def test_single_degree_rejected(self, tmp_path, capsys, suite):
        doc = {"schema": 1, "suites": [{"suite": suite, "degrees": [20]}]}
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_string_grid_size_rejected(self, tmp_path, capsys):
        doc = {"schema": 1, "suites": [{"suite": "decompose", "N": "128"}]}
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("entry", [
        {"suite": "identities.algebra", "max_n": 1, "trials": 1},
        {"suite": "identities.algebra", "max_m": 0, "trials": 1},
        {"suite": "identities.ibp", "n_values": [2, 0], "trials_per_case": 1},
        {"suite": "identities.ibp", "n_values": [1], "trials_per_case": 1},
        {"suite": "identities.ibp", "s_values": [0], "trials_per_case": 1},
        {"suite": "identities.algebra", "max_n": "3", "trials": 1},
        {"suite": "identities.ibp", "n_values": 3, "trials_per_case": 1},
        {"suite": "identities.ibp", "s_values": [], "trials_per_case": 1},
        {"suite": "identities.john", "cases": [{"m": 1, "lines": 0}]},
        {"suite": "identities.john", "cases": [{"n": 1, "m": 1, "lines": -3}]},
        {"suite": "identities.john", "cases": []},
        {"suite": "identities.prop-ray", "m_values": []},
        {"suite": "identities.mrt", "lemma_cases": [], "prop_cases": []},
        {"suite": "decompose", "m_values": [], "normal_consistency": False},
        {"suite": "decompose", "m_values": [], "normal_cases": []},
        {"suite": "identities.prop-ray", "m_values": 3},
        {"suite": "identities.mrt", "prop_cases": [[1]]},
        {"suite": "identities.mrt", "lemma_cases": 5},
        {"suite": "decompose", "m_values": 2},
        {"suite": "decompose", "N": 32, "m_values": [], "normal_cases": [[1]],
         "refine": False},
    ])
    def test_empty_or_degenerate_exact_cases_rejected(self, tmp_path, capsys,
                                                      entry):
        # each of these used to validate, then died (exit 4) or passed a
        # vacuous check in run, or died in validate with a traceback
        path = write_config(tmp_path, {"schema": 1, "suites": [entry]})
        assert main(["validate", "--config", path]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("entry", [
        {"suite": "identities.algebra", "trials": 0, "roundtrip_trials": 0},
        {"suite": "identities.ibp", "trials_per_case": 0},
        {"suite": "identities.algebra", "trials": "3"},
        {"suite": "identities.algebra", "roundtrip_trials": True},
    ], ids=["algebra-zero", "ibp-zero", "algebra-string", "algebra-bool"])
    def test_trial_counts_must_be_positive_integers(self, tmp_path, capsys, entry):
        # zero trials used to pass every row vacuously, and "3" died in run
        path = write_config(tmp_path, {"schema": 1, "suites": [entry]})
        assert main(["validate", "--config", path]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("entry", [
        {"suite": "ucp.ray", "num_lines": 0, "num_points": 0},
        {"suite": "ucp.mrt", "m": 2, "num_lines": 0, "num_points": 0},
        {"suite": "ucp.trt", "n": 3, "m": 2, "num_points": 2.0},
    ], ids=["ray-zero", "mrt-zero", "trt-float"])
    def test_ucp_sample_counts_must_be_positive_integers(self, tmp_path, capsys, entry):
        # with no lines and no points the vanishing checks passed on nothing
        path = write_config(tmp_path, {"schema": 1, "suites": [entry]})
        assert main(["validate", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'num_" in err
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: ")


def test_import_loads_no_scipy():
    # scipy is a test and benchmark oracle only; the package must not need it
    import os
    import subprocess
    import sys
    import tentomo
    src = os.path.dirname(os.path.dirname(os.path.abspath(tentomo.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import tentomo.cli, sys; "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_nan_residual_fails_the_run(tmp_path, monkeypatch, capsys):
    import tentomo.xray as xr
    real = xr.verify_john_relation
    calls = []

    def nan_on_second_line(f, line):
        calls.append(line)
        return math.nan if len(calls) == 2 else real(f, line)

    monkeypatch.setattr(xr, "verify_john_relation", nan_on_second_line)
    doc = {"schema": 1, "seed": 5, "suites": [
        {"suite": "identities.john", "cases": [{"n": 2, "m": 1, "lines": 3}]}]}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 1
    rows = json.loads((out / "report.json").read_text())["suites"][0]["residuals"]
    assert math.isnan(rows[0]["value"]) and not rows[0]["pass"]
    assert "FAIL john_relation_residual" in capsys.readouterr().out


def test_nan_quadrature_error_fails_its_row(monkeypatch):
    import numpy as np

    import tentomo.normalops as no
    from tentomo.polyfield import random_bump_field
    from tentomo.rng import SplitMix64
    real = no.n0_scalar

    def nan_at_degree_40(g, x, rule):
        return math.nan if rule.degree == 40 else real(g, x, rule)

    monkeypatch.setattr(no, "n0_scalar", nan_at_degree_40)
    f = random_bump_field(2, 1, SplitMix64(3), power=4, degree=2, label="f")
    row = cli._quadrature_convergence_row("q", f, np.asarray([1.25, 0.45]),
                                          [20, 40, 60])
    assert math.isnan(row["parameters"]["errors"][1])
    assert math.isnan(row["value"]) and not row["pass"]


def test_internal_error_exit_4(tmp_path, monkeypatch, capsys):
    def broken(params, rng):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli.SUITE_RUNNERS, "identities.algebra", broken)
    doc = {"schema": 1, "suites": [{"suite": "identities.algebra"}]}
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: identities.algebra: internal error: TypeError")
    assert "Traceback" in err


class TestEmitTables:
    def test_empty_report_header_only(self, tmp_path):
        report = {"suites": [{"scenario": "identities.algebra",
                              "residuals": []}]}
        paths = emit_tables(report, str(tmp_path))
        with open(paths[0]) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["check_name", "parameters", "residual", "tolerance",
                         "pass", "seconds"]]

    def test_row_schema(self, tmp_path):
        report = {"suites": [{"scenario": "x", "residuals": [
            {"name": "a", "parameters": {"m": 1}, "value": 0.5,
             "tolerance": 1.0, "pass": True, "seconds": 0.1}]}]}
        paths = emit_tables(report, str(tmp_path), timing_in_tables=True)
        with open(paths[0]) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "a"
        assert json.loads(rows[1][1]) == {"m": 1}
        assert float(rows[1][2]) == 0.5
        assert rows[1][5] == "0.1"


def test_ibp_rows_are_the_worst_over_every_ordered_index(monkeypatch):
    # the suite evaluates one index per multiset; each row must still equal
    # the worst residual over every ordered index.  Integrating against
    # xi_0 dS makes the residuals nonzero, so the comparison has content
    import itertools

    import tentomo.spherequad as sq
    from tentomo.polynomial import Polynomial, random_homogeneous
    from tentomo.rng import SplitMix64
    from tentomo.verdict import worst
    sphere = sq.polynomial_sphere_integral
    monkeypatch.setattr(sq, "polynomial_sphere_integral", lambda p, exact=True:
                        sphere(Polynomial.variable(p.n, 0) * p, exact))
    params = {"n_values": [2, 3], "s_values": [1, 2, 3, 4], "trials_per_case": 2}
    rows = cli._run_ibp(params, SplitMix64(5))
    rng, want = SplitMix64(5), []
    for n in params["n_values"]:
        for s in params["s_values"]:
            res = []
            for t in range(params["trials_per_case"]):
                child = rng.split(f"ibp-{n}-{s}-{t}")
                pow2r = child.randint(0, 2)
                g = sq.HomogeneousRational(
                    random_homogeneous(n, s - 1 + 2 * pow2r, child), pow2r)
                res += [abs(float(sq.verify_ibp(g, idx)))
                        for idx in itertools.product(range(n), repeat=s)]
            want.append(worst(res))
    assert [row["value"] for row in rows if row["name"] == "ibp_residual"] == want
    assert all(want)
