"""CLI contract: config validation, exit codes, report/table output,
determinism."""

import ast
import csv
import json
import math
import pathlib
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from tentomo import cli, config, suites
from tentomo.cli import (ConfigError, emit_tables, load_config, main,
                         validate_config)
from tentomo.config import JOHN_CASE, SUITES, TOP_LEVEL, Check
from tentomo.polyfield import BudgetError
from test_mutations import nonpotential_field


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

    def test_golden_fail_exit_1(self, tmp_path, monkeypatch):
        # the vanishing rows on a non-potential field: a failed row exits 1
        nonpotential_field(monkeypatch)
        cfg = write_config(tmp_path, PASS_CONFIG)
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
        with open(out / "ucp_ray_lines.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_1", "x_2", "xi_1", "xi_2", "value"]
        assert len(rows) == 1 + 6


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
        # one ibp trial at n = 5, s = 4 peaks at 0.5 GB, and n = 6 exhausts
        # memory; John at m = 5 reads above the tolerance, which may only tighten
        {"suite": "identities.ibp", "n_values": [2, 5], "trials_per_case": 1},
        {"suite": "identities.ibp", "s_values": [1, 7], "trials_per_case": 1},
        {"suite": "identities.john", "cases": [{"n": 5, "m": 1}]},
        {"suite": "identities.john", "cases": [{"m": 1}, {"n": 2, "m": 5}]},
        {"suite": "identities.john", "cases": [{"m": 1, "lines": 0}]},
        {"suite": "identities.john", "cases": [{"n": 1, "m": 1, "lines": -3}]},
        {"suite": "identities.john", "cases": []},
        {"suite": "identities.prop-ray", "m_values": []},
        {"suite": "identities.mrt", "lemma_cases": [], "prop_cases": []},
        # identities.mrt ranks above its bounds (README, "identities.mrt")
        {"suite": "identities.mrt", "prop_cases": [[4, 1]]},
        {"suite": "identities.mrt", "lemma_cases": [[13, 1]]},
        {"suite": "decompose", "m_values": [], "normal_consistency": False},
        {"suite": "decompose", "m_values": [], "normal_cases": []},
        {"suite": "identities.prop-ray", "m_values": 3},
        {"suite": "identities.mrt", "prop_cases": [[1]]},
        {"suite": "identities.mrt", "lemma_cases": 5},
        {"suite": "decompose", "m_values": 2},
        {"suite": "decompose", "N": 32, "m_values": [], "normal_cases": [[1]],
         "refine": False},
        {"suite": "ucp.ray", "n": 4},
        {"suite": "ucp.ray", "u_radius": "x"},
        {"suite": "ucp.ray", "tolerance": "1e-9"},
        {"suite": "ucp.ray", "rule_degree": 0},
        {"suite": "ucp.mrt", "n": 2, "m": 2, "k": 1.0},
        {"suite": "decompose", "L": 1.0},
        {"suite": "decompose", "L": "4"},
        {"suite": "decompose", "trials": 3},
        {"suite": "identities.algebra", "trails": 3},
        {"suite": "identities.john", "cases": [{"m": 1, "tolernce": 1}]},
        {"suite": "identities.prop-ray", "tolerance": "a"},
        {"suite": "identities.prop-ray", "tolerance": 1e-3},
        {"suite": "identities.prop-ray", "interior_points": "2"},
        {"suite": "identities.prop-ray", "degrees": [40, 20]},
        {"suite": "identities.prop-ray", "degrees": [-4, 40]},
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


    def test_trt_dimension_is_bounded(self, tmp_path, capsys):
        # the direction draw waits for |det| > 0.2, which at n = 10 never
        # comes: run used to hang where validate said exit 0
        path = write_config(tmp_path, {"schema": 1, "suites": [
            {"suite": "ucp.trt", "n": 7, "m": 1}]})
        assert main(["validate", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'n'" in err
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_potential_switch_is_gone(self, tmp_path, capsys):
        # a config that asks for the non-potential field names a key of no table
        path = write_config(tmp_path, {"schema": 1, "suites": [
            {"suite": "ucp.ray", "potential": False}]})
        known = "unknown key 'potential'; known: n, m, num_lines, num_points"
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert main([*argv, "--config", path]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and known in err

    @pytest.mark.parametrize("entry", [
        {"suite": "decompose", "N": 257},
        {"suite": "decompose", "m_values": [1, 5]},
        {"suite": "decompose", "normal_cases": [[5, 0]]},
        {"suite": "decompose", "normal_cases": [[0, 0], [1, 5]]},
    ], ids=["N", "rank", "case-m", "case-k"])
    def test_decompose_sizes_are_bounded(self, tmp_path, capsys, entry):
        # N = 512 with m = 4 and the case (4, 4) peaked at 525 MB, and
        # nothing bounded N or the ranks above that
        path = write_config(tmp_path, {"schema": 1, "suites": [entry]})
        key = next(k for k in entry if k != "suite")
        assert main(["validate", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        corner = {"suite": "decompose", "N": 256, "m_values": [1, 2, 3, 4],
                  "normal_cases": [[4, 4], [0, 4], [4, 0]]}
        path = write_config(tmp_path, {"schema": 1, "suites": [corner]})
        assert main(["validate", "--config", path]) == 0

    def test_trt_rank_is_bounded(self, tmp_path, capsys):
        # the dense sample loop grows about n^m C(n+m-1, m) per point, over
        # ten times from m = 4 to m = 5 at n = 6
        path = write_config(tmp_path, {"schema": 1, "suites": [
            {"suite": "ucp.trt", "n": 3, "m": 5}]})
        assert main(["validate", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'m'" in err


class TestTopLevel:
    @pytest.mark.parametrize("field", [
        {"output_dir": 5},
        {"timing_in_tables": "yes"},
        {"seed": True},
        {"outdir": "elsewhere"},
    ], ids=["output_dir-int", "timing-string", "seed-bool", "unknown-key"])
    def test_malformed_field_exit_2(self, tmp_path, monkeypatch, capsys, field):
        # output_dir 5 used to validate, then kill run with a TypeError (exit 1)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("OUTPUT_DIR", raising=False)
        path = write_config(tmp_path, dict(PASS_CONFIG, **field))
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_seed_flag_goes_through_the_table(self, tmp_path, monkeypatch, capsys):
        # `run --seed -1` used to exit 0 and write "seed": -1 to the report
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", write_config(tmp_path, dict(PASS_CONFIG, seed=-1))]) == 2
        from_config = capsys.readouterr().err
        assert from_config.startswith("error: ")
        assert main(["run", "--config", write_config(tmp_path, PASS_CONFIG),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == from_config
        assert not (tmp_path / "tentomo_out").exists()

    @pytest.mark.parametrize("suite", ["ucp.trt", "ucp.mrt"])
    def test_suite_defaults_validate_and_run(self, tmp_path, suite):
        path = write_config(tmp_path, {"schema": 1, "suites": [{"suite": suite}]})
        assert main(["validate", "--config", path]) == 0
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0

    def test_out_is_an_existing_file_exit_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", "--config", write_config(tmp_path, PASS_CONFIG),
                     "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_suite_named_twice_exit_2(self, tmp_path, capsys):
        # the second entry's table used to overwrite the first's, with exit 0
        doc = {"schema": 1, "suites": [
            {"suite": "identities.ibp", "n_values": [2], "trials_per_case": 1},
            {"suite": "identities.ibp", "n_values": [3], "trials_per_case": 1}]}
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: suites[1]: ") and "'identities.ibp'" in err
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("taken", ["report.json", "identities_ibp.csv",
                                       "ucp_ray_lines.csv"])
    def test_unwritable_output_file_exit_2(self, tmp_path, capsys, taken):
        # a directory in the place of an output file used to exit 1 with a traceback
        doc = {"schema": 1, "suites": [
            {"suite": "identities.ibp", "n_values": [2], "s_values": [1],
             "trials_per_case": 1},
            {"suite": "ucp.ray", "num_lines": 2, "num_points": 1}]}
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and taken in err
        assert "Traceback" not in err


def _packages_loaded_by_cli_import(names):
    """Which of the top-level packages ``names`` a fresh ``import
    tentomo.cli`` loads, in a subprocess."""
    import os
    import subprocess
    import sys
    import tentomo
    src = os.path.dirname(os.path.dirname(os.path.abspath(tentomo.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import tentomo.cli, sys; "
            f"print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(names)!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is a test and benchmark oracle only; the package must not need it
    assert _packages_loaded_by_cli_import(["scipy"]) == "[]"


def test_import_loads_no_executor_modules():
    # every suite runs on the calling thread, and an executor module would
    # lengthen the import that every run pays
    assert _packages_loaded_by_cli_import(["concurrent", "multiprocessing", "asyncio"]) == "[]"


def test_no_function_level_imports():
    # an import inside a function hides a dependency of its module; one that
    # breaks an import cycle is listed here, with the cycle named at the import
    allowed = set()
    found = set()
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.name, func.name) for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert found <= allowed, sorted(found)


# defs that nothing under src/ names, each with the reason it stays
UNREFERENCED = {
    # oracles that tests compare the compiled paths against
    "saint_venant_W_component": "oracle", "generalized_W_component": "oracle",
    "polynomial_sphere_integral": "oracle", "diff": "oracle",
    # read by the benchmark
    "to_json_dict": "benchmark API",
    "monomial": "test constructor", "variable": "test constructor",
    # paper laws that tests check, to become report rows
    "homogeneity_check": "law awaiting a row", "momentum_shift_residual": "law awaiting a row",
    "momentum_scale_residual": "law awaiting a row", "john_apply": "law awaiting a row",
    "field_l2_inner": "law awaiting a row", "divergence": "law awaiting a row",
    "lower_generalized_R": "law awaiting a row",
}


#: Def names defined more than once under src/, each with every scope that
#: defines it (class, enclosing function or module), sorted.  A def that
#: shares a name passes the caller check when any of its namesakes is
#: called, so each one listed here has a caller of its own.
SHARED_NAMES = {
    "degree": ("HomogeneousRational", "Polynomial"),
    "eval": ("Polynomial", "TransformExpr"),
    "is_zero": ("CoreStack", "PiRational", "Polynomial", "_StackedField"),
    "scale": ("CoreStack", "TransformExpr"),
    "triples": ("_lower_r_terms", "_r_to_w_terms", "_w_terms"),
    "values": ("PolyBumpField", "_kernel_family"),
}


def test_every_def_has_a_caller():
    # every function and class under src/ is named somewhere else under
    # src/ (called, read as an attribute or imported), or is listed above;
    # a name defined twice must be listed in SHARED_NAMES with its scopes.
    # An attribute of a module from outside the package (np.diff) names
    # nothing of ours.
    defined, named, scopes = set(), set(), {}

    def visit(node, scope, foreign):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    defined.add(child.name)
                    scopes.setdefault(child.name, []).append(scope)
                visit(child, child.name, foreign)
                continue
            if isinstance(child, ast.Name):
                named.add(child.id)
            elif isinstance(child, ast.Attribute):
                if not (isinstance(child.value, ast.Name) and child.value.id in foreign):
                    named.add(child.attr)
            elif isinstance(child, ast.alias):
                named.add(child.name)
            visit(child, scope, foreign)

    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        foreign = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name.split(".")[0] != "tentomo"}
        visit(tree, path.stem, foreign)
    assert sorted(defined - named) == sorted(UNREFERENCED)
    assert {name: tuple(sorted(where)) for name, where in scopes.items()
            if len(where) > 1} == SHARED_NAMES


def test_every_suite_has_exactly_one_runner():
    assert set(suites.SUITE_RUNNERS) == set(config.SUITES)


def test_nan_residual_fails_the_run(tmp_path, monkeypatch, capsys):
    import tentomo.xray as xr
    real = xr.verify_john_relation

    def nan_on_second_line(f, X, Xi):
        res = real(f, X, Xi)
        if len(res) > 1:
            res[1] = math.nan
        return res

    monkeypatch.setattr(xr, "verify_john_relation", nan_on_second_line)
    doc = {"schema": 1, "seed": 5, "suites": [
        {"suite": "identities.john", "cases": [{"n": 2, "m": 1, "lines": 3}]}]}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 1
    rows = json.loads((out / "report.json").read_text())["suites"][0]["residuals"]
    assert math.isnan(rows[0]["value"]) and not rows[0]["pass"]
    assert "FAIL john_relation_residual" in capsys.readouterr().out


def test_a_check_with_no_samples_fails():
    from tentomo.verdict import check_row, worst
    assert math.isnan(worst([]))
    assert math.isnan(worst(v for v in ()))
    assert not check_row("empty", worst([]), 1e-10)["pass"]
    assert worst([0.0, 2.5, 1.0]) == 2.5


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("mode", ["below", "above"])
def test_a_value_that_is_not_finite_fails(value, mode):
    # a negative control that overflows to inf, or a residual of -inf, shows
    # nothing about the identity, whichever side of the tolerance it lies on
    from tentomo.verdict import check_row
    assert not check_row("x", value, 0.5, mode=mode)["pass"]


@pytest.mark.parametrize("mode", ["Below", "above ", "exact", None])
def test_an_unknown_check_mode_is_refused(mode):
    # any mode but "below" used to make a negative control, so a misspelt
    # one passed a residual far above its tolerance
    from tentomo.verdict import check_row
    with pytest.raises(ValueError):
        check_row("x", 5.0, 1.0, mode=mode)


def test_nan_quadrature_error_fails_its_row(monkeypatch):
    import tentomo.normalops as no
    from tentomo.polyfield import random_bump_field
    from tentomo.rng import SplitMix64
    from tentomo.spherequad import build_rule
    real = no.n0_scalar

    def nan_at_degree_40(g, pts, rules):
        vals = real(g, pts, rules)
        return np.where([[rule.degree == 40] for rule in rules], math.nan, vals)

    monkeypatch.setattr(no, "n0_scalar", nan_at_degree_40)
    f = random_bump_field(2, 1, SplitMix64(3), power=4, degree=2, label="f")
    row = suites._quadrature_convergence_row("q", f, np.asarray([1.25, 0.45]),
                                             [build_rule(2, deg) for deg in (20, 40, 60, 320)])
    assert row["parameters"]["degrees"] == [20, 40, 60]
    assert math.isnan(row["parameters"]["errors"][1])
    assert math.isnan(row["value"]) and not row["pass"]


@pytest.mark.parametrize("seed", [0, 3, 52])
def test_prop_ray_runner_rows(seed, tmp_path):
    # the prop-ray suite at its defaults: per m, a residual row for every
    # (degree, point), then the slack row and the quadrature-error row.  At
    # degree 60 every residual passes; the two trend rows can fail (at seeds
    # 3 and 52 one m's error does not fall monotonically), so only their
    # names and parameters are checked here
    from tentomo.rng import SplitMix64
    rep = cli.run_suite({"suite": "identities.prop-ray"},
                        SplitMix64(seed).split("suite-identities.prop-ray"), tmp_path)
    rows = rep["residuals"]
    want = []
    for m in (1, 2):
        want += [(f"prop_ray_m{m}_residual", {"degree": deg, "point": i})
                 for deg in (20, 40, 60) for i in range(4)]
        want += [(f"prop_ray_m{m}_residual_monotone_slack", {"degrees": [20, 40, 60]}),
                 (f"prop_ray_m{m}_quadrature_error_decrease", {"degrees": [20, 40, 60]})]
    got = [(row["name"], {key: val for key, val in row["parameters"].items()
                          if key != "errors"}) for row in rows]
    assert got == want
    assert all(len(row["parameters"]["errors"]) == 3 for row in rows
               if row["name"].endswith("_quadrature_error_decrease"))
    assert all(row["pass"] for row in rows
               if row["name"].endswith("_residual") and row["parameters"]["degree"] == 60)


@pytest.mark.parametrize("N,L", [(32, 4.0), (18, 4.5)])
def test_refined_case_reads_the_grid_from_the_double_grid(N, L):
    # the N-grid gap read off the shared 2N reference agrees with a standalone
    # N-grid computation; only the order of the rule-node sums differs
    from tentomo.polyfield import random_bump_field
    from tentomo.rng import SplitMix64
    from tentomo.spherequad import build_rule
    rule = build_rule(2, 40)
    f = random_bump_field(2, 0, SplitMix64(N), power=4, degree=2, label="f")
    rel, rel2 = suites._normal_consistency_rels(f, 0, N, L, rule, refine=True)
    (alone,) = suites._normal_consistency_rels(f, 0, N, L, rule)
    (alone2,) = suites._normal_consistency_rels(f, 0, 2 * N, L, rule)
    assert abs(rel - alone) <= 1e-12 * alone
    assert rel2 == alone2


def _normal_case(m, seed=32):
    from tentomo.polyfield import random_bump_field
    from tentomo.rng import SplitMix64
    from tentomo.spherequad import build_rule
    f = random_bump_field(2, m, SplitMix64(seed), power=4, degree=2, label="f")
    return f, build_rule(2, 40)


def _serial_rels(f, k, N, L, rule, refine):
    # the two halves of a case one after the other, on one thread
    no = suites.no
    steps = (2, 1) if refine else (1,)
    g = no.GridTensorField.sample(f, steps[0] * N, L)
    coords = g.axis_coords()
    pts = np.stack(np.meshgrid(coords, coords, indexing="ij"), axis=-1).reshape(-1, 2)
    ang = no.normal_momentum_on_points(f, pts, k, rule).T.reshape(g.comps.shape)
    rels = []
    for s in steps:
        gs, angf = (no.GridTensorField(2, f.m, g.N // s, L, a[:, ::s, ::s])
                    for a in (g.comps, ang))
        rels.append((no.normal_convolution(gs, k=k) - angf).norm_l2()
                    / max(angf.norm_l2(), 1e-300))
    return rels


@pytest.mark.parametrize("m,k,refine", [(0, 0, True), (1, 0, False), (1, 1, False)])
def test_case_runs_on_the_calling_thread_bitwise_serial(monkeypatch, m, k, refine):
    # no thread can start: the gaps are the bits of the two halves run one
    # after the other
    def no_thread(*args, **kwargs):
        raise AssertionError("a normal-consistency case started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    f, rule = _normal_case(m)
    got = suites._normal_consistency_rels(f, k, 32, 4.0, rule, refine)
    serial = _serial_rels(f, k, 32, 4.0, rule, refine)
    assert len(serial) == (2 if refine else 1)
    assert np.array_equal(got, serial)


def test_reference_error_exits_4(monkeypatch, tmp_path, capsys):
    def broken(*args):
        raise RuntimeError("reference failed")

    monkeypatch.setattr(suites.no, "normal_momentum_on_points", broken)
    doc = {"schema": 1, "suites": [{"suite": "decompose", "N": 32, "m_values": [],
                                    "normal_cases": [[1, 0]], "refine": False}]}
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: decompose: internal error: RuntimeError: reference failed")
    assert "Traceback" in err


@pytest.mark.parametrize("exc", [TypeError("unsupported operand"),
                                 ValueError("k out of range"),
                                 BudgetError("smoothness budget exhausted")],
                         ids=["TypeError", "ValueError", "BudgetError"])
def test_internal_error_exit_4(tmp_path, monkeypatch, capsys, exc):
    # validate rejects every precondition, so any exception in a suite is a bug
    def broken(params, rng, outdir):
        raise exc

    monkeypatch.setitem(suites.SUITE_RUNNERS, "identities.algebra", broken)
    doc = {"schema": 1, "suites": [{"suite": "identities.algebra"}]}
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: identities.algebra: internal error: "
                          + type(exc).__name__)
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


@pytest.mark.parametrize("op", ["saint_venant_W", "operator_R"])
def test_nonpotential_controls_flag_a_vanishing_operator(monkeypatch, tmp_path, op):
    # the two controls close the algebra table at exactly 0.0 and read 1.0
    # once W (or R) sends the random round-trip fields to zero
    from tentomo import polyfield as pf
    from tentomo.rng import SplitMix64
    params = {"trials": 1, "roundtrip_trials": 3}
    names = ["W_of_nonpotential_nonzero", "R_of_nonpotential_nonzero"]
    rows = suites._run_algebra(params, SplitMix64(3), tmp_path)
    assert [(r["name"], r["value"], r["pass"]) for r in rows[-2:]] == \
        [(name, 0.0, True) for name in names]
    real = getattr(pf, op)
    monkeypatch.setattr(pf, op, lambda f: real(f) - real(f))
    flags = {r["name"]: r for r in suites._run_algebra(params, SplitMix64(3), tmp_path)[-2:]}
    flagged = names[op == "operator_R"]
    assert flags[flagged]["value"] == 1.0 and not flags[flagged]["pass"]
    assert flags[names[op != "operator_R"]]["value"] == 0.0


def test_ibp_rows_are_the_worst_over_every_ordered_index(tilted_sphere, tmp_path):
    # the suite evaluates one index per multiset; each row must still equal
    # the worst residual over every ordered index.  Integrating against
    # xi_0 dS (the fixture) makes the residuals nonzero, so the comparison
    # has content
    import itertools

    import tentomo.spherequad as sq
    from tentomo.polynomial import random_homogeneous
    from tentomo.rng import SplitMix64
    from tentomo.verdict import worst
    params = {"n_values": [2, 3], "s_values": [1, 2, 3, 4], "trials_per_case": 2}
    rows = suites._run_ibp(params, SplitMix64(5), tmp_path)
    rng, want = SplitMix64(5), []
    for n in params["n_values"]:
        for s in params["s_values"]:
            res = []
            for t in range(params["trials_per_case"]):
                child = rng.split(f"ibp-{n}-{s}-{t}")
                pow2r = child.randint(0, 2)
                g = sq.HomogeneousRational(
                    random_homogeneous(n, s - 1 + 2 * pow2r, child), pow2r)
                residuals = sq.verify_ibp(g, s)
                res += [abs(float(residuals[tuple(sorted(idx))]))
                        for idx in itertools.product(range(n), repeat=s)]
            want.append(worst(res))
    assert [row["value"] for row in rows if row["name"] == "ibp_residual"] == want
    assert all(want)


# ---------------------------------------------------------------------------
# property: validate accepts exactly what run executes
# ---------------------------------------------------------------------------

# values of wrong type, of nested shape, or non-finite
JUNK = hs.one_of(hs.text(max_size=3), hs.booleans(), hs.none(),
                 hs.floats(allow_nan=True, allow_infinity=True),
                 hs.lists(hs.lists(hs.integers(-1, 2), max_size=2), max_size=2))
COUNTS = (hs.integers(1, 2), hs.integers(-1, 0))
PAIRS = (hs.lists(hs.tuples(hs.integers(0, 2), hs.integers(0, 2)).map(
             lambda mk: sorted(mk, reverse=True)), min_size=1, max_size=2),
         hs.lists(hs.lists(hs.integers(-1, 3), max_size=3), max_size=2))


def _pairs_above(top):
    """Out-of-range [m, k] lists of ``PAIRS``, or pairs whose m is one above ``top``."""
    return hs.one_of(PAIRS[1], hs.lists(hs.tuples(hs.just(top + 1), hs.integers(0, 2)).map(list),
                                        min_size=1, max_size=2))


BOOLS = (hs.booleans(), hs.sampled_from([0, 1, "true"]))
# per key: cheap values, mostly in range, and values just out of range
VALUES = {
    "trials": COUNTS, "roundtrip_trials": COUNTS, "trials_per_case": COUNTS,
    "lines": COUNTS, "num_lines": COUNTS, "num_points": COUNTS,
    "n": (hs.integers(2, 4), hs.integers(0, 1)),
    "m": (hs.integers(1, 3), hs.integers(-1, 0)),
    "k": (hs.integers(0, 2), hs.integers(-2, -1)),
    "n_values": (hs.lists(hs.integers(2, 3), min_size=1, max_size=2),
                 hs.lists(hs.integers(0, 1), max_size=2)),
    "s_values": (hs.lists(hs.integers(1, 3), min_size=1, max_size=2),
                 hs.lists(hs.integers(-1, 0), max_size=2)),
    "m_values": (hs.lists(hs.integers(1, 2), min_size=1, max_size=2),
                 hs.lists(hs.sampled_from([-1, 0, 1, 3, 5]), max_size=2)),
    "degrees": (hs.lists(hs.integers(1, 8), min_size=2, max_size=3,
                         unique=True).map(sorted),
                hs.lists(hs.integers(-1, 8), max_size=3)),
    "tolerance": (hs.floats(1e-12, 1e-9), hs.sampled_from([0, -1e-9, 1e-3])),
    "lemma_cases": (PAIRS[0], _pairs_above(12)), "prop_cases": (PAIRS[0], _pairs_above(3)),
    "normal_cases": (PAIRS[0], hs.one_of(PAIRS[1], hs.lists(
        hs.permutations([0, 5]), min_size=1, max_size=2))),
    "N": (hs.integers(16, 17), hs.sampled_from([14, 15, 257, 10**6])),
    "L": (hs.floats(4.0, 6.0), hs.one_of(hs.floats(1.0, 3.99), hs.just("4"))),
    "normal_consistency": BOOLS, "refine": BOOLS,
}
# keys of no table: typos, and knobs that are constants now
FOREIGN = ["trails", "tolernce", "max_n", "max_m", "interior_points", "rule_degree",
           "solenoidal_tolerance", "reconstruction_tolerance", "normal_tolerance",
           "tolerance", "nonvanish_floor", "u_center", "u_radius", "rule", "degree",
           "lines_csv", "potential"]
# keys whose defaults size a run beyond a cheap example; always drawn
SIZING = {"identities.algebra": ["trials", "roundtrip_trials"],
          "identities.ibp": ["trials_per_case"], "decompose": ["N"]}


def _value(key, clean):
    if key == "cases":
        case = hs.fixed_dictionaries({}, optional={
            k: _value(k, clean) for k in ("n", "m", "lines", "tolerance")})
        return hs.lists(case, min_size=1, max_size=2) if clean else \
            hs.one_of(hs.lists(hs.one_of(case, JUNK), max_size=2), JUNK)
    if clean:
        return VALUES[key][0]
    return hs.one_of(*VALUES[key], JUNK) if key in VALUES else JUNK


@hs.composite
def suite_entries(draw):
    """A suite entry of one of three kinds: in-range values of its own keys;
    own keys with values out of range or of the wrong type; or in-range
    values plus one key of no table."""
    name = draw(hs.sampled_from(sorted(SUITES)))
    kind = draw(hs.sampled_from(["clean", "dirty", "foreign"]))
    own = [row[0] for row in SUITES[name]]
    keys = SIZING.get(name, []) + draw(hs.lists(hs.sampled_from(own), unique=True))
    entry = {"suite": name, **{key: draw(_value(key, kind != "dirty")) for key in keys}}
    if kind == "foreign":
        key = draw(hs.sampled_from([key for key in FOREIGN if key not in own]))
        entry[key] = draw(JUNK)
    return entry


def _exit_code(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code < 2 or err.startswith("error: "), err
    return code


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=hs.one_of(
    hs.fixed_dictionaries({"schema": hs.just(1), "suites": hs.lists(suite_entries(),
                                                                    min_size=1, max_size=2)}),
    hs.dictionaries(hs.sampled_from([row[0] for row in TOP_LEVEL] + ["outdir"]),
                    hs.one_of(JUNK, hs.integers(-1, 2),
                              hs.lists(hs.one_of(suite_entries(), JUNK), max_size=2)),
                    max_size=5),
    JUNK))
def test_validate_exits_cleanly_on_any_document(tmp_path, capsys, doc):
    path = write_config(tmp_path, doc)
    assert _exit_code(capsys, ["validate", "--config", path]) in (0, 2, 3)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(entry=suite_entries())
def test_validate_accepts_exactly_what_runs(tmp_path, capsys, entry):
    path = write_config(tmp_path, {"schema": 1, "suites": [entry]})
    verdict = _exit_code(capsys, ["validate", "--config", path])
    assert verdict in (0, 2, 3)
    with tempfile.TemporaryDirectory() as out:
        ran = _exit_code(capsys, ["run", "--config", path, "--out", out])
    assert ran in (0, 1) if verdict == 0 else ran == verdict


def test_readme_lists_every_parameter():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    for table in [TOP_LEVEL, JOHN_CASE, *SUITES.values()]:
        for key, default, check, description in table:
            accepts = check.text if isinstance(check, Check) else "a nonempty list of objects"
            shown = ("required" if default is None else "the upper bound"
                     if callable(default) else f"`{json.dumps(default)}`")
            assert f"| `{key}` | {accepts} | {shown} | {description} |" in readme, key
