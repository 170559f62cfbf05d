"""Command-line contract: exit codes, output schemas, golden fixtures,
environment overrides."""

import csv
import io
import json

import pytest

from pathalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_nonpositive_dimension(self, capsys):
        assert main(["homology", "--n", "0"]) == 2
        assert main(["table", "--n", "-3"]) == 2


class TestHomologyCommand:
    def test_integral_table_shows_the_extension(self, capsys):
        code, out = run(capsys, "homology", "--n", "2", "--coeff", "Z",
                        "--max-degree", "6")
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert ["2", "1", "Z/4"] in rows

    def test_json_is_one_document(self, capsys):
        code, out = run(capsys, "homology", "--n", "3", "--coeff", "F2",
                        "--max-degree", "8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["sections"]) == 3
        cells = doc["sections"][2]["cells"]
        assert {"degree": 0, "level": 0, "names": [], "dim": 1} in cells

    def test_csv_schema(self, capsys):
        code, out = run(capsys, "homology", "--n", "2", "--coeff", "Z",
                        "--max-degree", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["section", "degree", "level", "value", "names"]
        assert all(len(r) == 5 for r in rows)

    def test_stable_range_for_large_n(self, capsys):
        code, out = run(capsys, "homology", "--n", "10", "--coeff", "F2",
                        "--max-degree", "8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        cells = doc["sections"][2]["cells"]
        totals = {}
        levels = set()
        for c in cells:
            totals[c["degree"]] = totals.get(c["degree"], 0) + c["dim"]
            levels.add(c["level"])
        assert totals == {0: 1, **{d: 2 for d in range(1, 9)}}
        assert levels == {0, 1}


class TestVerifyCommand:
    def test_odd_passes(self, capsys):
        code, out = run(capsys, "verify", "--n", "3", "--max-degree", "20")
        assert code == 0
        assert "matches homology up to degree 20" in out

    def test_even_fails_and_lists_repairs(self, capsys):
        code, out = run(capsys, "verify", "--n", "2", "--max-degree", "20")
        assert code == 1
        assert "degree 0: presentation 2 vs homology 1" in out
        assert "{HHT -> 0, HHY -> 0}" in out
        assert "{HHT -> HH, HHY -> 0}" in out

    def test_insufficient_weight_bound_is_a_runtime_error(self, capsys):
        assert main(["verify", "--n", "3", "--max-degree", "40",
                     "--weight-bound", "10"]) == 2


class TestGeomCommands:
    def test_index_expected_pair(self, capsys):
        code, out = run(capsys, "geom", "index", "--n", "2", "--k", "2",
                        "--segments", "12")
        assert code == 0
        assert "index=3 nullity=3" in out

    def test_index_rejects_coarse_subdivision(self, capsys):
        assert main(["geom", "index", "--segments", "2", "--k", "1"]) == 2

    def test_concat_check(self, capsys):
        code, out = run(capsys, "geom", "concat-check", "--trials", "25",
                        "--seed", "7")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("index", "--n", "1", "--k", "2", "--seed", "3"),
        ("concat-check", "--trials", "16", "--seed", "3"),
        ("halfcircle-check", "--trials", "8", "--seed", "3"),
        ("yk-check", "--trials", "16", "--seed", "3"),
    ])
    def test_output_depends_only_on_the_arguments(self, capsys, argv):
        _, out1 = run(capsys, "geom", *argv)
        _, out2 = run(capsys, "geom", *argv)
        assert out1 == out2

    def test_concat_check_depends_on_the_seed(self, capsys):
        _, out3 = run(capsys, "geom", "concat-check", "--trials", "16",
                      "--seed", "3")
        _, out4 = run(capsys, "geom", "concat-check", "--trials", "16",
                      "--seed", "4")
        assert out3 != out4

    @pytest.mark.parametrize("argv, env", [
        (("index", "--step", "0"), {}),
        (("index", "--step", "inf"), {}),
        (("index", "--grad-tol", "nan"), {}),
        (("index", "--ztol", "nan"), {}),
        (("index", "--ztol", "1"), {}),
        (("index",), {"PATHALG_STEP": "-1e-4"}),
        (("concat-check", "--tol", "nan", "--trials", "5"), {}),
        (("yk-check", "--trials", "5"), {"PATHALG_GEOM_TOL": "nan"}),
    ])
    def test_bad_tolerances_are_usage_errors(self, capsys, monkeypatch,
                                             argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(["geom", *argv]) == 2

    def test_concat_tolerance_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PATHALG_CONCAT_TOL", "1e-20")
        assert main(["geom", "concat-check", "--trials", "5"]) == 1
        monkeypatch.setenv("PATHALG_CONCAT_TOL", "not-a-number")
        assert main(["geom", "concat-check", "--trials", "5"]) == 2

    def test_halfcircle_check(self, capsys):
        code, out = run(capsys, "geom", "halfcircle-check", "--trials", "20")
        assert code == 0
        assert "norm peaks at theta" in out

    def test_yk_check(self, capsys):
        code, out = run(capsys, "geom", "yk-check", "--trials", "20")
        assert code == 0
        assert "family dimension" in out

    @pytest.mark.parametrize("suite, trials, seed", [
        ("concat-check", "60", "18"),
        ("yk-check", "100", "202"),
    ])
    def test_n1_tangents_stay_tangent(self, capsys, suite, trials, seed):
        # these seeds draw an n = 1 tangent close to its base point,
        # where a single projection left a component along the base
        # past the tangency tolerance and the suite exited 2
        code, _ = run(capsys, "geom", suite, "--trials", trials,
                      "--seed", seed)
        assert code == 0

    def test_grad_tol_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PATHALG_GRAD_TOL", "1e-18")
        assert main(["geom", "index", "--n", "1", "--k", "1",
                     "--segments", "8"]) == 2


class TestTableCommand:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_golden_fixtures_match(self, capsys, n):
        code, out = run(capsys, "table", "--n", str(n), "--golden")
        assert code == 0
        assert "cells match" in out

    def test_text_layout(self, capsys):
        code, out = run(capsys, "table", "--n", "1", "--levels", "3")
        assert code == 0
        body = [l for l in out.splitlines()
                if l and not l.startswith("#") and "match" not in l]
        assert body[0] == "0 0 H"
        assert "2 1 S Sb" in body
        assert "3 2 SSb SbS" in body

    def test_json_cells_carry_names(self, capsys):
        code, out = run(capsys, "table", "--n", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        cells = {(c["degree"], c["level"]): c
                 for c in doc["sections"][0]["cells"]}
        assert cells[(4, 1)]["names"] == ["S", "H^2Y"]
        assert cells[(4, 1)]["dim"] == 2

    def test_no_fixture_above_four(self, capsys):
        assert main(["table", "--n", "5", "--golden"]) == 2

    def test_default_level_count(self, capsys):
        _, out1 = run(capsys, "table", "--n", "1")
        assert "levels 0..2" in out1
        _, out2 = run(capsys, "table", "--n", "4")
        assert "levels 0..1" in out2
