"""Command-line contract: exit codes, output schemas, golden fixtures,
and the refusal of tolerance and subdivision flags (every tolerance is
a constant of pathalg.geometry, and the subdivision follows from k)."""

import csv
import io
import json

import pytest

from pathalg import geometry, homology, rewriting
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

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--n", "0"], "must be >= 1, got 0"),
        (["verify", "--n", "2", "--max-degree", "-1"], "must be >= 0, got -1"),
        (["verify", "--n", "x"], "not an integer: 'x'")])
    def test_integer_option_messages(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


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


    @pytest.mark.parametrize("fmt", ["md", "json", "csv"])
    @pytest.mark.parametrize("coeff", ["Z", "F2"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_assembled_section_carries_the_library_cells(self, capsys, n,
                                                         coeff, fmt):
        D = 4 * n + 2
        table = homology.path_space_homology(
            n, homology.COEFF_F2 if coeff == "F2" else homology.COEFF_Z, D)
        code, out = run(capsys, "homology", "--n", str(n), "--coeff", coeff,
                        "--format", fmt)
        assert code == 0
        title = (f"assembled path-space table, "
                 f"{'mod 2' if coeff == 'F2' else 'integral'}, n={n}, "
                 f"degrees 0..{D}")
        if fmt == "json":
            section, = [s for s in json.loads(out)["sections"]
                        if s["title"] == title]
            key = "dim" if coeff == "F2" else "group"
            got = {(c["degree"], c["level"]): c[key]
                   for c in section["cells"]}
            want = {cell: v if coeff == "F2" else
                    {"rank": v.rank, "torsion": list(v.torsion)}
                    for cell, v in table.entries}
        else:
            if fmt == "csv":
                rows = [r[1:4] for r in csv.reader(io.StringIO(out))
                        if r[0] == title]
            else:
                block = out.split(f"## {title}\n")[1].split("\n\n")[0]
                rows = [line.split(None, 2)
                        for line in block.splitlines()[1:]]
            got = {(int(d), int(l)): v for d, l, v in rows}
            want = {cell: str(v) if coeff == "F2" else v.render()
                    for cell, v in table.entries}
        assert got == want

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

    def test_large_degree_bounds(self, capsys):
        # both overflowed the recursive word enumerator and exited 2
        code, out = run(capsys, "verify", "--n", "1", "--max-degree", "1000")
        assert code == 0
        assert "matches homology up to degree 1000" in out
        code, out = run(capsys, "verify", "--n", "2", "--max-degree", "3000")
        assert code == 1
        assert "{HHT -> 0, HHY -> 0}" in out
        assert "{HHT -> HH, HHY -> 0}" in out

    def test_each_rewriting_system_is_counted_once(self, capsys, monkeypatch):
        # hilbert: the base system once, for the comparison, whose
        # table the repair search reuses, plus one count per repaired
        # system.  complete: the base system, which heredity_check and
        # the search take from the caller, and one per candidate rule; a
        # leaf is complete's own output, so it is not completed again
        real_hilbert, real_complete = rewriting.hilbert, rewriting.complete
        counted, completed = [], []

        def counting(rs, degree_bound):
            counted.append(rs.rules)
            return real_hilbert(rs, degree_bound)

        def completing(rs):
            completed.append(rs.rules)
            return real_complete(rs)

        monkeypatch.setattr(rewriting, "hilbert", counting)
        monkeypatch.setattr(rewriting, "complete", completing)
        code, out = run(capsys, "verify", "--n", "2")
        assert code == 1
        assert "{HHT -> 0, HHY -> 0}" in out
        assert "{HHT -> HH, HHY -> 0}" in out
        assert len(counted) == 3
        assert len(set(counted)) == 3
        assert len(completed) == 3

    @pytest.mark.parametrize("cap, value", [("_POOL_CAP", 0),
                                            ("_DEPTH_CAP", 0)])
    def test_a_search_cap_that_would_cut_work_exits_2(self, capsys,
                                                     monkeypatch, cap, value):
        monkeypatch.setattr(rewriting, cap, value)
        code = main(["verify", "--n", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{cap} = {value}" in err
        assert "(degree 0, level 1)" in err

    @pytest.mark.parametrize("limit, value", [("_STEP_LIMIT", 3),
                                              ("_RULE_LIMIT", 2)])
    def test_rewriting_limits_exit_2(self, capsys, monkeypatch, limit, value):
        monkeypatch.setattr(rewriting, limit, value)
        code = main(["verify", "--n", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{limit} = {value}" in err


class TestGeomCommands:
    def test_index_expected_pair(self, capsys):
        code, out = run(capsys, "geom", "index", "--n", "2", "--k", "2")
        assert code == 0
        assert "index=3 nullity=3" in out

    def test_index_at_level_twelve(self, capsys):
        # the first non-null eigenvalue is 9.1e-4 * scale here, below
        # a fixed threshold of 1e-3 * scale
        code, out = run(capsys, "geom", "index", "--n", "1", "--k", "12")
        assert code == 0
        assert "index=12 nullity=1" in out

    def test_segments_flag_is_refused(self, capsys):
        # the subdivision follows from k; the flag is gone, not ignored
        assert main(["geom", "index", "--segments", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

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

    @pytest.mark.parametrize("argv", [
        ("index", "--grad-tol", "1e-8"),
        ("concat-check", "--tol", "1e-9", "--trials", "5"),
        ("halfcircle-check", "--tol", "1e-9", "--trials", "5"),
        ("yk-check", "--tol", "1e-9", "--trials", "5"),
    ])
    def test_tolerance_flags_are_refused(self, capsys, argv):
        # well-formed values, so only the flag itself is at fault
        assert main(["geom", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_concat_tolerance_below_roundoff_fails(self, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(geometry, "_CHECK_TOL", 1e-20)
        code, out = run(capsys, "geom", "concat-check", "--trials", "5")
        assert code == 1
        assert "tolerance 1.0e-20" in out

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

    def test_grad_tol_below_roundoff_is_a_runtime_error(self, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(geometry, "_GRAD_TOL", 1e-18)
        assert main(["geom", "index", "--n", "1", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration is not critical" in captured.err

    def test_out_of_memory_is_a_runtime_error(self, capsys, monkeypatch):
        # numpy reports a failed allocation as a MemoryError subclass;
        # it must exit 2 with a message, not 1 with a traceback
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the Hessian")

        monkeypatch.setattr(geometry, "critical_index", exhausted)
        assert main(["geom", "index", "--n", "1", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


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
        # a usage error, reported before the table is printed
        assert main(["table", "--n", "5", "--golden"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no golden fixture for n=5" in captured.err

    def test_no_fixture_for_more_levels(self, capsys):
        # the fixture lists levels 0..2; a usage error, before printing
        assert main(["table", "--n", "1", "--golden", "--levels", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "levels 0..2" in captured.err

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fewer_levels_match_the_fixture_at_those_levels(self, capsys, n):
        code, out = run(capsys, "table", "--n", str(n), "--golden",
                        "--levels", "1")
        assert code == 0
        assert f"golden comparison: {n + 1} cells match" in out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_golden_verdict_leaves_the_document_whole(self, capsys, fmt):
        code = main(["table", "--n", "3", "--golden", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "golden comparison: 10 cells match\n"
        code = main(["table", "--n", "3", "--format", fmt])
        assert code == 0
        assert captured.out == capsys.readouterr().out
        if fmt == "json":
            json.loads(captured.out)
        else:
            rows = list(csv.reader(io.StringIO(captured.out)))
            assert all(len(r) == 5 for r in rows)

    def test_default_level_count(self, capsys):
        _, out1 = run(capsys, "table", "--n", "1")
        assert "levels 0..2" in out1
        _, out2 = run(capsys, "table", "--n", "4")
        assert "levels 0..1" in out2
