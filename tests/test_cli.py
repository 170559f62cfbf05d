"""Command-line contract: exit codes, output schemas, golden fixtures,
and the refusal of tolerance and subdivision flags (every tolerance is
a constant of pathalg.geometry, and the subdivision follows from k)."""

import csv
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pathalg import cli, geometry, homology, rewriting
from pathalg.cli import main

SRC = Path(cli.__file__).resolve().parents[1]


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this pathalg."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                         if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


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

    @pytest.mark.parametrize("collecting", [True, False])
    def test_the_collector_is_paused_for_the_call_only(
            self, capsys, monkeypatch, collecting):
        seen, fail = [], []
        real = homology.path_space_homology

        def spy(*args):
            seen.append(gc.isenabled())
            if fail:
                raise KeyError("unexpected")
            return real(*args)

        monkeypatch.setattr(homology, "path_space_homology", spy)
        (gc.enable if collecting else gc.disable)()
        try:
            assert main(["verify", "--n", "2"]) == 1
            assert gc.isenabled() is collecting
            fail.append(True)
            with pytest.raises(KeyError):
                main(["verify", "--n", "2"])
            assert gc.isenabled() is collecting
            assert main(["verify", "--n", "x"]) == 2
            assert gc.isenabled() is collecting
        finally:
            gc.enable()
        assert seen and not any(seen)

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_the_shared_parser_answers_as_a_fresh_one(self, capsys):
        # the commands run one after another on the shared parser, then
        # each on a parser built for it alone
        argvs = [["--help"], ["verify", "--n", "x"], ["verify", "--n", "2"],
                 ["homology", "--n", "2", "--format", "csv"],
                 ["table", "--n", "3", "--golden"]]

        def answer(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [answer(argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(answer(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 2, 1, 0, 0]


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
        cells = tuple(homology.path_space_homology(
            n, homology.COEFF_F2 if coeff == "F2" else homology.COEFF_Z, D))
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
                    for cell, v in cells}
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
                    for cell, v in cells}
        assert got == want

def reference_cells(entries) -> list[dict]:
    """The cells as json dicts, the route md and csv once read too."""
    cells = []
    for (degree, level), value in entries:
        cell = {"degree": degree, "level": level, "names": []}
        if isinstance(value, homology.AbelianGroup):
            cell["group"] = {"rank": value.rank,
                             "torsion": list(value.torsion)}
        elif isinstance(value, tuple):
            cell.update(names=list(value), dim=len(value))
        else:
            cell["dim"] = value
        cells.append(cell)
    return cells


def reference_value(cell: dict) -> str:
    """A cell's value column, rebuilt from its json dict."""
    if "dim" in cell:
        return str(cell["dim"])
    g = cell["group"]
    return homology.AbelianGroup(g["rank"], tuple(g["torsion"])).render()


def reference_emit(sections, fmt: str) -> None:
    """The emitter that printed every format from reference_cells."""
    sections = [(title, reference_cells(cells)) for title, cells in sections]
    out = sys.stdout
    if fmt == "json":
        doc = {"sections": [{"title": t, "cells": c} for t, c in sections]}
        print(json.dumps(doc, indent=2), file=out)
        return
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["section", "degree", "level", "value", "names"])
        for title, cells in sections:
            for c in cells:
                writer.writerow([title, c["degree"], c["level"],
                                 reference_value(c), " ".join(c["names"])])
        return
    for title, cells in sections:
        print(f"## {title}", file=out)
        rows = [("degree", "level", "value", "names")]
        rows += [(str(c["degree"]), str(c["level"]), reference_value(c),
                  " ".join(c["names"])) for c in cells]
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        for r in rows:
            print("  ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip(),
                  file=out)
        print(file=out)


class TestEmitter:
    """md, csv and json print the library's cells as the json-dict route
    (reference_emit) printed them, byte for byte."""

    @staticmethod
    def outputs(capsys, monkeypatch, argv):
        """(exit code, stdout, stderr) of argv, then of argv with its
        sections printed by reference_emit."""
        got = (main(argv), *capsys.readouterr())
        with monkeypatch.context() as m:
            m.setattr(cli, "_emit_sections", reference_emit)
            want = (main(argv), *capsys.readouterr())
        return got, want

    @pytest.mark.parametrize("fmt", ["md", "json", "csv"])
    @pytest.mark.parametrize("coeff", ["Z", "F2"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_homology_prints_as_the_reference(self, capsys, monkeypatch, n,
                                              coeff, fmt):
        for bound in ([], ["--max-degree", "0"], ["--max-degree", "1"],
                      ["--max-degree", str(3 * n)]):
            argv = ["homology", "--n", str(n), "--coeff", coeff,
                    "--format", fmt, *bound]
            got, want = self.outputs(capsys, monkeypatch, argv)
            assert got == want, argv
            assert got[0] == 0 and got[1]

    @pytest.mark.parametrize("fmt", ["md", "json", "csv"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_table_prints_as_the_reference(self, capsys, monkeypatch, n, fmt):
        for golden in ([], ["--golden"]) if n < 5 else ([],):
            argv = ["table", "--n", str(n), "--format", fmt, *golden]
            got, want = self.outputs(capsys, monkeypatch, argv)
            assert got == want, argv
            assert got[0] == 0 and got[1]

    @pytest.mark.parametrize("argv", [
        ["homology", "--n", "2", "--coeff", "Z"],
        ["homology", "--n", "3", "--coeff", "F2"],
        ["table", "--n", "3"]])
    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_md_and_csv_build_no_json_cell(self, capsys, monkeypatch, argv,
                                           fmt):
        argv = [*argv, "--format", fmt]
        want = (main(argv), *capsys.readouterr())

        def refuse(*args):
            raise AssertionError("a json cell built for md or csv")

        monkeypatch.setattr(cli, "_json_cell", refuse)
        assert (main(argv), *capsys.readouterr()) == want
        assert want[0] == 0 and want[1]


class NullOut:
    """A stdout that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def traced_peak(monkeypatch, argv) -> int:
    """The traced peak of main(argv), with stdout writing nowhere, after
    one untraced run that builds what a process builds once."""
    monkeypatch.setattr(sys, "stdout", NullOut())
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()


class TestStreamedOutput:
    """md tables and json documents go out a cell at a time, as csv
    does, with the bytes the whole-document route printed."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("levels", [1, 2, 3, 7, 25])
    def test_md_table_is_the_joined_listing(self, capsys, n, levels):
        table = homology.generator_table(n, levels - 1)
        lines = [f"# named generating cells, n={n}, levels 0..{levels - 1}",
                 "# degree level names"]
        lines += [f"{d} {l} {' '.join(names)}"
                  for (d, l), names in table.entries]
        code, out = run(capsys, "table", "--n", str(n), "--levels",
                        str(levels))
        assert code == 0
        assert out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("argv", [
        *(["homology", "--n", str(n), "--coeff", coeff, *bound]
          for n in range(1, 7) for coeff in ("Z", "F2")
          for bound in ([], ["--max-degree", "0"])),
        *(["table", "--n", str(n), "--levels", str(levels)]
          for n in (1, 2, 3) for levels in (1, 3))])
    def test_json_is_the_indented_dump_of_its_document(self, capsys, argv):
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        sections = doc["sections"]
        assert sections and all(s["cells"] for s in sections)

    def test_json_holds_no_document(self, monkeypatch):
        # the whole-document route peaked at 6.2 times csv here
        argv = ["homology", "--n", "300", "--format"]
        assert traced_peak(monkeypatch, [*argv, "json"]) \
            <= 1.5 * traced_peak(monkeypatch, [*argv, "csv"])

    def test_md_table_holds_no_listing(self, monkeypatch):
        # the joined listing peaked at 1.9 times csv here
        argv = ["table", "--n", "1", "--levels", "200", "--format"]
        assert traced_peak(monkeypatch, [*argv, "md"]) \
            <= 1.2 * traced_peak(monkeypatch, [*argv, "csv"])


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

    @pytest.mark.parametrize("n", [3, 41])
    def test_odd_degree_bound_of_a_billion(self, capsys, n):
        # equal series agree in every degree: no table of 10^9 degrees
        # is built, so the bound costs what the default one does
        code, out = run(capsys, "verify", "--n", str(n),
                        "--max-degree", str(10 ** 9))
        assert code == 0
        assert f"matches homology up to degree {10 ** 9}" in out

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_top_of_the_dimension_range(self, capsys, n):
        # the README's supported range for --n ends at 4000: the repair
        # search completes candidates with n letters H, and neither
        # rewriting guard fires (one that fires exits 2 and names itself)
        code = main(["verify", "--n", str(n)])
        out, err = capsys.readouterr()
        assert code == 1
        h = "H" * n
        assert f"{{{h}T -> 0, {h}Y -> 0}}" in out
        assert f"{{{h}T -> {h}, {h}Y -> 0}}" in out
        assert "_STEP_LIMIT" not in err and "_RULE_LIMIT" not in err

    def test_each_rewriting_system_is_counted_once(self, capsys, monkeypatch):
        # hilbert_series: the base system for the comparison, then once
        # for each system the repair search judges against the target
        # series: base again (the search takes a series, not cells) and
        # the two repaired systems; no table is counted.
        # complete: the base system, which heredity_check and the
        # search take from the caller, and one per candidate rule,
        # resumed from the base; a leaf is complete's own output, so it
        # is not completed again
        real_series, real_complete = (rewriting.hilbert_series,
                                      rewriting.complete)
        counted, tables, completed = [], [], []

        def counting(rs):
            counted.append(rs.rules)
            return real_series(rs)

        def completing(rs, extra=()):
            out = real_complete(rs, extra)
            completed.append((rs, tuple(extra), out))
            return out

        monkeypatch.setattr(rewriting, "hilbert_series", counting)
        monkeypatch.setattr(rewriting, "hilbert",
                            lambda *args: tables.append(args))
        monkeypatch.setattr(rewriting, "complete", completing)
        code, out = run(capsys, "verify", "--n", "2")
        assert code == 1
        assert "{HHT -> 0, HHY -> 0}" in out
        assert "{HHT -> HH, HHY -> 0}" in out
        assert len(counted) == 4
        assert counted[0] == counted[1]
        assert tables == []
        assert len(completed) == 3
        (_, none, base), *candidates = completed
        assert none == ()
        assert all(rs is base and len(extra) == 1
                   for rs, extra, _ in candidates)

    @pytest.mark.parametrize("cap, value", [("_DEPTH_CAP", 0)])
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

    @pytest.mark.parametrize("argv, code", [
        (("--n", "3", "--k", "0"), 0),   # dimension 48, at the limit
        (("--n", "1", "--k", "6"), 2),   # dimension 56, the next past it
    ])
    def test_index_refuses_a_hessian_past_the_limit(self, capsys,
                                                    monkeypatch, argv, code):
        monkeypatch.setattr(geometry, "_MAX_HESSIAN_DIM", 48)
        assert main(["geom", "index", *argv]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert captured.err.startswith("error: the second variation")
            assert "dimension 56, past the dense limit 48" in captured.err
        else:
            assert "index=0 nullity=3" in captured.out

    def test_index_refusal_allocates_nothing_sized_by_the_hessian(self):
        # at n = 10, k = 500 the dense matrix alone would take 2 GB; the
        # refusal comes before the configuration is drawn
        tracemalloc.start()
        try:
            with pytest.raises(geometry.HessianSizeError,
                               match="dimension 40080"):
                geometry.critical_index(10, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert issubclass(geometry.HessianSizeError, ValueError)

    def test_index_range_top_passes_the_size_guard(self, monkeypatch):
        # n = 10, k = 50 (dimension 4080) is inside the documented
        # range and k = 51 (4160) is past it; the guard is checked
        # without running the 7 s eigensolve
        class Drawn(Exception):
            pass

        def drawn(n, k, rng):
            raise Drawn

        monkeypatch.setattr(geometry, "_critical_configuration", drawn)
        with pytest.raises(Drawn):
            geometry.critical_index(10, 50)
        with pytest.raises(geometry.HessianSizeError):
            geometry.critical_index(10, 51)

    def test_index_past_the_range_exits_2_fast_in_a_fresh_process(self):
        done = subprocess.run(
            [sys.executable, "-m", "pathalg.cli", "geom", "index", "--n", "10",
             "--k", "500"], env=fresh_env(), capture_output=True, text=True,
            timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr

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

    def test_linear_algebra_failure_is_a_runtime_error(self, capsys,
                                                       monkeypatch):
        # main catches it as the ValueError it is, without naming numpy
        assert issubclass(np.linalg.LinAlgError, ValueError)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(geometry, "critical_index", singular)
        assert main(["geom", "index", "--n", "1", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def doctor_the_generator_table(monkeypatch):
    """generator_table with cell (1, 1) renamed and cell (4, 1) gone."""
    real = homology.generator_table

    def doctored(n, max_level):
        table = real(n, max_level)
        cells = dict(table.cells)
        cells[1, 1] = ("HX",)
        del cells[4, 1]
        return type(table).from_dict(cells, table.degree_bound)

    monkeypatch.setattr(homology, "generator_table", doctored)


def collapse(*args, **kwargs):
    raise rewriting.CompletionError("SH")


def find_no_repair(*args):
    raise rewriting.RepairError("nothing reconciles the table")


GOLDEN_FAILED = ("golden comparison FAILED:\n"
                 "  cell (1, 1): expected ('HT',), got ('HX',)\n"
                 "  cell (4, 1): expected ('Y',), got None\n")


class TestFailureBranches:
    # (argv, patch, end of stdout or "" for none, stderr); each exits
    # with code 1, and a json stdout stays one document
    @pytest.mark.parametrize("argv, patch, tail, err", [
        (["table", "--n", "2", "--golden"], doctor_the_generator_table,
         GOLDEN_FAILED, ""),
        (["table", "--n", "2", "--golden", "--format", "json"],
         doctor_the_generator_table, "}\n", GOLDEN_FAILED),
        (["table", "--n", "2", "--golden", "--format", "csv"],
         doctor_the_generator_table, "3,1,1,HY\r\n", GOLDEN_FAILED),
        (["verify", "--n", "3"],
         lambda mp: mp.setattr(rewriting, "complete", collapse), "",
         "mathematical failure: equation from 'SH' reduces to the unit; "
         "the presented algebra collapses\n"),
        (["verify", "--n", "2"],
         lambda mp: mp.setattr(rewriting, "repair_search", find_no_repair),
         "restore the match:\n  none found: nothing reconciles the table\n"
         "\ndiscrepancy recorded\n", ""),
    ])
    def test_exit_one_and_the_lines(self, capsys, monkeypatch, argv, patch,
                                    tail, err):
        patch(monkeypatch)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith(tail) if tail else not captured.out
        assert captured.err == err
        if "json" in argv:
            json.loads(captured.out)


# code that breaks a grading the library checks, by the message of the
# GradingError it must raise: T of degree 1 in the relations, or a
# weight by which every rule's right side is heavier than its left
GRADING_BREAKS = {
    "relation TH not degree-homogeneous": (
        "import dataclasses\n"
        "from pathalg import algebra\n"
        "real = algebra.signature\n"
        "algebra.signature = lambda n: dataclasses.replace(\n"
        "    real(n), degree={'H': -1, 'T': 1, 'Y': n})\n"),
    "rule TH -> H + HT has a right-hand word heavier than its left side": (
        "from pathalg import rewriting\n"
        "rewriting.word_weight = lambda w, sig: -len(w)\n"),
}


class TestFreshProcess:
    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("message", sorted(GRADING_BREAKS))
    def test_a_broken_grading_exits_2(self, message, optimize):
        # a check that raises, not an assert, so python -O keeps it
        code = (GRADING_BREAKS[message] + "import sys\n"
                "from pathalg import cli\n"
                "print(sys.flags.optimize)\n"
                "sys.exit(cli.main(['verify', '--n', '2']))\n")
        done = subprocess.run(
            [sys.executable, *["-O"] * optimize, "-c", code], env=fresh_env(),
            capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == \
            (2, f"{int(optimize)}\n", f"error: {message}\n")

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [
        ["homology", "--n", "3000", "--format", "csv"],
        ["verify", "--n", "2", "--max-degree", "30000"]])
    def test_a_closed_stdout_exits_2(self, argv, unbuffered):
        # the reader takes one line and closes the pipe, as | head -1
        # does, while far more than a pipe holds is still to come
        env = fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "pathalg.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first
        assert (proc.returncode, err) == (2, b"error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "3"], ["table", "--n", "3", "--golden"],
        ["geom", "concat-check", "--trials", "5"]])
    def test_a_reader_closed_before_a_buffered_write_exits_2(self, argv):
        # a few kB that Python buffers until it flushes, to a reader
        # that is gone before anything is written, as `| true` can be
        env = fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pathalg.cli", *argv], env=env,
                stdout=write, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == \
            (2, b"error: [Errno 32] Broken pipe\n")


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
