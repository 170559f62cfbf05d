"""Batch front-end.

Subcommands: homology (print assembled tables), verify (rewriting
model against homology), geom (numerical geometry suites), table
(named generator cells, with golden-file comparison).

Exit codes: 0 all checks pass, 1 mathematical discrepancy, 2 usage or
runtime error.  Tolerance defaults can be overridden by environment
variables PATHALG_GRAD_TOL, PATHALG_ZTOL, PATHALG_STEP,
PATHALG_CONCAT_TOL and PATHALG_GEOM_TOL; command-line flags win over
the environment.  Every tolerance, from either source, must be a
positive finite number.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from importlib import resources

import numpy as np

from . import geometry, homology, rewriting
from .algebra import signature
from .homology import COEFF_F2, COEFF_PULLBACK, COEFF_Z


def _positive_float(text: str) -> float:
    """Positive finite float.  argparse applies it to string defaults
    too, which carry the PATHALG_* values, so both sources are checked
    alike."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# ---------------------------------------------------------------------------
# Cell serialization: every cell carries degree, level, names and either
# a mod-2 dimension or an integral group {rank, torsion[]}


def _dim_cell(degree: int, level: int, dim: int, names=()) -> dict:
    return {"degree": degree, "level": level, "names": list(names),
            "dim": dim}


def _group_cell(degree: int, level: int, group, names=()) -> dict:
    return {"degree": degree, "level": level, "names": list(names),
            "group": {"rank": group.rank, "torsion": list(group.torsion)}}


def _cell_value(cell: dict) -> str:
    if "dim" in cell:
        return str(cell["dim"])
    g = homology.AbelianGroup(rank=cell["group"]["rank"],
                              torsion=tuple(cell["group"]["torsion"]))
    return g.render()


def _emit_sections(sections: list[tuple[str, list[dict]]], fmt: str) -> None:
    """One document per invocation: a json object with a sections list,
    a single csv stream with a section column, or aligned text blocks."""
    out = sys.stdout
    if fmt == "json":
        doc = {"sections": [{"title": t, "cells": c} for t, c in sections]}
        print(json.dumps(doc, indent=2), file=out)
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["section", "degree", "level", "value", "names"])
        for title, cells in sections:
            for c in cells:
                writer.writerow([title, c["degree"], c["level"],
                                 _cell_value(c), " ".join(c["names"])])
        print(buf.getvalue(), end="", file=out)
        return
    for title, cells in sections:
        print(f"## {title}", file=out)
        rows = [("degree", "level", "value", "names")]
        rows += [(str(c["degree"]), str(c["level"]), _cell_value(c),
                  " ".join(c["names"])) for c in cells]
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        for r in rows:
            print("  ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip(),
                  file=out)
        print(file=out)


def _emit_cells(title: str, cells: list[dict], fmt: str) -> None:
    _emit_sections([(title, cells)], fmt)


def _graded_cells(table, level: int = 0) -> list[dict]:
    if isinstance(table, homology.GradedDimTable):
        return [_dim_cell(d, level, table.dim(d))
                for d in range(table.top_degree + 1)]
    return [_group_cell(d, level, table.group(d))
            for d in range(table.top_degree + 1)]


def _bigraded_cells(table) -> list[dict]:
    if isinstance(table, homology.BigradedGroupTable):
        return [_group_cell(d, l, g) for (d, l), g in table.entries]
    return [_dim_cell(d, l, v) for (d, l), v in table.entries]


# ---------------------------------------------------------------------------
# homology


def cmd_homology(args) -> int:
    n = args.n
    sections = []
    if args.coeff == "F2":
        sections.append(
            (f"projective base, mod 2, n={n}",
             _graded_cells(homology.real_proj_homology(n, COEFF_F2))))
        sections.append(
            (f"unit tangent bundle, mod 2, n={n}",
             _graded_cells(homology.unit_tangent_homology(n, COEFF_F2))))
        path = homology.path_space_homology(n, COEFF_F2, args.max_degree)
        sections.append(
            (f"assembled path-space table, mod 2, n={n}, "
             f"degrees 0..{args.max_degree}", _bigraded_cells(path)))
    else:
        sections.append(
            (f"projective base, integral, n={n}",
             _graded_cells(homology.real_proj_homology(n, COEFF_Z))))
        tags = [COEFF_Z] if n % 2 == 1 else [COEFF_Z, COEFF_PULLBACK]
        for tag in tags:
            sections.append(
                (f"unit tangent bundle, coefficients {tag}, n={n}",
                 _graded_cells(homology.unit_tangent_homology(n, tag))))
        path = homology.path_space_homology(n, COEFF_Z, args.max_degree)
        sections.append(
            (f"assembled path-space table, integral, n={n}, "
             f"degrees 0..{args.max_degree}", _bigraded_cells(path)))
    _emit_sections(sections, args.format)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    n = args.n
    D = args.max_degree
    sig = signature(n)
    wb = args.weight_bound if args.weight_bound is not None else \
        rewriting.required_weight_bound(sig, D)
    rs = rewriting.complete(rewriting.orient(sig), wb)
    print(f"completed rewriting system for n={n}: {len(rs.rules)} rules, "
          f"weight bound {wb}")
    for rule in rs.rules:
        print(f"  {rule.render()}")

    reports = [rewriting.filtration_check(rs),
               rewriting.anti_automorphism_check(sig, rs)]
    if n >= 2:
        reports.append(rewriting.heredity_check(n - 1))
    reports.append(homology.consistency_checks(n))
    ok = True
    for rep in reports:
        print()
        print("\n".join(rep.lines()))
        ok = ok and rep.passed

    alg = rewriting.hilbert(rs, D)
    hom = homology.path_space_homology(n, COEFF_F2, D)
    comparison = rewriting.compare(alg, hom)
    print()
    print("\n".join(comparison.lines()))

    if comparison.is_match and ok:
        print(f"\nverified: presentation matches homology up to degree {D}")
        return 0
    if not comparison.is_match and n % 2 == 0:
        print("\nsearching for rule augmentations that restore the match:")
        try:
            augs = rewriting.repair_search(sig, hom, D, weight_bound=wb)
        except rewriting.RepairError as exc:
            print(f"  none found: {exc}")
        else:
            for aug in augs:
                print(f"  candidate augmentation: {aug.render()}")
    print("\ndiscrepancy recorded")
    return 1


# ---------------------------------------------------------------------------
# geom


def cmd_geom(args) -> int:
    """Run the geometry suite named by args.suite; every other option of
    the subcommand is a keyword argument of that suite."""
    kwargs = {key: value for key, value in vars(args).items()
              if key not in ("command", "geom_command", "func", "suite")}
    report = getattr(geometry, args.suite)(**kwargs)
    print("\n".join(report.lines()))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# table


def _table_text(table: homology.GeneratorTable) -> str:
    lines = [f"# named generating cells, n={table.n}, "
             f"levels 0..{table.max_level}",
             "# degree level names"]
    for cell in table.cells:
        lines.append(f"{cell.degree} {cell.level} {' '.join(cell.names)}")
    return "\n".join(lines) + "\n"


def _parse_table_text(text: str) -> dict[tuple[int, int], tuple[str, ...]]:
    cells = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        cells[(int(parts[0]), int(parts[1]))] = tuple(parts[2:])
    return cells


def _golden_text(n: int) -> str:
    ref = resources.files("pathalg").joinpath(f"golden/table_n{n}.txt")
    return ref.read_text(encoding="utf-8")


def cmd_table(args) -> int:
    n = args.n
    levels = args.levels if args.levels is not None else (3 if n == 1 else 2)
    table = homology.generator_table(n, levels - 1)
    if args.format == "json":
        cells = [_dim_cell(c.degree, c.level, len(c.names), c.names)
                 for c in table.cells]
        _emit_cells(f"named generating cells, n={n}", cells, "json")
    elif args.format == "csv":
        cells = [_dim_cell(c.degree, c.level, len(c.names), c.names)
                 for c in table.cells]
        _emit_cells(f"named generating cells, n={n}", cells, "csv")
    else:
        print(_table_text(table), end="")
    if not args.golden:
        return 0
    if n > 4:
        print(f"no golden fixture for n={n}", file=sys.stderr)
        return 2
    want = _parse_table_text(_golden_text(n))
    got = _parse_table_text(_table_text(table))
    if want == got:
        print(f"golden comparison: {len(want)} cells match")
        return 0
    print("golden comparison FAILED:")
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            print(f"  cell {key}: expected {want.get(key)}, got {got.get(key)}")
    return 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathalg",
        description="verification suites for the path-space product algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("homology", help="print homology tables")
    p_hom.add_argument("--n", type=_positive_int, required=True)
    p_hom.add_argument("--coeff", choices=["Z", "F2"], default="Z")
    p_hom.add_argument("--max-degree", type=_nonnegative_int, default=None)
    p_hom.add_argument("--format", choices=["md", "json", "csv"], default="md")
    p_hom.set_defaults(func=cmd_homology)

    p_ver = sub.add_parser("verify",
                           help="rewriting model against homology tables")
    p_ver.add_argument("--n", type=_positive_int, required=True)
    p_ver.add_argument("--max-degree", type=_nonnegative_int, default=40)
    p_ver.add_argument("--weight-bound", type=_positive_int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_geom = sub.add_parser("geom", help="numerical geometry suites")
    geom_sub = p_geom.add_subparsers(dest="geom_command", required=True)

    p_idx = geom_sub.add_parser("index", help="discrete index and nullity")
    p_idx.add_argument("--n", type=_positive_int, default=2)
    p_idx.add_argument("--k", type=_nonnegative_int, default=1)
    p_idx.add_argument("--segments", type=_positive_int, default=None)
    p_idx.add_argument("--seed", type=_nonnegative_int, default=0)
    p_idx.add_argument("--step", dest="h", metavar="STEP",
                       type=_positive_float,
                       default=os.environ.get("PATHALG_STEP", "1e-4"))
    p_idx.add_argument("--ztol", type=_positive_float,
                       default=os.environ.get("PATHALG_ZTOL", "1e-3"))
    p_idx.add_argument("--grad-tol", type=_positive_float,
                       default=os.environ.get("PATHALG_GRAD_TOL", "1e-8"))
    p_idx.set_defaults(func=cmd_geom, suite="index_check")

    for name, suite, trials, env, help_text in (
            ("concat-check", "concat_check", 1000, "PATHALG_CONCAT_TOL",
             "norm additivity and associativity"),
            ("halfcircle-check", "halfcircle_check", 200, "PATHALG_GEOM_TOL",
             "half-circle construction invariants"),
            ("yk-check", "yk_check", 200, "PATHALG_GEOM_TOL",
             "iterated half-circle family checks")):
        p_suite = geom_sub.add_parser(name, help=help_text)
        p_suite.add_argument("--trials", type=_positive_int, default=trials)
        p_suite.add_argument("--seed", type=_nonnegative_int, default=0)
        p_suite.add_argument("--tol", type=_positive_float,
                             default=os.environ.get(env, "1e-9"))
        p_suite.set_defaults(func=cmd_geom, suite=suite)

    p_tab = sub.add_parser("table", help="named generator cells")
    p_tab.add_argument("--n", type=_positive_int, required=True)
    p_tab.add_argument("--levels", type=_positive_int, default=None,
                       help="number of levels to list (0..levels-1)")
    p_tab.add_argument("--golden", action="store_true",
                       help="compare against the shipped fixture")
    p_tab.add_argument("--format", choices=["md", "json", "csv"],
                       default="md")
    p_tab.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
        if getattr(args, "max_degree", -1) is None:
            args.max_degree = 4 * args.n + 2
        return args.func(args)
    except (rewriting.CompletionError, rewriting.RepairError) as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
