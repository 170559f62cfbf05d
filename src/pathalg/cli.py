"""Batch front-end.

Subcommands: homology (print assembled tables), verify (rewriting
model against homology), geom (numerical geometry suites), table
(named generator cells, with golden-file comparison).

Exit codes: 0 all checks pass, 1 mathematical discrepancy, 2 usage or
runtime error.  Tolerances are fixed constants of pathalg.geometry.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import os
import sys
from importlib import resources

from . import homology, rewriting
from .algebra import signature
from .homology import COEFF_F2, COEFF_Z


def _int_at_least(low: int):
    """An argparse type: an integer of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


# ---------------------------------------------------------------------------
# Output of ((degree, level), value) cells, one renderer per format


def _columns(value) -> tuple[str, str]:
    """md and csv's value and names of a mod-2 dimension, an integral
    AbelianGroup, or a tuple of names (its length, then the names)."""
    if isinstance(value, homology.AbelianGroup):
        return value.render(), ""
    if isinstance(value, tuple):
        return str(len(value)), " ".join(value)
    return str(value), ""


def _json_cell(degree: int, level: int, value) -> dict:
    """A cell in the json schema: degree, level, names, then dim or group."""
    cell = {"degree": degree, "level": level, "names": []}
    if isinstance(value, homology.AbelianGroup):
        cell["group"] = {"rank": value.rank, "torsion": list(value.torsion)}
    elif isinstance(value, tuple):
        cell.update(names=list(value), dim=len(value))
    else:
        cell["dim"] = value
    return cell


def _json_text(value, pad: str) -> str:
    """json.dumps(value, indent=2) of a json cell's dicts, lists,
    strings and integers, its lines after the first prefixed with pad.
    No encoder is built: the indenting one is a cycle of closures, which
    the collector paused by main would keep, one per cell.  It is also
    faster: 219-260 ms against json.dumps' 366-555 ms for the 28 001
    cells of the Z assembly at n = 5, D = 20000, in process."""
    if not isinstance(value, (dict, list)):
        return json.dumps(value) if isinstance(value, str) else repr(value)
    inner = pad + "  "
    if isinstance(value, dict):
        ends, items = "{}", [f"{inner}{json.dumps(k)}: {_json_text(v, inner)}"
                             for k, v in value.items()]
    else:
        ends, items = "[]", [inner + _json_text(v, inner) for v in value]
    if not items:
        return ends
    return f"{ends[0]}\n" + ",\n".join(items) + f"\n{pad}{ends[1]}"


def _emit_sections(sections, fmt: str) -> None:
    """One document from (title, cells) sections: a json object of
    sections, one csv stream with a section column, or text blocks."""
    out = sys.stdout
    if fmt == "json":
        # json.dumps(doc, indent=2) of {"sections": [{"title", "cells"}]}:
        # the frame is written by hand and each cell as it comes, so no
        # document is held; an empty list closes on its line, as "[]"
        sep = "\n"
        out.write('{\n  "sections": [')
        for title, cells in sections:
            out.write(f'{sep}    {{\n      "title": {json.dumps(title)},'
                      '\n      "cells": [')
            sep = "\n"
            for (d, l), v in cells:
                out.write(f"{sep}        "
                          + _json_text(_json_cell(d, l, v), " " * 8))
                sep = ",\n"
            out.write("]\n    }" if sep == "\n" else "\n      ]\n    }")
            sep = ",\n"
        out.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")
        return
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["section", "degree", "level", "value", "names"])
        writer.writerows((title, d, l, *_columns(v))
                         for title, cells in sections for (d, l), v in cells)
        return
    for title, cells in sections:
        print(f"## {title}", file=out)
        rows = [("degree", "level", "value", "names")]
        rows += [(str(d), str(l), *_columns(v)) for (d, l), v in cells]
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        for r in rows:
            print("  ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip(),
                  file=out)
        print(file=out)


# ---------------------------------------------------------------------------
# homology


def cmd_homology(args) -> int:
    n = args.n
    D = args.max_degree if args.max_degree is not None else 4 * n + 2
    coeff, ring = ((COEFF_F2, "mod 2") if args.coeff == "F2"
                   else (COEFF_Z, "integral"))
    graded = [(f"projective base, {ring}, n={n}",
               homology.real_proj_homology(n, coeff))]
    for tag in homology.block_systems(n, coeff):
        label = ring if tag == COEFF_F2 else f"coefficients {tag}"
        graded.append((f"unit tangent bundle, {label}, n={n}",
                       homology.unit_tangent_homology(n, tag)))
    # every section omits its zero groups, as the assembly does
    sections = [(title, (((d, 0), v) for d, v in enumerate(table) if v))
                for title, table in graded]
    sections.append((f"assembled path-space table, {ring}, n={n}, "
                     f"degrees 0..{D}",
                     homology.path_space_homology(n, coeff, D)))
    _emit_sections(sections, args.format)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    n = args.n
    D = args.max_degree
    rs = rewriting.complete(rewriting.orient(signature(n)))
    print(f"completed rewriting system for n={n}: {len(rs.rules)} rules")
    for rule in rs.rules:
        print(f"  {rule.render()}")

    reports = [rewriting.filtration_check(rs),
               rewriting.anti_automorphism_check(rs)]
    if n >= 2:
        reports.append(rewriting.heredity_check(rs))
    reports.append(homology.consistency_checks(n))
    ok = True
    for rep in reports:
        print()
        print("\n".join(rep.lines()))
        ok = ok and rep.passed

    target = homology.path_space_series(n)
    comparison = rewriting.compare(rewriting.hilbert_series(rs), target, D)
    print()
    print("\n".join(comparison.lines()))

    if comparison.is_match and ok:
        print(f"\nverified: presentation matches homology up to degree {D}")
        return 0
    if not comparison.is_match and n % 2 == 0:
        print("\nsearching for rule augmentations that restore the match:")
        try:
            augs = rewriting.repair_search(rs, target)
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
    # only these suites load geometry, and numpy with it
    from . import geometry
    kwargs = {key: value for key, value in vars(args).items()
              if key not in ("command", "geom_command", "func", "suite")}
    report = getattr(geometry, args.suite)(**kwargs)
    print("\n".join(report.lines()))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# table


def _print_table(n: int, levels: int, table) -> None:
    """The md listing, a line per cell written as it is made."""
    out = sys.stdout
    out.write(f"# named generating cells, n={n}, levels 0..{levels - 1}\n"
              "# degree level names\n")
    for (degree, level), names in table.entries:
        out.write(f"{degree} {level} {' '.join(names)}\n")


def _parse_table_text(text: str) -> dict[tuple[int, int], tuple[str, ...]]:
    cells = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        cells[(int(parts[0]), int(parts[1]))] = tuple(parts[2:])
    return cells


def cmd_table(args) -> int:
    n = args.n
    levels = args.levels if args.levels is not None else (3 if n == 1 else 2)
    if args.golden:
        # the package data is the one list of shipped fixtures
        fixture = resources.files("pathalg").joinpath(
            f"golden/table_n{n}.txt")
        if not fixture.is_file():
            print(f"no golden fixture for n={n}", file=sys.stderr)
            return 2
        want = _parse_table_text(fixture.read_text(encoding="utf-8"))
        covered = 1 + max(level for _, level in want)
        if levels > covered:
            print(f"golden fixture for n={n} covers levels "
                  f"0..{covered - 1}, not 0..{levels - 1}", file=sys.stderr)
            return 2
        # a listing of fewer levels is checked against their cells
        want = {key: names for key, names in want.items() if key[1] < levels}
    table = homology.generator_table(n, levels - 1)
    if args.format == "md":
        _print_table(n, levels, table)
    else:
        _emit_sections([(f"named generating cells, n={n}", table.entries)],
                       args.format)
    if not args.golden:
        return 0
    # a json or csv stdout holds one document, so the verdict goes aside
    out = sys.stdout if args.format == "md" else sys.stderr
    got = table.cells
    if want == got:
        print(f"golden comparison: {len(want)} cells match", file=out)
        return 0
    print("golden comparison FAILED:", file=out)
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            print(f"  cell {key}: expected {want.get(key)}, "
                  f"got {got.get(key)}", file=out)
    return 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pathalg parser, built once per process: no option has a
    mutable default, and each parse_args call fills a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="pathalg",
        description="verification suites for the path-space product algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("homology", help="print homology tables")
    p_hom.add_argument("--n", type=_int_at_least(1), required=True)
    p_hom.add_argument("--coeff", choices=["Z", "F2"], default="Z")
    p_hom.add_argument("--max-degree", type=_int_at_least(0), default=None)
    p_hom.add_argument("--format", choices=["md", "json", "csv"], default="md")
    p_hom.set_defaults(func=cmd_homology)

    p_ver = sub.add_parser("verify",
                           help="rewriting model against homology tables")
    p_ver.add_argument("--n", type=_int_at_least(1), required=True)
    p_ver.add_argument("--max-degree", type=_int_at_least(0), default=40)
    p_ver.set_defaults(func=cmd_verify)

    p_geom = sub.add_parser("geom", help="numerical geometry suites")
    geom_sub = p_geom.add_subparsers(dest="geom_command", required=True)

    p_idx = geom_sub.add_parser("index", help="discrete index and nullity")
    p_idx.add_argument("--n", type=_int_at_least(1), default=2)
    p_idx.add_argument("--k", type=_int_at_least(0), default=1)
    p_idx.add_argument("--seed", type=_int_at_least(0), default=0)
    p_idx.set_defaults(func=cmd_geom, suite="index_check")

    for name, suite, trials, help_text in (
            ("concat-check", "concat_check", 1000,
             "norm additivity and associativity"),
            ("halfcircle-check", "halfcircle_check", 200,
             "half-circle construction invariants"),
            ("yk-check", "yk_check", 200,
             "iterated half-circle family checks")):
        p_suite = geom_sub.add_parser(name, help=help_text)
        p_suite.add_argument("--trials", type=_int_at_least(1), default=trials)
        p_suite.add_argument("--seed", type=_int_at_least(0), default=0)
        p_suite.set_defaults(func=cmd_geom, suite=suite)

    p_tab = sub.add_parser("table", help="named generator cells")
    p_tab.add_argument("--n", type=_int_at_least(1), required=True)
    p_tab.add_argument("--levels", type=_int_at_least(1), default=None,
                       help="number of levels to list (0..levels-1)")
    p_tab.add_argument("--golden", action="store_true",
                       help="compare against the shipped fixture")
    p_tab.add_argument("--format", choices=["md", "json", "csv"],
                       default="md")
    p_tab.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    # The cyclic collector is paused for the call: the rewriting route
    # allocates containers fast enough to start collections mid-command,
    # none with the pause and, without it, 516-518 in 800 passes of the
    # bench's verify-deep jobs and 693 in 600 of verify-wide's.  End to
    # end it moves little: over 16 alternating bench pairs per workload
    # (--seconds 20, 2-core VM), without the pause verify-deep wall_s
    # reads higher in 11 (medians +1.6 % and +4.5 %, inside the runs'
    # spread) and no other end-to-end metric of either verify workload
    # moves.  The only cycle a command leaves, repair_search's recursive
    # closure, is 74 objects at n = 2 whatever the degree bound.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
        except (rewriting.CompletionError, rewriting.RepairError) as exc:
            print(f"mathematical failure: {exc}", file=sys.stderr)
            return 1
        finally:
            # a closed reader fails this flush, not the one at exit (120)
            sys.stdout.flush()
    except (ValueError, TypeError, OSError, RuntimeError, MemoryError) as exc:
        # numpy's LinAlgError is a ValueError; after a closed stdout the
        # bytes still buffered would fail again at exit
        if isinstance(exc, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
