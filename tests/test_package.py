"""The package's exports, and the lazy load of the geometry layer: the
algebra commands run without numpy, and the geometry exports appear on
the package once any of them is used.

The checks that depend on what was imported before run in a fresh
interpreter, since the test session has long imported pathalg.geometry."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathalg
from pathalg.cli import main

SRC = Path(pathalg.__file__).resolve().parents[1]

GEOMETRY = {
    "DiscretePath", "GradientCheckError", "HessianSizeError", "IndexResult",
    "ParityError", "ProjPoint", "TangentVector", "concat_check", "concat_min",
    "constant_path", "critical_index", "fs_distance", "geodesic",
    "half_circle", "half_circle_endpoint", "half_circle_norm",
    "halfcircle_check", "hopf_vector", "index_check", "path_energy",
    "path_length", "path_norm", "proj_point", "random_real_point",
    "random_real_tangent", "real_point", "sample_yk", "yk_check",
    "yk_parameter_count",
}

PUBLIC = GEOMETRY | {
    "algebra", "geometry", "homology", "rewriting", "tables",
    # algebra
    "AlphabetError", "GradingError", "Signature", "defining_relations",
    "leading_word", "order_key", "poly", "poly_mul", "reverse_poly",
    "signature", "unshifted_degree", "word_degree", "word_level",
    "word_weight",
    # tables
    "BigradedSeries", "BigradedTable", "CheckItem", "CheckReport",
    # rewriting
    "Augmentation", "CompletionError", "ComparisonReport",
    "OrderRejectedError", "RepairError", "RewriteRule", "RewriteSystem",
    "RuleLimitError", "SearchCapError", "StepLimitError",
    "anti_automorphism_check", "compare", "complete",
    "filtration_check", "heredity_check", "hilbert", "hilbert_series",
    "normal_form", "orient", "repair_search",
    # homology
    "COEFF_F2", "COEFF_PULLBACK", "COEFF_TWISTED", "COEFF_Z",
    "AbelianGroup", "CoefficientError", "block_local_system",
    "block_systems", "consistency_checks", "generator_table",
    "path_space_homology", "path_space_series", "real_proj_homology",
    "stable_ranks", "uct_f2", "unit_tangent_homology",
}

NO_NUMPY = "import sys; sys.modules['numpy'] = None\n"
# sympy and scipy may be installed where the tests run, but CI installs
# neither, so library code may not import them, not even lazily
NO_SCIPY_SYMPY = ("import sys; sys.modules['scipy'] = None; "
                  "sys.modules['sympy'] = None\n")


def python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this pathalg."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def facts(code: str):
    """The JSON value that code prints as its last line; code sees
    pathalg imported and the geometry export names as names."""
    done = python(f"import json, sys\nimport pathalg\n"
                  f"names = {sorted(GEOMETRY)!r}\n" + code)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, code", [
    (["verify", "--n", "3"], 0),
    (["verify", "--n", "2"], 1),
    (["homology", "--n", "2", "--coeff", "Z", "--format", "json"], 0),
    (["table", "--n", "3", "--golden"], 0),
])
def test_algebra_commands_run_without_numpy(capsys, argv, code):
    done = python(NO_NUMPY + "from pathalg import cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))", *argv)
    assert main(argv) == code
    want = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == \
        (code, want.out, want.err)
    if argv == ["verify", "--n", "2"]:
        assert "candidate augmentation: {HHT -> 0, HHY -> 0}" in done.stdout
        assert "candidate augmentation: {HHT -> HH, HHY -> 0}" in done.stdout


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2"],
    ["homology", "--n", "2", "--coeff", "Z", "--format", "json"],
    ["table", "--n", "3", "--golden"],
    ["geom", "index", "--n", "2", "--k", "2"],
    *(["geom", suite, "--trials", "20"]
      for suite in ("concat-check", "halfcircle-check", "yk-check")),
])
def test_commands_run_without_scipy_or_sympy(capsys, argv):
    done = python(NO_SCIPY_SYMPY + "from pathalg import cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))", *argv)
    code = main(argv)
    want = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == \
        (code, want.out, want.err)


def test_geometry_command_loads_numpy():
    got = facts(
        "from pathalg import cli\n"
        "cli.build_parser()\n"
        "before = 'numpy' in sys.modules\n"
        "code = cli.main(['geom', 'index', '--n', '1', '--k', '1'])\n"
        "print(json.dumps([before, code, 'numpy' in sys.modules]))")
    assert got == [False, 0, True]


def test_public_names():
    got = facts(
        "public = [n for n in dir(pathalg) if not n.startswith('_')]\n"
        "print(json.dumps([n for n in public if hasattr(pathalg, n)]))")
    assert set(got) == PUBLIC


def test_geometry_names_are_the_module_attributes():
    got = facts(
        "print(json.dumps({n: getattr(pathalg, n)\n"
        "                  is getattr(pathalg.geometry, n)\n"
        "                  for n in names}))")
    assert got == dict.fromkeys(GEOMETRY, True)


def test_first_use_binds_every_export():
    # the namespace itself, not getattr: a reader of vars(pathalg) sees
    # every geometry export once the module has been imported through
    # the package
    got = facts(
        "before = sorted(set(names) & set(vars(pathalg)))\n"
        "from pathalg import geometry\n"
        "print(json.dumps([before,\n"
        "                  all(vars(pathalg)[n] is getattr(geometry, n)\n"
        "                      for n in names)]))")
    assert got == [[], True]


def test_submodule_import_then_export():
    got = facts(
        "import pathalg.geometry\n"
        "print(json.dumps(pathalg.critical_index\n"
        "                 is pathalg.geometry.critical_index))")
    assert got is True


def test_dir_lists_geometry_before_first_use():
    got = facts(
        "listed = set(dir(pathalg))\n"
        "print(json.dumps(['numpy' in sys.modules,\n"
        "                  sorted(set(names) - listed),\n"
        "                  'geometry' in listed]))")
    assert got == [False, [], True]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        pathalg.frobnicate
    assert not hasattr(pathalg, "np")


def test_geometry_import_leaves_numpy_random_unloaded():
    # numpy.random adds about 6 MB resident; only a command that draws
    # loads it, so one that draws nothing does not pay for it
    got = facts(
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "import pathalg.geometry\n"
        "from pathalg import cli\n"
        "print(json.dumps([eager, 'numpy.random' in sys.modules]))")
    if got[0]:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert got == [False, False]
