"""Tests of the benchmark harness: python3 -m pytest bench/tests"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import ERROR, OK, WRONG, Job, verify_job  # noqa: E402


def hessian_dim(n, k):
    """Dimension of the second variation at the default segment count."""
    return 2 * n * max(8, 4 * k + 4)


def test_self_time_subtracts_nested_child_spans():
    S = spans.Span
    recorded = [
        S("cli.main", "j", 0.0, 10.0),
        S("rewriting.complete", "j", 0.5, 1.0, parent=0, count=7),
        S("rewriting.repair_search", "j", 1.0, 9.0, parent=0, count=1),
        S("rewriting.complete", "j", 2.0, 4.0, parent=2, count=9),
        S("rewriting.normal_form", "j", 2.5, 3.0, parent=3),
        S("rewriting.hilbert", "j", 4.0, 6.5, parent=2, count=40),
        S("rewriting.compare", "j", 7.0, 8.0, parent=2),
        S("rewriting.complete", "j", 8.0, 8.5, parent=2, count=9),
    ]
    assert spans.self_times(recorded) == pytest.approx(
        [1.5, 0.5, 2.0, 1.5, 0.5, 2.5, 1.0, 0.5])

    totals = defaultdict(int)
    spans.accumulate(recorded, totals)
    m = spans.layer_metrics(totals)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["rewriting.repair_search.self_s"] == pytest.approx(2.0)
    assert m["rewriting.complete.self_s"] == pytest.approx(2.5)
    assert m["rewriting.complete.calls"] == 3
    assert m["rewriting.complete.rules"] == 25
    assert m["rewriting.hilbert.words"] == 40
    assert m["rewriting.other.self_s"] == pytest.approx(0.5)
    # one augmentation over the two completions nested in the search
    assert m["rewriting.repair_search.survivor_ratio"] == pytest.approx(0.5)
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == \
        pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    S = spans.Span
    recorded = [S("a", 0, 0.0, 4.0), S("b", 0, 1.0, 3.0, parent=0),
                S("c", 0, 2.0, 5.0, parent=0)]
    assert spans.self_times(recorded)[0] == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_job_list(name):
    assert workloads.jobs(name, 7, 0) == workloads.jobs(name, 7, 0)
    assert workloads.jobs(name, 7, 0) != workloads.jobs(name, 8, 0)
    assert workloads.jobs(name, 7, 0) != workloads.jobs(name, 7, 1)


def test_inputs_stay_in_the_range_that_completes():
    for seed in range(20):
        for name in workloads.WORKLOADS:
            for job in workloads.jobs(name, seed, 0):
                assert "--jobs" not in job.argv
                assert "--weight-bound" not in job.argv
        for job in workloads.jobs("verify-deep", seed, 0):
            assert 500 <= int(job.argv[job.argv.index("--max-degree") + 1]) <= 900
    dims = [hessian_dim(n, k) for k, n in workloads.INDEX_GRID]
    assert min(dims) == 16 and max(dims) == 80
    assert {k for k, _ in workloads.INDEX_GRID} == {0, 1, 2, 3, 4}


def test_oracle():
    odd, even = verify_job(3), verify_job(2)
    repairs = "{HHT -> 0, HHY -> 0}\n{HHT -> HH, HHY -> 0}\n"
    assert workloads.check(odd, 0, "", "") == (OK, "")
    assert workloads.check(odd, 1, "", "")[0] == WRONG
    assert workloads.check(even, 1, repairs, "") == (OK, "")
    assert workloads.check(even, 1, repairs.splitlines()[0], "")[0] == WRONG
    assert workloads.check(even, 0, repairs, "")[0] == WRONG
    assert workloads.check(odd, 2, "", "error: boom\n") == (ERROR, "error: boom")
    assert workloads.check(odd, None, "", "KeyError: 'x'\n")[0] == ERROR


def test_tail_leaves_ten_samples_above():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_host_speed_scales_by_the_samples_near_a_job():
    speed = run.HostSpeed()
    ref = run.REFERENCE_S
    w = run.REFERENCE_WINDOW
    # the host runs at half speed from t = 10 on
    speed.starts = [0.0, 1.0, 4.0, 9.0, 10.0, 12.0, 12.0 + 2 * w, 20.0, 21.0]
    speed.samples = [ref] * 4 + [2 * ref] * 5
    assert speed.scale(1.0, 4.0) == pytest.approx(1.0)
    assert speed.scale(10.0, 12.0) == pytest.approx(0.5)
    assert speed.scale() == pytest.approx(0.5)  # median of every sample


def test_host_speed_samples_a_tenth_of_the_job_time():
    speed = run.HostSpeed()
    speed.sample(0.0)
    assert len(speed.samples) == 1
    speed.sample(0.2)
    assert sum(speed.samples[1:]) >= run.REFERENCE_SHARE * 0.2
    assert speed.starts == sorted(speed.starts)


def test_traced_jobs_end_as_plain_jobs():
    cli, layers = run.import_program()
    jobs = [verify_job(2), verify_job(3, 520),
            Job(("geom", "index", "--n", "1", "--k", "2", "--seed", "4"), 0),
            # seed 18 hits the known random_real_tangent failure at n = 1
            Job(("geom", "concat-check", "--trials", "8", "--seed", "18"), 0),
            Job(("geom", "halfcircle-check", "--trials", "3", "--seed", "5"), 0),
            Job(("geom", "yk-check", "--trials", "5", "--seed", "5"), 0)]
    _, plain = run.run_pass(cli, jobs, 0)
    totals = defaultdict(int)
    tracer = spans.Tracer(layers, cli)
    names = {name for _, _, name in tracer._targets}
    assert {"cli.main", "rewriting.hilbert", "geometry.half_circle"} <= names
    # re-imported helpers and generators are not spans of their own
    assert not {"rewriting.unshifted_degree", "rewriting.irreducible_words"} & names
    with tracer:
        wall, traced = run.run_pass(cli, jobs, 0, tracer, totals)
    assert [(r.status, r.detail) for r in traced] == \
        [(r.status, r.detail) for r in plain]
    assert not hasattr(cli.main, "__wrapped__")  # wrappers removed on exit
    m = spans.layer_metrics(totals)
    assert m["geometry.critical_index.dim"] == hessian_dim(1, 2)
    assert m["rewriting.repair_search.augmentations"] == 2
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == \
        pytest.approx(wall)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_has_a_name_and_a_unit(trace, capsys):
    assert run.main(["--workload", "verify-wide", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
