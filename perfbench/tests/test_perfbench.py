"""Tests of the benchmark itself: inputs, checks, tracing and a tiny run.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from calibration import Clock  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from flopcalc import homalg, pbundle  # noqa: E402
from flopcalc.bwb import CohomologyTable  # noqa: E402
from flopcalc.pbundle import ModelVariety, XLineBundle  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "VERIFY_MAX_N", 3)
    monkeypatch.setattr(workloads, "QUERY_NS", range(2, 4))
    monkeypatch.setattr(workloads, "QUERY_BINS", 3)
    monkeypatch.setattr(workloads, "QUERY_BIN_WIDTH", 5)
    monkeypatch.setattr(workloads, "CHASE_NS", range(2, 4))
    tracer.clear_caches()


def test_query_stream_is_deterministic_per_seed():
    assert workloads.query_classes(7) == workloads.query_classes(7)
    assert workloads.query_classes(7) != workloads.query_classes(8)
    classes = workloads.query_classes(7)
    assert {n for n, _, _ in classes} == set(workloads.QUERY_NS)
    assert any(j >= 0 for _, j, _ in classes)
    assert any(-n <= j <= -1 for n, j, _ in classes)
    assert any(j <= -n - 1 for n, j, _ in classes)


def test_workload_names_match():
    assert set(run.WORKLOADS) == set(workloads._PREPARE)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_euler_reference_agrees_with_engine():
    for n in (2, 3, 5):
        for j in (-n - 9, -n - 1, -n, -1, 0, 1, 7, 20):
            for k in (-11, -1, 0, 3):
                table = pbundle.cohomology_X(XLineBundle(ModelVariety(n), j, k))
                chi = checks.chi_X(n, j, k)
                assert checks.check_cohomology_X(n, j, k, table, chi) is None, (n, j, k)


def test_checks_flag_perturbed_results():
    table = pbundle.cohomology_X(XLineBundle(ModelVariety(3), 4, -2))
    chi = checks.chi_X(3, 4, -2)
    assert checks.check_cohomology_X(3, 4, -2, table, chi) is None
    bumped = CohomologyTable.from_dict({d: v + 1 for d, v in table.dims().items()})
    assert checks.check_cohomology_X(3, 4, -2, bumped, chi) is not None

    assert checks.check_ext_table_OY(2, homalg.ext_table_OY(2)) is None
    assert checks.check_ext_table_OY(2, CohomologyTable.from_dict({0: 1, 2: 2, 4: 1})) is not None
    assert checks.check_ext_table_OY(2, CohomologyTable.from_dict({0: 1, 2: 1})) is not None
    assert checks.check_koszul_euler_sum(3, 0) is None
    assert checks.check_koszul_euler_sum(3, 1) is not None

    system = homalg.ideal_cohomology_system(2)
    solution = homalg.chase_solve(system)
    assert checks.check_chase(system, solution) is None
    given = next(t.label for t in system.terms if t.dim)
    forged = dict(solution.values, **{given: solution.values[given] + 1})
    assert checks.check_chase(system, homalg.ChaseSolution(
        system, forged, solution.unsolved, solution.trace)) is not None

    reference = checks.load_verify_reference()
    key = "verify lemma-2-3 --n 4 --json"
    assert checks.check_cli_output(key, reference[key], (0, reference[key])) is None
    assert checks.check_cli_output(key, reference[key], (1, reference[key])) is not None
    altered = reference[key].replace('"PASS"', '"FAIL"')
    assert checks.check_cli_output(key, reference[key], (0, altered)) is not None


def _bindings():
    return {(m.__name__, k): v for m in tracer.flopcalc_modules() for k, v in vars(m).items()}


def test_tracer_restores_every_module_attribute():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert homalg.bott_cohomology is not before[("flopcalc.homalg", "bott_cohomology")]
        assert pbundle.cohomology_sum is not before[("flopcalc.pbundle", "cohomology_sum")]
        assert pbundle.tensor_with_sym is not before[("flopcalc.pbundle", "tensor_with_sym")]
        homalg.reference_chase_systems(2)
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_excludes_children():
    tracer.clear_caches()
    t = tracer.Tracer()
    t.install()
    try:
        pbundle.cohomology_X(XLineBundle(ModelVariety(3), 6, 1))
    finally:
        t.restore()
    summary = t.summary()
    calls, total, self_s = summary["pbundle.cohomology_X"]
    assert calls == 1
    assert 0 <= self_s < total
    assert summary["bwb.bott_cohomology"][0] == 7  # Sym^a Theta(1) for a = 0..6
    assert tracer.cache_stats()["bwb.bott_cohomology"] == (0, 7, 7)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_pass_is_correct_and_counts_repeat(tiny, name, tmp_path):
    pass_fn = workloads.prepare(name, seed=3)
    reports = []
    for mode in ("traced", "traced", "pass"):
        tracer.clear_caches()
        report = passes.worker_report(pass_fn, Clock(), mode, spans=tmp_path / "spans.tsv.gz")
        assert report["failures"] == []
        assert 0 < sum(report["op_s"]) <= report["wall_s"]
        reports.append(report)
    assert run.counts_of(reports[0]) == run.counts_of(reports[1])
    assert (tmp_path / "spans.tsv.gz").stat().st_size > 0
    assert reports[2]["warm_ops"] >= len(reports[2]["op_s"])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        value = run.layer_value(metric["name"], reports[:2], reports[2:])
        assert isinstance(value, (int, float))


def test_warm_pass_reuses_caches(tiny):
    pass_fn = workloads.prepare("cohomology-queries", seed=3)
    report = passes.worker_report(pass_fn, Clock(), "pass")
    assert report["failures"] == []
    assert len(report["warm_wall_s"]) >= 1
    misses = report["counts"]["pbundle.cohomology_X.misses"]
    assert tracer.cache_stats()["pbundle.cohomology_X"][1] == misses


def test_cohomology_queries_share_no_bott_weight():
    tracer.clear_caches()
    for n, j, k in workloads.query_classes(5):
        pbundle.cohomology_X(XLineBundle(ModelVariety(n), j, k))
    assert tracer.cache_stats()["bwb.bott_cohomology"][0] == 0


def test_clock_leaves_calibrations_out():
    clock = Clock()
    t0 = time.perf_counter()
    clock.calibrate()
    t1 = time.perf_counter()
    clock.calibrate()
    assert clock.raw(t0, t1) < t1 - t0
    assert clock.raw(clock.starts[0], clock.ends[0]) == 0
    assert clock.scaled(t0, t1) > 0


class InProcessRunner(run.Runner):
    """Runs each worker's pass in this process, at tiny sizes."""

    def spawn(self, mode, spans=None):
        report = {"import_s": 0.02, "raw_import_s": 0.03}
        if mode != "setup":
            tracer.clear_caches()
            pass_fn = workloads.prepare(self.workload, self.seed)
            report.update(passes.worker_report(pass_fn, Clock(), mode, spans))
            report["peak_rss_mb"] = 20.0
        return report


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_reports_every_metric(tiny, name, tmp_path, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = InProcessRunner(tmp_path, name, seed=4, seconds=0)
    runner.build_dir.mkdir(parents=True)

    groups, attempted, failures, metrics = run.measure(runner, spec)
    assert failures == [] and attempted > 0
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    assert len(groups[0]) == run.MIN_PASSES

    groups, attempted, failures, metrics = run.trace(runner, spec)
    assert failures == []
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["ops"]["value"] == len(groups[0][0]["op_s"])
    assert "fail_ratio" in capsys.readouterr().out


def test_tail_percentile():
    assert run.tail_percentile(68) == 85
    assert run.tail_percentile(437) == 97
    assert run.tail_percentile(12) == 50
    assert run.nearest_rank([1, 2, 3, 4], 50) == 2
    assert run.nearest_rank([1, 2, 3, 4], 97) == 4


def test_run_fails_without_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ext-chase", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
