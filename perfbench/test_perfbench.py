"""Tests of the benchmark itself: metric names, wrapper restoration, seeding,
and that a failing run is counted rather than dropped."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import tracing
import workloads
from frenetplan.evaluation import KinematicLimits

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.fixture(scope="module")
def baseline_runs(tmp_path_factory):
    """One short untraced invocation at two seeds and one traced invocation."""
    out = tmp_path_factory.mktemp("bench")
    short = dict(setup_samples=1, min_cycles=0)
    return {
        (seed, trace): harness.measure("replan_baseline", seed, 0, trace, out, **short)[0]
        for seed, trace in ((1, False), (2, False), (1, True))
    }


def test_untraced_metrics_are_the_declared_end_to_end_set(baseline_runs):
    result = baseline_runs[(1, False)]
    assert set(result["metrics"]) == declared("end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(v > 0 for v in result["metrics"].values())


def test_traced_metrics_are_the_declared_per_layer_set(baseline_runs):
    assert set(baseline_runs[(1, True)]["metrics"]) == declared("per_layer")


def test_cli_workload_traced_metric_names(tmp_path):
    result, _, problems = harness.measure(
        "cli_run", 3, 0, True, tmp_path, setup_samples=1, min_cycles=0
    )
    assert not problems
    assert set(result["metrics"]) == declared("per_layer")
    assert result["metrics"]["cli.output_bytes_per_run"] > 0
    assert result["metrics"]["cli.write_run_outputs.ms_per_run"] > 0


def test_seed_changes_scenarios_not_metric_names(baseline_runs):
    def scenarios(seed):
        jobs = workloads.build_jobs("replan_baseline", seed, ROOT)
        return {(j.scenario, j.seed): j.payload.to_dict() for j in jobs}

    one, two = scenarios(1), scenarios(2)
    assert len(one) == len(two) == workloads.N_SCENARIO_SEEDS * len(workloads.SCENARIO_KEYS)
    assert not set(one) & set(two)
    assert scenarios(1) == one
    assert set(baseline_runs[(1, False)]["metrics"]) == set(baseline_runs[(2, False)]["metrics"])


def test_wrappers_restore_originals_even_when_a_run_raises(tmp_path):
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracing.patched(tracer.replacements()):
            with pytest.raises(RuntimeError):
                tracing.assert_pristine()
            1 / 0
    tracing.assert_pristine()
    for (owner, attr), orig in tracing.ORIGINALS.items():
        assert owner.__dict__[attr] is orig


def test_traced_phase_leaves_no_wrapper_installed(tmp_path):
    jobs = workloads.build_jobs("replan_baseline", 0, ROOT)[:1]
    tracer = tracing.Tracer()
    harness.timed_phase("replan_baseline", jobs, 0, 0, tracer, tmp_path)
    tracing.assert_pristine()
    names = {s.name for s in tracer.spans}
    assert {tracing.CYCLE, "evaluation.check_candidate", "frenet_geometry.frame"} <= names


def test_forced_no_feasible_candidate_is_counted(tmp_path):
    jobs = workloads.build_jobs("replan_baseline", 0, ROOT)[:3]
    impossible = replace(jobs[0].payload, limits=KinematicLimits(v_max=1e-3))
    jobs[0] = replace(jobs[0], payload=impossible)
    ph = harness.timed_phase("replan_baseline", jobs, 0, 0, tracing.CycleClock(), tmp_path, 3)
    assert ph.attempted == 3 and ph.failed == 1 and ph.wrong == 0
    assert "NoFeasibleCandidate" in ph.problems[0]
    assert ph.runs_per_s == pytest.approx(2 / ph.busy_s)


def test_exits_nonzero_without_result_when_the_package_is_missing(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for src in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(src, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_run", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
