"""Acceptance gate: one test per criterion, each at its stated tolerance.

Criteria 6-8 share one session-scoped batch of closed-loop runs over the
bundled synthetic suite (3 scenarios x 20 seeds x both modes). Every test
prints a single PASS line; a failed assertion surfaces as the usual pytest
failure with the measured numbers.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from frenetplan.cli import main as cli_main
from frenetplan.endpoint_regulation import (
    RegulationConfig,
    enforce_spacing,
    sort_by_terminal,
)
from frenetplan.evaluation import Constraint
from frenetplan.frenet_geometry import FrenetState, cartesian_to_frenet, curvature_at, frenet_to_cartesian
from frenetplan.momentum_optimizer import OptimizerConfig, cost_gradient, optimize_trajectory
from frenetplan.quintic_sampling import SamplingGrid, generate_cluster, solve_quintic
from frenetplan.replanning_sim import run
from frenetplan.scenarios import BUILDERS, straight_crossing

from conftest import active_context, circle_path, random_candidate, s_curve_path, straight_path
from test_momentum_optimizer import rebuilt_positions_cost
from test_quintic_sampling import oracle_eval, oracle_solve

REPO = Path(__file__).resolve().parent.parent

SUITE_SEEDS = range(20)
SUITE_CYCLES = 5
SAFETY_CONSTRAINTS = (Constraint.CURVATURE, Constraint.YAW_RATE, Constraint.CURVATURE_RATE)


@pytest.fixture(scope="session")
def suite_logs():
    """Closed-loop runs of the synthetic suite in both modes."""
    t0 = time.perf_counter()
    logs = {}
    for name, builder in BUILDERS.items():
        per_mode = {"proposed": [], "baseline": []}
        for seed in SUITE_SEEDS:
            scenario = builder(seed=seed, n_cycles=SUITE_CYCLES)
            for mode in per_mode:
                per_mode[mode].append(run(scenario, mode))
        logs[name] = per_mode
    print(f"\n[suite] {3 * len(SUITE_SEEDS) * 2} runs in {time.perf_counter() - t0:.1f} s")
    return logs


def _pooled_jerk(logs, mode):
    lon = np.abs(np.concatenate([r.jerk_lon for log in logs[mode] for r in log.cycles]))
    lat = np.abs(np.concatenate([r.jerk_lat for log in logs[mode] for r in log.cycles]))
    return lon, lat


def _iqr(values):
    hi, lo = np.percentile(values, [75, 25])
    return float(hi - lo)


def test_criterion_1_quintic_boundary_satisfaction():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        b0 = tuple(rng.uniform(-5, 5, size=3))
        bT = tuple(rng.uniform(-5, 5, size=3))
        span = float(rng.uniform(0.3, 5.0))
        coeffs = solve_quintic(b0, bT, span)
        for x, b in ((0.0, b0), (span, bT)):
            value = oracle_eval(coeffs, x)
            worst = max(worst, *(abs(value[k] - b[k]) for k in range(3)))
    rest = solve_quintic((0, 0, 0), (1, 0, 0), 1.0)
    assert np.allclose(rest, [0, 0, 0, 10, -15, 6], atol=1e-9)
    assert np.allclose(oracle_solve((0, 0, 0), (1, 0, 0), 1.0), rest, atol=1e-9)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: 1000 boundary problems, residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_frenet_roundtrip():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    paths = [straight_path(25.0)]
    paths += [circle_path(radius) for radius in (0.5, 2.0, 10.0)]
    paths.append(s_curve_path())
    worst = 0.0
    per_path = 100  # 5 paths x 100 points
    for path in paths:
        for _ in range(per_path):
            s = float(rng.uniform(0.05, 0.95) * path.total_length)
            kappa = curvature_at(path, s)
            d_max = min(0.8, 0.7 / abs(kappa)) if kappa else 0.8
            d = float(rng.uniform(-d_max, d_max))
            point = frenet_to_cartesian(path, s, d)
            s2, d2 = cartesian_to_frenet(path, point)
            worst = max(worst, abs(s2 - s), abs(d2 - d))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 PASS: 500 roundtrips, worst error {worst:.2e} m, {elapsed:.2f} s")


def test_criterion_3_gradient_check():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    path = straight_path(30.0)
    config = OptimizerConfig(mass=1.0, accel_weight=0.1, uncertainty_weight=0.05,
                             terminal_weight=0.0)
    worst = 0.0
    checked = 0
    while checked < 50:
        candidate = random_candidate(rng, dt=0.1, horizon=1.0)
        if candidate is None:
            continue
        ctx = active_context(path, rng)
        positions = np.column_stack([candidate.states[:, 0], candidate.states[:, 3]])
        grad = cost_gradient(candidate, ctx, config, positions=positions)
        h = 1e-6
        for row in range(grad.shape[0]):
            for axis in (0, 1):
                plus = positions.copy()
                plus[2 + row, axis] += h
                minus = positions.copy()
                minus[2 + row, axis] -= h
                fd = (
                    rebuilt_positions_cost(candidate, plus, ctx, config)
                    - rebuilt_positions_cost(candidate, minus, ctx, config)
                ) / (2 * h)
                rel = abs(grad[row, axis] - fd) / max(abs(fd), 1e-6)
                worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3 PASS: 50 gradient checks, worst rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_4_descent_and_boundary_preservation():
    rng = np.random.default_rng(104)
    path = straight_path(30.0)
    config = OptimizerConfig(max_iters=10)
    done = 0
    while done < 100:
        candidate = random_candidate(rng, dt=0.1)
        if candidate is None:
            continue
        ctx = active_context(path, rng)
        refined = optimize_trajectory(candidate, ctx, candidate, config)
        history = refined.cost_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        assert np.max(np.abs(refined.states[0] - candidate.states[0])) <= 1e-9
        assert np.max(np.abs(refined.states[-1] - candidate.states[-1])) <= 1e-9
        done += 1
    print("ACCEPTANCE 4 PASS: 100 refinements, non-increasing cost, endpoint drift 0")


def test_criterion_5_spacing_postcondition():
    rng = np.random.default_rng(105)
    path = straight_path(40.0)
    config = RegulationConfig(max_gap=0.6, min_gap=0.1)
    flagged = 0
    for _ in range(100):
        initial = FrenetState(1.0, float(rng.uniform(0.7, 1.2)), 0.0,
                              float(rng.uniform(-0.2, 0.2)), 0.0, 0.0)
        grid = SamplingGrid(
            tuple(np.sort(rng.uniform(0.6, 1.4, size=3))),
            tuple(np.sort(rng.uniform(-0.9, 0.9, size=4))),
            (2.0, 3.0),
            0.05,
        )
        cluster = sort_by_terminal(generate_cluster(initial, path, grid))
        repaired = enforce_spacing(cluster, config, grid)
        gaps = np.linalg.norm(np.diff(repaired.terminals, axis=0), axis=1)
        if repaired.spacing_budget_exhausted:
            flagged += 1
            continue
        assert np.all(gaps >= config.min_gap - 1e-12)
        assert np.all(gaps <= config.max_gap + 1e-12)
        again = enforce_spacing(repaired, config, grid)
        assert len(again.candidates) == len(repaired.candidates)
        assert np.array_equal(again.terminals, repaired.terminals)
    print(f"ACCEPTANCE 5 PASS: 100 clusters repaired, {flagged} budget-flagged, idempotent")


def _dispersion_wins(suite_logs):
    """(runs whose mean within-cluster nn_std is lower under proposed, runs)."""
    wins = total = 0
    for logs in suite_logs.values():
        for lp, lb in zip(logs["proposed"], logs["baseline"]):
            p = np.mean([r.nn_stats.nn_std for r in lp.cycles if r.nn_stats])
            b = np.mean([r.nn_stats.nn_std for r in lb.cycles if r.nn_stats])
            wins += p < b
            total += 1
    return wins, total


def _jerk_reduced(suite_logs):
    """(scenarios whose pooled |jerk| median and IQR drop on both axes under
    proposed, one "name:reduced|mixed" entry per scenario)."""
    reduced = 0
    summary = []
    for name, logs in suite_logs.items():
        lon_p, lat_p = _pooled_jerk(logs, "proposed")
        lon_b, lat_b = _pooled_jerk(logs, "baseline")
        ok = (
            np.median(lon_p) < np.median(lon_b)
            and np.median(lat_p) < np.median(lat_b)
            and _iqr(lon_p) < _iqr(lon_b)
            and _iqr(lat_p) < _iqr(lat_b)
        )
        reduced += ok
        summary.append(f"{name}:{'reduced' if ok else 'mixed'}")
    return reduced, summary


def _s2_rms_jerk(suite_logs):
    """(proposed, baseline) RMS of the pooled lon+lat jerk in the bump scenario."""
    rms = []
    for mode in ("proposed", "baseline"):
        lon, lat = _pooled_jerk(suite_logs["s2"], mode)
        rms.append(float(np.sqrt(np.mean(np.concatenate([lon, lat]) ** 2))))
    return tuple(rms)


def test_criterion_6_dispersion_trend(suite_logs):
    wins, total = _dispersion_wins(suite_logs)
    assert wins >= 0.8 * total, f"nn_std lower in only {wins}/{total} runs"
    print(f"ACCEPTANCE 6 PASS: within-cluster nn_std lower in {wins}/{total} runs (>= 80%)")


def test_criterion_7_jerk_trend(suite_logs):
    reduced, summary = _jerk_reduced(suite_logs)
    rms_p, rms_b = _s2_rms_jerk(suite_logs)
    assert reduced >= 2, f"median+IQR reduced in only {reduced}/3 scenarios ({summary})"
    assert rms_p <= 0.9 * rms_b, f"bump-scenario RMS jerk {rms_p:.3f} vs {rms_b:.3f}"
    print(
        f"ACCEPTANCE 7 PASS: median+IQR reduced in {reduced}/3 scenarios; "
        f"bump RMS jerk -{100 * (1 - rms_p / rms_b):.1f}%"
    )


def _is_inserted(row):
    """True for a candidate row that spacing repair added to the cluster."""
    return row["key"][-1] == "inserted"


def _candidate_rates(suite_logs, mode, keep):
    """Feasible fraction and per-constraint violation fractions over the
    candidate rows of every cycle in ``mode`` that ``keep`` accepts."""
    rows = [
        row
        for logs in suite_logs.values()
        for log in logs[mode]
        for rec in log.cycles
        for row in rec.candidates
        if keep(row)
    ]
    n = len(rows)
    overall = sum(row["feasible"] for row in rows) / n
    rates = {c: sum(c.value in row["violations"] for row in rows) / n for c in SAFETY_CONSTRAINTS}
    return overall, rates


def test_criterion_8_safety_trend(suite_logs):
    # Regulation keeps every grid candidate and adds spacing-repair
    # candidates between them, so the proposed cluster holds more, and
    # more interior, candidates than the raw one. The overall clause
    # compares the two modes on the grid triples both of them sample.
    for name, logs in suite_logs.items():
        for lp, lb in zip(logs["proposed"], logs["baseline"]):
            assert len(lp.cycles) == len(lb.cycles), f"{name} seed {lp.seed}: cycle counts differ"
            for rp, rb in zip(lp.cycles, lb.cycles):
                grid_p = sorted(tuple(row["key"]) for row in rp.candidates if not _is_inserted(row))
                grid_b = sorted(tuple(row["key"]) for row in rb.candidates if not _is_inserted(row))
                assert grid_p == grid_b, (
                    f"{name} seed {lp.seed} cycle {rp.cycle}: regulation changed the grid "
                    f"candidates ({len(grid_p)} proposed vs {len(grid_b)} baseline), so the "
                    "overall clause would compare different candidate sets"
                )

    modes = ("proposed", "baseline")
    pooled = {mode: _candidate_rates(suite_logs, mode, lambda row: True) for mode in modes}
    grid = {mode: _candidate_rates(suite_logs, mode, lambda row: not _is_inserted(row)) for mode in modes}
    inserted_p, _ = _candidate_rates(suite_logs, "proposed", _is_inserted)
    overall_p, overall_b = grid["proposed"][0], grid["baseline"][0]
    gap_pp = abs(overall_p - overall_b) * 100

    def per_constraint(population):
        return ", ".join(
            f"{c.value} {population['proposed'][1][c]:.3f}/{population['baseline'][1][c]:.3f}"
            for c in SAFETY_CONSTRAINTS
        )

    measured = (
        f"overall proposed/baseline: grid-origin {overall_p:.3f}/{overall_b:.3f} "
        f"(gap {gap_pp:.1f} pp), pooled {pooled['proposed'][0]:.3f}/{pooled['baseline'][0]:.3f}, "
        f"repair-inserted {inserted_p:.3f}"
    )
    print(
        f"ACCEPTANCE 8 measured: {measured}; per-constraint pooled {per_constraint(pooled)}; "
        f"grid-origin {per_constraint(grid)}"
    )
    for label, population in (("pooled", pooled), ("grid-origin", grid)):
        for c in SAFETY_CONSTRAINTS:
            p, b = population["proposed"][1][c], population["baseline"][1][c]
            assert p <= b, f"{label} {c.value} rate higher under proposed: {p:.3f} > {b:.3f}"
    assert gap_pp <= 5.0, f"grid-origin overall feasibility gap exceeds 5 pp; {measured}"
    print("ACCEPTANCE 8 PASS: constraint rates no higher, grid-origin overall within 5 pp")


def test_criterion_9_splice_continuity():
    for mode in ("proposed", "baseline"):
        log = run(straight_crossing(seed=0, n_cycles=20), mode)
        assert len(log.splices) == 19
        for splice in log.splices:
            assert splice["position_gap"] == 0.0
            assert splice["velocity_gap"] == 0.0
            assert splice["acceleration_gap"] <= 1e-9
    print("ACCEPTANCE 9 PASS: 20-cycle splices exact in position/velocity, accel <= 1e-9")


def test_criterion_10_cli_determinism(tmp_path):
    scenario = REPO / "scenarios" / "s3.json"
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["run", str(scenario), "--seed", "7", "--out", str(out1)]) == 0
    assert cli_main(["run", str(scenario), "--seed", "7", "--out", str(out2)]) == 0
    data_files = ("simlog.json", "profiles.csv", "jerk_stats.csv",
                  "endpoint_nn.csv", "feasibility.csv")
    for name in data_files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["scenario_sha256"] == hashlib.sha256(scenario.read_bytes()).hexdigest()
    assert manifest["seed"] == 7
    assert set(manifest["outputs"]) == set(data_files)
    print("ACCEPTANCE 10 PASS: repeated runs byte-identical; manifest hash validates")
