"""Ablation of the ModeSwitches over the acceptance batch.

    PYTHONPATH=src python tools/ablation.py

Runs s1-s3 at the acceptance seeds and cycle count (``SUITE_SEEDS``,
``SUITE_CYCLES`` of ``tests/test_acceptance.py``) under (regulate,
momentum_weights) = (T, T) (proposed), (T, F) and (F, F) (baseline), and
prints one markdown table row per switch set: the criterion 6-8 metrics
against the baseline (the baseline row compares it with itself), computed as
the acceptance tests compute them, the number of runs that raised
NoFeasibleCandidate (their partial logs are kept), and the wall time of the
set's runs. Exits 1 after the table if any run failed. Takes about ten
seconds.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from frenetplan.errors import NoFeasibleCandidate  # noqa: E402
from frenetplan.replanning_sim import MODES, ModeSwitches, run  # noqa: E402
from frenetplan.scenarios import BUILDERS  # noqa: E402
from test_acceptance import (  # noqa: E402
    SAFETY_CONSTRAINTS,
    SUITE_CYCLES,
    SUITE_SEEDS,
    _candidate_rates,
    _dispersion_wins,
    _is_inserted,
    _jerk_reduced,
    _s2_rms_jerk,
)

SWITCH_SETS = (
    ("proposed (T, T)", MODES["proposed"]),
    ("regulate only (T, F)", ModeSwitches(True, False)),
    ("baseline (F, F)", MODES["baseline"]),
)


def run_batch(switches):
    """{scenario: [SimLog per seed]}, the failure count and the wall time."""
    logs, failed = {}, 0
    t0 = time.perf_counter()
    for name, builder in BUILDERS.items():
        logs[name] = []
        for seed in SUITE_SEEDS:
            try:
                logs[name].append(run(builder(seed=seed, n_cycles=SUITE_CYCLES), switches))
            except NoFeasibleCandidate as err:
                failed += 1
                logs[name].append(err.partial_log)
    return logs, failed, time.perf_counter() - t0


def criteria(variant, base):
    """Criterion 6-8 columns of ``variant`` against ``base`` (test_acceptance)."""
    suite = {name: {"proposed": variant[name], "baseline": base[name]} for name in base}
    wins, total = _dispersion_wins(suite)
    reduced, _ = _jerk_reduced(suite)
    rms_p, rms_b = _s2_rms_jerk(suite)
    overall_p, rates_p = _candidate_rates(suite, "proposed", lambda row: not _is_inserted(row))
    overall_b, _ = _candidate_rates(suite, "baseline", lambda row: not _is_inserted(row))
    return [
        f"{wins}/{total}",
        f"{reduced}/3",
        f"{rms_p / rms_b:.3f}",
        f"{abs(overall_p - overall_b) * 100:.1f} pp",
        " / ".join(f"{rates_p[c]:.3f}" for c in SAFETY_CONSTRAINTS),
    ]


def main() -> int:
    batches = {label: run_batch(switches) for label, switches in SWITCH_SETS}
    base_logs = batches[SWITCH_SETS[-1][0]][0]
    n_runs = len(BUILDERS) * len(SUITE_SEEDS)
    print(
        "| switches | crit 6 wins | crit 7 reduced | s2 RMS jerk ratio | crit 8 grid gap "
        f"| grid curv / yaw / curv-rate | failed runs | {n_runs} runs |"
    )
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for label, (logs, failed, wall) in batches.items():
        cols = criteria(logs, base_logs) + [str(failed), f"{wall:.1f} s"]
        print(f"| {label} | " + " | ".join(cols) + " |")
    return 1 if any(failed for _, failed, _ in batches.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
