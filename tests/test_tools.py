import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ABTEST = ROOT / "tools" / "abtest.py"


def abtest(a, b, mode):
    """``tools/abtest.py`` over 3 timed jobs, as its own process: it imports
    each side's package under a name of its own."""
    return subprocess.run(
        [sys.executable, str(ABTEST), str(a), str(b), "--mode", mode, "--runs", "3"],
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("mode", ["proposed", "baseline", "cli"])
def test_abtest_runs_the_checkout_against_itself(mode):
    out = abtest(ROOT, ROOT, mode)
    assert out.returncode == 0, out.stderr
    assert f"{mode}: 3 jobs per side, outputs equal on every job" in out.stdout
    assert "per-run ratio A/B: median" in out.stdout


def test_abtest_cli_mode_compares_the_data_files(tmp_path):
    # a checkout whose bundled s1 paces differently writes other files
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src")
    shutil.copytree(ROOT / "scenarios", other / "scenarios")
    s1 = other / "scenarios" / "s1.json"
    data = json.loads(s1.read_text())
    data["assistive"]["target_speed"] += 0.1
    s1.write_text(json.dumps(data))
    out = abtest(ROOT, other, "cli")
    assert out.returncode == 1
    assert "s1 at seed 0 differs between A and B" in out.stderr
