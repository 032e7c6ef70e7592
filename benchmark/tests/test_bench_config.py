"""BENCHMARK.json agrees with the code, and a run without the program fails.

    python3 -m pytest benchmark/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from run import END_TO_END  # noqa: E402
from worker import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_listed_workloads_exist():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(WORKLOADS)


def test_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_snapshot_covers_every_workload():
    snapshot = json.loads((BENCH / "snapshot.json").read_text())
    assert sorted(snapshot) == sorted(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mol-ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
