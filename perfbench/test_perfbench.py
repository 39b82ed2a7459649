"""The benchmark's own test: every workload, briefly, on a second seed.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(about three minutes).  Each workload runs once untraced and once traced;
the test checks that the output check passed and that every metric named
in ``BENCHMARK.json`` is printed with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any("hybrid identical to serial" in line for line in lines)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        printed = [line.split() for line in lines[:-1]]
        assert [m["name"], got["unit"]] in ([p[0], p[-1]] for p in printed if p)


def test_exits_nonzero_without_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_full_speed_seconds_scale_by_probe_slowdown() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from hostspeed import SpeedSampler

    speed = SpeedSampler(full_speed_probe_s=1e-3)
    speed.stop()
    # Probes at full speed (1 ms) until t=10, then twice as slow.
    speed.samples = [(t, 1e-3) for t in range(10)] + [(t, 2e-3) for t in range(10, 20)]
    assert speed.full_speed_s(0.0, 9.0) == pytest.approx(9.0)
    assert speed.full_speed_s(10.0, 19.0) == pytest.approx(4.5)
    assert speed.full_speed_s(5.0, 14.0) == pytest.approx(9.0 * 0.75)
    # A window without samples takes the whole run's mean speed.
    assert speed.speed(30.0, 31.0) == pytest.approx(0.75)
