"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

It checks that each workload (``bootloader-boot`` too, which
``BENCHMARK.json`` leaves out of the timed set) reports every metric
``BENCHMARK.json`` declares, with its unit, and that the output checks
have teeth: a stubbed ``classify`` must show up as failed operations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import engine  # noqa: E402
import served  # noqa: E402
from repro.faults.classify import Outcome  # noqa: E402
from run import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "memcmp-skip": dict(setups=2, check=2, oracle=4),
    "bootloader-boot": dict(setups=1, check=1, oracle=0),
    "served-table3": dict(setups=1, reexecute=2, traces=4),
}


def run_tiny(name: str, trace: bool, seed: int = 1, seconds: float = 1.0):
    if name == "served-table3":
        return served.run(seed, seconds, trace, **TINY[name])
    return engine.run(name, seed, seconds, trace, **TINY[name])


def _always_masked(golden, faulted):
    return Outcome.MASKED


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_reported_with_its_unit(name, trace):
    report = run_tiny(name, trace)
    result = report.result()
    assert result["correct"], report.lines
    assert result["attempted"] > 0 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        metric: entry["unit"] for metric, entry in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["trace.coverage_pct"]["value"] >= 90
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_stubbed_classify_fails_the_reference_oracle(monkeypatch):
    import repro.faults.classify as classify_layer

    monkeypatch.setattr(classify_layer, "classify", _always_masked)
    report = engine.run("memcmp-skip", 1, 0.5, False, setups=1, check=2, oracle=8)
    assert report.failed_frac > 0
    assert not report.result()["correct"]


def test_stubbed_classify_fails_the_served_reexecution(monkeypatch):
    import repro.faults.isa_campaign as campaign

    monkeypatch.setattr(campaign, "classify", _always_masked)
    report = served.run(1, 0.5, False, setups=1, reexecute=2, traces=0)
    assert report.failed_frac > 0


def test_same_seed_gives_the_same_check_digest():
    first = engine.run("memcmp-skip", 3, 0.2, False, setups=2, check=4, oracle=0)
    second = engine.run("memcmp-skip", 3, 0.2, False, setups=1, check=4, oracle=0)
    assert first.digest == second.digest
    assert first.failed == second.failed == 0


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_command_prints_the_result_as_its_last_line():
    proc = _cli(ROOT, "--workload", "memcmp-skip", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli(tmp_path, "--workload", "memcmp-skip", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
