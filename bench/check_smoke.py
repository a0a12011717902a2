"""Smoke test of the benchmark harness on its cheap queries.

    python3 -m pytest -q bench/check_smoke.py

The file name keeps it out of the library's own test collection; it runs
each workload with ``--smoke`` (the queries marked cheap) in both modes and
checks the contract of the last output line against BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_last_line_follows_the_contract(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)
    env = json.loads(lines[0][len("env "):])
    assert env["seed"] == 1 and env["nproc"] >= 1 and env["python"]


def test_wrong_answer_fails_the_run(tmp_path):
    """A library that answers wrongly makes the run exit 1 with failed > 0."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    semigroup = tmp_path / "src" / "lamrho" / "semigroup.py"
    text = semigroup.read_text(encoding="utf-8")
    broken = text.replace("if p.classes not in seen:", "if p.classes not in seen and len(seen) < 2:")
    assert broken != text
    semigroup.write_text(broken, encoding="utf-8")
    proc = run_bench("--workload", "decompose", "--seed", "1", "--seconds", "1", "--smoke",
                     cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_checkout_without_sources_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "tables", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert not proc.stdout.strip()


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", os.path.abspath(__file__)]))
