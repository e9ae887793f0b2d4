"""Tests of the benchmark itself, in quick mode (tiny shapes, seconds per run).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import speed  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=180,
    )


def quick_run(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_is_correct_and_complete(workload, trace):
    detail, result = quick_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in names)
    assert {"nproc", "python", "numpy", "numba_present"} <= set(detail["machine"])
    assert detail["inputs"] and detail["limits"]


def test_survey_serial_trace_accounts_for_the_pass():
    detail, result = quick_run("survey-serial", 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["chessboard.representative_calls"] == m["sign_core.masks_calls"] > 0
    assert m["sign_core.count_pairs"] > 0 and m["sign_core.block_bytes"] > 0
    assert m["survey.chunks"] >= 2 and m["travels.f_calls"] == 0
    assert detail["trace_detail"]["unwrapped"] == []


def test_pool_checkpoint_trace_sees_writes_and_the_resume_read():
    _, result = quick_run("survey-pool-checkpoint", 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["survey.checkpoint_writes"] == m["survey.chunks"] > 1
    assert m["survey.checkpoint_bytes_written"] > 0
    assert m["survey.checkpoint_read_s"] > 0 and m["survey.pool_speedup"] > 0


def test_seed_picks_the_inputs_and_repeats_them():
    a, _ = quick_run("fcount-large", 0, seed=5)
    b, _ = quick_run("fcount-large", 0, seed=5)
    c, _ = quick_run("fcount-large", 0, seed=6)
    assert a["inputs"] == b["inputs"] != c["inputs"]


def test_a_wrong_answer_is_counted_as_failed(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src")
    shutil.copytree(HERE, tree / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    formulas = tree / "src" / "lomlab" / "formulas.py"
    formulas.write_text(formulas.read_text().replace(
        "return 2 * sum(comb(n - 1, i) for i in range(r - 2 * k))",
        "return 2 * sum(comb(n - 1, i) for i in range(r - 2 * k)) + 2",
    ))
    proc = bench(tree, "--workload", "fcount-large", "--seed", "1", "--seconds", "0.2",
                 "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_probe_takes_its_reference_runs_out_of_the_call():
    probe = speed.SpeedProbe("small")
    probe.burst()
    t0 = time.perf_counter()
    out, net, norm, runs = probe.time_call(lambda: time.sleep(0.8) or "done", True)
    elapsed = time.perf_counter() - t0
    assert out == "done" and runs == len(probe.samples) >= 2
    assert probe.spent == sum(probe.samples)
    assert 0 <= elapsed - (net + probe.spent) < 0.01
    assert probe.latest == statistics.median(probe.samples)
    assert norm == net * probe.nominal_s / probe.latest
    before = probe.latest
    _, net, norm, runs = probe.time_call(lambda: time.sleep(0.3), False)
    assert runs == 0 and 0.3 <= net < 0.35
    assert norm == net * probe.nominal_s / ((before + probe.latest) / 2)
