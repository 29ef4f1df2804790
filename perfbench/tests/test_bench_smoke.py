"""Tiny runs of every workload: each named metric is printed with its unit."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, argv):
    assert run.main(argv, small=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    return detail, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    detail, result = _result(capsys, argv)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert detail["seed"] == 3
    if trace:
        assert detail["zero_call_violations"] == []


def test_without_program_fails(tmp_path):
    # Only BENCHMARK.json and the benchmark's files: no result, nonzero exit.
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / workloads.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{workloads.HERE.name}/run.py", "--workload",
         "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
