"""Smoke test: every workload at toy size through the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric(workload, trace, tmp_path, capsys):
    record = harness.run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                          "--trace", str(trace), "--size", "tiny"], out_root=tmp_path)
    result = record["result"]
    expected = ({n: u for n, u, _, _ in harness.END_TO_END} if trace == 0
                else {n: u for n, u, _ in harness.PER_LAYER})
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["extra"]["failed_frac"] == 0.0
    assert record["env"]["seed"] == 3 and record["env"]["audio_sec"] > 0

    harness.print_record(record)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}

    if trace:
        header, *spans = [json.loads(line) for line in open(record["spans"])]
        assert header["env"] == record["env"]
        by_id = {s["id"]: s for s in spans}
        ops = [s for s in spans if s["name"] == "bench.op"]
        assert ops and all(s["parent"] == -1 for s in ops)
        for s in spans:
            assert s["start"] <= s["end"]
            if s["parent"] != -1:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
                assert parent["run"] == s["run"]


def test_manifest_matches_benchmark_json():
    committed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert committed == harness.manifest()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fedsim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
