"""Fast self-test of the layer-ledger benchmark (toy sizes, seconds).

Runs every workload at toy size through the benchmark's own command and
checks the result line against ``BENCHMARK.json``: every metric named
there is emitted with its unit, untraced and traced.  Tampered outputs
(a journal record, a best response, a cost vector) must fail the run
through its correctness checks, so they show up in ``failed_frac``.
Nothing here runs the full-size benchmark or touches
``benchmarks/results/``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]


def _run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, *BENCH["command"][1:]]
    command += ["--workload", workload, "--seed", "3", "--seconds", "0.3"]
    command += ["--trace", str(trace), "--size", "toy", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(completed):
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    completed = _run(workload, trace)
    result = _result(completed)
    # A loaded host may delay the request generator past its limit; that
    # marks the run invalid without any output being wrong.
    verdict = next(line for line in completed.stdout.splitlines() if line.startswith("verdict: "))
    problems = verdict.partition("INCORRECT: ")[2].split("; ")
    assert result["correct"] or all(p.startswith("generator ran") for p in problems), verdict
    assert result["failed"] == 0, completed.stdout
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == expected
    values = [metric["value"] for metric in result["metrics"].values()]
    assert all(isinstance(value, (int, float)) for value in values)
    if not trace:
        assert all(value > 0 for value in values), result["metrics"]
    assert "teardown: clean" in completed.stdout


@pytest.mark.parametrize(
    "workload, tamper",
    [("serve-read", "journal"), ("sweep", "response"), ("churn-socket", "costs")],
)
def test_tampered_output_counts_every_op_as_failed(workload, tamper):
    completed = _run(workload, 0, "--tamper", tamper)
    result = _result(completed)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]  # failed_frac == 1
    assert "verdict: INCORRECT" in completed.stdout


def test_fails_without_the_library(tmp_path):
    """From a tree holding only the benchmark: nonzero exit, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    completed = _run("sweep", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
