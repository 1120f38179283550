"""Self-test of the benchmark: run each workload briefly on the package in
`src/` and check the verdicts, the determinism of the inputs, the metric
set and the per-layer shares each workload was chosen for.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("construct", "verify", "decide")
END_TO_END = {
    "setup_s": "s", "requests_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "failed_ratio": "ratio", "verdict_mismatches": "count", "peak_rss_mb": "MB",
}


def run(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = (float(parts[1]), parts[2])
    header = next(line for line in lines if line.startswith("workload "))
    digest = header.split("digest ")[1]
    return json.loads(lines[-1]), printed, digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_deterministic_and_complete(workload):
    result, printed, digest = run(workload, 3, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in END_TO_END.items():
        assert printed[name][1] == unit
    assert printed["verdict_mismatches"][0] == 0
    assert printed["failed_ratio"][0] == 0
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        assert metric["value"] > 0
    again, _, digest_again = run(workload, 3, 0)
    assert digest_again == digest
    other, _, digest_other = run(workload, 4, 0)
    assert digest_other != digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_stresses_its_layer(workload):
    result, printed, _ = run(workload, 5, 1, seconds=2)
    assert result["correct"] is True and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    expected = (set(tracing.SELF_TIME_METRICS) | set(tracing.COUNT_METRICS)
                | {"heis.mc.resample_ratio", "trace.overhead_ratio"})
    assert set(metrics) == expected
    assert all(printed[name][1] == result["metrics"][name]["unit"] for name in metrics)
    shares = tracing.layer_shares(metrics)
    if workload == "construct":
        assert max(shares, key=shares.get) == "flows"
        assert metrics["flows.calls"] > 0 and metrics["lattices.cells"] > 0
    elif workload == "verify":
        assert metrics["flows.calls"] == 0
        assert metrics["heis.mc.samples"] > 0 and metrics["dirichlet.calls"] > 0
    else:
        front = shares.pop("cli") + shares.pop("jsonio")
        assert front > max(shares.values())
        assert metrics["cli.exit.0"] and metrics["cli.exit.2"] and metrics["cli.exit.3"]
        assert metrics["finite.oracle.probes"] > 0


def test_refuses_to_run_without_package_sources():
    """Copied away from src/, the benchmark exits non-zero with no result."""
    alone = os.path.join(ROOT, ".perfbench_work", f"alone-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "decide",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=alone, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(alone, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
