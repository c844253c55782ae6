"""Fast self-check of the benchmark: every workload at 40 relays.

    python3 -m pytest perfbench/tests -q

Checks the result line's schema, that the run's own output checks pass,
and that every metric BENCHMARK.json names is reported with its unit:
the end-to-end metrics untraced, the per-layer metrics traced.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(tmp_path, workload: str, trace: int, seed: int = 3) -> dict:
    return json.loads(run_stdout(tmp_path, workload, trace, seed).splitlines()[-1])


def run_stdout(tmp_path, workload: str, trace: int, seed: int = 3) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--relays", "40"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout.strip()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema_and_metric_names(tmp_path, workload, trace):
    result = run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_traced_responses_are_the_load_clients_requests(tmp_path):
    """On serve-mirror the downstream collector also reads from the
    mirror; only the load client's requests count as served."""
    out = run_stdout(tmp_path, "serve-mirror", 1)
    sent = next(int(line.split()[3].rstrip(",")) for line in out.splitlines()
                if line.startswith("traced requests sent "))
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    responded = sum(metrics[f"dirserver.respond.{cls}.calls"]["value"]
                    for cls in ("consensus", "batch", "bulk", "index", "status"))
    assert sent > 0 and responded == sent


def test_counts_repeat_for_one_seed(tmp_path):
    first = run(tmp_path, "collect-live", 0, seed=5)
    second = run(tmp_path, "collect-live", 0, seed=5)
    assert first["metrics"]["requests"] == second["metrics"]["requests"]
    assert first["attempted"] == second["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    """Outside a checkout (no src/) the benchmark fails without a result."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for source in BENCH.glob("*.py"):
        (copy / source.name).write_bytes(source.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
