"""Tiny-size smoke test of the benchmark: every named metric is emitted, and
the correctness gate trips on a corrupted artifact or a wrong reference.

    python3 -m pytest bench/tests -q
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = 0.05


@pytest.fixture(autouse=True)
def _one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == [BENCH.name]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_named_metric_is_emitted(name, trace):
    result, _ = run.run_workload(name, seed=1, seconds=0, trace=trace, scale=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_each_call_gets_the_mean_of_the_calibrations_around_it():
    passes = iter([1.0, 2.0, 4.0, 8.0])
    runner = run.Runner("scsc-audit", 1, TINY)
    try:
        timed = runner.calls_for(float("inf"), max_calls=3, calibrate=lambda: next(passes))
    finally:
        runner.close()
    assert [c for _, _, c in timed] == [1.5, 3.0, 6.0]


def _corrupting_cmd_run(calls: list):
    from gdakit.harness.commands import cmd_run

    def cmd(cfg, out_dir):
        summary = cmd_run(cfg, out_dir)
        calls.append(out_dir)
        if len(calls) == 3:  # reference call, first timed call, then this one
            trace = sorted(Path(out_dir).glob("trace_seed*.csv"))[0]
            trace.write_bytes(trace.read_bytes() + b"\n")
        return summary

    return cmd


def test_corrupted_artifact_trips_the_gate(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 3)
    commands = {"cmd_run": _corrupting_cmd_run([])}
    result, _ = run.run_workload("scsc-seeds", 2, 0, False, scale=TINY, commands=commands)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 4


def test_reference_values_match_and_a_mismatch_trips_the_gate(monkeypatch, tmp_path):
    runner = run.Runner("scsc-seeds", 0)
    try:
        runner.reference_call()
        assert runner.failed == 0
        ref = json.loads(run.REFERENCE.read_text())
        key = sorted(ref["scsc-seeds"])[0]
        ref["scsc-seeds"][key] *= 1 + 1e-6
        bad = tmp_path / "reference.json"
        bad.write_text(json.dumps(ref))
        monkeypatch.setattr(run, "REFERENCE", bad)
        runner.reference_call()
        assert runner.failed == 1
    finally:
        runner.close()


def test_fails_without_a_program_to_build(tmp_path):
    copy = tmp_path / BENCH.name
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "scsc-seeds", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
