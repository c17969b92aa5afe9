"""Smoke test of the benchmark itself.

    python3 -m pytest bench -q

Runs every workload at its minimum size, untraced and traced, and checks
that each metric BENCHMARK.json names is emitted with its unit; then
checks that the correctness gates count corrupted outputs as failures.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from pingpong import metrics, protocol, search  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_with_its_unit(name, trace):
    result, details, host = run.measure(name, seed=1, seconds=0.2, trace=trace, small=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {key: entry["unit"] for key, entry in result["metrics"].items()} == wanted
    assert all(math.isfinite(entry["value"]) for entry in result["metrics"].values())
    assert details["error_rate"][0] == 0.0
    assert host["nproc"] >= 1
    if trace and name == "report-mix":
        values = {key: entry["value"] for key, entry in result["metrics"].items()}
        assert values["qlinalg.eigvalsh_per_eval.simplified_iz"] == 21
        assert values["qlinalg.eigvalsh_per_eval.bell_paulis"] == 30


def test_report_gate_fails_a_shifted_i0c():
    config = protocol.make_config("simplified")
    spec = search.sample_random_attack(2, 5)
    report = metrics.information_report(spec, config)
    assert workloads.report_failures(report, spec, config, check_oracle=True) == []
    shifted = dataclasses.replace(report, i0c=report.i0c + 1e-6)
    assert workloads.report_failures(shifted, spec, config, check_oracle=True)


def test_sweep_gate_fails_a_shifted_best_value(tmp_path):
    sweep = workloads.SweepCanonical(seed=1, workdir=tmp_path, small=True)
    assert sweep.op(0, in_process=True).failed == 0
    header, first, *rest = sweep.csv.read_text().splitlines()
    fields = first.split(",")
    assert fields[2] == "i0t"
    fields[3] = repr(float(fields[3]) + 1e-6)
    sweep.csv.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    failed, _, _ = workloads.sweep_failures(0, sweep.csv, len(search.OBJECTIVES))
    assert failed == 1


def test_cli_report_gate_fails_a_shifted_value():
    spec = search.sample_random_attack(2, 5)
    report = metrics.information_report(spec, protocol.make_config("simplified"))
    payload = {k: getattr(report, k) for k in ("d", "i0t", "i0a", "i0c", "holevo_t", "holevo_c")}
    assert workloads.report_json_ok(json.dumps(payload), report)
    payload["i0c"] += 1e-6
    assert not workloads.report_json_ok(json.dumps(payload), report)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
