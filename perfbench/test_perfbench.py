"""Tests of the benchmark itself, with every workload at a tiny size.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import blochsim.cli  # noqa: E402
import blochsim.evolve  # noqa: E402
import blochsim.observables  # noqa: E402
import blochsim.transpile  # noqa: E402
from blochsim.observables import ObservableSeries  # noqa: E402
from blochsim.transpile import BasisCircuit  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_every_workload():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    assert printed["fail_frac"] == "ratio"
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.0
        assert result["metrics"]["statevector.gates"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _shifted_probability_series(original):
    def probability_series(traj):
        s = original(traj)
        return ObservableSeries(s.kind, s.times, s.values + 1e-6, s.labels)
    return probability_series


def _shifted_site_probability(original):
    def site_probability(self, *sites):
        return original(self, *sites) + 1e-6
    return site_probability


def _csv_with_one_changed_amplitude(original):
    def write_trajectory_csv(traj, path):
        original(traj, path)
        lines = Path(path).read_text(encoding="ascii").splitlines()
        fields = lines[1].split(",")
        fields[2] = repr(float(fields[2]) + 1e-6)
        lines[1] = ",".join(fields)
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    return write_trajectory_csv


def _qasm_missing_last_op(original):
    def parse_qasm(text):
        c = original(text)
        return BasisCircuit(c.qubit_count, c.ops[:-1], c.global_phase)
    return parse_qasm


CORRUPTIONS = {
    "static-big": (blochsim.observables, "probability_series", _shifted_probability_series),
    "two-particle": (blochsim.evolve.Trajectory, "site_probability", _shifted_site_probability),
    "driven-cli": (blochsim.cli, "write_trajectory_csv", _csv_with_one_changed_amplitude),
    "lower-verify": (blochsim.transpile, "parse_qasm", _qasm_missing_last_op),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_output_counts_as_failed_op(workload, monkeypatch, tmp_path):
    target, attr, corrupt = CORRUPTIONS[workload]
    bench = WORKLOADS[workload](3, "tiny", tmp_path)
    clean = worker.measure(bench, 0, False, 1, time.monotonic() + 100)
    assert clean["failed"] == 0, clean["errors"]
    monkeypatch.setattr(target, attr, corrupt(getattr(target, attr)))
    result = worker.measure(bench, 0, False, 2, time.monotonic() + 100)
    assert result["attempted"] == 2
    assert result["failed"] == 2, result["errors"]
    assert all("check failed" in error for error in result["errors"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "static-big", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
