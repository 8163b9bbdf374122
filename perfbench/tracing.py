"""Span recording around the public functions of each blochsim layer.

Wrappers replace the module attributes that callers look up at call time
(``blochsim.evolve.apply_gate_to_array``, ``blochsim.cli.run``, ...). They
are installed for one traced op and removed after it, so untraced ops run
the program unmodified. Nothing under ``src/`` is edited.

A span holds its name, start, end and parent span. Spans stay in memory
until the run ends; counts are recorded at the same boundaries. Self time
is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

KERNEL = "statevector.apply_gate"
BUILD = "circuits.build"
UNITARY = "circuits.unitary"
RUN = "evolve.run"
CSV = "evolve.csv"
SERIES = "observables.series"
SERIES_CSV = "observables.series_csv"
DECOMPOSE = "transpile.decompose"
COUNT = "transpile.count"
QASM_EMIT = "transpile.qasm_emit"
QASM_PARSE = "transpile.qasm_parse"
BASIS_UNITARY = "transpile.basis_unitary"
HAMILTONIAN = "oracles.hamiltonian"
PROPAGATOR = "oracles.propagator"
CLI_MAIN = "cli.main"
CLI_PARSE = "cli.parse"
CLI_SCENARIO = "cli.scenario"

#: Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "statevector.gates": "count",
    "statevector.controlled_gates": "count",
    "statevector.diagonal_gates": "count",
    "statevector.amp_updates": "count",
    "statevector.busy_s": "s",
    "statevector.ns_per_amp_gate": "ns",
    "statevector.bytes_computed": "B",
    "circuits.step_builds": "count",
    "circuits.gates_built": "count",
    "circuits.build_s": "s",
    "circuits.step_cache_hit_ratio": "ratio",
    "circuits.unitary_calls": "count",
    "circuits.unitary_s": "s",
    "evolve.steps": "count",
    "evolve.run_s": "s",
    "evolve.run_self_s": "s",
    "evolve.csv_s": "s",
    "evolve.csv_rows": "count",
    "evolve.csv_bytes": "B",
    "observables.series_s": "s",
    "observables.series_csv_s": "s",
    "observables.series_rows": "count",
    "transpile.decompose_s": "s",
    "transpile.basis_ops": "count",
    "transpile.cx": "count",
    "transpile.count_s": "s",
    "transpile.qasm_emit_s": "s",
    "transpile.qasm_parse_s": "s",
    "transpile.qasm_bytes": "B",
    "transpile.basis_unitary_s": "s",
    "transpile.basis_unitary_kernel_calls": "count",
    "oracles.hamiltonian_s": "s",
    "oracles.eigh_calls": "count",
    "oracles.propagator_s": "s",
    "oracles.dense_dim": "count",
    "oracles.step_err": "norm",
    "cli.parse_s": "s",
    "cli.scenario_s": "s",
    "cli.artifact_bytes": "B",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_ranges: list[tuple[int, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op_first = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn, after=None):
        name_id = self._intern(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _kernel(self, fn):
        from blochsim.statevector import ControlledGate

        name_id = self._intern(KERNEL)
        counts = self.counts

        def apply_gate_to_array(amps, n_qubits, gate):
            idx = self._open(name_id)
            try:
                fn(amps, n_qubits, gate)
            finally:
                self._close(idx)
            size = amps.size
            if isinstance(gate, ControlledGate):
                counts["statevector.controlled_gates"] += 1
                touched = size >> len(gate.controls)
            else:
                counts["statevector.diagonal_gates"] += 1
                touched = size
            counts["statevector.amp_updates"] += size
            # computed, not measured: each touched complex128 read once, written once
            counts["statevector.bytes_computed"] += 32 * touched

        return apply_gate_to_array

    def _targets(self):
        from blochsim import circuits, cli, evolve, observables, oracles, transpile
        from blochsim.transpile import CXGate

        def gates_built(c, args, circuit):
            c["circuits.gates_built"] += len(circuit.ops)

        def steps(c, args, traj):
            c["evolve.steps"] += args[2].n_steps

        def csv_written(c, args, _):
            traj, path = args
            c["evolve.csv_rows"] += traj.probabilities.size
            c["evolve.csv_bytes"] += os.path.getsize(path)

        def series_rows(c, args, series):
            c["observables.series_rows"] += series.times.size

        def lowered(c, args, basis):
            c["transpile.basis_ops"] += len(basis.ops)
            c["transpile.cx"] += sum(type(op) is CXGate for op in basis.ops)

        def qasm_bytes(c, args, text):
            c["transpile.qasm_bytes"] += len(text)

        def dense_dim(c, args, _):
            c["oracles.dense_dim"] = max(c["oracles.dense_dim"], len(args[0]))

        def artifacts(c, args, names):
            out = Path(args[1])
            c["cli.artifact_bytes"] += sum(os.path.getsize(out / name) for name in names)

        spans = [
            (evolve, "build_trotter_step", BUILD, gates_built),
            (evolve, "build_two_particle_step", BUILD, gates_built),
            (cli, "build_trotter_step", BUILD, gates_built),
            (cli, "build_two_particle_step", BUILD, gates_built),
            (circuits, "build_two_particle_step", BUILD, gates_built),
            (circuits, "circuit_unitary", UNITARY, None),
            (evolve, "run", RUN, steps),
            (cli, "run", RUN, steps),
            (cli, "write_trajectory_csv", CSV, csv_written),
            (evolve, "write_trajectory_csv", CSV, csv_written),
            (observables, "position_series", SERIES, series_rows),
            (observables, "probability_series", SERIES, series_rows),
            (observables, "momentum_series", SERIES, series_rows),
            (observables, "write_series_csv", SERIES_CSV, None),
            (transpile, "decompose", DECOMPOSE, lowered),
            (cli, "decompose", DECOMPOSE, lowered),
            (transpile, "count", COUNT, None),
            (cli, "count", COUNT, None),
            (transpile, "emit_qasm", QASM_EMIT, qasm_bytes),
            (cli, "emit_qasm", QASM_EMIT, qasm_bytes),
            (transpile, "parse_qasm", QASM_PARSE, None),
            (transpile, "basis_unitary", BASIS_UNITARY, None),
            (oracles, "dense_hamiltonian", HAMILTONIAN, None),
            (oracles, "dense_two_particle_hamiltonian", HAMILTONIAN, None),
            (evolve, "dense_hamiltonian", HAMILTONIAN, None),
            (evolve, "dense_two_particle_hamiltonian", HAMILTONIAN, None),
            (oracles, "dense_propagator", PROPAGATOR, dense_dim),
            (evolve, "dense_propagator", PROPAGATOR, dense_dim),
            (cli, "main", CLI_MAIN, None),
            (cli, "parse_config", CLI_PARSE, None),
            (cli, "run_scenario", CLI_SCENARIO, artifacts),
        ]
        kernels = [(module, "apply_gate_to_array") for module in (evolve, circuits, transpile)]
        return spans, kernels

    def begin_op(self) -> None:
        """Install every wrapper; the next spans belong to a new op."""
        spans, kernels = self._targets()
        for module, attr, name, after in spans:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span(name, original, after))
        for module, attr in kernels:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._kernel(original))
        self.counts.clear()
        self._op_first = len(self.start)

    def end_op(self, op_s: float) -> dict[str, float]:
        """Remove the wrappers and return the op's per-layer metrics."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        lo, hi = self._op_first, len(self.start)
        self.op_ranges.append((lo, hi))
        return self._layer_metrics(lo, hi, op_s)

    def _layer_metrics(self, lo: int, hi: int, op_s: float) -> dict[str, float]:
        n = hi - lo
        name = np.array(self.name_of[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64)
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        nested = parent >= 0
        local_parent = parent[nested] - lo
        child_s = np.bincount(local_parent, weights=dur[nested], minlength=n)
        self_s = dur - child_s
        parent_name = np.full(n, -1)
        parent_name[nested] = name[local_parent]

        def is_(span: str) -> np.ndarray:
            return name == self._ids.get(span, -1)

        def total(span: str) -> float:
            return float(dur[is_(span)].sum())

        def calls(span: str) -> int:
            return int(is_(span).sum())

        def calls_under(span: str, parent_span: str) -> int:
            return int((is_(span) & (parent_name == self._ids.get(parent_span, -2))).sum())

        c = self.counts
        busy = total(KERNEL)
        amp_updates = c["statevector.amp_updates"]
        steps = c["evolve.steps"]
        builds_in_run = calls_under(BUILD, RUN)
        return {
            "statevector.gates": calls(KERNEL),
            "statevector.controlled_gates": c["statevector.controlled_gates"],
            "statevector.diagonal_gates": c["statevector.diagonal_gates"],
            "statevector.amp_updates": amp_updates,
            "statevector.busy_s": busy,
            "statevector.ns_per_amp_gate": busy * 1e9 / amp_updates if amp_updates else 0.0,
            "statevector.bytes_computed": c["statevector.bytes_computed"],
            "circuits.step_builds": calls(BUILD),
            "circuits.gates_built": c["circuits.gates_built"],
            "circuits.build_s": total(BUILD),
            "circuits.step_cache_hit_ratio": (steps - builds_in_run) / steps if steps else 0.0,
            "circuits.unitary_calls": calls(UNITARY),
            "circuits.unitary_s": total(UNITARY),
            "evolve.steps": steps,
            "evolve.run_s": total(RUN),
            "evolve.run_self_s": float(self_s[is_(RUN)].sum()),
            "evolve.csv_s": total(CSV),
            "evolve.csv_rows": c["evolve.csv_rows"],
            "evolve.csv_bytes": c["evolve.csv_bytes"],
            "observables.series_s": total(SERIES),
            "observables.series_csv_s": total(SERIES_CSV),
            "observables.series_rows": c["observables.series_rows"],
            "transpile.decompose_s": total(DECOMPOSE),
            "transpile.basis_ops": c["transpile.basis_ops"],
            "transpile.cx": c["transpile.cx"],
            "transpile.count_s": total(COUNT),
            "transpile.qasm_emit_s": total(QASM_EMIT),
            "transpile.qasm_parse_s": total(QASM_PARSE),
            "transpile.qasm_bytes": c["transpile.qasm_bytes"],
            "transpile.basis_unitary_s": total(BASIS_UNITARY),
            "transpile.basis_unitary_kernel_calls": calls_under(KERNEL, BASIS_UNITARY),
            "oracles.hamiltonian_s": total(HAMILTONIAN),
            "oracles.eigh_calls": calls(PROPAGATOR),
            "oracles.propagator_s": total(PROPAGATOR),
            "oracles.dense_dim": c["oracles.dense_dim"],
            "cli.parse_s": total(CLI_PARSE),
            "cli.scenario_s": total(CLI_SCENARIO),
            "cli.artifact_bytes": c["cli.artifact_bytes"],
            "trace.coverage": float(dur[~nested].sum()) / op_s if op_s > 0 else 0.0,
        }

    def save(self, path: Path) -> None:
        """Write every recorded span, and which op each belongs to."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name_of, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            op_ranges=np.array(self.op_ranges, dtype=np.int64).reshape(-1, 2),
        )
