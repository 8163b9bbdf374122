"""The four benchmark workloads, each driving blochsim through its public API.

A workload is built once per process (its set-up), then ``op()`` runs one
timed operation and ``check(out)`` verifies that operation's output outside
the timed region. ``probe_bits`` picks the speed probe (see speed.py) whose
work is most like the workload's. The seed chooses only the initial state, never sizes,
couplings or step counts, so every seed does the same amount of work.

Every call into blochsim goes through a module attribute (``evolve.run``,
``cli.main``, ...) so that the traced run's wrappers see it.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from blochsim import circuits, cli, evolve, observables, oracles, transpile
from blochsim.evolve import EvolutionPlan
from blochsim.model import ModelParams
from blochsim.statevector import Statevector

NORM_TOL = 1e-10
MATCH_TOL = 1e-10


class CheckFailed(Exception):
    """An op's output did not match its reference."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _expect_norms(probabilities: np.ndarray) -> None:
    drift = float(np.max(np.abs(probabilities.sum(axis=1) - 1.0)))
    expect(drift <= NORM_TOL, f"stored step norm drift {drift:.3e} > {NORM_TOL}")


def _gate_path(psi0: np.ndarray, n_registers: int, gamma: int,
               params: ModelParams, plan: EvolutionPlan, build) -> np.ndarray:
    """Amplitudes of every step through ``apply_circuit``, the reference path."""
    state = Statevector(n_registers, gamma, psi0)
    rows = [state.amplitudes.copy()]
    static = params.f_ac == 0.0
    circuit = build(params, plan.sample_time(1), plan.dt) if static else None
    for k in range(1, plan.n_steps + 1):
        step = circuit if static else build(params, plan.sample_time(k), plan.dt)
        circuits.apply_circuit(state, step)
        rows.append(state.amplitudes.copy())
    return np.array(rows)


class StaticBig:
    """One large single-particle chain under a static field, no artifacts."""

    name = "static-big"
    sizes = {"full": {"gamma": 16, "n_steps": 8}, "tiny": {"gamma": 6, "n_steps": 4}}
    probe_bits = 16

    def __init__(self, seed: int, size: str, workdir: Path):
        s = self.sizes[size]
        self.gamma = s["gamma"]
        self.params = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=2 ** self.gamma)
        self.plan = EvolutionPlan(dt=0.01, n_steps=s["n_steps"], store_states=False)
        self.steps_per_op = self.plan.n_steps
        n = self.params.n_sites
        rng = np.random.default_rng(seed)
        centre = int(rng.integers(n // 4, 3 * n // 4))
        l = np.arange(n)
        envelope = np.exp(-((l - centre) ** 2) / 4.0)
        psi0 = envelope * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        self.psi0 = psi0 / np.linalg.norm(psi0)
        self.reference = None

    def op(self):
        traj = evolve.run(self.psi0, self.params, self.plan)
        return traj, observables.position_series(traj), observables.probability_series(traj)

    def check(self, out) -> dict:
        traj, position, probability = out
        probs = traj.probabilities
        _expect_norms(probs)
        if self.reference is None:
            self.reference = np.abs(_gate_path(
                self.psi0, 1, self.gamma, self.params, self.plan, circuits.build_trotter_step)) ** 2
        err = float(np.max(np.abs(probs - self.reference)))
        expect(err <= MATCH_TOL, f"run differs from the gate path by {err:.3e}")
        sublattice = np.stack([probs[:, 0::2].sum(axis=1), probs[:, 1::2].sum(axis=1)], axis=1)
        err = float(np.max(np.abs(probability.values - sublattice)))
        expect(err <= MATCH_TOL, f"probability series off by {err:.3e}")
        mean = probs @ np.arange(probs.shape[1])
        err = float(np.max(np.abs(position.values[:, 2] - mean)))
        expect(err <= MATCH_TOL * probs.shape[1], f"position series off by {err:.3e}")
        return {}


class TwoParticle:
    """Two interacting particles: the contact phase's diagonal gates dominate."""

    name = "two-particle"
    sizes = {"full": {"gamma": 6, "n_steps": 50}, "tiny": {"gamma": 3, "n_steps": 10}}
    probe_bits = 16

    def __init__(self, seed: int, size: str, workdir: Path):
        s = self.sizes[size]
        self.gamma = s["gamma"]
        self.params = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=2.0,
                                  n_sites=2 ** self.gamma)
        self.plan = EvolutionPlan(dt=0.01, n_steps=s["n_steps"], store_states=False)
        self.steps_per_op = self.plan.n_steps
        n = self.params.n_sites
        rng = np.random.default_rng(seed)
        l1, l2 = (int(x) for x in rng.choice(n, size=2, replace=False))
        self.psi0 = evolve.initial_amplitudes("spike2", self.params, l1, l2)
        self.reference = None

    def op(self):
        traj = evolve.run(self.psi0, self.params, self.plan)
        n = self.params.n_sites
        coincidence = np.array([traj.site_probability(l, l) for l in range(n)])
        return traj, coincidence

    def check(self, out) -> dict:
        traj, coincidence = out
        probs = traj.probabilities
        _expect_norms(probs)
        if self.reference is None:
            self.reference = np.abs(_gate_path(
                self.psi0, 2, self.gamma, self.params, self.plan,
                circuits.build_two_particle_step)) ** 2
        err = float(np.max(np.abs(probs - self.reference)))
        expect(err <= MATCH_TOL, f"run differs from the gate path by {err:.3e}")
        n = self.params.n_sites
        diagonal = self.reference[:, np.arange(n) * (n + 1)].T
        err = float(np.max(np.abs(coincidence - diagonal)))
        expect(err <= MATCH_TOL, f"coincidence series off by {err:.3e}")
        return {}


def _run_cli(config: Path, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", str(config), "--out", str(out)])


def _expect_manifest(out: Path, scenario: str, outputs: list[str]) -> None:
    manifest = json.loads((out / "manifest.json").read_text(encoding="ascii"))
    expect(manifest["scenario"] == scenario, f"manifest scenario {manifest['scenario']!r}")
    expect(manifest["outputs"] == outputs, f"manifest outputs {manifest['outputs']!r}")


class DrivenCli:
    """The single-trotter CLI scenario under a harmonic drive, artifacts included."""

    name = "driven-cli"
    sizes = {"full": {"n_sites": 256, "n_steps": 500}, "tiny": {"n_sites": 16, "n_steps": 20}}
    #: the kernel works on a 256-amplitude state, which the small probe tracks
    probe_bits = 8

    def __init__(self, seed: int, size: str, workdir: Path):
        # The CLI has no key for the Gaussian centre or a phase pattern, so the
        # seed does not change this workload's input.
        s = self.sizes[size]
        self.config = workdir / "driven.ini"
        self.out = workdir / "driven-out"
        self.config.write_text(
            "[run]\nscenario = single-trotter\n"
            "[model]\ndelta_a = 5.0\ndelta_b = 1.0\nf_dc = 1.5\nf_ac = 0.5\nomega = 2.0\n"
            f"n_sites = {s['n_sites']}\n"
            f"[plan]\ndt = 0.01\nn_steps = {s['n_steps']}\n"
            "[initial]\nkind = gaussian\n",
            encoding="ascii",
        )
        self.steps_per_op = s["n_steps"]
        self.expected = None

    def op(self):
        return _run_cli(self.config, self.out)

    def _library_run(self):
        """Trajectory and series rows of the same config, through the library."""
        config = cli.parse_config(self.config.read_text(encoding="ascii"))
        params, plan = config.model, config.plan
        traj = evolve.run(evolve.initial_amplitudes("gaussian", params), params, plan)
        amps = np.array([traj.amplitudes(k) for k in range(len(traj))])
        n = params.n_sites
        gamma = params.require_gamma()
        reference = _gate_path(amps[0], 1, gamma, params, plan, circuits.build_trotter_step)
        err = float(np.max(np.abs(amps - reference)))
        expect(err <= MATCH_TOL, f"run differs from the gate path by {err:.3e}")
        trajectory = np.column_stack([
            np.repeat(traj.times, n), np.tile(np.arange(n), len(traj)),
            amps.real.ravel(), amps.imag.ravel(), traj.probabilities.ravel(),
        ])
        series = np.array([
            (t,) + observables.sublattice_position(a) + observables.sublattice_probability(a)
            + observables.sublattice_momentum(a)
            for t, a in zip(traj.times, amps)
        ])
        return trajectory, series

    def check(self, rc) -> dict:
        expect(rc == 0, f"cli.main returned {rc}")
        if self.expected is None:
            self.expected = self._library_run()
        trajectory, series = self.expected
        path = self.out / "trajectory.csv"
        with open(path, encoding="ascii") as fh:
            expect(fh.readline().strip() == "t,site,re,im,prob", "trajectory.csv header")
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        expect(rows.shape == trajectory.shape, f"trajectory.csv shape {rows.shape}")
        err = float(np.max(np.abs(rows - trajectory)))
        expect(err <= MATCH_TOL, f"trajectory.csv differs from the library run by {err:.3e}")
        n = int(trajectory[:, 1].max()) + 1
        _expect_norms(rows[:, 4].reshape(-1, n))
        err = float(np.max(np.abs(rows[:, 2] ** 2 + rows[:, 3] ** 2 - rows[:, 4])))
        expect(err <= MATCH_TOL, f"amplitudes and probabilities disagree by {err:.3e}")
        values = np.loadtxt(self.out / "series.csv", delimiter=",", skiprows=1, ndmin=2)
        expect(values.shape == series.shape, f"series.csv shape {values.shape}")
        err = float(np.max(np.abs(values - series) / np.maximum(1.0, np.abs(series))))
        expect(err <= 1e-9, f"series.csv differs from the library run by {err:.3e}")
        _expect_manifest(self.out, "single-trotter", ["trajectory.csv", "series.csv"])
        return {}


def trotter_error_bound(params: ModelParams, t: float, dt: float) -> float:
    """First-order product-formula bound (dt**2 / 2) * sum_{j<k} ||[H_j, H_k]||.

    The two-particle step is the exact product of seven exponentials: field,
    inter-cell and intra-cell hopping on each register, then the contact term.
    """
    n = params.n_sites
    eye = np.eye(n)
    single = (oracles.dense_field(params, t), oracles.dense_inter_hop(params),
              oracles.dense_intra_hop(params))
    terms = [np.kron(h, eye) for h in single] + [np.kron(eye, h) for h in single]
    contact = np.zeros(n * n)
    contact[np.arange(n) * (n + 1)] = params.v
    terms.append(np.diag(contact).astype(complex))
    total = 0.0
    for j, a in enumerate(terms):
        for b in terms[j + 1:]:
            total += float(np.linalg.norm(a @ b - b @ a, 2))
    return 0.5 * dt * dt * total


class LowerVerify:
    """Lowering to {u1, u3, cx}, the QASM round trip, and the dense oracles."""

    name = "lower-verify"
    sizes = {"full": {"report_sites": 512, "gamma": 4}, "tiny": {"report_sites": 16, "gamma": 2}}
    #: its kernel time is many calls on 256-amplitude arrays, which the small probe tracks
    probe_bits = 8
    #: transpile-report gate counts at each report size, pinned from the lowering as it stands
    pinned_counts = {
        512: {"qubits": 9, "counts": {"cx": 21834, "depth": 34443, "u1": 17469, "u3": 17608}},
        16: {"qubits": 4, "counts": {"cx": 74, "depth": 137, "u1": 60, "u3": 84}},
    }
    #: product-formula step circuits lowered per op: the report's and the two-particle step
    steps_per_op = 2

    def __init__(self, seed: int, size: str, workdir: Path):
        # Every input here is a circuit fixed by the config; there is no initial
        # state, so the seed does not change this workload's input.
        s = self.sizes[size]
        self.report_sites = s["report_sites"]
        self.config = workdir / "report.ini"
        self.out = workdir / "report-out"
        self.config.write_text(
            "[run]\nscenario = transpile-report\n"
            f"[model]\ndelta_a = 5.0\ndelta_b = 1.0\nf_dc = 1.5\nn_sites = {self.report_sites}\n"
            "[scenario]\nsample_time = 0.02\n",
            encoding="ascii",
        )
        self.params = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=2.0,
                                  n_sites=2 ** s["gamma"])
        self.dt = 0.02
        self.bound = None

    def op(self):
        rc = _run_cli(self.config, self.out)
        step = circuits.build_two_particle_step(self.params, self.dt, self.dt)
        basis = transpile.decompose(step)
        parsed = transpile.parse_qasm(transpile.emit_qasm(basis))
        u_basis = transpile.basis_unitary(parsed)
        u_circuit = circuits.circuit_unitary(step)
        h = oracles.dense_two_particle_hamiltonian(self.params, self.dt)
        u_dense = oracles.dense_propagator(h, self.dt)
        return rc, basis, parsed, u_basis, u_circuit, u_dense

    def check(self, out) -> dict:
        rc, basis, parsed, u_basis, u_circuit, u_dense = out
        expect(rc == 0, f"cli.main returned {rc}")
        report = json.loads((self.out / "counts.json").read_text(encoding="ascii"))
        pinned = self.pinned_counts[self.report_sites]
        expect(report["qubits"] == pinned["qubits"], f"counts.json qubits {report['qubits']}")
        expect(report["counts"] == pinned["counts"], f"counts.json counts {report['counts']}")
        _expect_manifest(self.out, "transpile-report", ["circuit.qasm", "counts.json"])
        expect(len(parsed.ops) == len(basis.ops), "QASM round trip changed the op count")
        expect(transpile.equivalent_up_to_phase(u_basis, u_circuit),
               "lowered circuit is not equivalent to the gate circuit")
        if self.bound is None:
            self.bound = trotter_error_bound(self.params, self.dt, self.dt)
        step_err = float(np.linalg.norm(u_circuit - u_dense, 2))
        expect(step_err <= self.bound, f"one-step error {step_err:.3e} > bound {self.bound:.3e}")
        return {"oracles.step_err": step_err}


WORKLOADS = {cls.name: cls for cls in (StaticBig, DrivenCli, TwoParticle, LowerVerify)}
