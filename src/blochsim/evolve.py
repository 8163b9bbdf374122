"""Time evolution drivers: circuit Trotter steps and classical steppers.

All steppers march a fixed grid t_k = k * dt. The exponential steppers
(``trotter1`` and ``exact-dense``) evaluate the drive field once per step,
by default at the step endpoint t_k, matching the product convention

    |psi(t)> = U(t_K) ... U(t_2) U(t_1) |psi(0)>.

``ode-rk4`` is an independent classical route: fixed-step fourth-order
Runge-Kutta on d psi/dt = -i H(t) psi with the standard internal stage
times, available for single-particle states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import build_trotter_step, build_two_particle_step
from .model import ModelParams
from .oracles import (
    dense_hamiltonian,
    dense_propagator,
    dense_two_particle_hamiltonian,
)
from .statevector import Statevector, apply_gate_to_array

STEPPERS = ("trotter1", "exact-dense", "ode-rk4")
FIELD_SAMPLINGS = ("end", "midpoint")


@dataclass(frozen=True)
class EvolutionPlan:
    """Step size, step count, and stepper selection for one run."""

    dt: float
    n_steps: int
    stepper: str = "trotter1"
    field_sampling: str = "end"
    store_states: bool = True

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt: must be > 0, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps: must be >= 0, got {self.n_steps}")
        if self.stepper not in STEPPERS:
            raise ValueError(f"stepper: must be one of {STEPPERS}, got {self.stepper!r}")
        if self.field_sampling not in FIELD_SAMPLINGS:
            raise ValueError(
                f"field_sampling: must be one of {FIELD_SAMPLINGS}, got {self.field_sampling!r}"
            )

    def sample_time(self, k: int) -> float:
        """Field evaluation time for step k (1-based)."""
        if self.field_sampling == "midpoint":
            return (k - 0.5) * self.dt
        return k * self.dt


class Trajectory:
    """Recorded states on the step grid, index 0 holding the initial state.

    ``states`` is one (T, dim) array: the amplitudes when the plan stores
    states, otherwise the probabilities alone.
    """

    def __init__(self, times: np.ndarray, states: np.ndarray, params: ModelParams,
                 plan: EvolutionPlan):
        self.times = times
        self._states = states
        self.probabilities = np.abs(states) ** 2 if plan.store_states else states
        self.params = params
        self.plan = plan

    def __len__(self) -> int:
        return self.times.size

    def amplitudes(self, k: int) -> np.ndarray:
        if not self.plan.store_states:
            raise ValueError("amplitudes were not stored (store_states=False)")
        return self._states[k]

    def site_probability(self, *sites: int) -> np.ndarray:
        """Probability time series of one site (l) or one pair (l1, l2)."""
        n = self.params.n_sites
        if len(sites) == 1:
            index = sites[0]
        elif len(sites) == 2:
            index = sites[0] * n + sites[1]
        else:
            raise ValueError("expected one site or a site pair")
        return self.probabilities[:, index]


def initial_amplitudes(kind: str, params: ModelParams, *sites: int) -> np.ndarray:
    """Normalized initial amplitudes; works for any even chain length.

    kinds: ``spike`` (one site), ``gaussian`` (width-2 envelope centred on
    the chain), ``spike2`` (two-particle coincidence-free product spike).
    """
    n = params.n_sites
    if kind == "spike":
        if len(sites) != 1:
            raise ValueError("spike takes exactly one site")
        (site,) = sites
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range [0, {n})")
        amps = np.zeros(n, dtype=complex)
        amps[site] = 1.0
        return amps
    if kind == "gaussian":
        if sites:
            raise ValueError("gaussian takes no site arguments")
        l = np.arange(n)
        amps = (2.0 * np.pi) ** -0.25 * np.exp(-((l - n / 2.0) ** 2) / 4.0)
        return amps.astype(complex) / np.linalg.norm(amps)
    if kind == "spike2":
        if len(sites) != 2:
            raise ValueError("spike2 takes exactly two sites")
        l1, l2 = sites
        if not (0 <= l1 < n and 0 <= l2 < n):
            raise ValueError(f"sites {sites} out of range [0, {n})")
        amps = np.zeros(n * n, dtype=complex)
        amps[l1 * n + l2] = 1.0
        return amps
    raise ValueError(f"unknown initial kind {kind!r}")


def make_initial(kind: str, params: ModelParams, *sites: int) -> Statevector:
    """Initial state as a Statevector; requires a power-of-two chain."""
    gamma = params.require_gamma()
    amps = initial_amplitudes(kind, params, *sites)
    registers = 2 if kind == "spike2" else 1
    return Statevector(registers, gamma, amps)


def schrodinger_rhs(psi: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """d psi/dt = -i H(t) psi written directly from the coupled site equations.

    Even sites couple left through delta_b and right through delta_a, odd
    sites the other way round, with a periodic wrap; assembled with rolls
    rather than the dense matrix so it is an independent route.
    """
    psi = np.asarray(psi, dtype=complex)
    n = params.n_sites
    if psi.size != n:
        raise ValueError(f"state length {psi.size} does not match n_sites {n}")
    l = np.arange(n)
    even = l % 2 == 0
    c_right = np.where(even, params.delta_a, params.delta_b) / 4.0
    c_left = np.where(even, params.delta_b, params.delta_a) / 4.0
    return -1j * (
        params.field(t) * l * psi
        - c_left * np.roll(psi, 1)
        - c_right * np.roll(psi, -1)
    )


def _rk4_step(psi: np.ndarray, t: float, dt: float, params: ModelParams) -> np.ndarray:
    k1 = schrodinger_rhs(psi, t, params)
    k2 = schrodinger_rhs(psi + 0.5 * dt * k1, t + 0.5 * dt, params)
    k3 = schrodinger_rhs(psi + 0.5 * dt * k2, t + 0.5 * dt, params)
    k4 = schrodinger_rhs(psi + dt * k3, t + dt, params)
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def run(initial, params: ModelParams, plan: EvolutionPlan) -> Trajectory:
    """Evolve an initial state (Statevector or raw amplitude vector).

    Single-particle states have n_sites amplitudes, two-particle states
    n_sites**2. The ``trotter1`` stepper needs a power-of-two chain;
    ``ode-rk4`` covers single-particle states only.
    """
    if isinstance(initial, Statevector):
        psi = initial.amplitudes.copy()
    else:
        psi = np.array(initial, dtype=complex).ravel()
    n = params.n_sites
    if psi.size == n:
        two_particle = False
    elif psi.size == n * n:
        two_particle = True
    else:
        raise ValueError(f"state length {psi.size} matches neither {n} nor {n * n}")

    step = _make_stepper(params, plan, two_particle)
    times = np.arange(plan.n_steps + 1) * plan.dt
    states = np.empty((plan.n_steps + 1, psi.size), dtype=complex if plan.store_states else float)
    states[0] = psi if plan.store_states else np.abs(psi) ** 2
    for k in range(1, plan.n_steps + 1):
        psi = step(psi, k)
        if not np.all(np.isfinite(psi.view(float))):
            raise RuntimeError(f"non-finite amplitudes at step {k} (t={k * plan.dt})")
        states[k] = psi if plan.store_states else np.abs(psi) ** 2
    return Trajectory(times, states, params, plan)


def _make_stepper(params: ModelParams, plan: EvolutionPlan, two_particle: bool):
    """Bind one (psi, k) -> psi step function; cache what the drive allows."""
    static_field = params.f_ac == 0.0

    if plan.stepper == "trotter1":
        gamma = params.require_gamma()
        build = build_two_particle_step if two_particle else build_trotter_step
        n_qubits = 2 * gamma if two_particle else gamma

        cached = build(params, plan.sample_time(1), plan.dt) if static_field else None

        def step(psi: np.ndarray, k: int) -> np.ndarray:
            circuit = cached if cached is not None else build(params, plan.sample_time(k), plan.dt)
            for op in circuit.ops:
                apply_gate_to_array(psi, n_qubits, op)
            return psi

        return step

    if plan.stepper == "exact-dense":
        build_h = dense_two_particle_hamiltonian if two_particle else dense_hamiltonian
        cached_u = dense_propagator(build_h(params, plan.sample_time(1)), plan.dt) if static_field else None

        def step(psi: np.ndarray, k: int) -> np.ndarray:
            u = cached_u if cached_u is not None else dense_propagator(
                build_h(params, plan.sample_time(k)), plan.dt
            )
            return u @ psi

        return step

    if plan.stepper == "ode-rk4":
        if two_particle:
            raise ValueError("ode-rk4 supports single-particle states only")

        def step(psi: np.ndarray, k: int) -> np.ndarray:
            return _rk4_step(psi, (k - 1) * plan.dt, plan.dt, params)

        return step

    raise ValueError(f"unknown stepper {plan.stepper!r}")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Per-step site amplitudes as CSV.

    Single particle: (t, site, re, im, prob); two particles:
    (t, site1, site2, prob). Amplitude columns need store_states=True.
    """
    n = traj.params.n_sites
    two_particle = traj.probabilities.shape[1] == n * n
    with open(path, "w", encoding="ascii") as fh:
        if two_particle:
            fh.write("t,site1,site2,prob\n")
            for k, t in enumerate(traj.times):
                probs = traj.probabilities[k]
                for l1 in range(n):
                    for l2 in range(n):
                        fh.write(f"{float(t)!r},{l1},{l2},{float(probs[l1 * n + l2])!r}\n")
        else:
            fh.write("t,site,re,im,prob\n")
            for k, t in enumerate(traj.times):
                amps = traj.amplitudes(k)
                probs = traj.probabilities[k]
                for l in range(n):
                    fh.write(
                        f"{float(t)!r},{l},{float(amps[l].real)!r},"
                        f"{float(amps[l].imag)!r},{float(probs[l])!r}\n"
                    )
