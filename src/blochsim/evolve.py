"""Time evolution drivers: circuit Trotter steps and classical steppers.

All steppers march a fixed grid t_k = k * dt. The exponential steppers
(``trotter1`` and ``exact-dense``) evaluate the drive field once per step,
by default at the step endpoint t_k, matching the product convention

    |psi(t)> = U(t_K) ... U(t_2) U(t_1) |psi(0)>.

Each of them is one step operator U(t), the ``trotter1`` gate tuple or
the dense propagator, built once when the field is static and at every
step's sample time under a drive.

``ode-rk4`` is an independent classical route: fixed-step fourth-order
Runge-Kutta on d psi/dt = -i H(t) psi with the standard internal stage
times, available for single-particle states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import _step_ops_at
# the step builders stay module attributes: perfbench's tracer wraps them here
from .circuits import build_trotter_step, build_two_particle_step  # noqa: F401
from .model import ModelParams
from .oracles import dense_hamiltonian, dense_propagator, dense_two_particle_hamiltonian
from .observables import site_probabilities, write_csv
from .statevector import apply_gate_to_array

STEPPERS = ("trotter1", "exact-dense", "ode-rk4")
FIELD_SAMPLINGS = ("end", "midpoint")

#: Largest change of the state norm a run tolerates: unitary steppers keep
#: it to round-off; explicit RK4 drifts, and blows up past its stability limit.
UNITARY_NORM_TOL = 1e-8
ODE_NORM_TOL = 1e-3


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
    states, otherwise the probabilities alone. ``particles`` is 1
    (dim = n_sites) or 2 (dim = n_sites**2).
    """

    def __init__(self, times: np.ndarray, states: np.ndarray, particles: int,
                 params: ModelParams, plan: EvolutionPlan):
        self.times = times
        self._states = states
        self.particles = particles
        self.probabilities = site_probabilities(states) if plan.store_states else states
        self.params = params
        self.plan = plan

    def __len__(self) -> int:
        return self.times.size

    def amplitudes(self, k=slice(None)) -> np.ndarray:
        """Amplitudes at step k; by default the whole (T, dim) array."""
        if not self.plan.store_states:
            raise ValueError("amplitudes were not stored (store_states=False)")
        return self._states[k]

    def site_probability(self, *sites: int) -> np.ndarray:
        """Probability time series of one site per particle: (l) or (l1, l2)."""
        n = self.params.n_sites
        if len(sites) != self.particles or not all(0 <= site < n for site in sites):
            raise ValueError(f"expected {self.particles} site(s) in [0, {n}), got {sites}")
        index = sites[0] if self.particles == 1 else sites[0] * n + sites[1]
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


def run(initial: np.ndarray, params: ModelParams, plan: EvolutionPlan) -> Trajectory:
    """Evolve an initial amplitude array.

    A single-particle state has n_sites amplitudes, a two-particle state
    n_sites**2; the length decides which. The ``trotter1`` stepper needs a
    power-of-two chain; ``ode-rk4`` covers single-particle states only.
    """
    psi = np.array(initial, dtype=complex).ravel()
    n = params.n_sites
    if psi.size not in (n, n * n):
        raise ValueError(f"state length {psi.size} matches neither {n} nor {n * n}")
    particles = 1 if psi.size == n else 2

    step = _make_stepper(params, plan, particles)
    ode = plan.stepper == "ode-rk4"
    tol = ODE_NORM_TOL if ode else UNITARY_NORM_TOL
    norm0 = np.linalg.norm(psi)
    times = np.arange(plan.n_steps + 1) * plan.dt
    states = np.empty((plan.n_steps + 1, psi.size), dtype=complex if plan.store_states else float)
    states[0] = psi if plan.store_states else site_probabilities(psi)
    for k in range(1, plan.n_steps + 1):
        psi = step(psi, k)
        drift = abs(np.linalg.norm(psi) - norm0)
        if not drift <= tol:  # also true for NaN and inf
            hint = "; lower plan.dt, explicit RK4 is unstable past |H| dt of about 2.8"
            raise RuntimeError(f"norm drift {drift:.3e} exceeds {tol:g} at step {k} "
                               f"(t={k * plan.dt}){hint if ode else ''}")
        states[k] = psi if plan.store_states else site_probabilities(psi)
    return Trajectory(times, states, particles, params, plan)


def _make_stepper(params: ModelParams, plan: EvolutionPlan, particles: int):
    """Bind one (psi, k) -> psi step function.

    A unitary stepper is ``operator_at(t)`` and ``apply(operator, psi)``.
    """
    if plan.stepper == "ode-rk4":
        if particles == 2:
            raise ValueError("ode-rk4 supports single-particle states only")
        return lambda psi, k: _rk4_step(psi, (k - 1) * plan.dt, plan.dt, params)

    if plan.stepper == "trotter1":
        n_qubits = particles * params.require_gamma()
        operator_at = _step_ops_at(params, plan.dt, particles)

        def apply(ops, psi: np.ndarray) -> np.ndarray:
            for op in ops:
                apply_gate_to_array(psi, n_qubits, op)
            return psi
    else:  # exact-dense
        build_h = dense_hamiltonian if particles == 1 else dense_two_particle_hamiltonian

        def operator_at(t: float) -> np.ndarray:
            return dense_propagator(build_h(params, t), plan.dt)

        def apply(u, psi: np.ndarray) -> np.ndarray:
            return u @ psi

    if params.f_ac == 0.0:
        operator = operator_at(plan.sample_time(1))
        return lambda psi, k: apply(operator, psi)
    return lambda psi, k: apply(operator_at(plan.sample_time(k)), psi)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Per-step site amplitudes as CSV.

    Single particle: (t, site, re, im, prob); two particles:
    (t, site1, site2, prob). Amplitude columns need store_states=True.
    """
    n = traj.params.n_sites
    sites = np.arange(n)
    if traj.particles == 2:
        write_csv(path, ("t", "site1", "site2", "prob"),
                  (traj.times[:, None, None], sites[:, None], sites,
                   traj.probabilities.reshape(-1, n, n)))
    else:
        amps = traj.amplitudes()
        write_csv(path, ("t", "site", "re", "im", "prob"),
                  (traj.times[:, None], sites, amps.real, amps.imag, traj.probabilities))
