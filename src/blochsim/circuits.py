"""Gate-level propagator circuits for one Trotter step.

One first-order step factorizes the evolution as

    U(dt) = exp(-i H_intra dt) exp(-i H_inter dt) exp(-i H_field(t) dt)

applied right to left. The intra-cell hopping pairs sites (2n, 2n+1),
which differ only in qubit 0, so its propagator is a single uncontrolled
mixing gate. The inter-cell pairing (2n+1, 2n+2) is the same structure
conjugated by a cyclic shift of the site index, built from multi-controlled
X gates with open (on-0) controls. The tilt is a phase gate per qubit, and
the two-particle contact term is one diagonal gate over both registers
that phases the coincidences l1 = l2; only the lowering splits it into
parity ladders.

Gates are kept whole here (multi-controlled X stays one op); lowering to a
two-qubit basis is the transpile module's job.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModelParams
from .oracles import check_dense_dim
from .statevector import (
    ControlledGate,
    DiagonalGate,
    Gate,
    Statevector,
    apply_gate_to_array,
)

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed qubit register.

    ``ops[0]`` is applied first. Instances are immutable; builders return
    fresh circuits.
    """

    qubit_count: int
    ops: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if any(q >= self.qubit_count for q in op.qubits):
                raise ValueError(f"op {op.label or op} exceeds {self.qubit_count} qubits")


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    """Apply every op in order, mutating the state in place."""
    if circuit.qubit_count != state.n_qubits:
        raise ValueError(
            f"circuit on {circuit.qubit_count} qubits applied to {state.n_qubits}-qubit state"
        )
    for op in circuit.ops:
        apply_gate_to_array(state.amplitudes, state.n_qubits, op)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit.

    The rows of the identity are the basis states; each gate is applied
    once to all of them, and row j ends as column j of the unitary.
    """
    dim = 2 ** circuit.qubit_count
    check_dense_dim(dim)
    rows = np.eye(dim, dtype=complex)
    for op in circuit.ops:
        apply_gate_to_array(rows, circuit.qubit_count, op)
    return rows.T


def _mix_gate(delta: float, dt: float, label: str) -> ControlledGate:
    """exp(+i phi X) on qubit 0 with phi = delta*dt/4, one hopping half-bond."""
    phi = delta * dt / 4.0
    u = np.array(
        [[np.cos(phi), 1j * np.sin(phi)], [1j * np.sin(phi), np.cos(phi)]], dtype=complex
    )
    return ControlledGate(target=0, unitary=u, label=label)


def increment_ops(gamma: int) -> tuple[ControlledGate, ...]:
    """|l> -> |l+1 mod 2**gamma> via open-controlled X gates."""
    ops = [ControlledGate(target=0, unitary=_X, label="X")]
    for k in range(1, gamma):
        controls = tuple((j, 0) for j in range(k))
        ops.append(ControlledGate(target=k, unitary=_X, controls=controls, label="X"))
    return tuple(ops)


def decrement_ops(gamma: int) -> tuple[ControlledGate, ...]:
    """|l> -> |l-1 mod 2**gamma>, the inverse shift."""
    ops = []
    for k in range(gamma - 1, 0, -1):
        controls = tuple((j, 0) for j in range(k))
        ops.append(ControlledGate(target=k, unitary=_X, controls=controls, label="X"))
    ops.append(ControlledGate(target=0, unitary=_X, label="X"))
    return tuple(ops)


def build_intra_hop(params: ModelParams, dt: float) -> Circuit:
    """exp(-i H_intra dt): one mixing gate on qubit 0 covers all (2n, 2n+1) pairs."""
    gamma = params.require_gamma()
    return Circuit(gamma, (_mix_gate(params.delta_a, dt, "mixA"),), label="intra_hop")


def build_inter_hop(params: ModelParams, dt: float) -> Circuit:
    """exp(-i H_inter dt): shift the chain down, mix qubit 0, shift back up.

    The shift conjugation maps the (2n+1, 2n+2) pairing, wrap included,
    onto the (2n, 2n+1) pairing handled by the single mixing gate.
    """
    gamma = params.require_gamma()
    ops = decrement_ops(gamma) + (_mix_gate(params.delta_b, dt, "mixB"),) + increment_ops(gamma)
    return Circuit(gamma, ops, label="inter_hop")


def _field_ops(params: ModelParams, t: float, dt: float,
               offset: int = 0) -> tuple[DiagonalGate, ...]:
    """The field phase gates of one register whose qubit 0 is ``offset``."""
    f = params.field(t)
    return tuple(
        DiagonalGate(
            qubits=(offset + beta,),
            diagonal=np.array([1.0, np.exp(-1j * f * dt * 2 ** beta)]),
            label=f"phase{beta}",
        )
        for beta in range(params.require_gamma())
    )


def build_field_phase(params: ModelParams, t: float, dt: float) -> Circuit:
    """exp(-i H_field(t) dt): diagonal phase exp(-i l F(t) dt) as one gate per qubit.

    Bit beta of l carries weight 2**beta, so qubit beta gets the phase
    diag(1, exp(-i F dt 2**beta)).
    """
    return Circuit(params.require_gamma(), _field_ops(params, t, dt), label="field_phase")


def build_contact_phase(params: ModelParams, dt: float) -> Circuit:
    """exp(-i H_contact dt) as one diagonal gate over both registers.

    The joint index is l1 * N + l2, so the N coincidences l1 = l2 sit at
    l * (N + 1) and get the phase exp(-i v dt); every other amplitude is
    left alone. Only the lowering in ``transpile`` splits this diagonal
    into Z-parity ladders.
    """
    gamma = params.require_gamma()
    n = params.n_sites
    diagonal = np.ones(n * n, dtype=complex)
    diagonal[np.arange(n) * (n + 1)] = np.exp(-1j * params.v * dt)
    gate = DiagonalGate(qubits=tuple(range(2 * gamma)), diagonal=diagonal, label="contact")
    return Circuit(2 * gamma, (gate,), label="contact_phase")


def _step_ops_at(params: ModelParams, dt: float,
                 particles: int) -> Callable[[float], tuple[Gate, ...]]:
    """Return t -> the ops of one step on ``particles`` registers.

    Only the field phase depends on t. The hop gates and the contact phase
    are built here once and shared by every call, so a driven run rebuilds
    only its field phase gates.
    """
    gamma = params.require_gamma()
    hops = build_inter_hop(params, dt).ops + build_intra_hop(params, dt).ops
    if particles == 1:
        return lambda t: _field_ops(params, t, dt) + hops
    # register 1 (the high qubits) steps first, then register 0, then the contact
    high_hops = tuple(op.shifted(gamma) for op in hops)
    contact = build_contact_phase(params, dt).ops
    return lambda t: (_field_ops(params, t, dt, gamma) + high_hops
                      + _field_ops(params, t, dt) + hops + contact)


def build_trotter_step(params: ModelParams, t: float, dt: float) -> Circuit:
    """One first-order step; the field factor acts first, intra-hop last."""
    gamma = params.require_gamma()
    return Circuit(gamma, _step_ops_at(params, dt, 1)(t), label="trotter_step")


def build_two_particle_step(params: ModelParams, t: float, dt: float) -> Circuit:
    """One two-particle step: a kinetic step per register, then the contact phase."""
    gamma = params.require_gamma()
    return Circuit(2 * gamma, _step_ops_at(params, dt, 2)(t), label="two_particle_step")
