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
from typing import Callable, Iterable, Iterator

import numpy as np

from .model import ModelParams
from .oracles import check_dense_dim
from .statevector import (
    ControlledGate,
    DiagonalGate,
    Gate,
    Statevector,
    apply_gate_to_array,
    relabel,
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
                raise ValueError(f"op {op} exceeds {self.qubit_count} qubits")


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    """Apply every op in order, mutating the state in place."""
    if circuit.qubit_count != state.n_qubits:
        raise ValueError(
            f"circuit on {circuit.qubit_count} qubits applied to {state.n_qubits}-qubit state"
        )
    for op in circuit.ops:
        apply_gate_to_array(state.amplitudes, state.n_qubits, op)
    return state


#: Most qubits one fused block of ``_dense_unitary`` spans; chosen by measurement.
_BLOCK_QUBITS = 5


def _blocks(ops: Iterable) -> Iterator[tuple[tuple[int, ...], list]]:
    """Split the ops in order, greedily, into blocks on at most _BLOCK_QUBITS qubits.

    Yields (sorted qubits of the block, its ops). An op wider than the
    limit is a block of its own.
    """
    qubits: set[int] = set()
    block: list = []
    for op in ops:
        joined = qubits.union(op.qubits)
        if len(joined) > _BLOCK_QUBITS and block:
            yield tuple(sorted(qubits)), block
            joined, block = set(op.qubits), []
        qubits = joined
        block.append(op)
        if len(qubits) > _BLOCK_QUBITS:
            yield tuple(sorted(qubits)), block
            qubits, block = set(), []
    if block:
        yield tuple(sorted(qubits)), block


def _dense_unitary(n_qubits: int, ops: Iterable,
                   to_gate: Callable[[object, dict[int, int]], Gate]) -> np.ndarray:
    """Dense unitary of the ops applied in order, built from fused blocks.

    ``to_gate(op, local)`` is the kernel gate of one op with qubit q moved
    to ``local[q]``; each op goes through it once. The rows of the identity
    are the basis states, and row j ends as column j of the unitary. Each
    block's 2**m matrix is the kernel applied to the small identity, with
    the block's qubits relabelled 0..m-1. The block then updates every row
    in one matmul: the rows are viewed as (dim, 2, ..., 2), the block's
    qubit axes are moved last, and the product stays in that order.
    ``at[p]`` tracks the qubit that bit p of the current layout holds, so
    an op wider than the block limit goes through the kernel relabelled
    onto that layout, and the qubits are put back in order once, at the end.
    """
    dim = 2 ** n_qubits
    check_dense_dim(dim)
    shape = (dim,) + (2,) * n_qubits  # bit p of a row's index is axis n_qubits - p
    rows = np.eye(dim, dtype=complex)
    spare = np.empty_like(rows)  # the gathered rows of each block, then the result
    at = list(range(n_qubits))
    for qubits, block in _blocks(ops):
        m = len(qubits)
        if m > _BLOCK_QUBITS:
            bit = {q: p for p, q in enumerate(at)}
            apply_gate_to_array(rows, n_qubits, to_gate(block[0], bit))
            continue
        local = np.eye(2 ** m, dtype=complex)
        slot = {q: j for j, q in enumerate(qubits)}
        for op in block:
            apply_gate_to_array(local, m, to_gate(op, slot))
        # local row j is the block applied to basis state j, so a row r over
        # the block's sub-index (highest qubit first) becomes r @ local
        src = [n_qubits - at.index(q) for q in reversed(qubits)]
        moved = np.moveaxis(rows.reshape(shape), src, range(n_qubits + 1 - m, n_qubits + 1))
        np.copyto(spare.reshape(moved.shape), moved)
        np.matmul(spare.reshape(-1, 2 ** m), local, out=rows.reshape(-1, 2 ** m))
        at = list(qubits) + [q for q in at if q not in slot]
    order = [0] + [n_qubits - at.index(q) for q in reversed(range(n_qubits))]
    np.copyto(spare.reshape(shape), rows.reshape(shape).transpose(order))
    return spare.T


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit, from fused gate blocks (see ``_dense_unitary``)."""
    return _dense_unitary(circuit.qubit_count, circuit.ops, relabel)


def _mix_gate(delta: float, dt: float) -> ControlledGate:
    """exp(+i phi X) on qubit 0 with phi = delta*dt/4, one hopping half-bond."""
    phi = delta * dt / 4.0
    u = np.array(
        [[np.cos(phi), 1j * np.sin(phi)], [1j * np.sin(phi), np.cos(phi)]], dtype=complex
    )
    return ControlledGate(target=0, unitary=u)


def increment_ops(gamma: int) -> tuple[ControlledGate, ...]:
    """|l> -> |l+1 mod 2**gamma> via open-controlled X gates."""
    return tuple(ControlledGate(target=k, unitary=_X, controls=tuple((j, 0) for j in range(k)))
                 for k in range(gamma))


def build_intra_hop(params: ModelParams, dt: float) -> Circuit:
    """exp(-i H_intra dt): one mixing gate on qubit 0 covers all (2n, 2n+1) pairs."""
    gamma = params.require_gamma()
    return Circuit(gamma, (_mix_gate(params.delta_a, dt),), label="intra_hop")


def build_inter_hop(params: ModelParams, dt: float) -> Circuit:
    """exp(-i H_inter dt): shift the chain down, mix qubit 0, shift back up.

    The shift conjugation maps the (2n+1, 2n+2) pairing, wrap included,
    onto the (2n, 2n+1) pairing handled by the single mixing gate. Every
    gate of the increment is its own inverse, so the decrement is the
    increment reversed.
    """
    gamma = params.require_gamma()
    up = increment_ops(gamma)
    return Circuit(gamma, up[::-1] + (_mix_gate(params.delta_b, dt),) + up, label="inter_hop")


def build_field_phase(params: ModelParams, t: float, dt: float) -> Circuit:
    """exp(-i H_field(t) dt): diagonal phase exp(-i l F(t) dt) as one gate per qubit.

    Bit beta of l carries weight 2**beta, so qubit beta gets the phase
    diag(1, exp(-i F dt 2**beta)).
    """
    gamma = params.require_gamma()
    f = params.field(t)
    ops = tuple(DiagonalGate((beta,), np.array([1.0, np.exp(-1j * f * dt * 2 ** beta)]))
                for beta in range(gamma))
    return Circuit(gamma, ops, label="field_phase")


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
    gate = DiagonalGate(qubits=tuple(range(2 * gamma)), diagonal=diagonal)
    return Circuit(2 * gamma, (gate,), label="contact_phase")


def _step_ops_at(params: ModelParams, dt: float,
                 particles: int) -> Callable[[float], tuple[Gate, ...]]:
    """Return t -> the ops of one step on ``particles`` registers.

    Only the field phase depends on t. The hop gates and the contact phase
    are built here once and shared by every call, so a driven run rebuilds
    only its field phase gates.
    """
    hops = build_inter_hop(params, dt).ops + build_intra_hop(params, dt).ops
    if particles == 1:
        return lambda t: build_field_phase(params, t, dt).ops + hops
    # register 1 (the high qubits) steps first, then register 0, then the contact;
    # register 1's gates are register 0's relabelled
    gamma = params.require_gamma()
    high = range(gamma, 2 * gamma)
    high_hops = tuple(relabel(op, high) for op in hops)
    contact = build_contact_phase(params, dt).ops

    def ops_at(t: float) -> tuple[Gate, ...]:
        field = build_field_phase(params, t, dt).ops
        return tuple(relabel(op, high) for op in field) + high_hops + field + hops + contact

    return ops_at


def build_trotter_step(params: ModelParams, t: float, dt: float) -> Circuit:
    """One first-order step; the field factor acts first, intra-hop last."""
    gamma = params.require_gamma()
    return Circuit(gamma, _step_ops_at(params, dt, 1)(t), label="trotter_step")


def build_two_particle_step(params: ModelParams, t: float, dt: float) -> Circuit:
    """One two-particle step: a kinetic step per register, then the contact phase."""
    gamma = params.require_gamma()
    return Circuit(2 * gamma, _step_ops_at(params, dt, 2)(t), label="two_particle_step")
