"""Bit-indexed statevector storage and gate application.

A site index l on an N = 2**gamma chain is the computational basis state
with integer index l, little-endian: qubit 0 holds the least significant
bit of l. Two-particle states use two registers of gamma qubits each with
register 1 on the high bits, so the joint basis index is l1 * N + l2.

Gates mutate amplitudes in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10
UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class ControlledGate:
    """A 2x2 unitary on ``target``, fired only when every control matches.

    Controls are (qubit, polarity) pairs: polarity 1 is a filled control
    (fires on |1>), polarity 0 an open control (fires on |0>), so circuits
    drawn with open circles need no surrounding X gates.
    """

    target: int
    unitary: np.ndarray
    controls: tuple[tuple[int, int], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError(f"gate unitary must be 2x2, got {u.shape}")
        if np.max(np.abs(u.conj().T @ u - np.eye(2))) > UNITARY_TOL:
            raise ValueError("gate matrix is not unitary")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "controls", tuple((int(q), int(p)) for q, p in self.controls))
        seen = set()
        for q, p in self.controls:
            if q < 0 or q == self.target or q in seen:
                raise ValueError(f"bad control qubit {q} for target {self.target}")
            if p not in (0, 1):
                raise ValueError(f"control polarity must be 0 or 1, got {p}")
            seen.add(q)
        if self.target < 0:
            raise ValueError("target qubit must be non-negative")

    def shifted(self, offset: int) -> "ControlledGate":
        """Same gate with every qubit index moved up by ``offset``."""
        return ControlledGate(
            target=self.target + offset,
            unitary=self.unitary,
            controls=tuple((q + offset, p) for q, p in self.controls),
            label=self.label,
        )

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,) + tuple(q for q, _ in self.controls)


@dataclass(frozen=True)
class DiagonalGate:
    """A diagonal unitary over a subset of qubits.

    ``diagonal[j]`` multiplies every amplitude whose bits on ``qubits``
    spell the sub-index j (qubits[0] is the least significant). An empty
    qubit tuple is a global phase.
    """

    qubits: tuple[int, ...]
    diagonal: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        qs = tuple(int(q) for q in self.qubits)
        if len(set(qs)) != len(qs) or any(q < 0 for q in qs):
            raise ValueError(f"bad qubit tuple {qs}")
        d = np.asarray(self.diagonal, dtype=complex).ravel()
        if d.size != 2 ** len(qs):
            raise ValueError(f"diagonal length {d.size} does not match {len(qs)} qubits")
        if np.max(np.abs(np.abs(d) - 1.0)) > UNITARY_TOL:
            raise ValueError("diagonal entries must have unit modulus")
        object.__setattr__(self, "qubits", qs)
        object.__setattr__(self, "diagonal", d)

    def shifted(self, offset: int) -> "DiagonalGate":
        """Same gate with every qubit index moved up by ``offset``."""
        return DiagonalGate(
            qubits=tuple(q + offset for q in self.qubits),
            diagonal=self.diagonal,
            label=self.label,
        )


Gate = ControlledGate | DiagonalGate


class Statevector:
    """Unit-norm complex amplitudes over one or two little-endian registers."""

    __slots__ = ("num_registers", "qubits_per_register", "amplitudes")

    def __init__(self, num_registers: int, qubits_per_register: int, amplitudes: np.ndarray):
        if num_registers not in (1, 2):
            raise ValueError(f"num_registers must be 1 or 2, got {num_registers}")
        if qubits_per_register < 1:
            raise ValueError("qubits_per_register must be >= 1")
        amps = np.array(amplitudes, dtype=complex).ravel()
        if amps.size != 2 ** (num_registers * qubits_per_register):
            raise ValueError(
                f"amplitude length {amps.size} does not match "
                f"{num_registers} register(s) of {qubits_per_register} qubits"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} is not 1")
        self.num_registers = num_registers
        self.qubits_per_register = qubits_per_register
        self.amplitudes = amps

    @property
    def n_qubits(self) -> int:
        return self.num_registers * self.qubits_per_register

    @property
    def n_sites(self) -> int:
        return 2 ** self.qubits_per_register

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability(self, basis_index: int) -> float:
        if not 0 <= basis_index < self.dim:
            raise ValueError(f"basis index {basis_index} out of range [0, {self.dim})")
        return float(np.abs(self.amplitudes[basis_index]) ** 2)

    def __repr__(self) -> str:
        return (
            f"Statevector(num_registers={self.num_registers}, "
            f"qubits_per_register={self.qubits_per_register}, dim={self.dim})"
        )


def new_basis_state(num_registers: int, qubits_per_register: int, basis_index: int) -> Statevector:
    """State |basis_index> with amplitude 1 there and 0 elsewhere."""
    dim = 2 ** (num_registers * qubits_per_register)
    if not 0 <= basis_index < dim:
        raise ValueError(f"basis index {basis_index} out of range [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[basis_index] = 1.0
    return Statevector(num_registers, qubits_per_register, amps)


def apply_gate_to_array(amps: np.ndarray, n_qubits: int, gate: Gate) -> None:
    """Apply one gate in place to a raw amplitude array of 2**n_qubits entries."""
    if isinstance(gate, ControlledGate):
        if gate.target >= n_qubits or any(q >= n_qubits for q, _ in gate.controls):
            raise ValueError(f"gate acts on qubits outside the {n_qubits}-qubit register")
        idx = np.arange(amps.size)
        sel = ((idx >> gate.target) & 1) == 0
        for q, pol in gate.controls:
            sel &= ((idx >> q) & 1) == pol
        i0 = np.nonzero(sel)[0]
        i1 = i0 | (1 << gate.target)
        u = gate.unitary
        a0 = amps[i0]
        a1 = amps[i1]
        amps[i0] = u[0, 0] * a0 + u[0, 1] * a1
        amps[i1] = u[1, 0] * a0 + u[1, 1] * a1
    elif isinstance(gate, DiagonalGate):
        if any(q >= n_qubits for q in gate.qubits):
            raise ValueError(f"gate acts on qubits outside the {n_qubits}-qubit register")
        if not gate.qubits:
            amps *= gate.diagonal[0]
            return
        idx = np.arange(amps.size)
        sub = np.zeros_like(idx)
        for j, q in enumerate(gate.qubits):
            sub |= ((idx >> q) & 1) << j
        amps *= gate.diagonal[sub]
    else:
        raise TypeError(f"unknown gate type {type(gate).__name__}")

