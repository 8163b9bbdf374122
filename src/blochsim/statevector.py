"""Bit-indexed statevector storage and gate application.

A site index l on an N = 2**gamma chain is the computational basis state
with integer index l, little-endian: qubit 0 holds the least significant
bit of l. Two-particle states use two registers of gamma qubits each with
register 1 on the high bits, so the joint basis index is l1 * N + l2.

A state is an amplitude array whose last axis is the basis index; gates
mutate it in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10
UNITARY_TOL = 1e-12

_EYE2 = np.eye(2)


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

    def __post_init__(self) -> None:
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError(f"gate unitary must be 2x2, got {u.shape}")
        if not abs(u.conj().T @ u - _EYE2).max() <= UNITARY_TOL:  # also true for NaN
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

    def __post_init__(self) -> None:
        qs = tuple(int(q) for q in self.qubits)
        if len(set(qs)) != len(qs) or any(q < 0 for q in qs):
            raise ValueError(f"bad qubit tuple {qs}")
        d = np.asarray(self.diagonal, dtype=complex).ravel()
        if d.size != 2 ** len(qs):
            raise ValueError(f"diagonal length {d.size} does not match {len(qs)} qubits")
        if not abs(abs(d) - 1.0).max() <= UNITARY_TOL:  # also true for NaN
            raise ValueError("diagonal entries must have unit modulus")
        object.__setattr__(self, "qubits", qs)
        object.__setattr__(self, "diagonal", d)


Gate = ControlledGate | DiagonalGate


def relabel(gate: Gate, local: dict[int, int] | range) -> Gate:
    """The same gate with qubit q moved to ``local[q]``."""
    if isinstance(gate, DiagonalGate):
        return DiagonalGate(tuple(local[q] for q in gate.qubits), gate.diagonal)
    return ControlledGate(local[gate.target], gate.unitary,
                          tuple((local[q], p) for q, p in gate.controls))


class Statevector:
    """Validated unit-norm amplitudes over one or two little-endian registers.

    The input of the gate-level reference path ``circuits.apply_circuit``;
    everywhere else a state is a plain amplitude array.
    """

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
        if not abs(norm - 1.0) <= NORM_TOL:  # also true for NaN
            raise ValueError(f"state norm {norm!r} is not 1")
        self.num_registers = num_registers
        self.qubits_per_register = qubits_per_register
        self.amplitudes = amps

    @property
    def n_qubits(self) -> int:
        return self.num_registers * self.qubits_per_register


def apply_gate_to_array(amps: np.ndarray, n_qubits: int, gate: Gate) -> None:
    """Apply one gate in place along the last axis of ``amps``.

    ``amps`` has shape (..., 2**n_qubits); every leading index is an
    independent state, so a (dim, dim) array of basis rows is transformed
    row by row in one call. The array must be C-contiguous: the gate
    writes through a reshaped view, and a copy would take the result.
    """
    if not isinstance(gate, (ControlledGate, DiagonalGate)):
        raise TypeError(f"unknown gate type {type(gate).__name__}")
    qubits = gate.qubits
    if any(q >= n_qubits for q in qubits):
        raise ValueError(f"gate acts on qubits outside the {n_qubits}-qubit register")
    if amps.shape[-1:] != (1 << n_qubits,):
        raise ValueError(f"last axis of shape {amps.shape} is not 2**{n_qubits}")
    if not amps.flags.c_contiguous:
        raise ValueError("amplitudes must be C-contiguous to be updated in place")

    # qubit q is axis -1 - q: the last axis split in C order, highest qubit first
    view = amps.reshape(amps.shape[:-1] + (2,) * n_qubits)
    if isinstance(gate, DiagonalGate):
        # diagonal[j] has qubits[0] as its lowest bit; order its axes highest
        # qubit first, as in the view, then give every other axis length 1
        m = len(qubits)
        by_qubit = sorted(range(m), key=lambda j: -qubits[j])
        phases = gate.diagonal.reshape((2,) * m).transpose([m - 1 - j for j in by_qubit])
        shape = [1] * view.ndim
        for q in qubits:
            shape[-1 - q] = 2
        view *= phases.reshape(shape)
        return

    # each control's axis is fixed at its polarity; a length-1 slice, not an
    # integer, so a0 and a1 stay array views
    index = [slice(None)] * view.ndim
    for q, p in gate.controls:
        index[-1 - q] = slice(p, p + 1)
    index[-1 - gate.target] = slice(0, 1)
    a0 = view[tuple(index)]
    index[-1 - gate.target] = slice(1, 2)
    a1 = view[tuple(index)]
    u = gate.unitary
    # a0' = u00*a0 + u01*a1 and a1' = u10*a0 + u11*a1, with two temporaries
    b0 = u[0, 0] * a0
    t = u[0, 1] * a1
    b0 += t
    np.multiply(u[1, 0], a0, out=t)
    np.multiply(u[1, 1], a1, out=a1)
    np.add(t, a1, out=a1)
    a0[...] = b0
