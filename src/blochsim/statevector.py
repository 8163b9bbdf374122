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
    label: str = ""

    def __post_init__(self) -> None:
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError(f"gate unitary must be 2x2, got {u.shape}")
        if abs(u.conj().T @ u - _EYE2).max() > UNITARY_TOL:
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
        if abs(abs(d) - 1.0).max() > UNITARY_TOL:
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
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} is not 1")
        self.num_registers = num_registers
        self.qubits_per_register = qubits_per_register
        self.amplitudes = amps

    @property
    def n_qubits(self) -> int:
        return self.num_registers * self.qubits_per_register


def _runs(qubits) -> list[tuple[int, int]]:
    """Maximal runs of consecutive qubits as (lowest qubit, width), highest first."""
    runs: list[tuple[int, int]] = []
    for q in sorted(qubits, reverse=True):
        if runs and runs[-1][0] == q + 1:
            runs[-1] = (q, runs[-1][1] + 1)
        else:
            runs.append((q, 1))
    return runs


def _run_view(amps: np.ndarray, n_qubits: int, runs) -> tuple[np.ndarray, list[int]]:
    """View the last axis of ``amps`` with one axis per run of qubits.

    The last axis is split in C order, highest qubit first, so a run
    (low, width) becomes an axis of size 2**width indexed by bits
    low .. low+width-1 of the basis index. Each gap between runs becomes
    one axis too. ``runs`` must be disjoint and sorted highest first.
    Returns the view and the axis of each run.
    """
    shape = list(amps.shape[:-1])
    axes = []
    top = n_qubits
    for low, width in runs:
        if top > low + width:
            shape.append(1 << (top - low - width))
        axes.append(len(shape))
        shape.append(1 << width)
        top = low
    if top:
        shape.append(1 << top)
    return amps.reshape(shape), axes


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

    if isinstance(gate, DiagonalGate):
        if not qubits:
            amps *= gate.diagonal[0]
            return
        runs = _runs(qubits)
        view, axes = _run_view(amps, n_qubits, runs)
        # diagonal[j] has qubits[0] as its lowest bit; order its axes highest
        # qubit first, as in the view, then merge each run into one axis
        m = len(qubits)
        by_qubit = sorted(range(m), key=lambda j: -qubits[j])
        phases = gate.diagonal.reshape((2,) * m).transpose([m - 1 - j for j in by_qubit])
        shape = [1] * view.ndim
        for axis, (_, width) in zip(axes, runs):
            shape[axis] = 1 << width
        view *= phases.reshape(shape)
        return

    # each run of controls is one axis, fixed at the index its polarities spell
    polarity = dict(gate.controls)
    runs = sorted(_runs(polarity) + [(gate.target, 1)], reverse=True)
    view, axes = _run_view(amps, n_qubits, runs)
    index = [slice(None)] * view.ndim
    for axis, (low, width) in zip(axes, runs):
        if low == gate.target:
            target_axis = axis
        else:
            fixed = sum(polarity[q] << (q - low) for q in range(low, low + width))
            # a length-1 slice, not an integer, so a0 and a1 stay array views
            index[axis] = slice(fixed, fixed + 1)
    index[target_axis] = slice(0, 1)
    a0 = view[tuple(index)]
    index[target_axis] = slice(1, 2)
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
