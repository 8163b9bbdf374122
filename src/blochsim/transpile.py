"""Lower circuits to the {U1, U3, CX} basis, count gates, emit OpenQASM 2.0.

Multi-controlled gates are expanded with the standard two-CX ABC
construction (one control) and the recursive square-root construction
(more controls). Diagonal gates become parity ladders: a Walsh-Hadamard
transform of the phase vector yields one Z-string angle per qubit subset,
and each string is a CX ladder around a U1. The global phase created by
these rewrites is tracked explicitly and reported, never dropped.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

# apply_gate_to_array stays a module attribute: perfbench's tracer wraps it here
from .statevector import ControlledGate, DiagonalGate, apply_gate_to_array  # noqa: F401
from .circuits import Circuit, _dense_unitary

__all__ = [
    "U1Gate",
    "U3Gate",
    "CXGate",
    "BasisCircuit",
    "GateCounts",
    "decompose",
    "count",
    "basis_unitary",
    "equivalent_up_to_phase",
    "emit_qasm",
    "parse_qasm",
    "REFERENCE_STEP_COUNTS_3Q",
]

_DIAG_TOL = 1e-12

#: Hand-optimized tally reported for the 3-qubit single Trotter step,
#: kept for informational comparison in reports. Our generic lowering
#: is not expected to match it; unitary equivalence is the requirement.
REFERENCE_STEP_COUNTS_3Q = {"depth": 25, "u1": 4, "u3": 13, "cx": 14}


@dataclass(frozen=True)
class U1Gate:
    """Phase gate diag(1, e^{i lam}) on one qubit."""

    qubit: int
    lam: float

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)

    def matrix(self) -> np.ndarray:
        return np.diag([1.0, np.exp(1j * self.lam)]).astype(complex)


@dataclass(frozen=True)
class U3Gate:
    """General one-qubit rotation, OpenQASM 2 convention.

    U3(theta, phi, lam) = [[cos(t/2), -e^{i lam} sin(t/2)],
                           [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]
    """

    qubit: int
    theta: float
    phi: float
    lam: float

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta / 2.0), math.sin(self.theta / 2.0)
        return np.array(
            [
                [c, -np.exp(1j * self.lam) * s],
                [np.exp(1j * self.phi) * s, np.exp(1j * (self.phi + self.lam)) * c],
            ],
            dtype=complex,
        )


@dataclass(frozen=True)
class CXGate:
    """Controlled-NOT (control fires on |1>)."""

    control: int
    target: int

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise ValueError("control and target must differ")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)


BasisOp = U1Gate | U3Gate | CXGate


@dataclass(frozen=True)
class BasisCircuit:
    """A circuit over the {U1, U3, CX} basis plus an explicit global phase."""

    qubit_count: int
    ops: tuple[BasisOp, ...]
    global_phase: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        # one pass gathers the distinct qubits, dispatching on the exact op type
        qubits: set[int] = set()
        add = qubits.add
        for op in self.ops:
            kind = type(op)
            if kind is CXGate:
                add(op.control)
                add(op.target)
            elif kind is U1Gate or kind is U3Gate:
                add(op.qubit)
            else:
                raise TypeError(f"not a basis op: {op!r}")
        n = self.qubit_count
        if qubits and not (0 <= min(qubits) and max(qubits) < n):
            bad = min(qubits) if min(qubits) < 0 else max(qubits)
            raise ValueError(f"qubit {bad} outside register of {n}")


@dataclass(frozen=True)
class GateCounts:
    """Gate tallies and critical-path depth of a basis circuit."""

    depth: int
    u1: int
    u3: int
    cx: int

    @property
    def total(self) -> int:
        return self.u1 + self.u3 + self.cx

    def as_dict(self) -> dict[str, int]:
        return {"depth": self.depth, "u1": self.u1, "u3": self.u3, "cx": self.cx}


# ---------------------------------------------------------------------------
# one-qubit emission


def _emit_single(unitary: np.ndarray, qubit: int, ops: list[BasisOp]) -> float:
    """Append U1/U3 ops realizing a 2x2 unitary; return the global phase used.

    Diagonal matrices become a single U1 (or nothing); anything else one U3.
    """
    u = np.asarray(unitary, dtype=complex)
    if abs(u[1, 0]) < _DIAG_TOL and abs(u[0, 1]) < _DIAG_TOL:
        phase = float(np.angle(u[0, 0]))
        lam = float(np.angle(u[1, 1] / u[0, 0]))
        if abs(lam) > _DIAG_TOL:
            ops.append(U1Gate(qubit, lam))
        return phase
    theta = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    if abs(u[0, 0]) < _DIAG_TOL:
        phase = 0.0
        phi = float(np.angle(u[1, 0]))
        lam = float(np.angle(-u[0, 1]))
    else:
        phase = float(np.angle(u[0, 0]))
        phi = float(np.angle(u[1, 0])) - phase
        lam = float(np.angle(-u[0, 1])) - phase
    ops.append(U3Gate(qubit, theta, phi, lam))
    return phase


def _su2_angles(w: np.ndarray) -> tuple[float, float, float]:
    """Z-Y-Z Euler angles of an SU(2) matrix: w = Rz(beta) Ry(gamma) Rz(delta)."""
    gamma = 2.0 * math.atan2(abs(w[1, 0]), abs(w[0, 0]))
    a = float(np.angle(w[0, 0])) if abs(w[0, 0]) > _DIAG_TOL else 0.0
    b = float(np.angle(w[1, 0])) if abs(w[1, 0]) > _DIAG_TOL else 0.0
    beta = b - a
    delta = -a - b
    return beta, gamma, delta


def _rz(angle: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)]).astype(complex)


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _is_x(u: np.ndarray) -> bool:
    return bool(np.max(np.abs(u - _X)) < _DIAG_TOL)


def _unitary_sqrt(u: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 unitary."""
    u = np.asarray(u, dtype=complex)
    if abs(u[0, 1]) < _DIAG_TOL and abs(u[1, 0]) < _DIAG_TOL:
        return np.diag(np.exp(0.5j * np.angle(np.diag(u)))).astype(complex)
    w, v = np.linalg.eig(u)
    # off-diagonal nonzero => distinct eigenvalues => eigenvectors of the
    # normal matrix are orthogonal once normalized
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    return (v * np.exp(0.5j * np.angle(w))) @ v.conj().T


# ---------------------------------------------------------------------------
# controlled-gate lowering


def _relabel(op: BasisOp, slots: tuple[int, ...]) -> BasisOp:
    """The same op with qubit q moved to ``slots[q]``."""
    if isinstance(op, U1Gate):
        return U1Gate(slots[op.qubit], op.lam)
    if isinstance(op, U3Gate):
        return U3Gate(slots[op.qubit], op.theta, op.phi, op.lam)
    return CXGate(slots[op.control], slots[op.target])


def _emit_controlled(unitary: np.ndarray, controls: tuple[int, ...], target: int,
                     ops: list[BasisOp], memo: dict) -> float:
    """Append basis ops for a k-controlled 2x2 unitary (all controls fire on 1).

    Returns the accumulated global phase. With two or more controls the op
    sequence does not depend on the qubits, so it is lowered once per
    (unitary, k) on slot qubits 0..k-1 (controls) and k (target), kept in
    ``memo``, and relabelled onto the real qubits at every use.
    """
    u = np.asarray(unitary, dtype=complex)
    if not controls:
        return _emit_single(u, target, ops)

    if len(controls) == 1:
        (c,) = controls
        if _is_x(u):
            ops.append(CXGate(c, target))
            return 0.0
        # controlled-U = U1(alpha) on control, then A X B X C on target
        alpha = 0.5 * float(np.angle(np.linalg.det(u)))
        w = u * np.exp(-1j * alpha)
        beta, gamma, delta = _su2_angles(w)
        mat_a = _rz(beta) @ _ry(gamma / 2.0)
        mat_b = _ry(-gamma / 2.0) @ _rz(-(delta + beta) / 2.0)
        mat_c = _rz((delta - beta) / 2.0)
        phase = _emit_single(mat_c, target, ops)
        ops.append(CXGate(c, target))
        phase += _emit_single(mat_b, target, ops)
        ops.append(CXGate(c, target))
        phase += _emit_single(mat_a, target, ops)
        if abs(alpha) > _DIAG_TOL:
            ops.append(U1Gate(c, alpha))
        return phase

    k = len(controls)
    key = (u.tobytes(), k)
    if key not in memo:
        # C^k(U) = [CV on last control] [C^{k-1}X] [CV^dag] [C^{k-1}X]
        #          [C^{k-1}V on remaining controls], V = sqrt(U)
        rest, last, slot_target = tuple(range(k - 1)), k - 1, k
        v = _unitary_sqrt(u)
        template: list[BasisOp] = []
        phase = _emit_controlled(v, (last,), slot_target, template, memo)
        phase += _emit_controlled(_X, rest, last, template, memo)
        phase += _emit_controlled(v.conj().T, (last,), slot_target, template, memo)
        phase += _emit_controlled(_X, rest, last, template, memo)
        phase += _emit_controlled(v, rest, slot_target, template, memo)
        memo[key] = (template, phase)
    template, phase = memo[key]
    slots = controls + (target,)
    ops.extend(_relabel(op, slots) for op in template)
    return phase


def _emit_diagonal(gate: DiagonalGate, ops: list[BasisOp]) -> float:
    """Append basis ops for a diagonal gate via Walsh-Hadamard phase splitting."""
    theta = np.angle(np.asarray(gate.diagonal, dtype=complex)).astype(float)
    m = len(gate.qubits)
    if m == 0:
        return float(theta[0])
    # Walsh-Hadamard transform of the phase vector, one butterfly per level
    w = theta.copy()
    h = 1
    while h < w.size:
        pairs = w.reshape(-1, 2, h)
        a = pairs[:, 0].copy()
        b = pairs[:, 1]
        pairs[:, 0] = a + b
        pairs[:, 1] = a - b
        h *= 2
    w /= w.size

    phase = float(w[0])
    for mask in (np.flatnonzero(np.abs(w[1:]) >= _DIAG_TOL) + 1).tolist():
        angle = float(w[mask])
        members = [gate.qubits[bit] for bit in range(m) if mask >> bit & 1]
        tail = members[-1]
        for q in members[:-1]:
            ops.append(CXGate(q, tail))
        ops.append(U1Gate(tail, -2.0 * angle))
        phase += angle
        for q in reversed(members[:-1]):
            ops.append(CXGate(q, tail))
    return phase


def decompose(circuit: Circuit | BasisCircuit) -> BasisCircuit:
    """Lower a circuit to {U1, U3, CX}; basis circuits pass through unchanged."""
    if isinstance(circuit, BasisCircuit):
        return circuit
    ops: list[BasisOp] = []
    phase = 0.0
    memo: dict = {}  # multi-controlled templates, local to this call
    for op in circuit.ops:
        if isinstance(op, DiagonalGate):
            phase += _emit_diagonal(op, ops)
            continue
        if not isinstance(op, ControlledGate):
            raise TypeError(f"cannot lower {op!r}")
        # normalize control polarity: controls firing on 0 get X wraps
        zeros = tuple(q for q, pol in op.controls if pol == 0)
        for q in zeros:
            phase += _emit_single(_X, q, ops)
        phase += _emit_controlled(op.unitary, tuple(q for q, _ in op.controls), op.target, ops,
                                  memo)
        for q in reversed(zeros):
            phase += _emit_single(_X, q, ops)
    return BasisCircuit(circuit.qubit_count, tuple(ops), phase, label=circuit.label)


# ---------------------------------------------------------------------------
# counts, unitaries, equivalence


def count(circuit: BasisCircuit) -> GateCounts:
    """Tally gates by kind; depth = layering where disjoint qubits share a layer."""
    u1 = u3 = cx = 0
    frontier = [0] * circuit.qubit_count
    for op in circuit.ops:
        if type(op) is CXGate:
            cx += 1
            layer = 1 + max(frontier[op.control], frontier[op.target])
            frontier[op.control] = frontier[op.target] = layer
            continue
        if type(op) is U1Gate:
            u1 += 1
        else:
            u3 += 1
        frontier[op.qubit] += 1
    depth = max(frontier) if circuit.qubit_count else 0
    return GateCounts(depth=depth, u1=u1, u3=u3, cx=cx)


def _as_gate(op: BasisOp) -> ControlledGate | DiagonalGate:
    if isinstance(op, U1Gate):
        return DiagonalGate((op.qubit,), np.array([1.0, np.exp(1j * op.lam)]))
    if isinstance(op, U3Gate):
        return ControlledGate(op.qubit, op.matrix())
    return ControlledGate(op.target, _X, controls=((op.control, 1),))


def basis_unitary(circuit: BasisCircuit) -> np.ndarray:
    """Full matrix of a basis circuit, including its global phase.

    Built like ``circuit_unitary``, from fused blocks of the ops as kernel gates.
    """
    u = _dense_unitary(circuit.qubit_count, map(_as_gate, circuit.ops))
    u *= np.exp(1j * circuit.global_phase)
    return u


def equivalent_up_to_phase(u_a: np.ndarray, u_b: np.ndarray, tol: float = 1e-10) -> bool:
    """True when u_a = e^{i phi} u_b; phi read off the largest entry of u_b."""
    u_a = np.asarray(u_a, dtype=complex)
    u_b = np.asarray(u_b, dtype=complex)
    if u_a.shape != u_b.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(u_b)), u_b.shape)
    if abs(u_b[idx]) == 0.0:
        return bool(np.max(np.abs(u_a - u_b)) < tol)
    phi = np.angle(u_a[idx]) - np.angle(u_b[idx])
    return bool(np.max(np.abs(u_a - u_b * np.exp(1j * phi))) < tol)


# ---------------------------------------------------------------------------
# OpenQASM 2.0


def emit_qasm(circuit: BasisCircuit) -> str:
    """OpenQASM 2.0 text over u1/u3/cx, with the global phase as a comment."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    if circuit.label:
        lines.append(f"// {circuit.label}")
    if circuit.global_phase != 0.0:
        lines.append(f"// global phase: {circuit.global_phase!r}")
    lines.append(f"qreg q[{circuit.qubit_count}];")
    for op in circuit.ops:
        if isinstance(op, U1Gate):
            lines.append(f"u1({op.lam!r}) q[{op.qubit}];")
        elif isinstance(op, U3Gate):
            lines.append(f"u3({op.theta!r},{op.phi!r},{op.lam!r}) q[{op.qubit}];")
        else:
            lines.append(f"cx q[{op.control}],q[{op.target}];")
    return "\n".join(lines) + "\n"


_QASM_PATTERNS = (
    (re.compile(r"^u1\(([^)]+)\)\s*q\[(\d+)\];$"), "u1"),
    (re.compile(r"^u3\(([^)]+)\)\s*q\[(\d+)\];$"), "u3"),
    (re.compile(r"^cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\];$"), "cx"),
)


def parse_qasm(text: str) -> BasisCircuit:
    """Parse the QASM subset emitted by emit_qasm back into a BasisCircuit."""
    qubit_count = None
    global_phase = 0.0
    saw_header = False
    ops: list[BasisOp] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("OPENQASM"):
            saw_header = True
            continue
        if not line or line.startswith("include"):
            continue
        if not saw_header:
            raise ValueError("missing OPENQASM 2.0 header")
        if line.startswith("//"):
            m = re.match(r"^// global phase:\s*(\S+)$", line)
            if m:
                global_phase = float(m.group(1))
            continue
        m = re.match(r"^qreg\s+q\[(\d+)\];$", line)
        if m:
            qubit_count = int(m.group(1))
            continue
        for pattern, kind in _QASM_PATTERNS:
            m = pattern.match(line)
            if not m:
                continue
            if kind == "u1":
                ops.append(U1Gate(int(m.group(2)), float(m.group(1))))
            elif kind == "u3":
                angles = [float(x) for x in m.group(1).split(",")]
                if len(angles) != 3:
                    raise ValueError(f"u3 needs three angles: {line}")
                ops.append(U3Gate(int(m.group(2)), *angles))
            else:
                ops.append(CXGate(int(m.group(1)), int(m.group(2))))
            break
        else:
            raise ValueError(f"unrecognized QASM line: {line}")
    if qubit_count is None:
        raise ValueError("missing qreg declaration")
    return BasisCircuit(qubit_count, tuple(ops), global_phase)
