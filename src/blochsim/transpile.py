"""Lower circuits to the {U1, U3, CX} basis, count gates, emit OpenQASM 2.0.

Controlled gates are expanded with the standard two-CX ABC construction
(one control) and the recursive square-root construction (more controls);
each distinct controlled gate, open-control X wraps included, is lowered
once per call on its own qubits.
Diagonal gates become parity ladders: a Walsh-Hadamard transform of the
phase vector yields one Z-string angle per qubit subset, and each string is
a CX ladder around a U1. The global phase created by these rewrites is
tracked explicitly and reported, never dropped.
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
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        object.__setattr__(self, "ops", tuple(self.ops))
        # a lowered circuit shares its frozen ops, so each object is checked once,
        # in order of first appearance
        qubits: set[int] = set()
        for op in {id(op): op for op in self.ops}.values():
            if not isinstance(op, (U1Gate, U3Gate, CXGate)):
                raise TypeError(f"not a basis op: {op!r}")
            qubits.update(op.qubits)
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
    """A square root of a 2x2 unitary: V = (U + sI) / sqrt(tr U + 2s), s**2 = det U.

    By Cayley-Hamilton V @ V = U for either s; the one with |tr U + 2s| >= 2,
    which a unitary always has, keeps the division well conditioned.
    """
    u = np.asarray(u, dtype=complex)
    tr = u[0, 0] + u[1, 1]
    s = np.sqrt(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0])
    if abs(tr + 2.0 * s) < abs(tr - 2.0 * s):
        s = -s
    return (u + s * np.eye(2)) / np.sqrt(tr + 2.0 * s)


# ---------------------------------------------------------------------------
# controlled-gate lowering


def _emit_controlled(unitary: np.ndarray, controls: tuple[int, ...], target: int,
                     ops: list[BasisOp], memo: dict) -> float:
    """Append basis ops for a k-controlled 2x2 unitary (all controls fire on 1).

    Returns the accumulated global phase. For every k >= 0 the ops and phase
    are kept in ``memo`` per (unitary, controls, target), so each distinct
    gate, the sub-gates of the recursion included, is lowered once per
    ``decompose`` call and a later use appends the same frozen ops.
    """
    u = np.asarray(unitary, dtype=complex)
    key = (u.tobytes(), controls, target)
    if key not in memo:
        lowered: list[BasisOp] = []
        if not controls:
            phase = _emit_single(u, target, lowered)
        elif len(controls) > 1:
            # C^k(U) = [CV on last control] [C^{k-1}X] [CV^dag] [C^{k-1}X]
            #          [C^{k-1}V on remaining controls], V = sqrt(U)
            rest, last = controls[:-1], controls[-1]
            v = _unitary_sqrt(u)
            phase = _emit_controlled(v, (last,), target, lowered, memo)
            phase += _emit_controlled(_X, rest, last, lowered, memo)
            phase += _emit_controlled(v.conj().T, (last,), target, lowered, memo)
            phase += _emit_controlled(_X, rest, last, lowered, memo)
            phase += _emit_controlled(v, rest, target, lowered, memo)
        elif _is_x(u):
            lowered.append(CXGate(controls[0], target))
            phase = 0.0
        else:
            # controlled-U = U1(alpha) on control, then A X B X C on target
            (c,) = controls
            alpha = 0.5 * float(np.angle(np.linalg.det(u)))
            w = u * np.exp(-1j * alpha)
            beta, gamma, delta = _su2_angles(w)
            mat_a = _rz(beta) @ _ry(gamma / 2.0)
            mat_b = _ry(-gamma / 2.0) @ _rz(-(delta + beta) / 2.0)
            mat_c = _rz((delta - beta) / 2.0)
            phase = _emit_single(mat_c, target, lowered)
            lowered.append(CXGate(c, target))
            phase += _emit_single(mat_b, target, lowered)
            lowered.append(CXGate(c, target))
            phase += _emit_single(mat_a, target, lowered)
            if abs(alpha) > _DIAG_TOL:
                lowered.append(U1Gate(c, alpha))
        memo[key] = (tuple(lowered), phase)
    lowered, phase = memo[key]
    ops.extend(lowered)
    return phase


def _emit_diagonal(gate: DiagonalGate, ops: list[BasisOp]) -> float:
    """Append basis ops for a diagonal gate via Walsh-Hadamard phase splitting."""
    theta = np.angle(np.asarray(gate.diagonal, dtype=complex)).astype(float)
    m = len(gate.qubits)
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
        ladder = [CXGate(q, tail) for q in members[:-1]]
        ops.extend(ladder)
        ops.append(U1Gate(tail, -2.0 * angle))
        phase += angle
        ops.extend(reversed(ladder))
    return phase


def decompose(circuit: Circuit | BasisCircuit) -> BasisCircuit:
    """Lower a circuit to {U1, U3, CX}; basis circuits pass through unchanged."""
    if isinstance(circuit, BasisCircuit):
        return circuit
    ops: list[BasisOp] = []
    phase = 0.0
    memo: dict = {}  # controlled-gate lowerings, local to this call
    for op in circuit.ops:
        if isinstance(op, DiagonalGate):
            phase += _emit_diagonal(op, ops)
            continue
        if not isinstance(op, ControlledGate):
            raise TypeError(f"cannot lower {op!r}")
        # normalize control polarity: controls firing on 0 get X wraps
        zeros = tuple(q for q, pol in op.controls if pol == 0)
        for q in zeros:
            phase += _emit_controlled(_X, (), q, ops, memo)
        phase += _emit_controlled(op.unitary, tuple(q for q, _ in op.controls), op.target, ops,
                                  memo)
        for q in reversed(zeros):
            phase += _emit_controlled(_X, (), q, ops, memo)
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
    return GateCounts(depth=max(frontier), u1=u1, u3=u3, cx=cx)


def _as_gate(op: BasisOp, local: dict[int, int]) -> ControlledGate | DiagonalGate:
    """The kernel gate of a basis op, with qubit q moved to ``local[q]``."""
    if isinstance(op, U1Gate):
        return DiagonalGate((local[op.qubit],), np.array([1.0, np.exp(1j * op.lam)]))
    if isinstance(op, U3Gate):
        return ControlledGate(local[op.qubit], op.matrix())
    return ControlledGate(local[op.target], _X, controls=((local[op.control], 1),))


def basis_unitary(circuit: BasisCircuit) -> np.ndarray:
    """Full matrix of a basis circuit, including its global phase.

    Built like ``circuit_unitary``, from fused blocks; each op becomes a
    kernel gate once, on its block's qubits.
    """
    u = _dense_unitary(circuit.qubit_count, circuit.ops, _as_gate)
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


def _qasm_line(op: BasisOp) -> str:
    """The QASM line of one basis op; each angle prints as its ``repr``."""
    if isinstance(op, U1Gate):
        return f"u1({op.lam!r}) q[{op.qubit}];"
    if isinstance(op, U3Gate):
        return f"u3({op.theta!r},{op.phi!r},{op.lam!r}) q[{op.qubit}];"
    return f"cx q[{op.control}],q[{op.target}];"


def emit_qasm(circuit: BasisCircuit) -> str:
    """OpenQASM 2.0 text over u1/u3/cx, with the global phase as a comment.

    A lowered circuit repeats its shared op objects many times over, so each
    object's line is built once per call, keyed by ``id(op)``; the circuit
    holds every op until the call returns.
    """
    text: dict[int, str] = {}
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    if circuit.label:
        lines.append(f"// {circuit.label}")
    if circuit.global_phase != 0.0:
        lines.append(f"// global phase: {circuit.global_phase!r}")
    lines.append(f"qreg q[{circuit.qubit_count}];")
    for op in circuit.ops:
        line = text.get(id(op))
        if line is None:
            line = text[id(op)] = _qasm_line(op)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _angle(text: str) -> float:
    """A finite float read from QASM text."""
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"not an angle {text.strip()!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"angle {text.strip()!r} is not finite")
    return x


def _read_u3(m: re.Match) -> U3Gate:
    angles = [_angle(x) for x in m.group(1).split(",")]
    if len(angles) != 3:
        raise ValueError("u3 needs three angles")
    return U3Gate(int(m.group(2)), *angles)


#: one (pattern, reader) pair per op line; a reader builds the op from its match
_QASM_OPS = (
    (re.compile(r"^u1\(([^)]+)\)\s*q\[(\d+)\];$"),
     lambda m: U1Gate(int(m.group(2)), _angle(m.group(1)))),
    (re.compile(r"^u3\(([^)]+)\)\s*q\[(\d+)\];$"), _read_u3),
    (re.compile(r"^cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\];$"),
     lambda m: CXGate(int(m.group(1)), int(m.group(2)))),
)


def parse_qasm(text: str) -> BasisCircuit:
    """Parse the QASM subset emitted by emit_qasm back into a BasisCircuit.

    Every error raised while reading a line names that line.
    """
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
        try:
            if not saw_header:
                raise ValueError("missing OPENQASM 2.0 header")
            if line.startswith("//"):
                m = re.match(r"^// global phase:\s*(\S+)$", line)
                if m:
                    global_phase = _angle(m.group(1))
                continue
            m = re.match(r"^qreg\s+q\[(\d+)\];$", line)
            if m:
                if qubit_count is not None:
                    raise ValueError("repeated qreg declaration")
                qubit_count = int(m.group(1))
                continue
            for pattern, read in _QASM_OPS:
                m = pattern.match(line)
                if m:
                    ops.append(read(m))
                    break
            else:
                raise ValueError("unrecognized QASM line")
        except ValueError as exc:
            raise ValueError(f"{exc}: {line}") from None
    if qubit_count is None:
        raise ValueError("missing qreg declaration")
    return BasisCircuit(qubit_count, tuple(ops), global_phase)
