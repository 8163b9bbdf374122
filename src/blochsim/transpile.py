"""Lower circuits to the {U1, U3, CX} basis, count gates, emit OpenQASM 2.0.

Controlled gates are expanded with the standard two-CX ABC construction
(one control) and the recursive square-root construction (more controls);
each distinct controlled gate, open-control X wraps included, is lowered
and checked once per call on its own qubits, as one entry of a table that
every use shares. Tallies, depth and QASM text are then built once per
entry, not once per flattened op.
Diagonal gates become parity ladders: a Walsh-Hadamard transform of the
phase vector yields one Z-string angle per qubit subset, and each string is
a CX ladder around a U1. The global phase created by these rewrites is
tracked explicitly and reported, never dropped.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

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
    "write_qasm",
    "parse_qasm",
    "REFERENCE_STEP_COUNTS_3Q",
]

_DIAG_TOL = 1e-12
#: largest entry error a lowered controlled gate may show when it is checked:
#: max |V V - U| for the square root of a gate with two or more controls, max
#: |product of the ops - U| for a gate with at most one. Gate unitaries are
#: unitary to 1e-12; on the step circuits up to gamma 13 and on random gates
#: with up to 7 controls the largest error seen was 9e-16
_LOWER_TOL = 1e-10
#: largest entry, in flat ops, whose QASM text is built whole and kept; a
#: larger one is written child by child, so the report never holds its file
_CHUNK_OPS = 4096

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

#: index of each op kind in a (u1, u3, cx) tally
_KIND = {U1Gate: 0, U3Gate: 1, CXGate: 2}


def _flatten(body: tuple[BasisOp | _Entry, ...]) -> tuple[BasisOp, ...]:
    """The basis ops of a body in order, each entry replaced by its own ops."""
    ops: list[BasisOp] = []
    for item in body:
        if type(item) is _Entry:
            ops.extend(item.ops)
        else:
            ops.append(item)
    return tuple(ops)


class _Entry:
    """One lowered controlled gate, kept once per lowering and shared by every use.

    ``body`` holds its basis ops (at most one control) or its child entries
    (more controls), in order, and ``phase`` the global phase it adds. What
    is derived from it is derived once: its flat ops, its tally and its
    depth matrix. A plain class: a dataclass would cost about a
    millisecond at every import, and its repr would print the whole tree.
    """

    def __init__(self, qubits: tuple[int, ...], body: tuple[BasisOp | _Entry, ...],
                 phase: float) -> None:
        self.qubits = qubits
        self.body = body
        self.phase = phase

    @cached_property
    def ops(self) -> tuple[BasisOp, ...]:
        return _flatten(self.body)

    @cached_property
    def tally(self) -> tuple[int, int, int]:
        """The (u1, u3, cx) counts of its flat ops."""
        tally = [0, 0, 0]
        for item in self.body:
            if type(item) is _Entry:
                tally = [a + b for a, b in zip(tally, item.tally)]
            else:
                tally[_KIND[type(item)]] += 1
        return tuple(tally)

    @cached_property
    def depth(self) -> np.ndarray:
        """Max-plus matrix D of ``count``'s layering over ``qubits``.

        From the last layers ``f`` on its qubits before it, the last layers
        after it are max_p(f[p] + D[p, q]); -inf marks a qubit q that p
        never reaches. Each column follows ``count``'s rule for every row at
        once, and a child entry's matrix is chained onto its qubits' columns.
        Layers are whole floats far below 2**53, so the sums are exact.
        """
        m = len(self.qubits)
        col = {q: i for i, q in enumerate(self.qubits)}
        d = np.full((m, m), -np.inf)
        np.fill_diagonal(d, 0.0)
        for item in self.body:
            if type(item) is _Entry:
                cols = [col[q] for q in item.qubits]
                d[:, cols] = (d[:, cols, None] + item.depth).max(axis=1)
            elif type(item) is CXGate:
                c, t = col[item.control], col[item.target]
                d[:, c] = d[:, t] = np.maximum(d[:, c], d[:, t]) + 1.0
            else:
                d[:, col[item.qubit]] += 1.0
        return d


@dataclass(frozen=True, eq=False)
class BasisCircuit:
    """A circuit over the {U1, U3, CX} basis plus an explicit global phase.

    ``body`` is the top-level sequence: basis ops and, in a circuit that
    ``decompose`` built, the entries of its lowering, each standing for its
    ops. ``ops`` is the flat op tuple, built on first use; two circuits are
    equal when their qubit counts, flat ops, phases and labels are.
    """

    qubit_count: int
    body: tuple[BasisOp | _Entry, ...]
    global_phase: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        object.__setattr__(self, "body", tuple(self.body))
        # shared items are checked once, in order of first appearance; an
        # entry's own ops were checked when it was lowered
        qubits: set[int] = set()
        for item in {id(item): item for item in self.body}.values():
            if not isinstance(item, (U1Gate, U3Gate, CXGate, _Entry)):
                raise TypeError(f"not a basis op: {item!r}")
            qubits.update(item.qubits)
        n = self.qubit_count
        if qubits and not (0 <= min(qubits) and max(qubits) < n):
            bad = min(qubits) if min(qubits) < 0 else max(qubits)
            raise ValueError(f"qubit {bad} outside register of {n}")

    @cached_property
    def ops(self) -> tuple[BasisOp, ...]:
        return _flatten(self.body)

    def _key(self) -> tuple:
        return self.qubit_count, self.ops, self.global_phase, self.label

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasisCircuit):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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


def _blocks(ops: tuple[BasisOp, ...], phase: float, target: int) -> list[list[complex]]:
    """The 2x2 blocks, row-major, that ops and phase apply to ``target``: control off, then on.

    A gate with at most one control is lowered to ops on its target plus CX
    and U1 on the control, so its matrix is block diagonal in the control.
    """
    e = complex(math.cos(phase), math.sin(phase))
    blocks = [[e, 0j, 0j, e], [e, 0j, 0j, e]]
    for op in ops:
        if type(op) is CXGate:
            blocks[1] = blocks[1][2:] + blocks[1][:2]  # X on the left swaps the rows
        elif op.qubit == target:
            a, b, c, d = op.matrix().ravel().tolist()
            blocks = [[a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z]
                      for w, x, y, z in blocks]
        else:
            f = complex(math.cos(op.lam), math.sin(op.lam))
            blocks[1] = [f * v for v in blocks[1]]
    return blocks


def _check(error: float, what: str) -> None:
    if not error <= _LOWER_TOL:  # also true for NaN
        raise ArithmeticError(f"lowering check failed: {what} is off by {error:.3e}")


def _lower_controlled(unitary: np.ndarray, controls: tuple[int, ...], target: int,
                      memo: dict) -> _Entry:
    """The checked table entry of a k-controlled 2x2 unitary (all controls fire on 1).

    Entries are kept in ``memo`` per (unitary, controls, target), so each
    distinct gate, the sub-gates of the recursion included, is lowered and
    checked once per ``decompose`` call and every later use shares it.
    """
    u = np.asarray(unitary, dtype=complex)
    key = (u.tobytes(), controls, target)
    entry = memo.get(key)
    if entry is not None:
        return entry
    if len(controls) > 1:
        # C^k(U) = [CV on last control] [C^{k-1}X] [CV^dag] [C^{k-1}X]
        #          [C^{k-1}V on remaining controls], V = sqrt(U); the
        #          sub-gates are checked entries, so only the root is checked
        rest, last = controls[:-1], controls[-1]
        v = _unitary_sqrt(u)
        _check(float(np.abs(v @ v - u).max()),
               f"the square root of a {len(controls)}-control gate")
        body = (_lower_controlled(v, (last,), target, memo),
                _lower_controlled(_X, rest, last, memo),
                _lower_controlled(v.conj().T, (last,), target, memo),
                _lower_controlled(_X, rest, last, memo),
                _lower_controlled(v, rest, target, memo))
        phase = body[0].phase + body[1].phase + body[2].phase + body[3].phase + body[4].phase
    else:
        ops: list[BasisOp] = []
        if not controls:
            phase = _emit_single(u, target, ops)
        elif _is_x(u):
            ops.append(CXGate(controls[0], target))
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
            phase = _emit_single(mat_c, target, ops)
            ops.append(CXGate(c, target))
            phase += _emit_single(mat_b, target, ops)
            ops.append(CXGate(c, target))
            phase += _emit_single(mat_a, target, ops)
            if abs(alpha) > _DIAG_TOL:
                ops.append(U1Gate(c, alpha))
        body = tuple(ops)
        off, on = _blocks(body, phase, target)
        pairs = list(zip(on, u.ravel().tolist()))
        if controls:
            pairs += zip(off, (1, 0, 0, 1))
        _check(float(np.max([abs(a - b) for a, b in pairs])),
               f"the ops of a {len(controls)}-control gate")
    entry = memo[key] = _Entry(controls + (target,), body, phase)
    return entry


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
    """Lower a circuit to {U1, U3, CX}; basis circuits pass through unchanged.

    Its body holds the table entries of the controlled gates and the ops of
    the diagonal gates, in circuit order.
    """
    if isinstance(circuit, BasisCircuit):
        return circuit
    body: list[BasisOp | _Entry] = []
    phase = 0.0
    memo: dict = {}  # controlled-gate entries, local to this call
    for op in circuit.ops:
        if isinstance(op, DiagonalGate):
            phase += _emit_diagonal(op, body)
            continue
        if not isinstance(op, ControlledGate):
            raise TypeError(f"cannot lower {op!r}")
        # normalize control polarity: controls firing on 0 get X wraps
        wraps = [_lower_controlled(_X, (), q, memo) for q, pol in op.controls if pol == 0]
        gate = _lower_controlled(op.unitary, tuple(q for q, _ in op.controls), op.target, memo)
        for entry in (*wraps, gate, *reversed(wraps)):
            phase += entry.phase
            body.append(entry)
    return BasisCircuit(circuit.qubit_count, tuple(body), phase, label=circuit.label)


# ---------------------------------------------------------------------------
# counts, unitaries, equivalence


def count(circuit: BasisCircuit) -> GateCounts:
    """Tally gates by kind; depth = layering where disjoint qubits share a layer.

    Walks the body: an op moves the last layer of its qubits, and an entry
    adds its tally and takes its qubits' last layers through its depth matrix.
    """
    u1 = u3 = cx = 0
    frontier = [0] * circuit.qubit_count
    for item in circuit.body:
        if type(item) is _Entry:
            a, b, c = item.tally
            u1, u3, cx = u1 + a, u3 + b, cx + c
            before = np.array([frontier[q] for q in item.qubits])
            after = (before[:, None] + item.depth).max(axis=0)
            for q, layer in zip(item.qubits, after.astype(np.int64).tolist()):
                frontier[q] = layer
        elif type(item) is CXGate:
            cx += 1
            layer = 1 + max(frontier[item.control], frontier[item.target])
            frontier[item.control] = frontier[item.target] = layer
        else:
            if type(item) is U1Gate:
                u1 += 1
            else:
                u3 += 1
            frontier[item.qubit] += 1
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


def _qasm_chunks(circuit: BasisCircuit) -> Iterator[str]:
    """The text of ``emit_qasm`` in pieces: the header, then each top-level item.

    Each op object's line and each entry's text is built once per call, keyed
    by ``id``, while the circuit holds every item. An entry of more than
    ``_CHUNK_OPS`` ops is written child by child, so no piece is larger.
    """
    text: dict[int, str] = {}

    def text_of(item: BasisOp | _Entry) -> str:
        piece = text.get(id(item))
        if piece is None:
            if type(item) is _Entry:
                piece = "".join(map(text_of, item.body))
            else:
                piece = _qasm_line(item) + "\n"
            text[id(item)] = piece
        return piece

    def pieces(item: BasisOp | _Entry) -> Iterator[str]:
        if type(item) is _Entry and sum(item.tally) > _CHUNK_OPS:
            for child in item.body:
                yield from pieces(child)
        else:
            yield text_of(item)

    yield 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
    if circuit.label:
        yield f"// {circuit.label}\n"
    if circuit.global_phase != 0.0:
        yield f"// global phase: {circuit.global_phase!r}\n"
    yield f"qreg q[{circuit.qubit_count}];\n"
    for item in circuit.body:
        yield from pieces(item)


def emit_qasm(circuit: BasisCircuit) -> str:
    """OpenQASM 2.0 text over u1/u3/cx, with the global phase as a comment."""
    return "".join(_qasm_chunks(circuit))


def write_qasm(circuit: BasisCircuit, path: str | Path) -> None:
    """Write ``emit_qasm(circuit)`` to ``path`` in pieces, never holding it whole."""
    with open(path, "w", encoding="ascii") as f:
        f.writelines(_qasm_chunks(circuit))


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
        if not line or line.startswith("include"):
            continue
        try:
            if line.startswith("OPENQASM"):
                if saw_header:
                    raise ValueError("repeated OPENQASM header")
                saw_header = True
                continue
            if not saw_header:
                raise ValueError("missing OPENQASM 2.0 header")
            if line.startswith("//"):
                m = re.match(r"^// global phase:(.*)$", line)
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
                    if qubit_count is None:
                        raise ValueError("op before the qreg declaration")
                    op = read(m)
                    if max(op.qubits) >= qubit_count:
                        raise ValueError(
                            f"qubit {max(op.qubits)} outside register of {qubit_count}")
                    ops.append(op)
                    break
            else:
                raise ValueError("unrecognized QASM line")
        except ValueError as exc:
            raise ValueError(f"{exc}: {line}") from None
    if qubit_count is None:
        raise ValueError("missing qreg declaration")
    return BasisCircuit(qubit_count, tuple(ops), global_phase)
