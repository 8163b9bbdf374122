"""Lowering to the {u1, u3, cx} basis: equivalence, counts, QASM."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim.circuits import (
    Circuit,
    build_contact_phase,
    build_trotter_step,
    build_two_particle_step,
    circuit_unitary,
)
from blochsim.model import ModelParams, params_with_gamma
from blochsim.statevector import ControlledGate, DiagonalGate
from blochsim.transpile import (
    REFERENCE_STEP_COUNTS_3Q,
    BasisCircuit,
    CXGate,
    U1Gate,
    U3Gate,
    basis_unitary,
    count,
    decompose,
    emit_qasm,
    equivalent_up_to_phase,
    parse_qasm,
)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
DT = 0.02


def _random_unitary_2x2(rng) -> np.ndarray:
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _check_exact(circuit: Circuit):
    """Decomposition reproduces the source unitary including global phase."""
    basis = decompose(circuit)
    np.testing.assert_allclose(
        basis_unitary(basis), circuit_unitary(circuit), atol=1e-12
    )
    return basis


class TestSingleGates:
    def test_x_lowers_to_one_u3(self):
        basis = decompose(Circuit(1, (ControlledGate(target=0, unitary=_X),)))
        assert len(basis.ops) == 1
        op = basis.ops[0]
        assert isinstance(op, U3Gate)
        assert op.theta == pytest.approx(np.pi)
        np.testing.assert_allclose(basis_unitary(basis), _X, atol=1e-12)

    def test_cx_lowers_to_one_cx(self):
        circuit = Circuit(2, (ControlledGate(target=1, unitary=_X, controls=((0, 1),)),))
        basis = decompose(circuit)
        assert len(basis.ops) == 1 and isinstance(basis.ops[0], CXGate)
        counts = count(basis)
        assert (counts.cx, counts.u1, counts.u3) == (1, 0, 0)

    def test_random_single_qubit(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            circuit = Circuit(1, (ControlledGate(target=0, unitary=_random_unitary_2x2(rng)),))
            _check_exact(circuit)


class TestControlledDecomposition:
    @pytest.mark.parametrize("n_controls", [1, 2, 3])
    def test_random_multi_controlled(self, n_controls):
        rng = np.random.default_rng(42 + n_controls)
        qubits = n_controls + 1
        for _ in range(3):
            order = rng.permutation(qubits)
            controls = tuple((int(q), int(rng.integers(0, 2))) for q in order[1:])
            gate = ControlledGate(
                target=int(order[0]), unitary=_random_unitary_2x2(rng), controls=controls
            )
            basis = _check_exact(Circuit(qubits, (gate,)))
            assert equivalent_up_to_phase(
                basis_unitary(basis), circuit_unitary(Circuit(qubits, (gate,))), tol=1e-10
            )

    def test_open_controls_need_no_wrapping_x(self):
        # an open control lowers through the same pattern, phases folded in
        gate = ControlledGate(target=0, unitary=_X, controls=((1, 0),))
        basis = _check_exact(Circuit(2, (gate,)))
        assert count(basis).cx >= 1


def _relabelled(ops, mapping: dict) -> tuple:
    """Basis ops with every qubit q moved to mapping[q]."""
    moved = []
    for op in ops:
        if isinstance(op, CXGate):
            moved.append(CXGate(mapping[op.control], mapping[op.target]))
        else:
            moved.append(dataclasses.replace(op, qubit=mapping[op.qubit]))
    return tuple(moved)


def _near_diagonal(rng, eps: float) -> np.ndarray:
    """Random phases around a rotation by eps, so |off-diagonal| = |sin eps|."""
    c, s = np.cos(eps), np.sin(eps)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
    return phases[0] * np.diag([1.0, phases[1]]) @ np.array([[c, -s], [s, c]]) @ np.diag(
        [1.0, phases[2]])


@st.composite
def _lowering_unitaries(draw):
    """A random 2x2 unitary, X, a diagonal, or off-diagonals near the 1e-12 switch."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "x", "diagonal", "near-diagonal"]))
    if kind == "random":
        return _random_unitary_2x2(rng)
    if kind == "x":
        return _X
    if kind == "diagonal":
        return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 2)))
    eps = draw(st.floats(1e-13, 1e-11)) * draw(st.sampled_from([1.0, -1.0]))
    return _near_diagonal(rng, eps)


@st.composite
def _controlled_cases(draw):
    """(n, unitary, qubits of one gate, qubits of a second, polarities): target first."""
    k = draw(st.integers(0, 5))
    n = draw(st.integers(k + 1, 7))
    first = draw(st.permutations(range(n)))[:k + 1]
    second = draw(st.permutations(range(n)))[:k + 1]
    polarities = tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    return n, draw(_lowering_unitaries()), tuple(first), tuple(second), polarities


def _gate(unitary, qubits, polarities) -> ControlledGate:
    return ControlledGate(target=qubits[0], unitary=unitary,
                          controls=tuple(zip(qubits[1:], polarities)))


class TestLoweringProperties:
    @settings(max_examples=120, deadline=None)
    @given(_controlled_cases())
    def test_lowering_is_equivalent(self, case):
        n, u, qubits, _, polarities = case
        circuit = Circuit(n, (_gate(u, qubits, polarities),))
        u_basis, u_circuit = basis_unitary(decompose(circuit)), circuit_unitary(circuit)
        assert equivalent_up_to_phase(u_basis, u_circuit)
        # the tracked global phase makes them equal outright
        np.testing.assert_allclose(u_basis, u_circuit, rtol=0, atol=1e-10)

    @settings(max_examples=120, deadline=None)
    @given(_controlled_cases())
    def test_lowering_relabels_the_slot_lowering(self, case):
        n, u, qubits, _, polarities = case
        k = len(polarities)
        slots = (k,) + tuple(range(k))  # target k, controls 0..k-1
        on_slots = decompose(Circuit(k + 1, (_gate(u, slots, polarities),)))
        on_qubits = decompose(Circuit(n, (_gate(u, qubits, polarities),)))
        assert on_qubits.ops == _relabelled(on_slots.ops, dict(zip(slots, qubits)))
        assert on_qubits.global_phase == on_slots.global_phase

    @settings(max_examples=120, deadline=None)
    @given(_controlled_cases())
    def test_repeated_gate_lowers_to_relabelled_copies(self, case):
        n, u, first, second, polarities = case
        once = decompose(Circuit(n, (_gate(u, first, polarities),)))
        twice = decompose(Circuit(n, (_gate(u, first, polarities), _gate(u, second, polarities))))
        copy = _relabelled(once.ops, dict(zip(first, second)))
        assert twice.ops == once.ops + copy
        assert twice.global_phase == once.global_phase + once.global_phase

    @settings(max_examples=60, deadline=None)
    @given(_controlled_cases())
    def test_decompose_is_deterministic(self, case):
        n, u, first, second, polarities = case
        circuit = Circuit(n, (_gate(u, first, polarities), _gate(u, second, polarities)))
        a, b = decompose(circuit), decompose(circuit)
        assert a.ops == b.ops and a.global_phase == b.global_phase

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_diagonal_lowering_is_exact(self, n, data):
        # phases that depend on a random subset of the bits only, plus noise:
        # the Walsh coefficients outside that subset are noise near the 1e-12
        # switch and fall on both sides of it; each dropped one is below
        # 1e-12, hence the error bound
        qubits = tuple(data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))])
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        m = len(qubits)
        keep = int(rng.integers(0, 2 ** m))
        levels = rng.uniform(-np.pi, np.pi, 2 ** m)[np.arange(2 ** m) & keep]
        noise = data.draw(st.floats(1e-13, 1e-11)) * rng.standard_normal(2 ** m)
        circuit = Circuit(n, (DiagonalGate(qubits, np.exp(1j * (levels + noise))),))
        np.testing.assert_allclose(basis_unitary(decompose(circuit)), circuit_unitary(circuit),
                                   rtol=0, atol=2 ** m * 1e-12 + 1e-12)


class TestDiagonalDecomposition:
    def test_single_qubit_diagonal(self):
        gate = DiagonalGate(qubits=(0,), diagonal=np.exp(1j * np.array([0.3, -0.8])))
        _check_exact(Circuit(1, (gate,)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_random_diagonals(self, m):
        rng = np.random.default_rng(50 + m)
        qubits = tuple(rng.permutation(3)[:m].tolist())
        gate = DiagonalGate(
            qubits=qubits, diagonal=np.exp(1j * rng.uniform(-np.pi, np.pi, 2 ** m))
        )
        _check_exact(Circuit(3, (gate,)))

    def test_pure_global_phase(self):
        gate = DiagonalGate(qubits=(), diagonal=np.array([np.exp(0.7j)]))
        basis = decompose(Circuit(2, (gate,)))
        assert len(basis.ops) == 0
        assert basis.global_phase == pytest.approx(0.7)
        np.testing.assert_allclose(
            basis_unitary(basis), np.exp(0.7j) * np.eye(4), atol=1e-12
        )


class TestStepCircuits:
    @pytest.mark.parametrize("gamma", [2, 3])
    def test_step_equivalence(self, gamma):
        p = params_with_gamma(gamma, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        circuit = build_trotter_step(p, DT, DT)
        basis = _check_exact(circuit)
        assert equivalent_up_to_phase(
            basis_unitary(basis), circuit_unitary(circuit), tol=1e-10
        )

    def test_two_particle_step_equivalence(self):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=10.0, n_sites=4)
        _check_exact(build_two_particle_step(p, DT, DT))

    @pytest.mark.parametrize("v", [10.0, 250.0])
    def test_contact_phase_equivalence(self, v):
        # v = 250 puts v*dt past pi, where the phase angle wraps
        p = ModelParams(delta_a=5.0, delta_b=1.0, v=v, n_sites=4)
        basis = _check_exact(build_contact_phase(p, DT))
        expected = np.ones(16, dtype=complex)
        expected[np.arange(4) * 5] = np.exp(-1j * v * DT)
        np.testing.assert_allclose(basis_unitary(basis), np.diag(expected), atol=1e-12)

    def test_step_count_regressions(self):
        # frozen tallies of this decomposer; a deliberate algorithm change
        # should update them together with the ledgered comparison table
        p2 = params_with_gamma(2, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        p3 = params_with_gamma(3, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        c2 = count(decompose(build_trotter_step(p2, DT, DT)))
        c3 = count(decompose(build_trotter_step(p3, DT, DT)))
        assert c2.as_dict() == {"depth": 11, "u1": 2, "u3": 8, "cx": 2}
        assert c3.as_dict() == {"depth": 42, "u1": 15, "u3": 28, "cx": 18}
        two_particle = {
            2: {"depth": 21, "u1": 7, "u3": 16, "cx": 14},
            3: {"depth": 77, "u1": 37, "u3": 56, "cx": 70},
            4: {"depth": 241, "u1": 135, "u3": 168, "cx": 246},
        }
        for gamma, tally in two_particle.items():
            p = params_with_gamma(gamma, delta_a=5.0, delta_b=1.0, f_dc=1.5, v=2.0)
            assert count(decompose(build_two_particle_step(p, DT, DT))).as_dict() == tally

    def test_reference_tally_is_pinned(self):
        assert REFERENCE_STEP_COUNTS_3Q == {"depth": 25, "u1": 4, "u3": 13, "cx": 14}

    def test_ten_steps_depth_scales_linearly(self):
        p = params_with_gamma(3, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        single = build_trotter_step(p, DT, DT)
        ten = Circuit(3, single.ops * 10)
        d1 = count(decompose(single)).depth
        d10 = count(decompose(ten)).depth
        assert 0.9 * 10 * d1 <= d10 <= 10 * d1


class TestCounts:
    def test_depth_packs_disjoint_qubits(self):
        bc = BasisCircuit(2, (U3Gate(0, 0.1, 0.2, 0.3), U3Gate(1, 0.4, 0.5, 0.6)))
        assert count(bc).depth == 1

    def test_depth_serializes_shared_qubits(self):
        bc = BasisCircuit(2, (CXGate(0, 1), U1Gate(1, 0.3), U1Gate(0, 0.2)))
        counts = count(bc)
        assert counts.depth == 2
        assert counts.as_dict() == {"depth": 2, "u1": 2, "u3": 0, "cx": 1}

    def test_total(self):
        bc = BasisCircuit(2, (CXGate(0, 1), U1Gate(1, 0.3)))
        assert count(bc).total == 2

    def test_decompose_is_idempotent(self):
        p = params_with_gamma(2, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        basis = decompose(build_trotter_step(p, DT, DT))
        again = decompose(basis)
        assert count(again).as_dict() == count(basis).as_dict()
        np.testing.assert_allclose(basis_unitary(again), basis_unitary(basis), atol=1e-12)


class TestBasisCircuitChecks:
    def test_non_basis_op_rejected(self):
        with pytest.raises(TypeError, match="not a basis op"):
            BasisCircuit(2, (CXGate(0, 1), ControlledGate(target=0, unitary=_X)))

    @pytest.mark.parametrize("op", [U1Gate(-1, 0.3), U3Gate(-2, 0.1, 0.2, 0.3), CXGate(-1, 0)])
    def test_negative_qubit_rejected(self, op):
        with pytest.raises(ValueError, match="qubit -[12] outside register of 2"):
            BasisCircuit(2, (U1Gate(0, 0.1), op))

    @pytest.mark.parametrize("op", [U1Gate(2, 0.3), U3Gate(3, 0.1, 0.2, 0.3), CXGate(0, 2)])
    def test_qubit_past_register_rejected(self, op):
        with pytest.raises(ValueError, match="qubit [23] outside register of 2"):
            BasisCircuit(2, (op, CXGate(1, 0)))


class TestEquivalence:
    def test_accepts_pure_phase(self):
        rng = np.random.default_rng(60)
        u = circuit_unitary(build_trotter_step(
            params_with_gamma(2, delta_a=5.0, delta_b=1.0, f_dc=1.5), DT, DT))
        assert equivalent_up_to_phase(u, np.exp(0.4j) * u)

    def test_rejects_different_unitaries(self):
        assert not equivalent_up_to_phase(np.eye(2, dtype=complex), _X)

    def test_rejects_shape_mismatch(self):
        assert not equivalent_up_to_phase(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


class TestQasm:
    def _demo_basis(self):
        p = params_with_gamma(2, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        return decompose(build_trotter_step(p, DT, DT))

    def test_header_and_register(self):
        text = emit_qasm(self._demo_basis())
        lines = text.splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert lines[1] == 'include "qelib1.inc";'
        assert "qreg q[2];" in lines

    def test_round_trip_preserves_unitary_and_counts(self):
        basis = self._demo_basis()
        back = parse_qasm(emit_qasm(basis))
        assert count(back).as_dict() == count(basis).as_dict()
        np.testing.assert_allclose(basis_unitary(back), basis_unitary(basis), atol=1e-12)

    def test_round_trip_preserves_global_phase(self):
        bc = BasisCircuit(1, (U1Gate(0, 0.25),), global_phase=1.1)
        back = parse_qasm(emit_qasm(bc))
        assert back.global_phase == pytest.approx(1.1)

    def test_gate_lines_are_parseable_floats(self):
        text = emit_qasm(self._demo_basis())
        for line in text.splitlines():
            if line.startswith("u3"):
                args = line[line.index("(") + 1:line.index(")")].split(",")
                assert len(args) == 3
                [float(a) for a in args]

    def test_parse_rejects_unknown_gate(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n'
        with pytest.raises(ValueError, match="h"):
            parse_qasm(text)

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ValueError, match="OPENQASM"):
            parse_qasm("qreg q[1];\n")


# finite angles, with the edge cases of float repr forced in: signed zeros,
# subnormals, and exponent forms at both ends
_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e16, -1e16, 1e-5, -1e-5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _basis_circuits(draw):
    n = draw(st.integers(1, 6))
    qubit = st.integers(0, n - 1)
    one_qubit = st.one_of(st.builds(U1Gate, qubit, _ANGLES),
                          st.builds(U3Gate, qubit, _ANGLES, _ANGLES, _ANGLES))
    ops = [one_qubit] if n == 1 else [
        one_qubit, st.permutations(range(n)).map(lambda qs: CXGate(qs[0], qs[1]))]
    return BasisCircuit(n, tuple(draw(st.lists(st.one_of(*ops), max_size=30))),
                        global_phase=draw(_ANGLES))


class TestQasmRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_basis_circuits())
    def test_parse_inverts_emit(self, circuit):
        text = emit_qasm(circuit)
        back = parse_qasm(text)
        assert back.qubit_count == circuit.qubit_count
        assert back.ops == circuit.ops
        assert back.global_phase == circuit.global_phase
        assert emit_qasm(back) == text
