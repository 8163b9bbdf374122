"""Lowering to the {u1, u3, cx} basis: equivalence, counts, QASM."""
import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochsim.circuits import (
    Circuit,
    build_contact_phase,
    build_inter_hop,
    build_trotter_step,
    build_two_particle_step,
    circuit_unitary,
)
from blochsim.model import ModelParams, params_with_gamma
from blochsim.statevector import ControlledGate, DiagonalGate, apply_gate_to_array
import blochsim.transpile as transpile
from blochsim.transpile import (
    REFERENCE_STEP_COUNTS_3Q,
    BasisCircuit,
    CXGate,
    U1Gate,
    U3Gate,
    _as_gate,
    _unitary_sqrt,
    basis_unitary,
    count,
    decompose,
    emit_qasm,
    equivalent_up_to_phase,
    parse_qasm,
    write_qasm,
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


_W = _random_unitary_2x2(np.random.default_rng(43))
# eigenvalues e^{+-i(pi - 1e-9)}, in a random basis
_NEAR_MINUS_ONE_PAIR = _W @ np.diag(np.exp(np.array([1j, -1j]) * (np.pi - 1e-9))) @ _W.conj().T


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

    def test_root_of_root_stays_exact(self):
        # C^k X takes X^(1/2^j) for j up to k; each root is taken of the last
        v = _X
        for _ in range(20):
            root = _unitary_sqrt(v)
            np.testing.assert_allclose(root @ root, v, rtol=0, atol=1e-14)
            v = root

    @pytest.mark.parametrize("u", [
        -np.eye(2, dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        _NEAR_MINUS_ONE_PAIR,
    ], ids=["minus-identity", "y", "conjugate-pair-near-minus-one"])
    def test_root_near_minus_one(self, u):
        root = _unitary_sqrt(u)
        np.testing.assert_allclose(root @ root, u, rtol=0, atol=1e-14)
        _check_exact(Circuit(4, (ControlledGate(3, u, ((0, 1), (1, 1), (2, 1))),)))

    def test_nine_controlled_x_on_random_states(self):
        n = 10
        gate = ControlledGate(n - 1, _X, tuple((q, 1) for q in range(n - 1)))
        basis = decompose(Circuit(n, (gate,)))
        rng = np.random.default_rng(44)
        psi = rng.standard_normal((2, 2 ** n)) + 1j * rng.standard_normal((2, 2 ** n))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        want = psi.copy()
        apply_gate_to_array(want, n, gate)
        gates = {id(op): _as_gate(op, range(n)) for op in basis.ops}
        for op in basis.ops:
            apply_gate_to_array(psi, n, gates[id(op)])
        np.testing.assert_allclose(psi * np.exp(1j * basis.global_phase), want, rtol=0, atol=1e-12)


class TestLoweringChecks:
    """Each entry is checked once while it is lowered; a wrong one raises."""

    def test_perturbed_square_root_is_caught(self, monkeypatch):
        exact = transpile._unitary_sqrt
        monkeypatch.setattr(transpile, "_unitary_sqrt", lambda u: exact(u) + 1e-6 * _X)
        gate = ControlledGate(2, _U, ((0, 1), (1, 1)))
        with pytest.raises(ArithmeticError, match="square root of a 2-control gate"):
            decompose(Circuit(3, (gate,)))

    @pytest.mark.parametrize("k", [0, 1])
    def test_perturbed_few_control_ops_are_caught(self, monkeypatch, k):
        # a wrong phase from the one-qubit emission reaches every gate with
        # at most one control
        exact = transpile._emit_single
        monkeypatch.setattr(transpile, "_emit_single",
                            lambda u, q, ops: exact(u, q, ops) + 1e-6)
        gate = ControlledGate(1, _U, ((0, 1),) * k)
        with pytest.raises(ArithmeticError, match=f"ops of a {k}-control gate"):
            decompose(Circuit(2, (gate,)))


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


@st.composite
def _placement_cases(draw):
    """(n, gates): 2-5 gates with 2+ controls, each on the qubits of the one
    before, on those qubits with the controls permuted, or on fresh qubits."""
    n = draw(st.integers(3, 7))
    pool = [draw(_lowering_unitaries()) for _ in range(draw(st.integers(1, 2)))]
    gates = []
    for _ in range(draw(st.integers(2, 5))):
        move = draw(st.sampled_from(["same", "permuted", "fresh"])) if gates else "fresh"
        if move == "fresh":
            k = draw(st.integers(2, n - 1))
            qubits = tuple(draw(st.permutations(range(n)))[:k + 1])
            polarities = tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
        elif move == "permuted":
            qubits = qubits[:1] + tuple(draw(st.permutations(qubits[1:])))
        gates.append(_gate(draw(st.sampled_from(pool)), qubits, polarities))
    return n, tuple(gates)


# a fixed non-diagonal unitary for the pinned placement examples
_U = _random_unitary_2x2(np.random.default_rng(7))


def _assert_lowered_as_if_alone(n, gates):
    """Lowering gates together gives each gate's own lowering, in order."""
    together = decompose(Circuit(n, gates))
    alone = [decompose(Circuit(n, (gate,))) for gate in gates]
    assert together.ops == tuple(op for basis in alone for op in basis.ops)
    assert abs(together.global_phase - sum(b.global_phase for b in alone)) <= 1e-12


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
        # decompose lowers each gate on its own qubits; moving the qubits must
        # move the ops and nothing else (qubit-equivariance)
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

    @settings(max_examples=120, deadline=None)
    @given(_controlled_cases())
    def test_repeated_gate_reuses_the_same_objects(self, case):
        # every controlled gate, any k, is one memo entry and so is each
        # open-control X wrap: the second use appends the first use's objects
        n, u, qubits, _, polarities = case
        gate = _gate(u, qubits, polarities)
        ops = decompose(Circuit(n, (gate, gate))).ops
        half = len(ops) // 2
        assert len(ops) == 2 * half
        assert all(a is b for a, b in zip(ops[:half], ops[half:]))

    def test_open_control_wraps_share_their_objects(self):
        # X wraps on qubits 1 and 2 open the lowering and close it in reverse
        gate = ControlledGate(target=0, unitary=_U, controls=((1, 0), (2, 0), (3, 1)))
        ops = decompose(Circuit(4, (gate,))).ops
        assert [op.qubits for op in ops[:2]] == [(1,), (2,)]
        assert ops[-1] is ops[0] and ops[-2] is ops[1]

    @settings(max_examples=120, deadline=None)
    @given(_placement_cases())
    # the same controls on a new target, and the same controls reversed: the
    # memo key must hold the target and the controls in order
    @example((4, (_gate(_U, (0, 1, 2), (1, 1)), _gate(_U, (3, 1, 2), (1, 1)))))
    @example((4, (_gate(_U, (0, 1, 2, 3), (1, 1, 1)), _gate(_U, (0, 3, 2, 1), (1, 1, 1)))))
    def test_each_gate_lowers_as_if_alone(self, case):
        _assert_lowered_as_if_alone(*case)

    @pytest.mark.parametrize("gamma", [2, 3, 4, 5, 6])
    def test_inter_hop_gates_lower_as_if_alone(self, gamma):
        # the decrement is the increment reversed: every C^kX is reused once
        circuit = build_inter_hop(params_with_gamma(gamma, delta_a=5.0, delta_b=1.0), DT)
        _assert_lowered_as_if_alone(gamma, circuit.ops)

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

    @pytest.mark.parametrize("bad,error,match", [
        (ControlledGate(target=0, unitary=_X), TypeError, "not a basis op: ControlledGate"),
        (U1Gate(5, 0.3), ValueError, "qubit 5 outside register of 2"),
    ])
    def test_one_bad_object_repeated_rejected(self, bad, error, match):
        with pytest.raises(error, match=match):
            BasisCircuit(2, (CXGate(0, 1),) + (bad,) * 1000)

    def test_first_bad_op_after_shared_valid_op_is_named(self):
        shared = CXGate(0, 1)
        first = DiagonalGate((0,), np.array([1.0, -1.0]))
        ops = (shared,) * 1000 + (first,) + (shared,) * 10 + (ControlledGate(0, _X), first)
        with pytest.raises(TypeError, match="not a basis op: DiagonalGate"):
            BasisCircuit(2, ops)

    @pytest.mark.parametrize("n", [0, -2])
    def test_non_positive_qubit_count_rejected(self, n):
        with pytest.raises(ValueError, match="qubit_count must be >= 1"):
            BasisCircuit(n, ())


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

    @pytest.mark.parametrize("line", ["u1(1,2) q[0];", "u3(a,b,c) q[0];", "u3(0,x,1) q[0];",
                                      "u1(nan) q[0];", "u1(inf) q[0];", "u3(0,-inf,1) q[0];",
                                      "// global phase: nan", "// global phase: pi"])
    def test_parse_rejects_bad_angles_naming_the_line(self, line):
        text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n{line}\n'
        with pytest.raises(ValueError, match="angle") as err:
            parse_qasm(text)
        assert line in str(err.value)

    def test_parse_rejects_a_bad_op_naming_the_line(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[1],q[1];\n'
        with pytest.raises(ValueError, match=r"^control and target must differ: cx q\[1\],q\[1\];$"):
            parse_qasm(text)

    def test_parse_rejects_repeated_qreg(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nqreg q[3];\ncx q[0],q[2];\n'
        with pytest.raises(ValueError, match=r"qreg q\[3\]"):
            parse_qasm(text)

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ValueError, match="OPENQASM"):
            parse_qasm("qreg q[1];\n")

    @pytest.mark.parametrize("body,line,message", [
        ("u1(0.5) q[0];\nqreg q[1];\n", "u1(0.5) q[0];", "op before the qreg declaration"),
        ("qreg q[2];\ncx q[0],q[5];\n", "cx q[0],q[5];", "qubit 5 outside register of 2"),
        ("qreg q[2];\nu3(0,0,0) q[2];\n", "u3(0,0,0) q[2];", "qubit 2 outside register of 2"),
        ("OPENQASM 2.0;\nqreg q[1];\n", "OPENQASM 2.0;", "repeated OPENQASM header"),
        ("// global phase: 1.0 extra\nqreg q[1];\n", "// global phase: 1.0 extra",
         "not an angle '1.0 extra'"),
        ("// global phase:\nqreg q[1];\n", "// global phase:", "not an angle ''"),
    ], ids=["op-before-qreg", "cx-outside", "u3-outside", "second-header", "phase-extra",
            "phase-empty"])
    def test_parse_rejects_naming_the_line(self, body, line, message):
        with pytest.raises(ValueError) as err:
            parse_qasm(f'OPENQASM 2.0;\ninclude "qelib1.inc";\n{body}')
        assert str(err.value) == f"{message}: {line}"

    def test_write_qasm_writes_the_emitted_text(self, tmp_path):
        basis = self._demo_basis()
        write_qasm(basis, tmp_path / "step.qasm")
        assert (tmp_path / "step.qasm").read_bytes() == emit_qasm(basis).encode("ascii")


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


# each circuit draws its ops from a pool of at most six objects, each built
# from a pool of at most four angles; an op is a pooled object reused as is or
# an equal but distinct copy. Equal ops can print differently (U1Gate(0, 1) ==
# U1Gate(0, 1.0) and U1Gate(0, 0.0) == U1Gate(0, -0.0)), so signed zeros,
# subnormals, nan, inf and ints are forced in
_TEXT_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, float("nan"), 1, 1.0, -2, -2.0]),
    st.floats(),
)


@st.composite
def _repeating_op_circuits(draw):
    n = draw(st.integers(1, 4))
    angle = st.sampled_from(draw(st.lists(_TEXT_ANGLES, min_size=1, max_size=4)))
    qubit = st.integers(0, n - 1)
    kinds = [st.builds(U1Gate, qubit, angle), st.builds(U3Gate, qubit, angle, angle, angle)]
    if n > 1:
        kinds.append(st.permutations(range(n)).map(lambda qs: CXGate(qs[0], qs[1])))
    pool = draw(st.lists(st.one_of(*kinds), min_size=1, max_size=6))
    op = st.tuples(st.sampled_from(pool), st.booleans()).map(
        lambda pick: copy.copy(pick[0]) if pick[1] else pick[0])
    return BasisCircuit(n, tuple(draw(st.lists(op, min_size=1, max_size=60))))


def _fresh_line(op) -> str:
    """The line of a basis op, each angle formatted afresh."""
    if isinstance(op, U1Gate):
        return f"u1({op.lam!r}) q[{op.qubit}];"
    if isinstance(op, U3Gate):
        return f"u3({op.theta!r},{op.phi!r},{op.lam!r}) q[{op.qubit}];"
    return f"cx q[{op.control}],q[{op.target}];"


_SHARED_ZERO = U1Gate(0, -0.0)


class TestQasmAngleText:
    @settings(max_examples=200, deadline=None)
    @given(_repeating_op_circuits())
    @example(BasisCircuit(1, (U1Gate(0, 0.0), U1Gate(0, -0.0), U3Gate(0, 0.0, -0.0, 0.0))))
    @example(BasisCircuit(1, (U1Gate(0, -0.0), U1Gate(0, 0.0), U3Gate(0, -0.0, 0.0, -0.0))))
    @example(BasisCircuit(1, (U1Gate(0, 1.0), U1Gate(0, 1), U1Gate(0, 1.0))))
    @example(BasisCircuit(1, (_SHARED_ZERO, U1Gate(0, 0.0), _SHARED_ZERO,
                              copy.copy(_SHARED_ZERO), _SHARED_ZERO)))
    def test_each_angle_prints_as_its_own_repr(self, circuit):
        lines = emit_qasm(circuit).splitlines()
        assert lines[-len(circuit.ops):] == [_fresh_line(op) for op in circuit.ops]

    @pytest.mark.parametrize("particles,gamma",
                             [(1, g) for g in range(1, 12)] + [(2, g) for g in range(1, 7)])
    def test_lowered_step_prints_op_by_op(self, particles, gamma):
        # the text and the counts come from the lowering's entry table; both
        # must equal the same work done op by op on the flat tuple
        p = params_with_gamma(gamma, delta_a=5.0, delta_b=1.0, f_dc=1.5, v=2.0)
        build = build_trotter_step if particles == 1 else build_two_particle_step
        basis = decompose(build(p, DT, DT))
        phase = [f"// global phase: {basis.global_phase!r}"] if basis.global_phase else []
        lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"// {basis.label}", *phase,
                 f"qreg q[{basis.qubit_count}];", *map(_fresh_line, basis.ops)]
        assert emit_qasm(basis) == "\n".join(lines) + "\n"
        assert count(basis).as_dict() == _frontier_counts(basis)


def _frontier_counts(circuit: BasisCircuit) -> dict:
    """Tallies and depth from one frontier loop over the flat ops."""
    tally = {"u1": 0, "u3": 0, "cx": 0}
    frontier = [0] * circuit.qubit_count
    for op in circuit.ops:
        if isinstance(op, CXGate):
            tally["cx"] += 1
            frontier[op.control] = frontier[op.target] = 1 + max(frontier[op.control],
                                                                 frontier[op.target])
        else:
            tally["u1" if isinstance(op, U1Gate) else "u3"] += 1
            frontier[op.qubit] += 1
    return {"depth": max(frontier), **tally}


@st.composite
def _mixed_circuits(draw):
    """Circuits on at most 6 qubits: controlled gates, repeats and diagonals."""
    n = draw(st.integers(1, 6))
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        qubits = tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
        if draw(st.booleans()):
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            gates.append(DiagonalGate(qubits, np.exp(1j * rng.uniform(-np.pi, np.pi,
                                                                      2 ** len(qubits)))))
        elif gates and draw(st.booleans()):
            gates.append(gates[-1])
        else:
            polarities = draw(st.lists(st.integers(0, 1), min_size=len(qubits) - 1,
                                       max_size=len(qubits) - 1))
            gates.append(_gate(draw(_lowering_unitaries()), qubits, polarities))
    return Circuit(n, tuple(gates), label="mixed")


def _assert_table_matches_flat(circuit: Circuit) -> None:
    """count, emit_qasm and equality on the lowered table agree with the flat ops."""
    basis = decompose(circuit)
    flat = BasisCircuit(basis.qubit_count, basis.ops, basis.global_phase, basis.label)
    assert count(basis).as_dict() == _frontier_counts(flat) == count(flat).as_dict()
    text = emit_qasm(basis)
    qreg = f"qreg q[{basis.qubit_count}];\n"
    head = text[:text.index(qreg) + len(qreg)]
    assert text == head + "".join(_fresh_line(op) + "\n" for op in basis.ops)
    assert text == emit_qasm(flat)
    assert parse_qasm(head).global_phase == basis.global_phase
    assert basis == flat and hash(basis) == hash(flat)


class TestLoweredTable:
    """The lowering's entries are counted and printed once; the result must
    equal the same work done op by op on the flat tuple."""

    @settings(max_examples=150, deadline=None)
    @given(_mixed_circuits())
    def test_random_circuits(self, circuit):
        _assert_table_matches_flat(circuit)

    @settings(max_examples=60, deadline=None)
    @given(_placement_cases())
    def test_shared_placements(self, case):
        n, gates = case
        _assert_table_matches_flat(Circuit(n, gates))

    def test_ops_are_built_once_and_shared(self):
        p = params_with_gamma(4, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        basis = decompose(build_trotter_step(p, DT, DT))
        assert basis.ops is basis.ops
        assert len(basis.body) < len(basis.ops)
