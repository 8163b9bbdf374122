"""Bit-indexed state storage and gate application."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim.circuits import Circuit, build_two_particle_step, circuit_unitary
from blochsim.model import ModelParams
from blochsim.statevector import (
    ControlledGate,
    DiagonalGate,
    Statevector,
    apply_gate_to_array,
)
from blochsim.transpile import (
    BasisCircuit,
    CXGate,
    U1Gate,
    U3Gate,
    basis_unitary,
    decompose,
)

_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _random_state(rng, n_qubits):
    amps = rng.standard_normal(2 ** n_qubits) + 1j * rng.standard_normal(2 ** n_qubits)
    return amps / np.linalg.norm(amps)


def _dense_controlled(gate: ControlledGate, n_qubits: int) -> np.ndarray:
    """Independent dense build: loop over basis states, flip the target block."""
    dim = 2 ** n_qubits
    u = np.eye(dim, dtype=complex)
    for j in range(dim):
        if (j >> gate.target) & 1:
            continue
        if all((j >> q) & 1 == pol for q, pol in gate.controls):
            j1 = j | (1 << gate.target)
            u[j, j] = gate.unitary[0, 0]
            u[j, j1] = gate.unitary[0, 1]
            u[j1, j] = gate.unitary[1, 0]
            u[j1, j1] = gate.unitary[1, 1]
    return u


def _basis(n_qubits: int, index: int) -> np.ndarray:
    return np.eye(2 ** n_qubits, dtype=complex)[index]


def _random_unitary_2x2(rng) -> np.ndarray:
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestStatevector:
    def test_basis_state_is_one_hot(self):
        sv = Statevector(1, 2, [0, 0, 0, 1])
        np.testing.assert_array_equal(sv.amplitudes, _basis(2, 3))
        assert sv.amplitudes.dtype == complex and sv.n_qubits == 2

    def test_two_register_dims(self):
        sv = Statevector(2, 2, _basis(4, 0))
        assert sv.n_qubits == 4 and sv.amplitudes.size == 16

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            Statevector(1, 1, np.array([1.0, 1.0]))

    def test_length_enforced(self):
        with pytest.raises(ValueError, match="length"):
            Statevector(1, 2, np.array([1.0, 0.0]))

    def test_bad_register_count(self):
        with pytest.raises(ValueError, match="num_registers"):
            Statevector(3, 1, np.ones(8) / np.sqrt(8))


class TestLittleEndian:
    def test_x_on_qubit0_swaps_adjacent_indices(self):
        psi = _basis(2, 0)
        apply_gate_to_array(psi, 2, ControlledGate(target=0, unitary=_X))
        np.testing.assert_array_equal(psi, _basis(2, 1))

    def test_x_on_qubit1_jumps_by_two(self):
        psi = _basis(2, 0)
        apply_gate_to_array(psi, 2, ControlledGate(target=1, unitary=_X))
        np.testing.assert_array_equal(psi, _basis(2, 2))

    def test_site_index_is_basis_index(self):
        # site 5 on an 8-site chain is |101> with qubit 0 = LSB
        psi = _basis(3, 5)
        apply_gate_to_array(psi, 3, ControlledGate(target=2, unitary=_X))
        np.testing.assert_array_equal(psi, _basis(3, 1))  # cleared the 4-bit


class TestControlledGate:
    def test_filled_control_fires_on_one(self):
        psi = _basis(2, 1)  # qubit 0 set
        apply_gate_to_array(psi, 2, ControlledGate(target=1, unitary=_X, controls=((0, 1),)))
        np.testing.assert_array_equal(psi, _basis(2, 3))

    def test_filled_control_idle_on_zero(self):
        psi = _basis(2, 0)
        apply_gate_to_array(psi, 2, ControlledGate(target=1, unitary=_X, controls=((0, 1),)))
        np.testing.assert_array_equal(psi, _basis(2, 0))

    def test_open_control_fires_on_zero(self):
        psi = _basis(2, 0)
        apply_gate_to_array(psi, 2, ControlledGate(target=1, unitary=_X, controls=((0, 0),)))
        np.testing.assert_array_equal(psi, _basis(2, 2))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            ControlledGate(target=0, unitary=np.array([[1, 0], [0, 2.0]]))

    def test_control_equal_to_target_rejected(self):
        with pytest.raises(ValueError, match="control"):
            ControlledGate(target=0, unitary=_X, controls=((0, 1),))

    def test_duplicate_controls_rejected(self):
        with pytest.raises(ValueError, match="control"):
            ControlledGate(target=2, unitary=_X, controls=((1, 1), (1, 0)))

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError, match="polarity"):
            ControlledGate(target=1, unitary=_X, controls=((0, 2),))

    def test_shifted_moves_all_qubits(self):
        gate = ControlledGate(target=0, unitary=_X, controls=((1, 0),))
        moved = gate.shifted(3)
        assert moved.target == 3 and moved.controls == ((4, 0),)

    def test_matches_dense_oracle_on_random_states(self):
        rng = np.random.default_rng(11)
        for controls in [(), ((1, 1),), ((2, 0),), ((1, 0), (2, 1))]:
            gate = ControlledGate(target=0, unitary=_random_unitary_2x2(rng), controls=controls)
            psi = _random_state(rng, 3)
            expected = _dense_controlled(gate, 3) @ psi
            got = psi.copy()
            apply_gate_to_array(got, 3, gate)
            np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_out_of_register_rejected(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        with pytest.raises(ValueError, match="outside"):
            apply_gate_to_array(psi, 2, ControlledGate(target=2, unitary=_X))


class TestDiagonalGate:
    def test_single_qubit_phase(self):
        psi = _basis(2, 2)  # qubit 1 set
        apply_gate_to_array(psi, 2, DiagonalGate(qubits=(1,), diagonal=np.array([1.0, 1j])))
        np.testing.assert_array_equal(psi, 1j * _basis(2, 2))

    def test_subindex_ordering(self):
        # qubits (2, 0): sub-index j = bit2 + 2*bit0; basis 5 = |101> -> j = 1 + 2*1 = 3
        diag = np.array([1.0, 1j, -1.0, -1j])
        psi = _basis(3, 5)
        apply_gate_to_array(psi, 3, DiagonalGate(qubits=(2, 0), diagonal=diag))
        np.testing.assert_array_equal(psi, -1j * _basis(3, 5))

    def test_empty_qubits_is_global_phase(self):
        psi = _basis(2, 1)
        apply_gate_to_array(psi, 2, DiagonalGate(qubits=(), diagonal=np.array([np.exp(0.5j)])))
        np.testing.assert_array_equal(psi, np.exp(0.5j) * _basis(2, 1))

    def test_nonunit_modulus_rejected(self):
        with pytest.raises(ValueError, match="modulus"):
            DiagonalGate(qubits=(0,), diagonal=np.array([1.0, 2.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            DiagonalGate(qubits=(0, 1), diagonal=np.array([1.0, 1.0]))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        gate = DiagonalGate(qubits=(0, 2), diagonal=phases)
        dense = np.zeros(8, dtype=complex)
        for j in range(8):
            sub = ((j >> 0) & 1) | (((j >> 2) & 1) << 1)
            dense[j] = phases[sub]
        psi = _random_state(rng, 3)
        got = psi.copy()
        apply_gate_to_array(got, 3, gate)
        np.testing.assert_allclose(got, dense * psi, atol=1e-14)


class TestComposite:
    def test_norm_preserved_by_random_circuits(self):
        rng = np.random.default_rng(13)
        psi = _random_state(rng, 4)
        for _ in range(25):
            if rng.random() < 0.5:
                qubits = tuple(rng.permutation(4)[: rng.integers(1, 3)])
                diag = np.exp(1j * rng.uniform(0, 2 * np.pi, 2 ** len(qubits)))
                gate = DiagonalGate(qubits=qubits, diagonal=diag)
            else:
                order = rng.permutation(4)
                controls = tuple((int(q), int(rng.integers(0, 2))) for q in order[1:3])
                gate = ControlledGate(target=int(order[0]), unitary=_random_unitary_2x2(rng),
                                      controls=controls)
            apply_gate_to_array(psi, 4, gate)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


# --- property tests: the kernel against per-basis-index dense matrices -----


def _dense_diagonal(gate: DiagonalGate, n_qubits: int) -> np.ndarray:
    """Independent dense build: look up each basis index's sub-index."""
    entries = []
    for j in range(2 ** n_qubits):
        sub = sum(((j >> q) & 1) << k for k, q in enumerate(gate.qubits))
        entries.append(gate.diagonal[sub])
    return np.diag(entries)


@st.composite
def _gate_on(draw, n_qubits: int):
    """A random controlled gate (0 to n-1 controls) or diagonal gate (any subset)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        qubits = draw(st.permutations(range(n_qubits)))
        k = draw(st.integers(0, n_qubits - 1))
        polarities = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        return ControlledGate(target=qubits[0], unitary=_random_unitary_2x2(rng),
                              controls=tuple(zip(qubits[1:k + 1], polarities)))
    qubits = tuple(draw(st.lists(st.integers(0, n_qubits - 1), unique=True, max_size=n_qubits)))
    return DiagonalGate(qubits, np.exp(1j * rng.uniform(0, 2 * np.pi, 2 ** len(qubits))))


@st.composite
def _gates(draw):
    """(n_qubits, gate, seed for the states it is applied to)."""
    n = draw(st.integers(1, 7))
    return n, draw(_gate_on(n)), draw(st.integers(0, 2 ** 32 - 1))


def _dense(gate, n_qubits: int) -> np.ndarray:
    if isinstance(gate, ControlledGate):
        return _dense_controlled(gate, n_qubits)
    return _dense_diagonal(gate, n_qubits)


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(_gates())
    def test_one_state_matches_dense_matrix(self, case):
        n, gate, seed = case
        psi = _random_state(np.random.default_rng(seed), n)
        got = psi.copy()
        apply_gate_to_array(got, n, gate)
        np.testing.assert_allclose(got, _dense(gate, n) @ psi, rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(_gates(), st.integers(1, 4))
    def test_batch_rows_match_dense_matrix(self, case, rows):
        n, gate, seed = case
        rng = np.random.default_rng(seed)
        batch = np.array([_random_state(rng, n) for _ in range(rows)])
        got = batch.copy()
        apply_gate_to_array(got, n, gate)
        np.testing.assert_allclose(got, batch @ _dense(gate, n).T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("amps", [
        np.eye(8, dtype=complex)[:, 3],   # one column of a matrix
        np.ones(16, dtype=complex)[::2],  # every other amplitude
        np.eye(8, dtype=complex).T,       # a transposed batch
    ])
    def test_non_contiguous_input_rejected(self, amps):
        with pytest.raises(ValueError, match="contiguous"):
            apply_gate_to_array(amps, 3, ControlledGate(target=0, unitary=_X))


# --- whole-identity unitaries against a column-by-column build -------------


def _columnwise_unitary(n_qubits: int, gates) -> np.ndarray:
    """Reference: each basis state pushed through every gate on its own."""
    dim = 2 ** n_qubits
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[col] = 1.0
        for gate in gates:
            apply_gate_to_array(amps, n_qubits, gate)
        u[:, col] = amps
    return u


def _basis_gates(basis):
    """Kernel gates for the ops of a basis circuit, written out independently."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for op in basis.ops:
        if isinstance(op, U1Gate):
            yield DiagonalGate((op.qubit,), np.diag(op.matrix()))
        elif isinstance(op, U3Gate):
            yield ControlledGate(op.qubit, op.matrix())
        else:
            assert isinstance(op, CXGate)
            yield ControlledGate(op.target, x, controls=((op.control, 1),))


@st.composite
def _circuits(draw):
    """Up to 7 qubits and 24 gates: enough for several fused blocks, some
    gates wider than a block, and diagonals on no qubits at all."""
    n = draw(st.integers(1, 7))
    return Circuit(n, tuple(draw(st.lists(_gate_on(n), max_size=24))))


@st.composite
def _basis_circuits(draw):
    """u1/u3/cx on up to 7 qubits with a global phase, many blocks' worth of ops."""
    n = draw(st.integers(2, 7))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-2 * np.pi, 2 * np.pi)
    op = st.one_of(st.builds(U1Gate, qubit, angle), st.builds(U3Gate, qubit, angle, angle, angle),
                   st.permutations(range(n)).map(lambda qs: CXGate(qs[0], qs[1])))
    return BasisCircuit(n, tuple(draw(st.lists(op, max_size=60))), draw(angle))


class TestUnitaries:
    @settings(max_examples=100, deadline=None)
    @given(_circuits())
    def test_circuit_unitary_matches_columns(self, circuit):
        np.testing.assert_allclose(
            circuit_unitary(circuit), _columnwise_unitary(circuit.qubit_count, circuit.ops),
            rtol=0, atol=1e-12,
        )

    @settings(max_examples=60, deadline=None)
    @given(_basis_circuits())
    def test_basis_unitary_matches_columns(self, basis):
        expected = _columnwise_unitary(basis.qubit_count, list(_basis_gates(basis)))
        np.testing.assert_allclose(basis_unitary(basis), expected * np.exp(1j * basis.global_phase),
                                   rtol=0, atol=1e-12)

    def test_wide_gates_and_global_phases_between_blocks(self):
        # 7-qubit gates, a 6-qubit diagonal and empty-tuple diagonals next to
        # narrow gates that fill blocks, so the wide gates meet the builder's
        # axis order both as it starts and after blocks have permuted it
        rng = np.random.default_rng(8)

        def diagonal(qubits):
            return DiagonalGate(qubits, np.exp(1j * rng.uniform(0, 2 * np.pi, 2 ** len(qubits))))

        narrow = [ControlledGate(target=q, unitary=_random_unitary_2x2(rng),
                                 controls=(((q + 3) % 7, q % 2),)) for q in range(6)]
        wide = ControlledGate(target=3, unitary=_random_unitary_2x2(rng),
                              controls=tuple((q, q % 2) for q in (0, 1, 2, 4, 5, 6)))
        ops = (wide, diagonal(()), *narrow[:3], wide, diagonal(()), *narrow[3:],
               diagonal((6, 0, 5, 1, 4, 2)), diagonal((2, 3)), diagonal(()), wide, *narrow)
        circuit = Circuit(7, ops)
        np.testing.assert_allclose(circuit_unitary(circuit), _columnwise_unitary(7, ops),
                                   rtol=0, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="16384x16384"):
            circuit_unitary(Circuit(14, ()))
        with pytest.raises(ValueError, match="16384x16384"):
            basis_unitary(BasisCircuit(14, ()))

    def test_two_particle_step_matches_columns(self):
        params = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=2.0, n_sites=16)
        step = build_two_particle_step(params, 0.02, 0.02)
        assert step.qubit_count == 8
        np.testing.assert_allclose(circuit_unitary(step), _columnwise_unitary(8, step.ops),
                                   rtol=0, atol=1e-12)
        basis = decompose(step)
        expected = _columnwise_unitary(8, list(_basis_gates(basis)))
        np.testing.assert_allclose(basis_unitary(basis), expected * np.exp(1j * basis.global_phase),
                                   rtol=0, atol=1e-12)
