"""Bit-indexed state storage and gate application."""
import numpy as np
import pytest

from blochsim.statevector import (
    ControlledGate,
    DiagonalGate,
    Statevector,
    apply_gate_to_array,
    new_basis_state,
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


def _random_unitary_2x2(rng) -> np.ndarray:
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestStatevector:
    def test_basis_state_is_one_hot(self):
        sv = new_basis_state(1, 2, 3)
        np.testing.assert_array_equal(sv.amplitudes, [0, 0, 0, 1])
        assert sv.n_sites == 4 and sv.n_qubits == 2 and sv.dim == 4

    def test_two_register_dims(self):
        sv = new_basis_state(2, 2, 0)
        assert sv.dim == 16 and sv.n_sites == 4 and sv.n_qubits == 4

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            Statevector(1, 1, np.array([1.0, 1.0]))

    def test_length_enforced(self):
        with pytest.raises(ValueError, match="length"):
            Statevector(1, 2, np.array([1.0, 0.0]))

    def test_bad_register_count(self):
        with pytest.raises(ValueError, match="num_registers"):
            Statevector(3, 1, np.ones(8) / np.sqrt(8))

    def test_probability_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            new_basis_state(1, 2, 0).probability(4)


class TestLittleEndian:
    def test_x_on_qubit0_swaps_adjacent_indices(self):
        sv = new_basis_state(1, 2, 0)
        apply_gate_to_array(sv.amplitudes, sv.n_qubits, ControlledGate(target=0, unitary=_X))
        assert sv.probability(1) == 1.0

    def test_x_on_qubit1_jumps_by_two(self):
        sv = new_basis_state(1, 2, 0)
        apply_gate_to_array(sv.amplitudes, sv.n_qubits, ControlledGate(target=1, unitary=_X))
        assert sv.probability(2) == 1.0

    def test_site_index_is_basis_index(self):
        # site 5 on an 8-site chain is |101> with qubit 0 = LSB
        sv = new_basis_state(1, 3, 5)
        apply_gate_to_array(sv.amplitudes, sv.n_qubits, ControlledGate(target=2, unitary=_X))
        assert sv.probability(1) == 1.0  # cleared the 4-bit


class TestControlledGate:
    def test_filled_control_fires_on_one(self):
        sv = new_basis_state(1, 2, 1)  # qubit 0 set
        apply_gate_to_array(sv.amplitudes, sv.n_qubits,
                            ControlledGate(target=1, unitary=_X, controls=((0, 1),)))
        assert sv.probability(3) == 1.0

    def test_filled_control_idle_on_zero(self):
        sv = new_basis_state(1, 2, 0)
        apply_gate_to_array(sv.amplitudes, sv.n_qubits,
                            ControlledGate(target=1, unitary=_X, controls=((0, 1),)))
        assert sv.probability(0) == 1.0

    def test_open_control_fires_on_zero(self):
        sv = new_basis_state(1, 2, 0)
        apply_gate_to_array(sv.amplitudes, sv.n_qubits,
                            ControlledGate(target=1, unitary=_X, controls=((0, 0),)))
        assert sv.probability(2) == 1.0

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
        sv = new_basis_state(1, 2, 2)  # qubit 1 set
        apply_gate_to_array(sv.amplitudes, sv.n_qubits,
                            DiagonalGate(qubits=(1,), diagonal=np.array([1.0, 1j])))
        assert sv.amplitudes[2] == pytest.approx(1j)

    def test_subindex_ordering(self):
        # qubits (2, 0): sub-index j = bit2 + 2*bit0; basis 5 = |101> -> j = 1 + 2*1 = 3
        diag = np.array([1.0, 1j, -1.0, -1j])
        sv = new_basis_state(1, 3, 5)
        apply_gate_to_array(sv.amplitudes, sv.n_qubits, DiagonalGate(qubits=(2, 0), diagonal=diag))
        assert sv.amplitudes[5] == pytest.approx(-1j)

    def test_empty_qubits_is_global_phase(self):
        sv = new_basis_state(1, 2, 1)
        apply_gate_to_array(sv.amplitudes, sv.n_qubits,
                            DiagonalGate(qubits=(), diagonal=np.array([np.exp(0.5j)])))
        assert sv.amplitudes[1] == pytest.approx(np.exp(0.5j))

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
