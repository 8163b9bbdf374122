"""Gate circuits versus dense matrix exponentials and closed forms."""
import numpy as np
import pytest
from scipy.linalg import expm

from blochsim.circuits import (
    Circuit,
    apply_circuit,
    build_contact_phase,
    build_field_phase,
    build_inter_hop,
    build_intra_hop,
    build_trotter_step,
    build_two_particle_step,
    circuit_unitary,
    increment_ops,
)
from blochsim.model import ModelParams, params_with_gamma
from blochsim.oracles import (
    dense_field,
    dense_hamiltonian,
    dense_inter_hop,
    dense_intra_hop,
)
from blochsim.statevector import DiagonalGate, Statevector

_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)

DT = 0.02
PARAMS = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=4)


def _pauli_on(op: np.ndarray, qubit: int, gamma: int) -> np.ndarray:
    """op on one qubit, identity elsewhere; qubit 0 is the index LSB."""
    acc = np.eye(1, dtype=complex)
    for q in range(gamma - 1, -1, -1):
        acc = np.kron(acc, op if q == qubit else np.eye(2, dtype=complex))
    return acc


def _hop_block(phi: float) -> np.ndarray:
    return np.array(
        [[np.cos(phi), 1j * np.sin(phi)], [1j * np.sin(phi), np.cos(phi)]], dtype=complex
    )


def closed_form_intra(params: ModelParams, dt: float) -> np.ndarray:
    """Block-diagonal mixing on the (2n, 2n+1) pairs with angle delta_a*dt/4."""
    n = params.n_sites
    u = np.zeros((n, n), dtype=complex)
    block = _hop_block(params.delta_a * dt / 4.0)
    for m in range(n // 2):
        pair = (2 * m, 2 * m + 1)
        u[np.ix_(pair, pair)] = block
    return u


def closed_form_inter(params: ModelParams, dt: float) -> np.ndarray:
    """Mixing on the (2n+1, 2n+2 mod N) pairs with angle delta_b*dt/4."""
    n = params.n_sites
    u = np.zeros((n, n), dtype=complex)
    block = _hop_block(params.delta_b * dt / 4.0)
    for m in range(n // 2):
        pair = (2 * m + 1, (2 * m + 2) % n)
        u[np.ix_(pair, pair)] = block
    return u


def closed_form_field(params: ModelParams, t: float, dt: float) -> np.ndarray:
    n = params.n_sites
    return np.diag(np.exp(-1j * params.field(t) * dt * np.arange(n)))


class TestHamiltonianStructure:
    """The dense terms are the expected Pauli sums in the qubit picture."""

    def test_intra_is_x_on_qubit0(self):
        for gamma in (1, 2, 3):
            p = params_with_gamma(gamma, delta_a=5.0, delta_b=1.0)
            expected = -p.delta_a / 4.0 * _pauli_on(_X, 0, gamma)
            np.testing.assert_allclose(dense_intra_hop(p), expected, atol=1e-15)

    def test_field_is_z_sum(self):
        for gamma in (1, 2, 3):
            p = params_with_gamma(gamma, delta_a=5.0, delta_b=1.0, f_dc=1.5)
            n = p.n_sites
            expected = p.f_dc * (n - 1) / 2.0 * np.eye(n, dtype=complex)
            for beta in range(gamma):
                expected -= p.f_dc * 2 ** beta / 2.0 * _pauli_on(_Z, beta, gamma)
            np.testing.assert_allclose(dense_field(p), expected, atol=1e-12)

    def test_inter_is_shift_conjugated_intra(self):
        # H_inter = S H_intra(delta_b) S^dagger with S the site increment
        for gamma in (2, 3):
            p = params_with_gamma(gamma, delta_a=1.0, delta_b=3.0)
            swapped = params_with_gamma(gamma, delta_a=3.0, delta_b=1.0)
            shift = circuit_unitary(Circuit(gamma, increment_ops(gamma)))
            expected = shift @ dense_intra_hop(swapped) @ shift.conj().T
            np.testing.assert_allclose(dense_inter_hop(p), expected, atol=1e-14)


class TestShiftCircuits:
    def test_increment_is_cyclic_permutation(self):
        for gamma in (1, 2, 3, 4):
            n = 2 ** gamma
            u = circuit_unitary(Circuit(gamma, increment_ops(gamma)))
            expected = np.zeros((n, n))
            expected[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
            np.testing.assert_allclose(u, expected, atol=1e-15)

    def test_decrement_inverts_increment(self):
        for gamma in (1, 2, 3):
            inc = circuit_unitary(Circuit(gamma, increment_ops(gamma)))
            dec = circuit_unitary(Circuit(gamma, increment_ops(gamma)[::-1]))
            np.testing.assert_allclose(dec @ inc, np.eye(2 ** gamma), atol=1e-15)


class TestPropagatorFactors:
    @pytest.mark.parametrize("gamma", [1, 2, 3, 4])
    def test_intra_matches_closed_form_and_expm(self, gamma):
        p = params_with_gamma(gamma, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        u = circuit_unitary(build_intra_hop(p, DT))
        np.testing.assert_allclose(u, closed_form_intra(p, DT), atol=1e-12)
        np.testing.assert_allclose(u, expm(-1j * DT * dense_intra_hop(p)), atol=1e-12)

    @pytest.mark.parametrize("gamma", [1, 2, 3, 4])
    def test_inter_matches_closed_form_and_expm(self, gamma):
        p = params_with_gamma(gamma, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        u = circuit_unitary(build_inter_hop(p, DT))
        if gamma == 1:
            # two sites: the lone inter bond coincides with the (0, 1) pair
            np.testing.assert_allclose(
                u, _hop_block(p.delta_b * DT / 4.0), atol=1e-12
            )
        else:
            np.testing.assert_allclose(u, closed_form_inter(p, DT), atol=1e-12)
        np.testing.assert_allclose(u, expm(-1j * DT * dense_inter_hop(p)), atol=1e-12)

    @pytest.mark.parametrize("gamma", [1, 2, 3, 4])
    def test_field_matches_closed_form_and_expm(self, gamma):
        p = params_with_gamma(gamma, delta_a=5.0, delta_b=1.0, f_dc=1.5, f_ac=0.5, omega=2.0)
        t = 0.7
        u = circuit_unitary(build_field_phase(p, t, DT))
        np.testing.assert_allclose(u, closed_form_field(p, t, DT), atol=1e-12)
        np.testing.assert_allclose(u, expm(-1j * DT * dense_field(p, t)), atol=1e-12)


class TestTrotterStep:
    def test_step_is_ordered_product(self):
        u = circuit_unitary(build_trotter_step(PARAMS, DT, DT))
        product = (
            circuit_unitary(build_intra_hop(PARAMS, DT))
            @ circuit_unitary(build_inter_hop(PARAMS, DT))
            @ circuit_unitary(build_field_phase(PARAMS, DT, DT))
        )
        np.testing.assert_allclose(u, product, atol=1e-13)

    def test_step_approaches_exact_propagator(self):
        h = dense_hamiltonian(PARAMS, DT)
        for dt in (0.02, 0.01):
            u = circuit_unitary(build_trotter_step(PARAMS, dt, dt))
            err = np.max(np.abs(u - expm(-1j * dt * h)))
            assert err < 2.0 * dt ** 2 * np.max(np.abs(h)) ** 2

    def test_rejects_non_power_of_two(self):
        p = ModelParams(delta_a=5.0, delta_b=1.0, n_sites=6)
        with pytest.raises(ValueError, match="power of two"):
            build_trotter_step(p, DT, DT)


class TestTwoParticle:
    @pytest.mark.parametrize("v", [10.0, 250.0])
    def test_contact_phase_is_coincidence_diagonal(self, v):
        # v = 250 puts v*dt past pi, where the phase angle wraps
        p = ModelParams(delta_a=5.0, delta_b=1.0, v=v, n_sites=4)
        circuit = build_contact_phase(p, DT)
        (gate,) = circuit.ops
        assert isinstance(gate, DiagonalGate) and gate.qubits == (0, 1, 2, 3)
        u = circuit_unitary(circuit)
        n = p.n_sites
        expected = np.ones(n * n, dtype=complex)
        expected[np.arange(n) * n + np.arange(n)] = np.exp(-1j * p.v * DT)
        np.testing.assert_allclose(u, np.diag(expected), atol=1e-12)

    def test_noninteracting_step_is_kron_of_single_steps(self):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=0.0, n_sites=4)
        u2 = circuit_unitary(build_two_particle_step(p, DT, DT))
        u1 = circuit_unitary(build_trotter_step(p, DT, DT))
        np.testing.assert_allclose(u2, np.kron(u1, u1), atol=1e-12)

    def test_interacting_step_factors(self):
        # kinetic factors act first, the contact phase closes the step
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=10.0, n_sites=4)
        u2 = circuit_unitary(build_two_particle_step(p, DT, DT))
        u1 = circuit_unitary(build_trotter_step(p, DT, DT))
        uv = circuit_unitary(build_contact_phase(p, DT))
        np.testing.assert_allclose(u2, uv @ np.kron(u1, u1), atol=1e-12)

    @pytest.mark.parametrize("v", [0.0, 3.0])
    @pytest.mark.parametrize("n_sites", [4, 8])
    @pytest.mark.parametrize("t", [0.02, 0.37, 1.1])
    def test_driven_step_factors(self, v, n_sites, t):
        # each register sees the field sampled at t, as a one-particle step does
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, f_ac=2.0, omega=3.0, v=v,
                        n_sites=n_sites)
        u2 = circuit_unitary(build_two_particle_step(p, t, DT))
        u1 = circuit_unitary(build_trotter_step(p, t, DT))
        uv = circuit_unitary(build_contact_phase(p, DT))
        np.testing.assert_allclose(u2, uv @ np.kron(u1, u1), atol=1e-12)


class TestCircuitPlumbing:
    def test_apply_circuit_register_mismatch(self):
        sv = Statevector(1, 3, np.eye(8)[0])
        with pytest.raises(ValueError, match="qubits"):
            apply_circuit(sv, build_trotter_step(PARAMS, DT, DT))

    def test_ops_validated_against_register(self):
        from blochsim.statevector import ControlledGate

        with pytest.raises(ValueError, match="exceeds"):
            Circuit(1, (ControlledGate(target=1, unitary=_X),))
