"""Dense references, special functions, and the spin-chain cross-check."""
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from blochsim.model import ModelParams
from blochsim.oracles import (
    DENSE_DIM_MAX,
    bessel_jn_sequence,
    check_dense_dim,
    dense_2d_hamiltonian,
    dense_field,
    dense_hamiltonian,
    dense_inter_hop,
    dense_intra_hop,
    dense_propagator,
    dense_two_particle_hamiltonian,
    spin_chain_sector_bruteforce,
    uniform_chain_mean_position,
    uniform_chain_profile,
)

DEMO = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=4)


class TestDenseMatrices:
    def test_hermitian(self):
        for p in (DEMO, ModelParams(delta_a=2.0, delta_b=2.0, f_dc=0.2, n_sites=10)):
            h = dense_hamiltonian(p, 0.4)
            assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_matrix_elements(self):
        h = dense_hamiltonian(DEMO)
        assert h[0, 1] == pytest.approx(-5.0 / 4.0)
        assert h[1, 2] == pytest.approx(-1.0 / 4.0)
        assert h[3, 0] == pytest.approx(-1.0 / 4.0)  # periodic wrap
        np.testing.assert_allclose(np.diag(h).real, 1.5 * np.arange(4), atol=0)

    def test_terms_partition_the_hamiltonian(self):
        h = dense_intra_hop(DEMO) + dense_inter_hop(DEMO) + dense_field(DEMO, 0.9)
        np.testing.assert_allclose(h, dense_hamiltonian(DEMO, 0.9), atol=0)

    def test_driven_field_diagonal(self):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.0, f_ac=0.5, omega=2.0, n_sites=4)
        t = 0.3
        f = 1.0 + 0.5 * np.cos(2.0 * t)
        np.testing.assert_allclose(np.diag(dense_field(p, t)).real, f * np.arange(4), atol=1e-15)

    def test_two_particle_contact_on_coincidence(self):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=10.0, n_sites=4)
        h = dense_two_particle_hamiltonian(p)
        h0 = dense_two_particle_hamiltonian(
            ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=0.0, n_sites=4)
        )
        diff = h - h0
        expected = np.zeros_like(diff)
        for l in range(4):
            expected[l * 4 + l, l * 4 + l] = 10.0
        np.testing.assert_allclose(diff, expected, atol=0)

    def test_two_particle_kinetic_is_kron_sum(self):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=0.0, n_sites=4)
        h1 = dense_hamiltonian(p)
        expected = np.kron(h1, np.eye(4)) + np.kron(np.eye(4), h1)
        np.testing.assert_allclose(dense_two_particle_hamiltonian(p), expected, atol=0)

    def test_2d_is_kron_sum(self):
        px = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=4)
        py = ModelParams(delta_a=2.0, delta_b=0.5, f_dc=0.3, n_sites=8)
        h = dense_2d_hamiltonian(px, py)
        expected = np.kron(dense_hamiltonian(px), np.eye(8)) + np.kron(
            np.eye(4), dense_hamiltonian(py)
        )
        np.testing.assert_allclose(h, expected, atol=0)

    def test_builders_are_real(self):
        # every term is real, so dense_propagator can run a real eigh
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.0, f_ac=0.5, omega=2.0, v=2.0, n_sites=4)
        for h in (dense_intra_hop(p), dense_inter_hop(p), dense_field(p, 0.3),
                  dense_hamiltonian(p, 0.3), dense_two_particle_hamiltonian(p, 0.3),
                  dense_2d_hamiltonian(p, DEMO, 0.3)):
            assert h.dtype == np.float64

    def test_hops_equal_the_bond_loop(self):
        # a bond-by-bond reference over (l, l+1 mod N), l = first, first+2, ...;
        # first 0 is intra-cell, first 1 inter-cell
        def bond_loop(n, first, delta):
            h = np.zeros((n, n), dtype=complex)
            for m in range(n // 2):
                lo = 2 * m + first
                hi = (lo + 1) % n
                h[lo, hi] += -delta / 4.0
                h[hi, lo] += -delta / 4.0
            return h

        for n in range(2, 65, 2):
            p = ModelParams(delta_a=5.0, delta_b=0.7, n_sites=n)
            assert np.array_equal(dense_intra_hop(p), bond_loop(n, 0, 5.0)), n
            assert np.array_equal(dense_inter_hop(p), bond_loop(n, 1, 0.7)), n


class TestDenseSizeGuard:
    def test_cap_is_one_gib(self):
        assert DENSE_DIM_MAX ** 2 * 16 == 2 ** 30
        check_dense_dim(DENSE_DIM_MAX)
        with pytest.raises(ValueError, match=r"8193x8193 complex matrix needs 1074003984 bytes"):
            check_dense_dim(DENSE_DIM_MAX + 1)

    @pytest.mark.parametrize("build", [
        lambda: dense_hamiltonian(ModelParams(delta_a=1.0, delta_b=1.0, n_sites=8194)),
        lambda: dense_intra_hop(ModelParams(delta_a=1.0, delta_b=1.0, n_sites=8194)),
        lambda: dense_two_particle_hamiltonian(ModelParams(delta_a=1.0, delta_b=1.0, n_sites=128)),
        lambda: dense_2d_hamiltonian(ModelParams(delta_a=1.0, delta_b=1.0, n_sites=128),
                                     ModelParams(delta_a=1.0, delta_b=1.0, n_sites=128)),
    ])
    def test_builders_refuse_before_allocating(self, build):
        with pytest.raises(ValueError, match="bytes"):
            build()


class TestPropagator:
    def test_unitary_and_matches_expm(self):
        h = dense_hamiltonian(DEMO)
        u = dense_propagator(h, 0.37)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-13)
        np.testing.assert_allclose(u, expm(-1j * 0.37 * h), atol=1e-12)

    def test_complex_hermitian_matches_expm(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = a + a.conj().T
        assert np.max(np.abs(h.imag)) > 0.1
        np.testing.assert_allclose(dense_propagator(h, 0.37), expm(-1j * 0.37 * h), atol=1e-12)

    @pytest.mark.parametrize("particles, n_sites", [(1, 256), (2, 16)])
    @pytest.mark.parametrize("f_ac", [0.0, 0.5])
    def test_real_input_matches_its_complex_copy(self, particles, n_sites, f_ac):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, f_ac=f_ac, omega=2.0, v=2.0,
                        n_sites=n_sites)
        build = dense_hamiltonian if particles == 1 else dense_two_particle_hamiltonian
        h = build(p, 0.7)
        diff = dense_propagator(h, 0.05) - dense_propagator(h.astype(complex), 0.05)
        assert np.max(np.abs(diff)) <= 1e-13

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            dense_propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


class TestBessel:
    def test_against_scipy_grid(self):
        for x in (0.1, 1.0, 5.5, 20.0, 49.0):
            seq = bessel_jn_sequence(60, x)
            expected = jv(np.arange(61), x)
            np.testing.assert_allclose(seq, expected, atol=1e-10)

    def test_negative_argument_parity(self):
        seq_pos = bessel_jn_sequence(10, 3.7)
        seq_neg = bessel_jn_sequence(10, -3.7)
        signs = (-1.0) ** np.arange(11)
        np.testing.assert_allclose(seq_neg, signs * seq_pos, atol=1e-14)

    def test_zero_argument(self):
        seq = bessel_jn_sequence(5, 0.0)
        np.testing.assert_array_equal(seq, [1, 0, 0, 0, 0, 0])

    def test_sum_rule(self):
        for x in (0.5, 2.0, 7.5, 20.0):
            seq = bessel_jn_sequence(int(abs(x)) + 40, x)
            total = seq[0] ** 2 + 2.0 * np.sum(seq[1:] ** 2)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_order_count(self):
        with pytest.raises(ValueError, match="n_max"):
            bessel_jn_sequence(-1, 1.0)


class TestUniformChain:
    def test_identity_at_t0(self):
        prof = uniform_chain_profile(16, 8, 0.0, 2.0, 0.2)
        expected = np.zeros(16, dtype=complex)
        expected[8] = 1.0
        np.testing.assert_allclose(prof, expected, atol=1e-14)

    def test_profile_matches_scipy_on_both_sides_of_source(self):
        # orders l - l_src run from -16 to +15: negative odd and even included
        l_src, t, delta, f = 16, 1.3, 2.0, 0.2
        prof = uniform_chain_profile(32, l_src, t, delta, f)
        l = np.arange(32)
        orders = l - l_src
        z = (delta / f) * np.sin(f * t / 2.0)
        expected = (
            1j ** (orders % 4) * jv(orders, z) * np.exp(-1j * (l + l_src) * f * t / 2.0)
        )
        np.testing.assert_allclose(prof, expected, atol=1e-13)

    def test_zero_field_matches_finite_ring(self):
        # short time on a large ring: no boundary contact, closed form applies
        n, delta, t = 64, 2.0, 2.0
        p = ModelParams(delta_a=delta, delta_b=delta, f_dc=0.0, n_sites=n)
        u = expm(-1j * t * dense_hamiltonian(p))
        got = uniform_chain_profile(n, n // 2, t, delta, 0.0)
        np.testing.assert_allclose(got, u[:, n // 2], atol=1e-10)

    def test_tilted_matches_finite_ring_interior(self):
        # tilt breaks ring translation at the wrap; compare away from it
        n, delta, f, t = 128, 2.0, 0.2, 5.0
        p = ModelParams(delta_a=delta, delta_b=delta, f_dc=f, n_sites=n)
        u = expm(-1j * t * dense_hamiltonian(p))
        got = uniform_chain_profile(n, n // 2, t, delta, f)
        interior = slice(20, n - 20)
        np.testing.assert_allclose(got[interior], u[:, n // 2][interior], atol=1e-8)

    def test_probability_normalized(self):
        prof = uniform_chain_profile(256, 128, 4.0, 2.0, 0.2)
        assert np.sum(np.abs(prof) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_mean_position_spike_is_stationary(self):
        psi0 = np.zeros(64, dtype=complex)
        psi0[32] = 1.0
        vals = uniform_chain_mean_position(psi0, np.linspace(0, 10, 11), 2.0, 0.2)
        np.testing.assert_allclose(vals, 32.0, atol=1e-12)

    def test_mean_position_matches_dense(self):
        n, delta, f = 64, 2.0, 0.5
        p = ModelParams(delta_a=delta, delta_b=delta, f_dc=f, n_sites=n)
        l = np.arange(n)
        psi0 = np.exp(-((l - 32.0) ** 2) / 16.0).astype(complex)
        psi0 /= np.linalg.norm(psi0)
        h = dense_hamiltonian(p)
        for t in (1.0, 4.0, 9.0):
            psi_t = expm(-1j * t * h) @ psi0
            direct = float(np.sum(l * np.abs(psi_t) ** 2))
            closed = uniform_chain_mean_position(psi0, t, delta, f)
            assert closed == pytest.approx(direct, abs=1e-8)


class TestSpinChainSector:
    @pytest.mark.parametrize("n", range(2, 11, 2))
    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_bruteforce_sector_is_dense_hamiltonian(self, n, t):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, f_ac=0.5, omega=2.0, n_sites=n)
        np.testing.assert_allclose(
            spin_chain_sector_bruteforce(p, t), dense_hamiltonian(p, t), atol=1e-14
        )

    def test_bruteforce_size_guard(self):
        p = ModelParams(delta_a=1.0, delta_b=1.0, n_sites=12)
        with pytest.raises(ValueError, match="brute force"):
            spin_chain_sector_bruteforce(p)
