"""Time-evolution drivers: steppers, plans, trajectories, CSV output."""
import numpy as np
import pytest
from scipy.linalg import expm

from blochsim.circuits import apply_circuit, build_trotter_step, build_two_particle_step
from blochsim.evolve import (
    FIELD_SAMPLINGS,
    EvolutionPlan,
    initial_amplitudes,
    run,
    schrodinger_rhs,
    write_trajectory_csv,
)
from blochsim.model import ModelParams
from blochsim.oracles import dense_hamiltonian, dense_propagator, dense_two_particle_hamiltonian
from blochsim.statevector import Statevector

DEMO = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=4)


class TestPlan:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            EvolutionPlan(dt=0.0, n_steps=5)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError, match=r"n_steps: must be >= 1, got 0"):
            EvolutionPlan(dt=0.1, n_steps=0)

    def test_rejects_unknown_stepper(self):
        with pytest.raises(ValueError, match="stepper"):
            EvolutionPlan(dt=0.1, n_steps=5, stepper="magic")

    def test_rejects_unknown_sampling(self):
        with pytest.raises(ValueError, match="field_sampling"):
            EvolutionPlan(dt=0.1, n_steps=5, field_sampling="start")

    def test_rk4_takes_end_sampling_alone(self):
        with pytest.raises(ValueError, match=r"^field_sampling: ode-rk4 "):
            EvolutionPlan(dt=0.1, n_steps=5, stepper="ode-rk4", field_sampling="midpoint")

    def test_sample_times(self):
        end = EvolutionPlan(dt=0.5, n_steps=4)
        mid = EvolutionPlan(dt=0.5, n_steps=4, field_sampling="midpoint")
        assert end.sample_time(1) == pytest.approx(0.5)
        assert end.sample_time(3) == pytest.approx(1.5)
        assert mid.sample_time(1) == pytest.approx(0.25)


class TestInitialStates:
    def test_spike(self):
        amps = initial_amplitudes("spike", DEMO, 2)
        np.testing.assert_array_equal(amps, [0, 0, 1, 0])

    def test_spike_site_range(self):
        with pytest.raises(ValueError, match="out of range"):
            initial_amplitudes("spike", DEMO, 4)

    def test_gaussian_is_normalized_and_centred(self):
        p = ModelParams(delta_a=2.0, delta_b=2.0, n_sites=20)
        amps = initial_amplitudes("gaussian", p)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)
        assert int(np.argmax(np.abs(amps))) == 10

    def test_spike2_index_convention(self):
        amps = initial_amplitudes("spike2", DEMO, 1, 2)
        assert amps[1 * 4 + 2] == 1.0 and np.sum(np.abs(amps)) == 1.0

    def test_coincident_spike2_is_one_hot(self):
        # l1 == l2 is a valid start: the joint index l * N + l
        for l in range(4):
            amps = initial_amplitudes("spike2", DEMO, l, l)
            assert np.flatnonzero(amps).tolist() == [l * 5] and amps[l * 5] == 1.0
        traj = run(initial_amplitudes("spike2", DEMO, 3, 3), DEMO,
                   EvolutionPlan(dt=0.02, n_steps=2))
        assert traj.site_probability(3, 3)[0] == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown initial"):
            initial_amplitudes("plane-wave", DEMO)


class TestRhs:
    def test_matches_dense_matrix(self):
        # the roll-based right-hand side equals -i H psi built from the matrix
        rng = np.random.default_rng(21)
        p = ModelParams(delta_a=3.0, delta_b=0.7, f_dc=0.9, f_ac=0.4, omega=2.0, n_sites=6)
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        for t in (0.0, 0.3, 1.7):
            expected = -1j * dense_hamiltonian(p, t) @ psi
            np.testing.assert_allclose(schrodinger_rhs(psi, t, p), expected, atol=1e-13)

    def test_length_check(self):
        with pytest.raises(ValueError, match="length"):
            schrodinger_rhs(np.ones(3), 0.0, DEMO)


class TestSteppers:
    def test_exact_dense_equals_expm_power(self):
        psi0 = initial_amplitudes("spike", DEMO, 2)
        plan = EvolutionPlan(dt=0.1, n_steps=7, stepper="exact-dense")
        traj = run(psi0, DEMO, plan)
        expected = expm(-1j * 0.7 * dense_hamiltonian(DEMO)) @ psi0
        np.testing.assert_allclose(traj.amplitudes(7), expected, atol=1e-12)

    def test_trotter_first_order_amplitude_convergence(self):
        psi0 = initial_amplitudes("spike", DEMO, 2)
        exact = run(psi0, DEMO, EvolutionPlan(dt=0.5, n_steps=1, stepper="exact-dense"))
        errs = []
        for n_steps in (25, 50, 100):
            traj = run(psi0, DEMO, EvolutionPlan(dt=0.5 / n_steps, n_steps=n_steps))
            errs.append(np.linalg.norm(traj.amplitudes(n_steps) - exact.amplitudes(1)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 0.4 <= fine / coarse <= 0.6

    def test_rk4_tracks_dense(self):
        psi0 = initial_amplitudes("gaussian", ModelParams(delta_a=5.0, delta_b=1.0,
                                                          f_dc=1.5, n_sites=8))
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=8)
        dense = run(psi0, p, EvolutionPlan(dt=0.01, n_steps=100, stepper="exact-dense"))
        rk4 = run(psi0, p, EvolutionPlan(dt=0.01, n_steps=100, stepper="ode-rk4"))
        assert np.max(np.abs(dense.amplitudes(100) - rk4.amplitudes(100))) < 1e-6

    def test_rk4_norm_drift_is_small(self):
        psi0 = initial_amplitudes("spike", DEMO, 2)
        traj = run(psi0, DEMO, EvolutionPlan(dt=0.01, n_steps=100, stepper="ode-rk4"))
        assert abs(np.linalg.norm(traj.amplitudes(100)) - 1.0) < 1e-8

    def test_rk4_blow_up_raises_with_step_and_hint(self):
        # |H| dt is about 3.8 at N=256, past explicit RK4's stability limit
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=256)
        with pytest.raises(RuntimeError, match=r"norm drift .* at step \d+ \(t=.*plan\.dt"):
            run(initial_amplitudes("gaussian", p), p,
                EvolutionPlan(dt=0.01, n_steps=500, stepper="ode-rk4"))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("damage", [
        lambda amps: amps.__imul__(1.0 + 1e-7),
        lambda amps: amps.__setitem__(0, np.nan),
        lambda amps: amps.__setitem__(0, np.inf),
    ])
    def test_unitary_stepper_norm_guard(self, monkeypatch, damage):
        import blochsim.evolve as evolve

        kernel = evolve.apply_gate_to_array

        def leaky(amps, n_qubits, gate):
            kernel(amps, n_qubits, gate)
            damage(amps)

        monkeypatch.setattr(evolve, "apply_gate_to_array", leaky)
        with pytest.raises(RuntimeError, match=r"norm drift .* exceeds 1e-08 at step 1 ") as info:
            run(initial_amplitudes("spike", DEMO, 2), DEMO, EvolutionPlan(dt=0.05, n_steps=3))
        assert "plan.dt" not in str(info.value)

    def test_unitary_steppers_preserve_norm(self):
        psi0 = initial_amplitudes("spike", DEMO, 2)
        for stepper in ("trotter1", "exact-dense"):
            traj = run(psi0, DEMO, EvolutionPlan(dt=0.05, n_steps=40, stepper=stepper))
            norms = np.sqrt(np.sum(traj.probabilities, axis=1))
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_rk4_rejects_two_particle(self):
        p = ModelParams(delta_a=5.0, delta_b=1.0, v=10.0, n_sites=4)
        psi0 = initial_amplitudes("spike2", p, 1, 2)
        with pytest.raises(ValueError, match="single-particle"):
            run(psi0, p, EvolutionPlan(dt=0.1, n_steps=1, stepper="ode-rk4"))

    def test_driven_field_sampling_orders(self):
        # with f_ac on the propagator is piecewise-constant in the field:
        # end sampling converges at first order, midpoint at second
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, f_ac=3.0, omega=4.0, n_sites=4)
        psi0 = initial_amplitudes("spike", p, 2)
        ref = run(psi0, p, EvolutionPlan(dt=0.0005, n_steps=2000, stepper="ode-rk4"))
        ref_amp = ref.amplitudes(2000)

        def err(dt, n_steps, sampling):
            traj = run(psi0, p, EvolutionPlan(dt=dt, n_steps=n_steps, stepper="exact-dense",
                                              field_sampling=sampling))
            return np.linalg.norm(traj.amplitudes(n_steps) - ref_amp)

        e_end_1 = err(0.01, 100, "end")
        e_end_2 = err(0.005, 200, "end")
        assert 0.4 <= e_end_2 / e_end_1 <= 0.65
        assert err(0.01, 100, "midpoint") < e_end_1 / 5.0

    @pytest.mark.parametrize("sampling", FIELD_SAMPLINGS)
    @pytest.mark.parametrize("particles", [1, 2])
    def test_driven_steps_follow_the_sampled_field(self, particles, sampling):
        # under a drive, step k of each unitary stepper is the step operator
        # built at plan.sample_time(k): the gate circuit for trotter1, the
        # dense propagator for exact-dense
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, f_ac=2.0, omega=3.0,
                        v=4.0 if particles == 2 else 0.0, n_sites=8 if particles == 1 else 4)
        gamma = p.require_gamma()
        psi0 = (initial_amplitudes("spike", p, 3) if particles == 1
                else initial_amplitudes("spike2", p, 1, 2))
        build_step = build_trotter_step if particles == 1 else build_two_particle_step
        build_h = dense_hamiltonian if particles == 1 else dense_two_particle_hamiltonian
        for stepper in ("trotter1", "exact-dense"):
            plan = EvolutionPlan(dt=0.07, n_steps=6, stepper=stepper, field_sampling=sampling)
            traj = run(psi0, p, plan)
            psi = psi0.copy()
            for k in range(1, plan.n_steps + 1):
                t_k = plan.sample_time(k)
                if stepper == "trotter1":
                    state = apply_circuit(Statevector(particles, gamma, psi),
                                          build_step(p, t_k, plan.dt))
                    psi = state.amplitudes
                else:
                    psi = dense_propagator(build_h(p, t_k), plan.dt) @ psi
                np.testing.assert_allclose(traj.amplitudes(k), psi, rtol=0, atol=1e-12)


class TestRunPlumbing:
    def test_two_particle_inferred_from_length(self):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=10.0, n_sites=4)
        traj = run(initial_amplitudes("spike2", p, 1, 2), p,
                   EvolutionPlan(dt=0.02, n_steps=5))
        assert traj.particles == 2 and traj.probabilities.shape == (6, 16)
        assert traj.site_probability(1, 2)[0] == pytest.approx(1.0)
        assert run(initial_amplitudes("spike", p, 1), p,
                   EvolutionPlan(dt=0.02, n_steps=5)).particles == 1

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError, match="matches neither"):
            run(np.ones(5) / np.sqrt(5), DEMO, EvolutionPlan(dt=0.1, n_steps=1))

    def test_store_states_off(self):
        psi0 = initial_amplitudes("gaussian", DEMO)
        traj = run(psi0, DEMO, EvolutionPlan(dt=0.1, n_steps=3, store_states=False))
        full = run(psi0, DEMO, EvolutionPlan(dt=0.1, n_steps=3))
        np.testing.assert_array_equal(traj.probabilities, full.probabilities)
        with pytest.raises(ValueError, match="store_states"):
            traj.amplitudes(2)

    def test_times_grid(self):
        traj = run(initial_amplitudes("spike", DEMO, 2), DEMO,
                   EvolutionPlan(dt=0.25, n_steps=4))
        np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)


class TestTrajectoryCsv:
    def test_single_particle_columns(self, tmp_path):
        traj = run(initial_amplitudes("spike", DEMO, 2), DEMO,
                   EvolutionPlan(dt=0.1, n_steps=2))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,site,re,im,prob"
        assert len(lines) == 1 + 3 * 4
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        rebuilt = data[:, 2] ** 2 + data[:, 3] ** 2
        np.testing.assert_allclose(rebuilt, data[:, 4], atol=1e-15)

    def test_two_particle_columns(self, tmp_path):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=10.0, n_sites=4)
        traj = run(initial_amplitudes("spike2", p, 1, 2), p,
                   EvolutionPlan(dt=0.02, n_steps=1))
        path = tmp_path / "traj2.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,site1,site2,prob"
        assert len(lines) == 1 + 2 * 16
        # probabilities per time slice sum to one
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        for t in np.unique(data[:, 0]):
            assert np.sum(data[data[:, 0] == t][:, 3]) == pytest.approx(1.0, abs=1e-12)
