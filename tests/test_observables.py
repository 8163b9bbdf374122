"""Sublattice, momentum, and spectral observables."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim.evolve import EvolutionPlan, initial_amplitudes, run
from blochsim.model import ModelParams
from blochsim.observables import (
    CSV_BLOCK_ROWS,
    ObservableSeries,
    dispersion,
    momentum_series,
    position_series,
    probability_series,
    site_probabilities,
    spectrum,
    stark_ladder,
    sublattice_momentum,
    sublattice_momentum_density,
    sublattice_position,
    sublattice_probability,
    write_csv,
    write_series_csv,
)

DEMO = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=4)
LADDER = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.0, n_sites=20)


def _random_state(rng, n):
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return amps / np.linalg.norm(amps)


class TestSiteObservables:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(31)
        psi = _random_state(rng, 16)
        assert np.sum(site_probabilities(psi)) == pytest.approx(1.0, abs=1e-12)
        pa, pb = sublattice_probability(psi)
        assert pa + pb == pytest.approx(1.0, abs=1e-12)

    def test_spike_position_convention(self):
        # even-site spike: chain A carries twice the site index, chain B nothing
        psi = initial_amplitudes("spike", DEMO, 2)
        l_a, l_b, l_mean = sublattice_position(psi)
        assert (l_a, l_b, l_mean) == (4.0, 0.0, 2.0)

    def test_balanced_state_position_mean(self):
        # equal weight on sites 1 and 2: <l_A> = 2*2*(1/2) = 2, <l_B> = 2*1*(1/2) = 1
        psi = np.zeros(4, dtype=complex)
        psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
        l_a, l_b, l_mean = sublattice_position(psi)
        assert l_a == pytest.approx(2.0, abs=1e-14)
        assert l_b == pytest.approx(1.0, abs=1e-14)
        assert l_mean == pytest.approx(1.5, abs=1e-14)

    def test_two_particle_probability_indexing(self):
        p = ModelParams(delta_a=5.0, delta_b=1.0, v=10.0, n_sites=4)
        traj = run(initial_amplitudes("spike2", p, 1, 2), p, EvolutionPlan(dt=0.02, n_steps=1))
        assert traj.site_probability(1, 2)[0] == 1.0
        assert traj.site_probability(2, 1)[0] == 0.0

    def test_two_particle_probability_guards(self):
        # one site per particle, each in [0, n): (0, 5) must not read the pair (1, 1)
        # and (6,) must not read the joint index 6
        plan = EvolutionPlan(dt=0.02, n_steps=1)
        pair = run(initial_amplitudes("spike2", DEMO, 1, 2), DEMO, plan)
        single = run(initial_amplitudes("spike", DEMO, 2), DEMO, plan)
        for traj, sites in [(pair, (0, 5)), (pair, (-1, 0)), (pair, (6,)), (pair, (1, 2, 3)),
                            (single, (4,)), (single, (0, 1))]:
            with pytest.raises(ValueError, match=r"site\(s\) in \[0, 4\)"):
                traj.site_probability(*sites)


class TestMomentum:
    def test_parseval(self):
        rng = np.random.default_rng(32)
        psi = _random_state(rng, 16)
        _, dens_a, dens_b = sublattice_momentum_density(psi)
        # each sublattice density integrates to 2 * (its probability weight)
        assert np.sum(dens_a) + np.sum(dens_b) == pytest.approx(2.0, abs=1e-12)

    def test_even_spike_momentum_expectation(self):
        # flat density 2/N on the grid k = 2 pi n / N gives <k_A> = 2 pi (N-1)/N
        n = 16
        p = ModelParams(delta_a=2.0, delta_b=2.0, n_sites=n)
        psi = initial_amplitudes("spike", p, 2)
        k_a, k_b = sublattice_momentum(psi)
        assert k_a == pytest.approx(2.0 * np.pi * (n - 1) / n, abs=1e-12)
        assert k_b == 0.0


class TestSpectra:
    def test_dispersion_band_edges(self):
        up, lo = dispersion(DEMO, np.array([0.0, np.pi / 2.0]))
        np.testing.assert_allclose(up, [1.5, 1.0], atol=1e-14)  # (da+db)/4, |da-db|/4
        np.testing.assert_allclose(lo, -up, atol=0)

    def test_dispersion_gapless_case(self):
        p = ModelParams(delta_a=2.0, delta_b=2.0, n_sites=4)
        k = np.linspace(-np.pi / 2.0, np.pi / 2.0, 21)
        up, _ = dispersion(p, k)
        np.testing.assert_allclose(up, np.abs(np.cos(k)), atol=1e-14)

    def test_flat_spectrum_is_chiral_symmetric(self):
        energies = spectrum(LADDER, 0.0)
        np.testing.assert_allclose(energies, -energies[::-1], atol=1e-12)
        assert energies.min() == pytest.approx(-1.5, abs=1e-9)
        assert np.max(energies[energies < 0]) == pytest.approx(-1.0, abs=1e-9)


class TestStarkLadder:
    def test_spacing_is_exactly_2f(self):
        ladder = stark_ladder(LADDER, 1.0, (-5, 5))
        np.testing.assert_allclose(np.diff(ladder.energies), 2.0, atol=0)
        np.testing.assert_array_equal(ladder.alphas, np.arange(-5, 6))

    def test_band_offsets_sum_to_f(self):
        # eps_+ = -eps_- and both bands share the geometric term, which
        # integrates to (pi/2) s over the zone (s = 1 here); the offsets
        # therefore sum to F (2 - s) = F
        for f in (0.5, 1.0):
            lo = stark_ladder(LADDER, f, (0, 0), band="-")
            hi = stark_ladder(LADDER, f, (0, 0), band="+")
            assert lo.offset + hi.offset == pytest.approx(f, abs=1e-12)

    def test_offset_regression(self):
        # frozen against exact diagonalization of the N=20 chain at F=1
        ladder = stark_ladder(LADDER, 1.0, (0, 0))
        assert ladder.offset == pytest.approx(-0.7625315663570189, abs=1e-8)

    @pytest.mark.parametrize("delta_a, delta_b", [
        (5.0, 1.0), (1.0, 5.0), (-5.0, 1.0), (5.0, -1.0), (2.0, 3.0), (0.0, 3.0), (3.0, 0.0),
        (0.0, 0.0), (3.0, 3.0), (-3.0, 3.0), (3.0, 3.001), (3.0, 3.0 + 1e-12),
    ])
    def test_band_mean_is_the_elliptic_integral(self, delta_a, delta_b):
        from scipy.special import ellipe

        # offset_+ - offset_- = M/2, M = (2/pi) B E(1 - (b/B)^2)
        p = ModelParams(delta_a=delta_a, delta_b=delta_b, n_sites=4)
        mean = 2.0 * (stark_ladder(p, 1.0, (0, 0), band="+").offset
                      - stark_ladder(p, 1.0, (0, 0), band="-").offset)
        big, small = abs(delta_a) + abs(delta_b), abs(abs(delta_a) - abs(delta_b))
        want = 2.0 / np.pi * big * ellipe(1.0 - (small / big) ** 2) if big else 0.0
        assert mean == pytest.approx(want, rel=1e-13, abs=1e-13)
        # and M = 4 <eps_+> over the zone, by the periodic trapezoid rule
        k = -np.pi / 2.0 + np.pi * np.arange(2 ** 16) / 2 ** 16
        assert mean == pytest.approx(4.0 * np.mean(dispersion(p, k)[0]), rel=1e-8, abs=1e-13)

    @pytest.mark.parametrize("delta_a, delta_b, f, n_sites", [
        (5.0, 1.0, 1.0, 20), (1.0, 5.0, 1.0, 20), (-5.0, 1.0, 1.0, 20),
        (2.0, 3.0, 0.5, 40), (3.0, 2.0, 0.5, 40),
    ])
    def test_interior_rungs_match_dense_spectrum(self, delta_a, delta_b, f, n_sites):
        from blochsim.oracles import dense_hamiltonian

        p = ModelParams(delta_a=delta_a, delta_b=delta_b, f_dc=f, n_sites=n_sites)
        h = dense_hamiltonian(p)
        w, v = np.linalg.eigh(h)
        h0 = dense_hamiltonian(replace(p, f_dc=0.0))
        rungs = {
            band: stark_ladder(p, f, (-3 * n_sites, 3 * n_sites), band=band).energies
            for band in ("-", "+")
        }
        checked = 0
        for i in range(w.size):
            vec = v[:, i]
            if abs(vec[0]) ** 2 > 1e-8 or abs(vec[-1]) ** 2 > 1e-8:
                continue  # edge-pinned state, not a bulk rung
            band = "+" if float(np.real(vec.conj() @ h0 @ vec)) > 0 else "-"
            nearest = rungs[band][np.argmin(np.abs(rungs[band] - w[i]))]
            assert abs(nearest - w[i]) / abs(w[i]) < 0.05
            # measured 0.124 F (0.007 F at F = 0.5); the other Zak branch is >= 0.87 F off
            assert abs(nearest - w[i]) <= 0.25 * f
            checked += 1
        assert checked >= 6

    def test_band_validation(self):
        with pytest.raises(ValueError, match="band"):
            stark_ladder(LADDER, 1.0, (0, 1), band="x")
        with pytest.raises(ValueError, match="alpha"):
            stark_ladder(LADDER, 1.0, (2, 1))


class TestSeries:
    def _demo_traj(self):
        return run(initial_amplitudes("spike", DEMO, 2), DEMO,
                   EvolutionPlan(dt=0.05, n_steps=8, stepper="exact-dense"))

    def test_series_shapes_and_labels(self):
        traj = self._demo_traj()
        pos = position_series(traj)
        prob = probability_series(traj)
        mom = momentum_series(traj)
        assert pos.labels == ("pos_a", "pos_b", "pos_mean")
        assert prob.labels == ("prob_a", "prob_b")
        assert mom.labels == ("mom_a", "mom_b")
        for s in (pos, prob, mom):
            assert s.values.shape == (9, len(s.labels))

    def test_position_series_matches_pointwise(self):
        traj = self._demo_traj()
        pos = position_series(traj)
        for k in (0, 4, 8):
            np.testing.assert_allclose(
                pos.values[k], sublattice_position(traj.amplitudes(k)), atol=1e-12
            )

    # at 4096 sites the 501 rows span two momentum_series blocks (256 rows each)
    @pytest.mark.parametrize("n_sites, stepper", [
        pytest.param(4, "exact-dense", id="4"),
        pytest.param(64, "exact-dense", id="64"),
        pytest.param(256, "exact-dense", id="256"),
        pytest.param(4096, "trotter1", id="4096"),
    ])
    def test_series_equal_the_per_state_functions_exactly(self, n_sites, stepper):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=n_sites)
        traj = run(initial_amplitudes("gaussian", p), p,
                   EvolutionPlan(dt=0.01, n_steps=500, stepper=stepper))
        rows = [traj.amplitudes(k) for k in range(len(traj))]
        np.testing.assert_array_equal(position_series(traj).values,
                                      [sublattice_position(a) for a in rows])
        np.testing.assert_array_equal(probability_series(traj).values,
                                      [sublattice_probability(a) for a in rows])
        np.testing.assert_array_equal(momentum_series(traj).values,
                                      [sublattice_momentum(a) for a in rows])

    def test_probability_series_sums_to_one(self):
        prob = probability_series(self._demo_traj())
        np.testing.assert_allclose(prob.values.sum(axis=1), 1.0, atol=1e-12)

    def test_series_alignment_validation(self):
        with pytest.raises(ValueError, match="label"):
            ObservableSeries("x", np.arange(3.0), np.zeros((3, 2)), ("only",))
        with pytest.raises(ValueError, match="aligned"):
            ObservableSeries("x", np.arange(3.0), np.zeros((4, 2)), ("a", "b"))
        with pytest.raises(ValueError, match="aligned"):
            ObservableSeries("x", np.arange(3.0), np.zeros((2, 3)), ("a", "b"))

    def test_write_series_csv(self, tmp_path):
        traj = self._demo_traj()
        path = tmp_path / "series.csv"
        write_series_csv([position_series(traj), probability_series(traj)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,pos_a,pos_b,pos_mean,prob_a,prob_b"
        assert len(lines) == 10
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[0, 1:], [4.0, 0.0, 2.0, 1.0, 0.0], atol=1e-12)

    def test_write_series_csv_grid_mismatch(self, tmp_path):
        a = ObservableSeries("a", np.arange(3.0), np.zeros((3, 1)), ("v",))
        b = ObservableSeries("b", np.arange(1.0, 4.0), np.zeros((3, 1)), ("w",))
        with pytest.raises(ValueError, match="time grid"):
            write_series_csv([a, b], tmp_path / "bad.csv")


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e16, -1e16, 1e-5, 0.1]


class TestWriteCsv:
    # (rows, sites) with rows * sites at 1, B - 1, B, B + 1 and 2B + 1 for B = 4096
    BOUNDARY_SHAPES = [(1, 1), (4095, 1), (65, 63), (64, 64), (241, 17), (4097, 1), (2731, 3)]

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(BOUNDARY_SHAPES) | st.tuples(st.integers(0, 300),
                                                              st.integers(1, 40)),
           data=st.data())
    def test_every_field_is_str_of_its_value(self, tmp_path_factory, shape, data):
        assert CSV_BLOCK_ROWS == 4096
        n_rows, n_sites = shape
        pool = data.draw(st.lists(st.floats() | st.sampled_from(_SPECIAL_FLOATS),
                                  min_size=1, max_size=12))
        words = data.draw(st.lists(st.text("+-ab", min_size=1, max_size=3),
                                   min_size=1, max_size=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        times = rng.choice(pool, (n_rows, 1))
        bits = rng.integers(-2 ** 63, 2 ** 63, (n_rows, n_sites), dtype=np.int64).view(np.float64)
        values = np.where(rng.random((n_rows, n_sites)) < 0.5, rng.choice(pool, bits.shape), bits)
        counts = rng.integers(-2 ** 62, 2 ** 62, (n_rows, n_sites))
        labels = rng.choice(words, (n_rows, 1))
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_csv(path, ("t", "site", "value", "count", "label"),
                  (times, np.arange(n_sites), values, counts, labels))
        lines = path.read_text(encoding="ascii").split("\n")
        assert lines[0] == "t,site,value,count,label" and lines[-1] == ""
        assert len(lines) == n_rows * n_sites + 2
        for r, line in enumerate(lines[1:-1]):
            i, j = divmod(r, n_sites)
            expected = [times[i, 0], j, values[i, j], counts[i, j], labels[i, 0]]
            assert line.split(",") == [str(np.asarray(v).tolist()) for v in expected]
