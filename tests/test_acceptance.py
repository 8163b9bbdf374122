"""End-to-end acceptance: ten numbered criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines. Every
criterion asserts its stated tolerance and its runtime budget; expected
values are frozen from this package's own dense/closed-form oracles.
"""
import time

import numpy as np

from blochsim.circuits import (
    build_contact_phase,
    build_field_phase,
    build_inter_hop,
    build_intra_hop,
    build_trotter_step,
    build_two_particle_step,
    circuit_unitary,
)
from blochsim.evolve import EvolutionPlan, initial_amplitudes, run
from blochsim.model import ModelParams, params_with_gamma
from blochsim.observables import (
    position_series,
    probability_series,
    stark_ladder,
)
from blochsim.oracles import (
    dense_hamiltonian,
    dense_2d_hamiltonian,
    dense_propagator,
    dense_two_particle_hamiltonian,
    spin_chain_sector_bruteforce,
    uniform_chain_mean_position,
    uniform_chain_profile,
)
from blochsim.transpile import (
    REFERENCE_STEP_COUNTS_3Q,
    basis_unitary,
    count,
    decompose,
    equivalent_up_to_phase,
)

DEMO = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=4)


def _verdict(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    ok = ok and elapsed < budget
    line = (
        f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
        f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)"
    )
    print(line)
    assert ok, line


def _hop_block(phi: float) -> np.ndarray:
    return np.array(
        [[np.cos(phi), 1j * np.sin(phi)], [1j * np.sin(phi), np.cos(phi)]], dtype=complex
    )


def test_criterion_01_circuit_factors_match_closed_forms():
    """Hopping and field propagator circuits equal their entrywise closed forms."""
    start = time.perf_counter()
    dt, t = 0.02, 0.02
    worst = 0.0
    for gamma in (1, 2, 3, 4):
        p = params_with_gamma(gamma, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        n = p.n_sites

        intra = np.zeros((n, n), dtype=complex)
        for m in range(n // 2):
            pair = (2 * m, 2 * m + 1)
            intra[np.ix_(pair, pair)] = _hop_block(p.delta_a * dt / 4.0)

        inter = np.zeros((n, n), dtype=complex)
        for m in range(n // 2):
            pair = (2 * m + 1, (2 * m + 2) % n)
            inter[np.ix_(pair, pair)] = _hop_block(p.delta_b * dt / 4.0)

        field = np.diag(np.exp(-1j * p.field(t) * dt * np.arange(n)))

        worst = max(
            worst,
            np.max(np.abs(circuit_unitary(build_intra_hop(p, dt)) - intra)),
            np.max(np.abs(circuit_unitary(build_inter_hop(p, dt)) - inter)),
            np.max(np.abs(circuit_unitary(build_field_phase(p, t, dt)) - field)),
        )
    _verdict(
        1, "circuit factors match closed forms",
        worst <= 1e-12, f"max entry deviation {worst:.2e} <= 1e-12 over gamma=1..4",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_02_first_order_step_error_halves_with_dt():
    """Halving dt halves the state error; site-probability error respects the bound.

    For this real spike start and static Hamiltonian the leading Trotter
    correction only rotates amplitudes out of phase, so site probabilities
    converge at second order (ratio ~0.25) while the amplitude error shows
    the nominal first-order halving; both stay within the 0.6 ceiling.
    """
    start = time.perf_counter()
    psi0 = initial_amplitudes("spike", DEMO, 2)
    exact = dense_propagator(dense_hamiltonian(DEMO), 1.0) @ psi0

    amp_errs, prob_errs = [], []
    for n_steps in (25, 50, 100):  # dt = 0.04, 0.02, 0.01 at fixed t = 1.0
        traj = run(psi0, DEMO, EvolutionPlan(dt=1.0 / n_steps, n_steps=n_steps))
        psi = traj.amplitudes(n_steps)
        amp_errs.append(np.linalg.norm(psi - exact))
        prob_errs.append(np.max(np.abs(np.abs(psi) ** 2 - np.abs(exact) ** 2)))

    amp_ratios = [b / a for a, b in zip(amp_errs, amp_errs[1:])]
    prob_ratios = [b / a for a, b in zip(prob_errs, prob_errs[1:])]
    ok = all(0.4 <= r <= 0.6 for r in amp_ratios) and all(r <= 0.6 for r in prob_ratios)
    _verdict(
        2, "first-order step error halves with dt",
        ok,
        "amplitude ratios "
        + ", ".join(f"{r:.3f}" for r in amp_ratios)
        + " in [0.4, 0.6]; probability ratios "
        + ", ".join(f"{r:.3f}" for r in prob_ratios)
        + " <= 0.6",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_03_three_independent_routes_agree():
    """Dense, RK4, and step-extrapolated circuit evolution agree on |psi(2, t)|^2."""
    start = time.perf_counter()
    psi0 = initial_amplitudes("spike", DEMO, 2)

    dense = run(psi0, DEMO, EvolutionPlan(dt=0.02, n_steps=100, stepper="exact-dense"))
    rk4 = run(psi0, DEMO, EvolutionPlan(dt=0.02, n_steps=100, stepper="ode-rk4"))
    coarse = run(psi0, DEMO, EvolutionPlan(dt=0.02, n_steps=100))
    fine = run(psi0, DEMO, EvolutionPlan(dt=0.01, n_steps=200))

    p_dense = dense.site_probability(2)
    rk4_err = np.max(np.abs(rk4.site_probability(2) - p_dense))
    # probability error is O(dt^2) here, so eliminate the leading term
    # with the matching (4 p_half - p) / 3 extrapolation
    p_extrap = (4.0 * fine.site_probability(2)[::2] - coarse.site_probability(2)) / 3.0
    extrap_err = np.max(np.abs(p_extrap - p_dense))

    ok = rk4_err <= 1e-5 and extrap_err <= 1e-5
    _verdict(
        3, "three independent routes agree",
        ok,
        f"dense vs rk4 {rk4_err:.2e} <= 1e-5, "
        f"dense vs extrapolated circuit {extrap_err:.2e} <= 1e-5, t in [0, 2]",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_04_uniform_chain_closed_form():
    """Equal-hopping tilted chain: profile, mean position, and oscillation period."""
    start = time.perf_counter()
    n, delta, f, l0 = 128, 2.0, 0.2, 64
    p = ModelParams(delta_a=delta, delta_b=delta, f_dc=f, n_sites=n)
    period = 2.0 * np.pi / f
    dt = period / 200.0

    # spike launch: site amplitudes against the Bessel closed form
    spike = initial_amplitudes("spike", p, l0)
    traj = run(spike, p, EvolutionPlan(dt=dt, n_steps=200, stepper="exact-dense"))
    profile_err = 0.0
    for k in range(1, 201):
        closed = uniform_chain_profile(n, l0, traj.times[k], delta, f)
        profile_err = max(profile_err, float(np.max(np.abs(traj.amplitudes(k) - closed))))

    # gaussian launch: <l(t)> against the closed-form cosine, run past one period
    gauss = initial_amplitudes("gaussian", p)
    traj_g = run(gauss, p, EvolutionPlan(dt=dt, n_steps=250, stepper="exact-dense",
                                         store_states=False))
    sites = np.arange(n)
    mean_series = traj_g.probabilities @ sites
    closed_series = uniform_chain_mean_position(gauss, traj_g.times, delta, f)
    mean_err = float(np.max(np.abs(mean_series - closed_series)))

    window = np.arange(150, 251)
    k_star = window[np.argmin(np.abs(mean_series[window] - mean_series[0]))]
    period_est = traj_g.times[k_star]
    period_rel = abs(period_est - period) / period

    ok = profile_err <= 1e-6 and mean_err <= 1e-6 and period_rel <= 0.005
    _verdict(
        4, "uniform-chain closed form",
        ok,
        f"profile {profile_err:.2e} <= 1e-6, mean position {mean_err:.2e} <= 1e-6, "
        f"period {period_est:.4f} vs 2*pi/F = {period:.4f} ({100 * period_rel:.3f}% <= 0.5%)",
        time.perf_counter() - start, 10.0,
    )


def test_criterion_05_spin_chain_sector_equivalence():
    """The spin-chain single-excitation block equals the site Hamiltonian."""
    start = time.perf_counter()
    dev_brute = 0.0
    for n in (4, 8):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=n)
        dev_brute = max(
            dev_brute,
            float(np.max(np.abs(spin_chain_sector_bruteforce(p) - dense_hamiltonian(p)))),
        )
    _verdict(
        5, "spin-chain sector equivalence",
        dev_brute <= 1e-14,
        f"2^N brute force vs dense {dev_brute:.1e} <= 1e-14 (N=4,8)",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_06_tilted_ladder_formation():
    """Tilting splits the two bands into 2F-spaced ladders the formula predicts."""
    start = time.perf_counter()
    f = 1.0
    p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=f, n_sites=20)
    p0 = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=0.0, n_sites=20)

    # flat chain: two clean bands +-[1, 1.5], empty gap
    w0 = np.linalg.eigvalsh(dense_hamiltonian(p0))
    bands_ok = np.max(np.abs(w0)) <= 1.5 + 1e-9 and np.min(np.abs(w0)) >= 1.0 - 1e-9

    # weak tilt: centered on the mean slope energy, the spectrum spreads past
    # the flat band edges and rungs appear inside the former gap
    w_weak = np.linalg.eigvalsh(dense_hamiltonian(
        ModelParams(delta_a=5.0, delta_b=1.0, f_dc=0.2, n_sites=20)))
    w_weak = w_weak - 0.2 * 19 / 2.0
    spread_ok = (
        w_weak.max() > 1.6
        and w_weak.min() < -1.6
        and bool(np.any(np.abs(w_weak) < 0.95))
    )

    # strong tilt: classify interior eigenstates by band, check rung structure
    w, v = np.linalg.eigh(dense_hamiltonian(p))
    h0 = dense_hamiltonian(p0)
    rungs = {b: stark_ladder(p, f, (-12, 12), band=b).energies for b in ("-", "+")}
    interior = {"-": [], "+": []}
    worst_rel = 0.0
    for i in range(w.size):
        vec = v[:, i]
        if abs(vec[0]) ** 2 > 1e-8 or abs(vec[-1]) ** 2 > 1e-8:
            continue  # pinned to a chain end, not a bulk rung
        band = "+" if float(np.real(vec.conj() @ h0 @ vec)) > 0 else "-"
        interior[band].append(w[i])
        nearest = rungs[band][np.argmin(np.abs(rungs[band] - w[i]))]
        worst_rel = max(worst_rel, abs(nearest - w[i]) / abs(w[i]))

    worst_spacing = 0.0
    for band, energies in interior.items():
        assert len(energies) >= 3
        spacings = np.diff(np.sort(energies))
        worst_spacing = max(worst_spacing, float(np.max(np.abs(spacings - 2.0 * f))))

    ok = (
        bands_ok and spread_ok
        and worst_spacing <= 0.05 * 2.0 * f
        and worst_rel <= 0.05
    )
    _verdict(
        6, "tilted-ladder formation",
        ok,
        f"flat bands in +-[1, 1.5]: {bands_ok}; weak-tilt spread: {spread_ok}; "
        f"interior spacings off 2F by {worst_spacing:.3f} <= 0.1; "
        f"ladder formula per-energy error {100 * worst_rel:.1f}% <= 5%",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_07_two_particle_factorization_and_contact():
    """V=0 factorizes into single-particle products; V=10 converges to dense."""
    start = time.perf_counter()
    dt = 0.02

    # non-interacting: the joint modulus is the product of the marginals
    p0 = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=0.0, n_sites=4)
    pair = run(initial_amplitudes("spike2", p0, 1, 2), p0,
               EvolutionPlan(dt=dt, n_steps=100))
    one = run(initial_amplitudes("spike", p0, 1), p0, EvolutionPlan(dt=dt, n_steps=100))
    two = run(initial_amplitudes("spike", p0, 2), p0, EvolutionPlan(dt=dt, n_steps=100))
    factor_err = 0.0
    for k in (25, 50, 100):
        product = np.kron(one.amplitudes(k), two.amplitudes(k))
        factor_err = max(factor_err, float(np.max(
            np.abs(np.abs(pair.amplitudes(k)) - np.abs(product))
        )))

    # interacting: first-order convergence of the circuit to the dense oracle
    pv = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=10.0, n_sites=4)
    psi0 = initial_amplitudes("spike2", pv, 1, 2)
    exact = dense_propagator(dense_two_particle_hamiltonian(pv), 1.0) @ psi0
    errs = []
    for n_steps in (25, 50, 100):
        traj = run(psi0, pv, EvolutionPlan(dt=1.0 / n_steps, n_steps=n_steps))
        errs.append(np.linalg.norm(traj.amplitudes(n_steps) - exact))
    ratios = [b / a for a, b in zip(errs, errs[1:])]

    # the contact factor is exactly the coincidence phase
    u_v = circuit_unitary(build_contact_phase(pv, dt))
    expected = np.ones(16, dtype=complex)
    expected[np.arange(4) * 4 + np.arange(4)] = np.exp(-1j * pv.v * dt)
    contact_err = float(np.max(np.abs(u_v - np.diag(expected))))

    ok = (
        factor_err <= 1e-10
        and all(0.4 <= r <= 0.6 for r in ratios)
        and contact_err <= 1e-12
    )
    _verdict(
        7, "two-particle factorization and contact",
        ok,
        f"V=0 product split {factor_err:.1e} <= 1e-10; V=10 error ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + f" in [0.4, 0.6]; contact diagonal {contact_err:.1e} <= 1e-12",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_08_basis_lowering_equivalence_and_counts():
    """Lowered circuits match their source unitaries; gate tallies reported."""
    start = time.perf_counter()
    dt = 0.02
    equiv = {}
    counts3 = None
    for gamma in (2, 3):
        p = params_with_gamma(gamma, delta_a=5.0, delta_b=1.0, f_dc=1.5)
        circuit = build_trotter_step(p, dt, dt)
        basis = decompose(circuit)
        equiv[gamma] = equivalent_up_to_phase(
            basis_unitary(basis), circuit_unitary(circuit), tol=1e-10
        )
        if gamma == 3:
            counts3 = count(basis).as_dict()

    pv = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, v=10.0, n_sites=4)
    two = build_two_particle_step(pv, dt, dt)
    equiv["two-particle"] = equivalent_up_to_phase(
        basis_unitary(decompose(two)), circuit_unitary(two), tol=1e-10
    )

    ref = REFERENCE_STEP_COUNTS_3Q
    ok = all(equiv.values())
    _verdict(
        8, "basis lowering equivalence and counts",
        ok,
        "unitary-equivalent to 1e-10 for 2q, 3q, and two-particle steps; 3q step "
        f"(depth, u1, u3, cx) = ({counts3['depth']}, {counts3['u1']}, {counts3['u3']}, "
        f"{counts3['cx']}) vs hand-optimized reference ({ref['depth']}, {ref['u1']}, "
        f"{ref['u3']}, {ref['cx']}), informational",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_09_sublattice_antiphase_oscillation():
    """Even/odd-chain positions oscillate in anti-phase; their weights sum to one."""
    start = time.perf_counter()
    details = []
    ok = True
    for f in (0.2, 1.0):
        p = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=f, n_sites=20)
        two_periods = 2.0 * (2.0 * np.pi / f)
        plan = EvolutionPlan(dt=two_periods / 400.0, n_steps=400, stepper="exact-dense",
                             store_states=False)
        traj = run(initial_amplitudes("gaussian", p), p, plan)
        pos = position_series(traj).values
        prob = probability_series(traj).values
        corr = float(np.corrcoef(pos[:, 0], pos[:, 1])[0, 1])
        norm_dev = float(np.max(np.abs(prob.sum(axis=1) - 1.0)))
        ok = ok and corr < -0.5 and norm_dev <= 1e-10
        details.append(f"F={f}: corr(l_A, l_B) = {corr:.3f} < -0.5, "
                       f"|P_A + P_B - 1| <= {norm_dev:.1e}")
    _verdict(
        9, "sublattice anti-phase oscillation",
        ok, "; ".join(details),
        time.perf_counter() - start, 5.0,
    )


def test_criterion_10_two_axis_separability():
    """Kronecker-sum spectrum and product evolution match the 1D building blocks."""
    start = time.perf_counter()
    px = ModelParams(delta_a=5.0, delta_b=1.0, f_dc=1.5, n_sites=8)
    py = ModelParams(delta_a=2.0, delta_b=0.5, f_dc=0.3, n_sites=8)

    w2d = np.sort(np.linalg.eigvalsh(dense_2d_hamiltonian(px, py)))
    wx = np.linalg.eigvalsh(dense_hamiltonian(px))
    wy = np.linalg.eigvalsh(dense_hamiltonian(py))
    pair_sums = np.sort(np.add.outer(wx, wy).ravel())
    spectrum_err = float(np.max(np.abs(w2d - pair_sums)))

    t = 0.7
    psi_x = initial_amplitudes("gaussian", px)
    psi_y = initial_amplitudes("spike", py, 2)
    joint = dense_propagator(dense_2d_hamiltonian(px, py), t) @ np.kron(psi_x, psi_y)
    product = np.kron(
        dense_propagator(dense_hamiltonian(px), t) @ psi_x,
        dense_propagator(dense_hamiltonian(py), t) @ psi_y,
    )
    evolution_err = float(np.max(np.abs(joint - product)))

    ok = spectrum_err <= 1e-10 and evolution_err <= 1e-8
    _verdict(
        10, "two-axis separability",
        ok,
        f"pairwise-sum spectrum {spectrum_err:.1e} <= 1e-10 (8x8); "
        f"separable evolution {evolution_err:.1e} <= 1e-8",
        time.perf_counter() - start, 5.0,
    )
