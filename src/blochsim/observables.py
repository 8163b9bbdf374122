"""Site, sublattice, momentum, and spectral observables, and the CSV writer.

The state observables act on the last axis of an amplitude array, so one
call covers one state or a whole (T, n) trajectory.

Sublattice conventions: even sites form chain A, odd sites chain B. The
per-chain expectation values carry a factor 2 (each chain holds half the
weight of an equally split state), so

    <l_A> = 2 * sum_{even l} l |psi(l)|^2,    <l> = (<l_A> + <l_B>) / 2,

and the sublattice momentum density uses psi~(k) = sqrt(2/N) * sum over
one sublattice of exp(-i k l) psi(l) on the printed grid k = 2 pi n / N,
n = 0..N-1. The expectation <k_AB> is the plain grid sum of k |psi~(k)|^2
with no renormalization, so its absolute value is grid-convention
dependent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams
from .oracles import dense_hamiltonian

#: Rows ``write_csv`` formats per write, so no full-file string is built.
CSV_BLOCK_ROWS = 4096
#: Amplitudes ``momentum_series`` transforms per block, so its FFT temporaries stay bounded.
MOMENTUM_BLOCK_AMPS = 2 ** 20


def site_probabilities(state) -> np.ndarray:
    """|psi(l)|^2 over the last axis of a (..., n) amplitude array."""
    return np.abs(state) ** 2


def sublattice_probability(state) -> tuple[np.ndarray, np.ndarray]:
    """(sum of |psi|^2 over even sites, over odd sites), along the last axis."""
    return _sublattice_probability(site_probabilities(state))


def sublattice_position(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<l_A>, <l_B>, <l>) along the last axis: per-chain factor 2, then their plain mean."""
    return _sublattice_position(site_probabilities(state))


# The single implementation of each probability observable. The series call it
# on ``traj.probabilities`` directly, because a trajectory run without
# amplitudes keeps only |psi|^2; storing |psi| instead, so that the amplitude
# forms above could serve it, costs one more (T, dim) array per trajectory.


def _sublattice_probability(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even- and odd-site sums of probabilities over the last axis."""
    return np.sum(p[..., 0::2], axis=-1), np.sum(p[..., 1::2], axis=-1)


def _sublattice_position(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<l_A>, <l_B>, <l>) of probabilities over the last axis."""
    l = np.arange(p.shape[-1])
    l_a = 2.0 * np.sum(l[0::2] * p[..., 0::2], axis=-1)
    l_b = 2.0 * np.sum(l[1::2] * p[..., 1::2], axis=-1)
    return l_a, l_b, 0.5 * (l_a + l_b)


def momentum_grid(n_sites: int) -> np.ndarray:
    """k = 2 pi n / N for n = 0..N-1."""
    return 2.0 * np.pi * np.arange(n_sites) / n_sites


def sublattice_momentum_density(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k grid, |psi~_A(k)|^2, |psi~_B(k)|^2) along the last axis, sqrt(2/N) normalized."""
    amps = np.asarray(state, dtype=complex)
    n = amps.shape[-1]
    mask_even = np.zeros(n)
    mask_even[0::2] = 1.0
    ft_a = np.fft.fft(amps * mask_even, axis=-1) * math.sqrt(2.0 / n)
    ft_b = np.fft.fft(amps * (1.0 - mask_even), axis=-1) * math.sqrt(2.0 / n)
    return momentum_grid(n), np.abs(ft_a) ** 2, np.abs(ft_b) ** 2


def sublattice_momentum(state) -> tuple[np.ndarray, np.ndarray]:
    """(<k_A>, <k_B>) along the last axis, as plain grid sums of k |psi~(k)|^2."""
    k, dens_a, dens_b = sublattice_momentum_density(state)
    return np.sum(k * dens_a, axis=-1), np.sum(k * dens_b, axis=-1)


def dispersion(params: ModelParams, k) -> tuple[np.ndarray, np.ndarray]:
    """Two-band energies (upper, lower) at crystal momentum k.

    eps_+-(k) = +- (1/4) sqrt(delta_a^2 + delta_b^2 + 2 delta_a delta_b cos 2k);
    the gap closes at |delta_a| = |delta_b|, where the branches merge into
    +-(delta/2)|cos k| at delta_a = delta_b = delta and +-(delta/2)|sin k|
    at delta_a = -delta_b = delta.
    """
    k = np.asarray(k, dtype=float)
    root = 0.25 * np.sqrt(
        params.delta_a ** 2
        + params.delta_b ** 2
        + 2.0 * params.delta_a * params.delta_b * np.cos(2.0 * k)
    )
    return root, -root


def spectrum(params: ModelParams, f_const: float) -> np.ndarray:
    """Ascending eigenvalues of the chain Hamiltonian at constant tilt f_const."""
    return np.linalg.eigvalsh(dense_hamiltonian(replace(params, f_dc=f_const, f_ac=0.0)))


@dataclass(frozen=True)
class LadderSpectrum:
    """Uniformly spaced rung energies of one band's tilted-ladder estimate."""

    band: str
    alphas: np.ndarray
    energies: np.ndarray
    offset: float


def _band_mean(delta_a: float, delta_b: float) -> float:
    """M = (1/pi) * integral over |k| < pi/2 of |delta_a e^{ik} + delta_b e^{-ik}|.

    With B = |delta_a| + |delta_b| and b = ||delta_a| - |delta_b||, M is
    (2/pi) B E(1 - (b/B)^2), a complete elliptic integral of the second
    kind, taken by the arithmetic-geometric mean of 1 and b/B (Abramowitz
    & Stegun 17.6): E = K (1 - sum_n 2^(n-1) c_n^2) with K = pi / (2 a_N),
    and c_0^2 = 4 |delta_a delta_b| / B^2. At b = 0 the means cannot meet
    (the geometric one stays 0), but E(1) = 1 and M = 2B/pi.
    """
    big = abs(delta_a) + abs(delta_b)
    small = abs(abs(delta_a) - abs(delta_b))
    if small == 0.0:
        return 2.0 * big / math.pi
    # scaled by B so that no square overflows; 1 - c_0^2 / 2 = (delta_a^2 + delta_b^2) / B^2
    a, g = 1.0, small / big
    total, weight = (delta_a / big) ** 2 + (delta_b / big) ** 2, 0.5
    for _ in range(64):  # quadratic convergence: a handful of steps for any g > 0
        if a - g <= 4e-16 * a:
            break
        c = 0.5 * (a - g)
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        weight *= 2.0
        total -= weight * c * c
    return big * total / a


def stark_ladder(params: ModelParams, f_const: float, alpha_range: tuple[int, int],
                 band: str = "-") -> LadderSpectrum:
    """Rung energies E_alpha = 2 F alpha + offset for one band.

    offset = F + (1/pi) * integral over half the zone of [eps(k) - F X(k)],
    taken in closed form for any hoppings, the gap closing included:

        offset = F (1 - s/2) +- M/4,    s = sign(|delta_a| - |delta_b|),

    with + for the upper band. The band term is the mean of |eps| over the
    zone, M/4 (see ``_band_mean``). The Berry connection
    X(k) = (delta_a^2 - delta_b^2) / (2 (delta_a^2 + delta_b^2 + 2 delta_a delta_b cos 2k))
    is the same for both bands and integrates to (pi/2) s, the Zak phase;
    s = 0 when the gap closes.

    The extra half-rung F comes from the quantization condition: the Bloch
    eigenvector section is antiperiodic over the zone (phi_{k+pi} = -phi_k,
    because the even-sublattice amplitude -4 eps / (delta_a e^{ik} + delta_b e^{-ik})
    flips sign and the site phase e^{-ikl} staggers), so the accumulated
    phase around the zone must be pi mod 2pi rather than 0. Without it the
    rungs land half a spacing away from the dense spectrum; with it they
    agree up to an O(F^2) adiabatic residual (about 0.12 F^2 for
    delta_a=5, delta_b=1), checked against exact diagonalization.
    """
    if band not in ("+", "-"):
        raise ValueError(f"band must be '+' or '-', got {band!r}")
    alpha_lo, alpha_hi = alpha_range
    if alpha_hi < alpha_lo:
        raise ValueError("empty alpha range")
    zak = float(np.sign(abs(params.delta_a) - abs(params.delta_b)))
    band_term = 0.25 * _band_mean(params.delta_a, params.delta_b)
    offset = f_const * (1.0 - 0.5 * zak) + (band_term if band == "+" else -band_term)
    alphas = np.arange(alpha_lo, alpha_hi + 1)
    energies = 2.0 * f_const * alphas + offset
    return LadderSpectrum(band=band, alphas=alphas, energies=energies, offset=float(offset))


@dataclass(frozen=True)
class ObservableSeries:
    """A labelled time series with one or more value columns."""

    kind: str
    times: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != np.asarray(self.times).size:
            raise ValueError("values and times are not aligned")
        if values.shape[1] != len(self.labels):
            raise ValueError("one label per value column required")
        object.__setattr__(self, "values", values)


def position_series(traj) -> ObservableSeries:
    """(<l_A>, <l_B>, <l>) along a single-particle trajectory."""
    values = np.stack(_sublattice_position(traj.probabilities), axis=-1)
    return ObservableSeries("position", traj.times, values, ("pos_a", "pos_b", "pos_mean"))


def probability_series(traj) -> ObservableSeries:
    """Sublattice probability sums along a trajectory."""
    values = np.stack(_sublattice_probability(traj.probabilities), axis=-1)
    return ObservableSeries("probability", traj.times, values, ("prob_a", "prob_b"))


def momentum_series(traj) -> ObservableSeries:
    """Sublattice momentum expectations along a trajectory (needs amplitudes).

    The rows go through ``sublattice_momentum`` in blocks of at most
    ``MOMENTUM_BLOCK_AMPS`` amplitudes (one row if a row is larger).
    """
    amps = traj.amplitudes()
    rows = max(1, MOMENTUM_BLOCK_AMPS // amps.shape[-1])
    values = np.concatenate([np.stack(sublattice_momentum(amps[lo:lo + rows]), axis=-1)
                             for lo in range(0, len(amps), rows)])
    return ObservableSeries("momentum", traj.times, values, ("mom_a", "mom_b"))


def write_csv(path, header, columns) -> None:
    """CSV with one row per element of the broadcast ``columns``, in C order.

    Each value is written as ``str`` of its ``.tolist()`` form: a float as
    its shortest round-trip repr, an int or a string as itself. Rows are
    formatted ``CSV_BLOCK_ROWS`` at a time.
    """
    columns = np.broadcast_arrays(*columns)
    row = ",".join(["{}"] * len(columns)) + "\n"  # format(x, "") is str(x)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, columns[0].size, CSV_BLOCK_ROWS):
            block = [c.flat[lo:lo + CSV_BLOCK_ROWS].tolist() for c in columns]
            fh.write("".join(map(row.format, *block)))


def write_series_csv(series_list: list[ObservableSeries], path) -> None:
    """Side-by-side CSV of series sharing one time grid: t, then value columns."""
    if not series_list:
        raise ValueError("nothing to write")
    times = series_list[0].times
    for s in series_list[1:]:
        if s.times.size != times.size or np.max(np.abs(s.times - times)) > 0.0:
            raise ValueError("series do not share a time grid")
    header = ["t"] + [label for s in series_list for label in s.labels]
    write_csv(path, header, [times, *(column for s in series_list for column in s.values.T)])
