"""Dense classical references for the tilted two-band chain.

Everything here is built independently of the circuit layer: explicit
matrices, eigendecomposition propagators, a spin-chain cross-check of the
single-excitation sector, and the closed-form propagator of the uniform
(equal-hopping) infinite chain. The test suite holds circuit results
against these.

Matrix conventions: site basis |0..N-1>, hopping matrix elements
-delta_a/4 on (2n, 2n+1) bonds, -delta_b/4 on (2n+1, 2n+2) bonds with a
periodic wrap from site N-1 to site 0, and a diagonal tilt l * F(t).
"""
from __future__ import annotations

import math

import numpy as np

from .model import ModelParams

HERMITICITY_TOL = 1e-12

#: Largest dense (dim, dim) complex matrix built anywhere: 8192**2 * 16 B = 1 GiB.
DENSE_DIM_MAX = 8192


def check_dense_dim(dim: int) -> None:
    """Refuse a dense (dim, dim) complex128 matrix above ``DENSE_DIM_MAX``."""
    if dim > DENSE_DIM_MAX:
        raise ValueError(
            f"a dense {dim}x{dim} complex matrix needs {dim * dim * 16} bytes; "
            f"the limit is dimension {DENSE_DIM_MAX} ({DENSE_DIM_MAX ** 2 * 16} bytes)"
        )


def dense_intra_hop(params: ModelParams) -> np.ndarray:
    """Hopping on the (2n, 2n+1) bonds, matrix element -delta_a/4."""
    n = params.n_sites
    check_dense_dim(n)
    h = np.zeros((n, n), dtype=complex)
    for m in range(n // 2):
        h[2 * m, 2 * m + 1] += -params.delta_a / 4.0
        h[2 * m + 1, 2 * m] += -params.delta_a / 4.0
    return h


def dense_inter_hop(params: ModelParams) -> np.ndarray:
    """Hopping on the (2n+1, 2n+2) bonds with the periodic wrap to site 0."""
    n = params.n_sites
    check_dense_dim(n)
    h = np.zeros((n, n), dtype=complex)
    for m in range(n // 2):
        lo = 2 * m + 1
        hi = (2 * m + 2) % n
        h[lo, hi] += -params.delta_b / 4.0
        h[hi, lo] += -params.delta_b / 4.0
    return h


def dense_field(params: ModelParams, t: float = 0.0) -> np.ndarray:
    """Diagonal tilt F(t) * l."""
    n = params.n_sites
    check_dense_dim(n)
    return np.diag(params.field(t) * np.arange(n)).astype(complex)


def dense_hamiltonian(params: ModelParams, t: float = 0.0) -> np.ndarray:
    """Full single-particle Hamiltonian at time t."""
    return dense_intra_hop(params) + dense_inter_hop(params) + dense_field(params, t)


def dense_two_particle_hamiltonian(params: ModelParams, t: float = 0.0) -> np.ndarray:
    """Two particles on one chain: kinetic Kronecker sum plus contact term.

    Basis index l1 * N + l2 (particle 1 on the high bits); the contact
    interaction adds v on the coincidence diagonal l1 == l2.
    """
    n = params.n_sites
    check_dense_dim(n * n)
    h1 = dense_hamiltonian(params, t)
    eye = np.eye(n)
    h = np.kron(h1, eye) + np.kron(eye, h1)
    coincident = np.arange(n) * n + np.arange(n)
    h[coincident, coincident] += params.v
    return h


def dense_2d_hamiltonian(params_x: ModelParams, params_y: ModelParams, t: float = 0.0) -> np.ndarray:
    """Separable two-axis extension H_x (+) H_y as a Kronecker sum."""
    check_dense_dim(params_x.n_sites * params_y.n_sites)
    hx = dense_hamiltonian(params_x, t)
    hy = dense_hamiltonian(params_y, t)
    return np.kron(hx, np.eye(params_y.n_sites)) + np.kron(np.eye(params_x.n_sites), hy)


def dense_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) through a Hermitian eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL * scale:
        raise ValueError("dense_propagator requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


# --- spin-chain cross-check of the single-excitation sector ---------------

_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_SIGMA_MINUS = _SIGMA_PLUS.T.copy()
_NUMBER = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def spin_chain_sector_hamiltonian(
    params: ModelParams, t: float = 0.0, boundary: str = "periodic"
) -> np.ndarray:
    """Single-excitation block of the hardcore spin chain, assembled directly.

    The raising/lowering form of the chain has one term per bond plus the
    tilt written with number operators. The last inter-cell bond reaches
    site N; ``boundary="periodic"`` identifies that with site 0 (matching
    the dense Hamiltonian above), ``boundary="open"`` drops the bond.
    """
    if boundary not in ("periodic", "open"):
        raise ValueError(f"boundary must be 'periodic' or 'open', got {boundary!r}")
    n = params.n_sites
    check_dense_dim(n)
    h = np.zeros((n, n), dtype=complex)
    for m in range(n // 2):
        h[2 * m, 2 * m + 1] += -params.delta_a / 4.0
        h[2 * m + 1, 2 * m] += -params.delta_a / 4.0
    for m in range(n // 2):
        lo = 2 * m + 1
        hi = 2 * m + 2
        if hi == n:
            if boundary == "open":
                continue
            hi = 0
        h[lo, hi] += -params.delta_b / 4.0
        h[hi, lo] += -params.delta_b / 4.0
    h += np.diag(params.field(t) * np.arange(n))
    return h


def _site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """op on one spin, identity elsewhere; spin ``site`` is the index LSB."""
    acc = np.eye(1, dtype=complex)
    for s in range(n_sites - 1, -1, -1):
        acc = np.kron(acc, op if s == site else np.eye(2, dtype=complex))
    return acc


def spin_chain_sector_bruteforce(
    params: ModelParams, t: float = 0.0, boundary: str = "periodic"
) -> np.ndarray:
    """Single-excitation block extracted from the full 2**N spin matrix.

    Exponentially sized sanity oracle; limited to N <= 10.
    """
    if boundary not in ("periodic", "open"):
        raise ValueError(f"boundary must be 'periodic' or 'open', got {boundary!r}")
    n = params.n_sites
    if n > 10:
        raise ValueError(f"brute force limited to n_sites <= 10, got {n}")
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=complex)

    def hop(i: int, j: int, amp: float) -> np.ndarray:
        term = _site_operator(_SIGMA_PLUS, i, n) @ _site_operator(_SIGMA_MINUS, j, n)
        return amp * (term + term.conj().T)

    for m in range(n // 2):
        h += hop(2 * m + 1, 2 * m, -params.delta_a / 4.0)
    for m in range(n // 2):
        lo = 2 * m + 1
        hi = 2 * m + 2
        if hi == n:
            if boundary == "open":
                continue
            hi = 0
        h += hop(hi, lo, -params.delta_b / 4.0)
    f = params.field(t)
    for site in range(n):
        h += f * site * _site_operator(_NUMBER, site, n)

    # one-excitation states |l> are the basis indices with a single set bit
    sector = np.array([1 << l for l in range(n)])
    return h[np.ix_(sector, sector)]


# --- uniform-chain closed forms --------------------------------------------

_FIELD_EPS = 1e-12


def bessel_jn_sequence(n_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_n_max(x) by downward recurrence with sum-rule normalization.

    Downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} from a seeded high
    order, normalized with J_0 + 2 * sum_k J_{2k} = 1. Relative accuracy is
    better than 1e-10 on the working domain |x| <= 50, n <= 60.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = np.zeros(n_max + 1)
    ax = abs(float(x))
    if ax == 0.0:
        out[0] = 1.0
        return out
    base = max(n_max, int(math.ceil(ax)))
    start = base + int(math.sqrt(160.0 * (base + 1))) + 10
    if start % 2:
        start += 1
    jp = 0.0  # J_{k+1}
    j = 1e-30  # J_k, arbitrary seed normalized away below
    norm = 0.0
    for k in range(start, 0, -1):
        jm = (2.0 * k / ax) * j - jp  # J_{k-1}
        jp, j = j, jm
        if abs(j) > 1e250:  # rescale everything accumulated so far
            j *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            out *= 1e-250
        order = k - 1
        if order % 2 == 0:
            norm += j if order == 0 else 2.0 * j
        if order <= n_max:
            out[order] = j
    out /= norm
    if x < 0.0:  # J_n(-x) = (-1)^n J_n(x)
        out[1::2] *= -1.0
    return out


def bessel_jn(n: int, x: float) -> float:
    """Integer-order Bessel function of the first kind."""
    n = int(n)
    sign = 1.0
    if n < 0:  # J_{-n} = (-1)^n J_n
        n = -n
        if n % 2:
            sign = -1.0
    return sign * float(bessel_jn_sequence(n, x)[n])


def _drift_argument(t: float, delta: float, f: float) -> float:
    """(delta/f) sin(f t / 2), continued to delta*t/2 at zero field."""
    if abs(f) < _FIELD_EPS:
        return delta * t / 2.0
    return (delta / f) * math.sin(f * t / 2.0)


def uniform_chain_propagator(l: int, l_src: int, t: float, delta: float, f: float) -> complex:
    """Amplitude <l| U(t) |l_src> on the infinite equal-hopping tilted chain.

    Closed form i**(l-l') J_{l-l'}(z) exp(-i (l+l') f t / 2) with
    z = (delta/f) sin(f t / 2); at f = 0 the argument continues to
    delta*t/2 and the phase factor drops out.
    """
    n = l - l_src
    z = _drift_argument(t, delta, f)
    amp = (1j) ** (n % 4) * bessel_jn(n, z)
    if abs(f) < _FIELD_EPS:
        return complex(amp)
    return complex(amp * np.exp(-1j * (l + l_src) * f * t / 2.0))


def uniform_chain_profile(n_sites: int, l_src: int, t: float, delta: float, f: float) -> np.ndarray:
    """Vector of closed-form amplitudes over l = 0..n_sites-1 (one Bessel pass)."""
    z = _drift_argument(t, delta, f)
    orders = np.arange(n_sites) - l_src
    jn = bessel_jn_sequence(int(np.max(np.abs(orders))), z)
    vals = jn[np.abs(orders)]
    odd_negative = (orders < 0) & (np.abs(orders) % 2 == 1)
    vals = np.where(odd_negative, -vals, vals)
    powers = np.array([1.0, 1.0j, -1.0, -1.0j])
    amp = powers[orders % 4] * vals
    if abs(f) >= _FIELD_EPS:
        amp = amp * np.exp(-1j * (np.arange(n_sites) + l_src) * f * t / 2.0)
    return amp


def uniform_chain_mean_position(psi0: np.ndarray, t, delta: float, f: float):
    """Closed-form <l(t)> of the uniform tilted chain for initial state psi0.

    <l(t)> = <l(0)> - |S0| (delta/2f) [cos(theta0) - cos(f t + theta0)]
    with S0 = sum_l conj(psi(l+1, 0)) psi(l, 0); written in half-angle form
    so the f -> 0 ballistic limit comes out of the same expression.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    t = np.asarray(t, dtype=float)
    l0 = float(np.sum(np.arange(psi0.size) * np.abs(psi0) ** 2))
    s0 = np.sum(np.conj(psi0[1:]) * psi0[:-1])
    mag, theta0 = abs(s0), math.atan2(s0.imag, s0.real)
    if abs(f) < _FIELD_EPS:
        return l0 - mag * delta * (t / 2.0) * math.sin(theta0)
    return l0 - mag * (delta / f) * np.sin(f * t / 2.0) * np.sin(theta0 + f * t / 2.0)

