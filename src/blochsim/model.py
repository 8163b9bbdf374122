"""Physical configuration of the tilted diatomic chain.

Natural units throughout: hbar = 1 and unit lattice spacing, so energies
are inverse times and the site index doubles as the position coordinate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Couplings and geometry of the two-band chain.

    delta_a / delta_b are the intra- and inter-cell hopping amplitudes
    (matrix elements are -delta/4), f_dc + f_ac*cos(omega*t) is the tilt
    field, and v is the two-particle contact interaction strength.

    Circuit builders need n_sites to be a power of two (gamma qubits per
    register); the dense classical paths accept any even n_sites.
    """

    delta_a: float
    delta_b: float
    f_dc: float = 0.0
    f_ac: float = 0.0
    omega: float = 0.0
    v: float = 0.0
    n_sites: int = 4

    def __post_init__(self) -> None:
        if self.n_sites < 2 or self.n_sites % 2 != 0:
            raise ValueError(f"n_sites: must be even and >= 2, got {self.n_sites}")

    @property
    def gamma(self) -> int | None:
        """Qubits per register, or None when n_sites is not a power of two."""
        n = self.n_sites
        if n & (n - 1) == 0:
            return n.bit_length() - 1
        return None

    def require_gamma(self) -> int:
        g = self.gamma
        if g is None:
            raise ValueError(f"n_sites={self.n_sites} is not a power of two; circuits need 2**gamma sites")
        return g

    def field(self, t: float) -> float:
        """Tilt field F(t) = f_dc + f_ac * cos(omega * t)."""
        if self.f_ac == 0.0:
            return self.f_dc
        return self.f_dc + self.f_ac * math.cos(self.omega * t)


def params_with_gamma(gamma: int, **kwargs) -> ModelParams:
    """ModelParams constructor taking the qubit count instead of n_sites."""
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    return ModelParams(n_sites=2 ** gamma, **kwargs)
