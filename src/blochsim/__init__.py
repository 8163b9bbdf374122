"""Statevector simulator and classical toolkit for Bloch oscillations on a
diatomic tight-binding chain.

The package builds first-order product-formula circuits for the two-band
chain in a constant or harmonically driven tilt field (one particle on one
qubit register, two interacting particles on a pair of registers), evolves
them with an exact statevector backend, and cross-checks every piece
against dense-matrix and closed-form classical oracles. A transpiler
lowers the multi-controlled circuit primitives to the {u1, u3, cx} basis
with exact global-phase tracking, reports gate counts, and exports
OpenQASM 2.0. The ``blochsim`` command line runs packaged scenarios from
INI configs and writes deterministic CSV/JSON artifacts.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .model import ModelParams, params_with_gamma
from .statevector import ControlledGate, DiagonalGate, Statevector
from .circuits import (
    Circuit,
    apply_circuit,
    build_contact_phase,
    build_field_phase,
    build_inter_hop,
    build_intra_hop,
    build_trotter_step,
    build_two_particle_step,
    circuit_unitary,
)
from .evolve import EvolutionPlan, Trajectory, initial_amplitudes, run
from .observables import (
    LadderSpectrum,
    ObservableSeries,
    dispersion,
    momentum_series,
    position_series,
    probability_series,
    site_probabilities,
    spectrum,
    stark_ladder,
    sublattice_momentum,
    sublattice_position,
)
from .oracles import (
    bessel_jn_sequence,
    dense_hamiltonian,
    dense_propagator,
    dense_two_particle_hamiltonian,
    uniform_chain_mean_position,
    uniform_chain_profile,
)
from .transpile import (
    BasisCircuit,
    GateCounts,
    count,
    decompose,
    emit_qasm,
    equivalent_up_to_phase,
    parse_qasm,
    write_qasm,
)

__all__ = [
    "__version__",
    "ModelParams",
    "params_with_gamma",
    "Statevector",
    "ControlledGate",
    "DiagonalGate",
    "Circuit",
    "apply_circuit",
    "circuit_unitary",
    "build_intra_hop",
    "build_inter_hop",
    "build_field_phase",
    "build_trotter_step",
    "build_contact_phase",
    "build_two_particle_step",
    "EvolutionPlan",
    "Trajectory",
    "initial_amplitudes",
    "run",
    "ObservableSeries",
    "LadderSpectrum",
    "dispersion",
    "spectrum",
    "stark_ladder",
    "site_probabilities",
    "sublattice_position",
    "sublattice_momentum",
    "position_series",
    "probability_series",
    "momentum_series",
    "bessel_jn_sequence",
    "uniform_chain_profile",
    "uniform_chain_mean_position",
    "dense_hamiltonian",
    "dense_two_particle_hamiltonian",
    "dense_propagator",
    "BasisCircuit",
    "GateCounts",
    "decompose",
    "count",
    "equivalent_up_to_phase",
    "emit_qasm",
    "write_qasm",
    "parse_qasm",
]
