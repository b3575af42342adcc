"""Heralded filtering between non-orthogonal polarization states: closed
forms and Monte Carlo for the success probability, entanglement
concentration of photon pairs, state tomography, and a 4+2 key-distribution
session model."""

from .interferometer import Branches, closed_form_probability, plates, solve_gamma1, solve_gamma2
from .qcore import (DensityMatrix, StateVector, concurrence, fidelity,
                    postselect)
from .qkd42 import QkdConfig, config_for_theta, run_session
from .tomography import reconstruct, simulate_counts

__version__ = "0.1.0"

__all__ = [
    "Branches", "DensityMatrix", "QkdConfig", "StateVector",
    "closed_form_probability", "concurrence", "config_for_theta", "fidelity",
    "plates", "postselect", "reconstruct", "run_session", "simulate_counts",
    "solve_gamma1", "solve_gamma2", "__version__",
]
