"""Heralded filtering between non-orthogonal polarization states: closed
forms and Monte Carlo for the success probability, entanglement
concentration of photon pairs, state tomography, and a 4+2 key-distribution
session model."""

from .interferometer import (Branches, CmipPlan, closed_form_probability,
                             plan_for, run_cmip, sample_runs, solve_gamma1,
                             solve_gamma2)
from .qcore import (DensityMatrix, StateVector, concurrence, fidelity,
                    partial_trace, postselect)
from .qkd42 import QkdConfig, config_for_theta, run_session
from .tomography import reconstruct, simulate_counts

__version__ = "0.1.0"

__all__ = [
    "Branches", "CmipPlan", "DensityMatrix", "QkdConfig", "StateVector",
    "closed_form_probability", "concurrence", "config_for_theta", "fidelity",
    "partial_trace", "plan_for", "postselect", "reconstruct", "run_cmip",
    "run_session", "sample_runs", "simulate_counts", "solve_gamma1",
    "solve_gamma2", "__version__",
]
