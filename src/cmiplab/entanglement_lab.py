"""Two-photon layer: partially entangled pairs filtered through the device.

The signal photon of cos(a/2)|HH⟩ + e^{iδ} sin(a/2)|VV⟩ passes the
interferometer with both plates rotated; conditioning on its exit path
splits the pair into two branches whose entanglement can exceed (path 1)
or fall below the input value, with closed forms for both probability and
concurrence checked against explicit state evolution.  A grid of pairs on
FULL_BASIS and plate settings is one `evolve` call, whose `Branches` rows
are on PAIR_BASIS, the pair's polarizations (path 1 `success`, path 2
`failure`); `branch_concurrences` gives the entanglement of the branches a
caller reads.  `apply_cmip_signal` filters one pair and returns its
branches as `StateVector`s (`EntangledBranches`), the form that
`state_to_json` writes for the tomography of a concentrated pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interferometer import FULL_BASIS, evolve
from .qcore import PAIR_BASIS, StateVector, concurrences, postselect

#: flat FULL_BASIS indices of |H,1,H⟩ and |V,1,V⟩, the pair source's two terms
_HH, _VV = 0, 5

#: branches with less probability than this carry no usable state
EMPTY_BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class TwoPhotonConfig:
    """Schmidt angle alpha and relative phase delta of the pair source."""

    alpha: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= math.pi:
            raise ValueError(f"alpha = {self.alpha} outside [0, pi]")


def prepare_two_photon(cfg: TwoPhotonConfig) -> StateVector:
    """cos(a/2)|H,1,H⟩ + e^{iδ} sin(a/2)|V,1,V⟩, signal in path 1."""
    amps = np.zeros(8, dtype=complex)
    amps[_HH] = math.cos(cfg.alpha / 2)
    amps[_VV] = np.exp(1j * cfg.delta) * math.sin(cfg.alpha / 2)
    return StateVector(FULL_BASIS, amps)


def polarization_pair_state(cfg: TwoPhotonConfig) -> StateVector:
    """The pair as a plain two-qubit polarization state (path projected out)."""
    state, _ = postselect(prepare_two_photon(cfg), "signal_path", "1")
    return state


@dataclass(frozen=True)
class EntangledBranches:
    """Path-filtered branches of the evolved pair.

    phi1/phi2 are two-qubit polarization states (signal, idler); a branch
    with probability below EMPTY_BRANCH_TOL has None for its state and
    entanglement.
    """

    phi1: StateVector | None
    n1: float
    e1: float | None
    phi2: StateVector | None
    n2: float
    e2: float | None


def branch_probabilities(alpha: float, gamma1: float, gamma2: float):
    """Closed-form path probabilities (n1, n2)."""
    c1 = math.cos(2 * gamma1) ** 2
    c2 = math.cos(2 * gamma2) ** 2
    n1 = math.cos(alpha / 2) ** 2 * c1 + math.sin(alpha / 2) ** 2 * c2
    return n1, 1.0 - n1


def branch_concurrences(states: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Concurrence of each branch row, NaN below EMPTY_BRANCH_TOL (no usable state)."""
    live = probs >= EMPTY_BRANCH_TOL
    e = np.full(len(probs), np.nan)
    e[live] = concurrences(states[live])
    return e


def apply_cmip_signal(state: StateVector, gamma1: float, gamma2: float) -> EntangledBranches:
    """Pass the signal photon through the device and split the pair by its
    exit path (`evolve` with one pair); an empty branch has None for
    its state and entanglement."""
    if state.basis != FULL_BASIS:
        raise ValueError("expected a two-photon state on the standard basis")
    b = evolve(state.amps, gamma1, gamma2)
    out = []
    for phi, p in ((b.success, b.p_success), (b.failure, b.p_failure)):
        e = branch_concurrences(phi, p)[0]
        if np.isnan(e):
            out += [None, float(p[0]), None]
        else:
            out += [StateVector(PAIR_BASIS, phi[0]), float(p[0]), float(e)]
    return EntangledBranches(*out)


def output_entanglement(alpha: float, gamma1: float, gamma2: float):
    """Closed-form branch probabilities and concurrences (n1, n2, e1, e2) of
    the pair with Schmidt angle alpha, whose input concurrence is
    E_in = |sin alpha|; a branch with vanishing probability has undefined
    entanglement (None).
    """
    E_in = abs(math.sin(alpha))
    n1, n2 = branch_probabilities(alpha, gamma1, gamma2)
    c1, c2 = math.cos(2 * gamma1), math.cos(2 * gamma2)
    s1, s2 = math.sin(2 * gamma1), math.sin(2 * gamma2)
    e1 = E_in * abs(c1 * c2) / n1 if n1 >= EMPTY_BRANCH_TOL else None
    e2 = E_in * abs(s1 * s2) / n2 if n2 >= EMPTY_BRANCH_TOL else None
    return n1, n2, e1, e2


def _check_plate(name: str, gamma: float):
    if not 0.0 <= gamma <= math.pi / 4:
        raise ValueError(f"{name} = {gamma} outside [0, pi/4]")


def concentration_predicate(alpha: float, gamma1: float, gamma2: float) -> bool:
    """True when the path-1 branch is at least as entangled as the input."""
    _check_plate("gamma1", gamma1)
    _check_plate("gamma2", gamma2)
    c1, c2 = math.cos(2 * gamma1), math.cos(2 * gamma2)
    lhs = (c1 - c2) ** 2 - math.cos(alpha) * (c2 ** 2 - c1 ** 2)
    return lhs <= 0.0


def solve_max_entanglement(alpha: float, gamma2: float, branch: int):
    """Plate angle gamma1 driving one branch to concurrence 1.

    Branch 1 solves cos²(a/2)cos²2γ1 = sin²(a/2)cos²2γ2, branch 2 the same
    with sines of the plate angles.  Returns None when no root lies in
    [0, pi/4] (large alpha with a small gamma2).
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha = {alpha} outside (0, pi)")
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    t2 = math.tan(alpha / 2) ** 2
    if branch == 1:
        rhs = t2 * math.cos(2 * gamma2) ** 2
        if rhs > 1.0:
            return None
        return 0.5 * math.acos(math.sqrt(rhs))
    rhs = t2 * math.sin(2 * gamma2) ** 2
    if rhs > 1.0:
        return None
    return 0.5 * math.asin(math.sqrt(rhs))


def concentration_sweep(alpha: float, gamma1_grid, gamma2: float, delta: float = 0.0):
    """Closed-form and state-derived n1/e1 over a gamma1 grid.

    Returns a dict of arrays keyed n1_closed, n1_state, e1_closed, e1_state;
    undefined entanglement (empty branch) is recorded as NaN.  The state
    route evolves the whole grid in one call and reads path 1 only.
    """
    gamma1_grid = np.asarray(gamma1_grid, dtype=float)
    state = prepare_two_photon(TwoPhotonConfig(alpha, delta))
    _check_plate("gamma2", gamma2)
    cols = {k: np.empty(gamma1_grid.size) for k in ("n1_closed", "e1_closed")}
    for i, g1 in enumerate(gamma1_grid.tolist()):
        _check_plate("gamma1", g1)
        cols["n1_closed"][i], _, e1c, _ = output_entanglement(alpha, g1, gamma2)
        cols["e1_closed"][i] = np.nan if e1c is None else e1c
    path1 = evolve(state.amps, gamma1_grid, gamma2)
    cols["n1_state"] = path1.p_success
    cols["e1_state"] = branch_concurrences(path1.success, path1.p_success)
    return cols
