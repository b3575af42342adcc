"""Two-photon layer: partially entangled pairs filtered through the device.

The signal photon of cos(a/2)|HH⟩ + e^{iδ} sin(a/2)|VV⟩ passes the
interferometer with both plates rotated; conditioning on its exit path
splits the pair into two branches whose entanglement can exceed (path 1)
or fall below the input value, with closed forms for both probability and
concurrence checked against explicit state evolution.  `filter_pairs`
evolves a whole grid of pairs and plate settings in one call.
`apply_cmip_signal` filters one pair and returns its branches as
`StateVector`s (`EntangledBranches`), the form that `state_to_json` writes
for the tomography of a concentrated pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .interferometer import BASIS as DEVICE_BASIS
from .interferometer import device_unitary, evolve
from .qcore import (IDLER_POL, StateVector, concurrences, polarization_basis,
                    postselect)

#: signal polarization (x) signal path (x) idler polarization
FULL_BASIS = DEVICE_BASIS.combine(polarization_basis(IDLER_POL))

#: the two-qubit (signal, idler) polarization basis of a filtered pair
PAIR_BASIS = FULL_BASIS.drop("signal_path")

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

    @property
    def entanglement(self) -> float:
        return abs(math.sin(self.alpha))


def prepare_two_photon(cfg: TwoPhotonConfig) -> StateVector:
    """cos(a/2)|H,1,H⟩ + e^{iδ} sin(a/2)|V,1,V⟩, signal in path 1."""
    amps = np.zeros(8, dtype=complex)
    amps[FULL_BASIS.index("H", "1", "H")] = math.cos(cfg.alpha / 2)
    amps[FULL_BASIS.index("V", "1", "V")] = (
        np.exp(1j * cfg.delta) * math.sin(cfg.alpha / 2))
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


class PairBranches(NamedTuple):
    """Path-filtered branches of n evolved pairs, one row per pair.

    phi1/phi2 are (n, 4) two-qubit polarization states (signal, idler); a
    branch with probability below EMPTY_BRANCH_TOL has NaN entanglement and
    its state is not used.
    """

    phi1: np.ndarray
    n1: np.ndarray
    e1: np.ndarray
    phi2: np.ndarray
    n2: np.ndarray
    e2: np.ndarray

    def row(self, i: int) -> EntangledBranches:
        """Row i as EntangledBranches, with None for an empty branch."""
        out = []
        for phi, n, e in ((self.phi1, self.n1, self.e1), (self.phi2, self.n2, self.e2)):
            p = float(n[i])
            if p < EMPTY_BRANCH_TOL:
                out.append((None, p, None))
            else:
                out.append((StateVector(PAIR_BASIS, phi[i]), p, float(e[i])))
        (phi1, n1, e1), (phi2, n2, e2) = out
        return EntangledBranches(phi1, n1, e1, phi2, n2, e2)


def filter_pairs(amps: np.ndarray, gamma1, gamma2) -> PairBranches:
    """Pass the signal photon of each pair through the device and split the
    pairs by its exit path, in one batched call.

    `amps` is an (n, 8) stack of pair states on FULL_BASIS; gamma1 and gamma2
    are scalars or length-n arrays.  The concurrence of every branch with
    probability at least EMPTY_BRANCH_TOL comes from one batched call.
    """
    n = len(amps)
    U = device_unitary(np.broadcast_to(gamma1, n), np.broadcast_to(gamma2, n))
    split = evolve(U, amps, FULL_BASIS)
    cols = []
    for phi, p in ((split.success, split.p_success), (split.failure, split.p_failure)):
        live = p >= EMPTY_BRANCH_TOL
        e = np.full(n, np.nan)
        e[live] = concurrences(phi[live])
        cols += [phi, p, e]
    return PairBranches(*cols)


def apply_cmip_signal(state: StateVector, gamma1: float, gamma2: float) -> EntangledBranches:
    """Pass the signal photon through the device and split the pair by its
    exit path (`filter_pairs` with one pair)."""
    if state.basis != FULL_BASIS:
        raise ValueError("expected a two-photon state on the standard basis")
    return filter_pairs(state.amps[None], gamma1, gamma2).row(0)


def output_entanglement(E_in: float, gamma1: float, gamma2: float, alpha: float):
    """Closed-form branch concurrences (e1, e2).

    E_in and alpha parameterize the same input state and must agree:
    |E_in − |sin alpha|| ≤ 1e-9, otherwise the pair is rejected.  A branch
    with vanishing probability has undefined entanglement (None).
    """
    if not 0.0 <= E_in <= 1.0:
        raise ValueError(f"E_in = {E_in} outside [0, 1]")
    if abs(E_in - abs(math.sin(alpha))) > 1e-9:
        raise ValueError(
            f"inconsistent parameterization: E_in = {E_in} but |sin(alpha)| = "
            f"{abs(math.sin(alpha))}")
    n1, n2 = branch_probabilities(alpha, gamma1, gamma2)
    c1, c2 = math.cos(2 * gamma1), math.cos(2 * gamma2)
    s1, s2 = math.sin(2 * gamma1), math.sin(2 * gamma2)
    e1 = E_in * abs(c1 * c2) / n1 if n1 >= EMPTY_BRANCH_TOL else None
    e2 = E_in * abs(s1 * s2) / n2 if n2 >= EMPTY_BRANCH_TOL else None
    return e1, e2


def concentration_predicate(alpha: float, gamma1: float, gamma2: float) -> bool:
    """True when the path-1 branch is at least as entangled as the input."""
    for name, g in (("gamma1", gamma1), ("gamma2", gamma2)):
        if not 0.0 <= g <= math.pi / 4:
            raise ValueError(f"{name} = {g} outside [0, pi/4]")
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
    route evolves the whole grid in one call.
    """
    gamma1_grid = np.asarray(gamma1_grid, dtype=float)
    state = prepare_two_photon(TwoPhotonConfig(alpha, delta))
    e_in = abs(math.sin(alpha))
    cols = {k: np.empty(gamma1_grid.size) for k in ("n1_closed", "e1_closed")}
    for i, g1 in enumerate(gamma1_grid):
        cols["n1_closed"][i] = branch_probabilities(alpha, g1, gamma2)[0]
        e1c, _ = output_entanglement(e_in, g1, gamma2, alpha)
        cols["e1_closed"][i] = np.nan if e1c is None else e1c
    rows = np.repeat(state.amps[None], gamma1_grid.size, axis=0)
    branches = filter_pairs(rows, gamma1_grid, gamma2)
    cols["n1_state"], cols["e1_state"] = branches.n1, branches.e1
    return cols
