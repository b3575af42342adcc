"""Model of the heralded inner-product modification device.

Two non-orthogonal polarization states cos(a/2)|H⟩ ± sin(a/2)|V⟩ enter a
two-path interferometer whose half-wave plates leak amplitude into path 2.
Conditioning on the photon leaving in path 1 maps the pair onto
cos(b/2)|H⟩ ± sin(b/2)|V⟩ for a chosen inner angle b; the path-2 events are
the heralded failures and carry no which-sign information.  `device_unitary`
and `evolve` are the one device model: the two-photon layer and the verify
suite pass their states through them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .qcore import (Operator, StateVector, apply, path_basis,
                    polarization_basis, postselect)

EXPAND = "expand"      # a <= b: rotate HWP1, HWP2 stays at 0
CONTRACT = "contract"  # b <= a: rotate HWP2, HWP1 stays at 0

#: polarization (x) path basis shared by all device operators; amplitude
#: order is (H,1), (H,2), (V,1), (V,2)
BASIS = polarization_basis().combine(path_basis())

_H1 = BASIS.index("H", "1")
_H2 = BASIS.index("H", "2")
_V1 = BASIS.index("V", "1")
_V2 = BASIS.index("V", "2")


def _check_angle(name, value, lo=0.0, hi=math.pi):
    if not (lo <= value <= hi):
        raise ValueError(f"{name} = {value} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class CmipPlan:
    """Full parameterization of one device setting."""

    alpha: float
    beta: float
    branch: str
    gamma1: float
    gamma2: float
    phi: float = 0.0
    phi_prime: float = 0.0

    def __post_init__(self):
        _check_angle("alpha", self.alpha)
        _check_angle("beta", self.beta)
        if self.branch not in (EXPAND, CONTRACT):
            raise ValueError(f"unknown branch {self.branch!r}")
        if self.branch == EXPAND:
            if self.alpha > self.beta:
                raise ValueError(f"expand branch needs alpha <= beta, got ({self.alpha}, {self.beta})")
            active, inactive = self.gamma1, self.gamma2
        else:
            if self.beta > self.alpha:
                raise ValueError(f"contract branch needs beta <= alpha, got ({self.alpha}, {self.beta})")
            active, inactive = self.gamma2, self.gamma1
        _check_angle("active plate angle", active, 0.0, math.pi / 4 + 1e-12)
        if abs(inactive) > 1e-12:
            raise ValueError(f"inactive plate must stay at 0, got {inactive}")

    def unitary(self) -> Operator:
        """The device unitary of this setting; the phase plate of the active
        branch (φ′ on H when contracting, φ on V when expanding) is applied."""
        return device_unitary(self.gamma1, self.gamma2,
                              self.phi_prime if self.branch == CONTRACT else 0.0,
                              self.phi if self.branch == EXPAND else 0.0)


def solve_gamma1(alpha: float, beta: float) -> float:
    """Plate angle that expands the inner angle from alpha up to beta.

    Solves cos(2*gamma1) = tan(alpha/2)/tan(beta/2), written with sin/cos
    factors so the beta = pi limit needs no special casing.
    """
    _check_angle("alpha", alpha)
    _check_angle("beta", beta)
    if beta < alpha:
        raise ValueError(f"wrong branch: expansion needs alpha <= beta, got ({alpha}, {beta})")
    num = math.sin(alpha / 2) * math.cos(beta / 2)
    den = math.cos(alpha / 2) * math.sin(beta / 2)
    if den < 1e-300:
        # alpha = beta = 0 (or = pi): the device is the identity
        return 0.0
    return 0.5 * math.acos(min(1.0, num / den))


def solve_gamma2(alpha: float, beta: float) -> float:
    """Plate angle that contracts the inner angle from alpha down to beta.

    Returns the device's internal (positive) parameter, the angle whose
    cosine is c2 = tan(beta/2)/tan(alpha/2); see `contract_hardware_angle`
    for the signed fast-axis-convention equivalent.
    """
    _check_angle("alpha", alpha)
    _check_angle("beta", beta)
    if alpha < beta:
        raise ValueError(f"wrong branch: contraction needs beta <= alpha, got ({alpha}, {beta})")
    if alpha == beta:
        return 0.0
    num = math.sin(beta / 2) * math.cos(alpha / 2)
    den = math.cos(beta / 2) * math.sin(alpha / 2)
    return 0.5 * math.acos(min(1.0, num / den))


def contract_hardware_angle(alpha: float, beta: float) -> float:
    """Signed HWP2 angle, -arccos(-c2)/2, for the fast-axis-at-H mounting."""
    c2 = math.cos(2 * solve_gamma2(alpha, beta))
    return -0.5 * math.acos(max(-1.0, -c2))


def plan_for(alpha: float, beta: float, phi: float = 0.0,
             phi_prime: float = 0.0) -> CmipPlan:
    """Solve the plate angles and package them with the branch choice."""
    if alpha <= beta:
        return CmipPlan(alpha, beta, EXPAND, solve_gamma1(alpha, beta), 0.0,
                        phi, phi_prime)
    return CmipPlan(alpha, beta, CONTRACT, 0.0, solve_gamma2(alpha, beta),
                    phi, phi_prime)


def closed_form_probability(alpha: float, beta: float) -> float:
    """Heralding probability: sin²(a/2)/sin²(b/2) expanding, cos²(a/2)/cos²(b/2) contracting."""
    _check_angle("alpha", alpha)
    _check_angle("beta", beta)
    if alpha == beta:
        return 1.0
    if alpha < beta:
        return math.sin(alpha / 2) ** 2 / math.sin(beta / 2) ** 2
    return math.cos(alpha / 2) ** 2 / math.cos(beta / 2) ** 2


def device_unitary(gamma1: float, gamma2: float, phase_h: float = 0.0,
                   phase_v: float = 0.0) -> Operator:
    """The device unitary, 4x4 on the polarization (x) path basis.

    |H,1⟩ → e^{iφH}(cos2γ1|H,1⟩ − i sin2γ1|V,2⟩) and
    |V,1⟩ → e^{iφV}(cos2γ2|V,1⟩ − i sin2γ2|H,2⟩), completed unitarily on the
    path-2 inputs.  The −i on the path-changing amplitudes is a global phase
    of the path-2 branch and unobservable after filtering.  The phases are
    the phase plates of a `CmipPlan`; the two-photon layer leaves them at 0.
    """
    c1, s1 = math.cos(2 * gamma1), math.sin(2 * gamma1)
    c2, s2 = math.cos(2 * gamma2), math.sin(2 * gamma2)
    m = np.zeros((4, 4), dtype=complex)
    m[_H1, _H1], m[_V2, _H1] = c1, -1j * s1
    m[_H1, _V2], m[_V2, _V2] = -1j * s1, c1
    m[_V1, _V1], m[_H2, _V1] = c2, -1j * s2
    m[_V1, _H2], m[_H2, _H2] = -1j * s2, c2
    m[:, [_H1, _V2]] *= np.exp(1j * phase_h)
    m[:, [_V1, _H2]] *= np.exp(1j * phase_v)
    return Operator(BASIS, m, unitary=True)


def input_state(alpha: float, sign: int) -> StateVector:
    """cos(a/2)|H,1⟩ ± sin(a/2)|V,1⟩ entering the device in path 1."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    amps = np.zeros(4, dtype=complex)
    amps[_H1] = math.cos(alpha / 2)
    amps[_V1] = sign * math.sin(alpha / 2)
    return StateVector(BASIS, amps)


def target_state(beta: float, sign: int) -> StateVector:
    """The heralded output cos(b/2)|H⟩ ± sin(b/2)|V⟩ (polarization only)."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return StateVector(polarization_basis(),
                       [math.cos(beta / 2), sign * math.sin(beta / 2)])


@dataclass(frozen=True)
class BranchOutcome:
    """Path-split result of one device pass.

    The path factor is consumed by the projection, so the states hold the
    signal polarization plus any factors that rode along (the idler of a
    pair); a branch whose probability is below 1e-15 has state None.
    """

    success_state: StateVector | None
    p_success: float
    failure_state: StateVector | None
    p_failure: float


def evolve(U: Operator, state: StateVector) -> BranchOutcome:
    """Pass a state through the device and split it by the signal's exit path.

    The device acts on the signal polarization and path, the leading factors
    of the state's basis; trailing factors (an idler photon) are untouched.
    """
    out = apply(U, state)
    success, p1 = postselect(out, "signal_path", "1")
    failure, p2 = postselect(out, "signal_path", "2")
    return BranchOutcome(success, p1, failure, p2)


def _validate_plan_angles(plan: CmipPlan):
    if plan.branch == EXPAND:
        g = solve_gamma1(plan.alpha, plan.beta)
        if abs(plan.gamma1 - g) > 1e-9:
            raise ValueError(
                f"plan gamma1 = {plan.gamma1} inconsistent with solver value {g}")
    else:
        g = solve_gamma2(plan.alpha, plan.beta)
        if abs(plan.gamma2 - g) > 1e-9:
            raise ValueError(
                f"plan gamma2 = {plan.gamma2} inconsistent with solver value {g}")


def run_cmip(input_sign: int, plan: CmipPlan) -> BranchOutcome:
    """Evolve one input state through the device and split it by path."""
    _validate_plan_angles(plan)
    return evolve(plan.unitary(), input_state(plan.alpha, input_sign))


@dataclass(frozen=True)
class RunCounts:
    shots: int
    success: int
    failure: int
    seed: int


def sample_runs(input_sign: int, plan: CmipPlan, shots: int, seed: int) -> RunCounts:
    """Draw heralding outcomes from the amplitude-derived branch probability.

    The probability comes from the evolved state (run_cmip), not from the
    closed form, so statistical comparisons against the closed form remain a
    two-route check.  Identical (plan, shots, seed) give identical counts.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = run_cmip(input_sign, plan).p_success
    success = int(rng.stream(seed, "sample_runs").binomial(shots, p))
    return RunCounts(shots, success, shots - success, seed)


def success_probability_sweep(alpha: float, betas, shots: int, seed: int):
    """Closed-form and Monte Carlo success probabilities over a beta grid.

    Returns (p_closed, p_mc) arrays; p_mc is None when shots == 0 (closed
    form only).  Point i uses the derived stream (seed, 'cmip_sweep', i).
    """
    betas = np.asarray(betas, dtype=float)
    p_closed = np.array([closed_form_probability(alpha, b) for b in betas])
    if shots == 0:
        return p_closed, None
    p_mc = np.empty_like(p_closed)
    for i, b in enumerate(betas):
        counts = sample_runs(+1, plan_for(alpha, float(b)), shots,
                             rng.derive(seed, "cmip_sweep", i))
        p_mc[i] = counts.success / counts.shots
    return p_closed, p_mc
