"""Model of the heralded inner-product modification device.

Two non-orthogonal polarization states cos(a/2)|H⟩ ± sin(a/2)|V⟩ enter a
two-path interferometer whose half-wave plates leak amplitude into path 2.
Conditioning on the photon leaving in path 1 maps the pair onto
cos(b/2)|H⟩ ± sin(b/2)|V⟩ for a chosen inner angle b; the path-2 events are
the heralded failures and carry no which-sign information.  `device_unitary`
and `evolve` are the one device model, and they are array-shaped: a grid of
plate settings and input states is evolved in one call, and every call
returns its branches as `Branches` arrays, one row per pass.  `run_cmip` is
the one-row call; whole grids go through `run_plans` (the β sweep), `evolve`
(verify's grid checks) and the two-photon layer's `filter_pairs`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .qcore import (ModeBasis, StateVector, apply_rows, check_unitary_rows,
                    in_chunks, normalize_rows, path_basis, polarization_basis,
                    postselect_rows)

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
    """One device setting: the input and target inner angles (α, β) and the
    two phase plates.  The branch and the plate angles follow from (α, β):
    α ≤ β expands with γ1 = `solve_gamma1(α, β)`, otherwise the device
    contracts with γ2 = `solve_gamma2(α, β)`; the other plate stays at 0."""

    alpha: float
    beta: float
    phi: float = 0.0
    phi_prime: float = 0.0

    def __post_init__(self):
        _check_angle("alpha", self.alpha)
        _check_angle("beta", self.beta)

    @property
    def branch(self) -> str:
        return EXPAND if self.alpha <= self.beta else CONTRACT

    @property
    def gamma1(self) -> float:
        return solve_gamma1(self.alpha, self.beta) if self.branch == EXPAND else 0.0

    @property
    def gamma2(self) -> float:
        return solve_gamma2(self.alpha, self.beta) if self.branch == CONTRACT else 0.0

    def plates(self) -> tuple[float, float, float, float]:
        """The `device_unitary` arguments (γ1, γ2, φH, φV) of this setting,
        solving the active plate once; the phase plate of the active branch
        (φ′ on H when contracting, φ on V when expanding) is applied."""
        if self.branch == EXPAND:
            return self.gamma1, 0.0, 0.0, self.phi
        return 0.0, self.gamma2, self.phi_prime, 0.0


def _plate_angle(lo: float, hi: float) -> float:
    """The plate angle γ with cos 2γ = tan(lo/2)/tan(hi/2), for 0 ≤ lo ≤ hi ≤ π,
    written with sin/cos factors so the hi = π limit needs no special casing."""
    if lo == hi:
        return 0.0
    num = math.sin(lo / 2) * math.cos(hi / 2)
    den = math.cos(lo / 2) * math.sin(hi / 2)
    # den underflows only at hi = 5e-324, where tan(x/2) = x/2 exactly
    return 0.5 * math.acos(min(1.0, num / den if den else lo / hi))


def solve_gamma1(alpha: float, beta: float) -> float:
    """Plate angle that expands the inner angle from alpha up to beta:
    cos(2*gamma1) = tan(alpha/2)/tan(beta/2)."""
    _check_angle("alpha", alpha)
    _check_angle("beta", beta)
    if beta < alpha:
        raise ValueError(f"wrong branch: expansion needs alpha <= beta, got ({alpha}, {beta})")
    return _plate_angle(alpha, beta)


def solve_gamma2(alpha: float, beta: float) -> float:
    """Plate angle that contracts the inner angle from alpha down to beta.

    Returns the device's internal (positive) parameter, the angle whose
    cosine is c2 = tan(beta/2)/tan(alpha/2).
    """
    _check_angle("alpha", alpha)
    _check_angle("beta", beta)
    if alpha < beta:
        raise ValueError(f"wrong branch: contraction needs beta <= alpha, got ({alpha}, {beta})")
    return _plate_angle(beta, alpha)


def plan_for(alpha: float, beta: float, phi: float = 0.0,
             phi_prime: float = 0.0) -> CmipPlan:
    """The setting that takes inner angle alpha to beta; its branch and
    plate angles are derived from (alpha, beta) when read."""
    return CmipPlan(alpha, beta, phi, phi_prime)


def closed_form_probability(alpha: float, beta: float) -> float:
    """Heralding probability: sin²(a/2)/sin²(b/2) expanding, cos²(a/2)/cos²(b/2) contracting."""
    _check_angle("alpha", alpha)
    _check_angle("beta", beta)
    if alpha == beta:
        return 1.0
    if alpha < beta:
        num = math.sin(alpha / 2) ** 2
        if num >= sys.float_info.min:  # then sin²(β/2) ≥ num is normal too
            return num / math.sin(beta / 2) ** 2
        # α < 3e-154: sin²(α/2) is subnormal, so divide before squaring, with
        # sin(α/2) = α/2; β stands in for 2 sin(β/2) where β/2 is subnormal
        half = beta / 2
        return (alpha / (2 * math.sin(half) if half >= sys.float_info.min else beta)) ** 2
    return math.cos(alpha / 2) ** 2 / math.cos(beta / 2) ** 2


def device_unitary(gamma1, gamma2, phase_h=0.0, phase_v=0.0) -> np.ndarray:
    """Stacked device unitaries, (n, 4, 4) on the polarization (x) path basis.

    The four arguments are scalars or length-n arrays, broadcast together.
    Each unitary maps |H,1⟩ → e^{iφH}(cos2γ1|H,1⟩ − i sin2γ1|V,2⟩) and
    |V,1⟩ → e^{iφV}(cos2γ2|V,1⟩ − i sin2γ2|H,2⟩), completed unitarily on the
    path-2 inputs.  The −i on the path-changing amplitudes is a global phase
    of the path-2 branch and unobservable after filtering.  The phases are
    the phase plates of a `CmipPlan`; the two-photon layer leaves them at 0.
    One unitarity check (‖U†U−I‖∞ ≤ 1e-12) covers each chunk of rows.
    """
    args = [np.atleast_1d(np.asarray(x, dtype=float))
            for x in (gamma1, gamma2, phase_h, phase_v)]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    return in_chunks(_device_unitary_rows, *(np.broadcast_to(a, shape) for a in args))


def _device_unitary_rows(g1, g2, ph, pv):
    c1, s1 = np.cos(2 * g1), np.sin(2 * g1)
    c2, s2 = np.cos(2 * g2), np.sin(2 * g2)
    m = np.zeros((g1.size, 4, 4), dtype=complex)
    m[:, _H1, _H1], m[:, _V2, _H1] = c1, -1j * s1
    m[:, _H1, _V2], m[:, _V2, _V2] = -1j * s1, c1
    m[:, _V1, _V1], m[:, _H2, _V1] = c2, -1j * s2
    m[:, _V1, _H2], m[:, _H2, _H2] = -1j * s2, c2
    # each column takes the phase of its input's polarization: H1 and V2
    # pair up under the first plate, V1 and H2 under the second
    phase = np.empty((g1.size, 1, 4), dtype=complex)
    phase[:, 0, _H1] = phase[:, 0, _V2] = np.exp(1j * ph)
    phase[:, 0, _V1] = phase[:, 0, _H2] = np.exp(1j * pv)
    m *= phase
    check_unitary_rows(m)
    return m


def input_amps(alpha, sign: int) -> np.ndarray:
    """(n, 4) amplitudes of cos(a/2)|H,1⟩ ± sin(a/2)|V,1⟩ for each alpha."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    amps = np.zeros((alpha.size, 4), dtype=complex)
    amps[:, _H1] = np.cos(alpha / 2)
    amps[:, _V1] = sign * np.sin(alpha / 2)
    return amps


def input_state(alpha: float, sign: int) -> StateVector:
    """cos(a/2)|H,1⟩ ± sin(a/2)|V,1⟩ entering the device in path 1."""
    return StateVector(BASIS, input_amps(alpha, sign)[0])


def target_state(beta: float, sign: int) -> StateVector:
    """The heralded output cos(b/2)|H⟩ ± sin(b/2)|V⟩ (polarization only)."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return StateVector(polarization_basis(),
                       [math.cos(beta / 2), sign * math.sin(beta / 2)])


class Branches(NamedTuple):
    """Path-split result of n device passes, one row per pass.

    `success`/`failure` hold the renormalized branch states on `basis` (the
    input basis without the signal path); a branch whose probability is
    below 1e-15 has no state and an all-zero row.
    """

    basis: ModeBasis
    success: np.ndarray
    p_success: np.ndarray
    failure: np.ndarray
    p_failure: np.ndarray


def evolve(U: np.ndarray, amps: np.ndarray, basis: ModeBasis) -> Branches:
    """Pass n states through n device settings and split each by exit path.

    U is an (n, 4, 4) stack from `device_unitary`, amps an (n, d) stack of
    normalized states on `basis`, whose leading factors are the signal
    polarization and path; trailing factors (an idler photon) are untouched.
    Each output row gets the norm repair of `qcore.normalize_rows` once, and
    both paths are split from the repaired rows.  Rows are evolved in chunks
    of `qcore.CHUNK_ROWS`.
    """
    def chunk(U, amps):
        out = normalize_rows(apply_rows(U, amps))
        return (*postselect_rows(out, basis, "signal_path", "1"),
                *postselect_rows(out, basis, "signal_path", "2"))

    return Branches(basis.drop("signal_path"), *in_chunks(chunk, U, amps))


def run_plans(input_sign: int, plans) -> Branches:
    """Evolve the input state of each plan through its device setting, in one
    batched call; each plan's active plate angle is solved once, here."""
    U = device_unitary(*zip(*(p.plates() for p in plans)))
    return evolve(U, input_amps([p.alpha for p in plans], input_sign), BASIS)


def run_cmip(input_sign: int, plan: CmipPlan) -> Branches:
    """Evolve one input state through the device and split it by path: the
    one-row `Branches` of `run_plans` with one plan."""
    return run_plans(input_sign, [plan])


def sample_runs(input_sign: int, plans, shots: int, seeds) -> list[int]:
    """Heralded successes out of `shots` for each plan, one binomial draw from
    the stream (seed, 'sample_runs') per plan; identical (plans, shots,
    seeds) give identical counts.

    The probability comes from the evolved state (run_plans), not from the
    closed form, so statistical comparisons against the closed form remain a
    two-route check.  It can exceed 1 by rounding (1 + 4e-16 at beta =
    alpha), within the norm repair bound, so it is clipped into [0, 1] here.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = np.clip(run_plans(input_sign, plans).p_success, 0.0, 1.0)
    return [int(rng.stream(seed, "sample_runs").binomial(shots, p))
            for p, seed in zip(probs, seeds)]


def success_probability_sweep(alpha: float, betas, shots: int, seed: int):
    """Closed-form and Monte Carlo success probabilities over a beta grid.

    Returns (p_closed, p_mc) arrays; p_mc is None when shots == 0 (closed
    form only).  The whole grid is evolved in one call; point i draws from
    the derived seed (seed, 'cmip_sweep', i).
    """
    betas = np.asarray(betas, dtype=float)
    p_closed = np.array([closed_form_probability(alpha, b) for b in betas])
    if shots == 0:
        return p_closed, None
    plans = [plan_for(alpha, float(b)) for b in betas]
    seeds = [rng.derive(seed, "cmip_sweep", i) for i in range(betas.size)]
    return p_closed, np.array(sample_runs(+1, plans, shots, seeds)) / shots
