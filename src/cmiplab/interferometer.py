"""Model of the heralded inner-product modification device.

Two non-orthogonal polarization states cos(a/2)|H⟩ ± sin(a/2)|V⟩ enter a
two-path interferometer whose half-wave plates leak amplitude into path 2.
Conditioning on the photon leaving in path 1 maps the pair onto
cos(b/2)|H⟩ ± sin(b/2)|V⟩ for a chosen inner angle b; the path-2 events are
the heralded failures and carry no which-sign information.  `evolve` is the
one device model, and it is array-shaped: a grid of plate angles and input
states, photons on `BASIS` or pairs on `FULL_BASIS` by their row length, is
evolved in one call, which returns the branches as `Branches` arrays.
A device setting is `plates(α, β, φ, φ′)`, the plate angles `evolve` takes;
every grid (the β sweep, verify's checks, the two-photon layer and the key
session's tables) calls `evolve` itself.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from . import rng
from .qcore import (IDLER_POL, PATH_SYMBOLS, POL_BASIS, POL_SYMBOLS, SIGNAL_PATH,
                    StateVector, apply_rows, check_unitary_rows, in_chunks, normalize_rows,
                    postselect_rows)

#: polarization (x) path basis shared by all device operators; a pair adds
#: the idler's polarization, which the device leaves alone
BASIS = POL_BASIS + ((SIGNAL_PATH, PATH_SYMBOLS),)
FULL_BASIS = BASIS + ((IDLER_POL, POL_SYMBOLS),)

#: flat BASIS indices of (H,1), (H,2), (V,1), (V,2), polarization slowest
_H1, _H2, _V1, _V2 = 0, 1, 2, 3


def _check_angle(name, value):
    if not (0.0 <= value <= math.pi):
        raise ValueError(f"{name} = {value} outside [0.0, {math.pi}]")


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


def plates(alpha: float, beta: float, phi: float = 0.0,
           phi_prime: float = 0.0) -> tuple[float, float, float, float]:
    """The `device_unitary` arguments (γ1, γ2, φH, φV) taking inner angle α to β.
    α ≤ β expands with γ1 = `solve_gamma1(α, β)`, else γ2 = `solve_gamma2(α, β)`
    contracts; the other plate stays at 0, and only the active branch's phase
    plate, φ on V expanding or φ′ on H contracting, is applied."""
    if alpha <= beta:
        return solve_gamma1(alpha, beta), 0.0, 0.0, phi
    return 0.0, solve_gamma2(alpha, beta), phi_prime, 0.0


def plan_for(alpha: float, beta: float, phi: float = 0.0, phi_prime: float = 0.0):
    """(alpha, `plates(alpha, beta, phi, phi_prime)`), the setting `run_cmip` takes.
    Only the benchmark warm-up calls the two; ROADMAP.md's benchmark item deletes them."""
    return alpha, plates(alpha, beta, phi, phi_prime)


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
    the phase plates that `plates` sets; the two-photon layer leaves them at 0.
    One unitarity check (‖U†U−I‖∞ ≤ 1e-12) covers the stack.
    """
    g1, g2, ph, pv = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                           for x in (gamma1, gamma2, phase_h, phase_v)))
    m = np.zeros((g1.size, 4, 4), dtype=complex)
    phase = np.empty((g1.size, 1, 4), dtype=complex)
    # each plate couples a path-1 polarization with the other polarization
    # on path 2, and both columns of its block take that input's phase
    for (a, b), g, p in (((_H1, _V2), g1, ph), ((_V1, _H2), g2, pv)):
        c, s = np.cos(2 * g), np.sin(2 * g)
        m[:, a, a] = m[:, b, b] = c
        m[:, b, a] = m[:, a, b] = -1j * s
        phase[:, 0, a] = phase[:, 0, b] = np.exp(1j * p)
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
    return StateVector(POL_BASIS, [math.cos(beta / 2), sign * math.sin(beta / 2)])


class Branches(NamedTuple):
    """Path-split result of n device passes, one row per pass.

    `success`/`failure` hold the renormalized path-1/path-2 states on the
    input basis without the signal path: the signal polarization for the
    device alone, both polarizations (`PAIR_BASIS`) for pairs.  A branch
    whose probability is below 1e-15 has no state and an all-zero row.
    """

    success: np.ndarray
    p_success: np.ndarray
    failure: np.ndarray
    p_failure: np.ndarray


def evolve(amps: np.ndarray, gamma1, gamma2, phase_h=0.0, phase_v=0.0) -> Branches:
    """Pass n states through n device settings and split each by exit path.

    amps is an (n, d) stack of normalized states, or one (d,) state for every
    setting: d = 4 on `BASIS`, one photon, or d = 8 on `FULL_BASIS`, a pair
    whose idler is untouched; any other d is a ValueError.  The plate angles
    are `device_unitary`'s, broadcast with the rows.  Rows are evolved in
    chunks of `qcore.CHUNK_ROWS`, each through its own `device_unitary`
    stack.  Each output row gets the norm repair of `qcore.normalize_rows`
    once, and both paths are split from the repaired rows.
    """
    def chunk(amps, *angles):
        out = normalize_rows(apply_rows(device_unitary(*angles), amps))
        basis = BASIS if out.shape[1] == 4 else FULL_BASIS
        return (*postselect_rows(out, basis, "signal_path", "1"),
                *postselect_rows(out, basis, "signal_path", "2"))

    angles = (gamma1, gamma2, phase_h, phase_v)
    n = np.broadcast_shapes((1,), amps.shape[:-1], *map(np.shape, angles))
    return Branches(*in_chunks(chunk, np.broadcast_to(amps, n + amps.shape[-1:]),
                               *(np.broadcast_to(x, n) for x in angles)))


def run_cmip(input_sign: int, plan) -> Branches:
    """The one-row `Branches` of the input state through a `plan_for` setting.
    Only the benchmark warm-up needs it; see `plan_for`."""
    alpha, angles = plan
    return evolve(input_amps(alpha, input_sign), *angles)


def success_probability_sweep(alpha: float, betas, shots: int, seed: int):
    """Closed-form and Monte Carlo success probabilities over a beta grid.

    Returns (p_closed, p_mc) arrays; p_mc is None when shots == 0 (closed
    form only).  The + input state is evolved through every point's plates
    in one call, and every point's count comes from one binomial call on the
    stream (seed, 'cmip_sweep'), in grid order.
    p_mc comes from the evolved state, not the closed form, so comparing the
    columns is a two-route check; rounding can lift a probability to 1 + 4e-16
    (at beta = alpha, within the norm repair bound), so it is clipped into
    [0, 1] before the draw.
    """
    betas = np.asarray(betas, dtype=float)
    p_closed = np.array([closed_form_probability(alpha, b) for b in betas.tolist()])
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shots == 0:
        return p_closed, None
    # (γ1, γ2, φH, φV) per point, filled without holding n tuples
    angles = np.fromiter((plates(alpha, b) for b in betas.tolist()),
                         np.dtype((float, 4)), betas.size)
    probs = np.clip(evolve(input_amps(alpha, +1)[0], *angles.T).p_success, 0.0, 1.0)
    return p_closed, rng.stream(seed, "cmip_sweep").binomial(shots, probs) / shots
