"""Monte Carlo model of the 4+2 key-distribution scheme.

Alice drives (|H⟩ ± |V⟩)/√2 through the both-plates interferometer and sends
whichever output port fired, giving two families of two non-orthogonal
states with inner angles θ1, θ2.  Bob guesses the family, expands the pair
to orthogonal (θ → π/2) with the heralded device, and reads the ± basis on
path 1; path-2 clicks are the monitor channel.  Sifting keeps pulses where
the guess matched the sent port and the click was conclusive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import rng

#: result labels of the pulse log; the path-1 ± measurement always clicks,
#: so every pulse is one or the other
RESULT_CONCLUSIVE = "conclusive"
RESULT_MONITOR = "monitor"


def theta_angles(gamma1: float, gamma2: float):
    """Inner angles (theta1, theta2) of the two output families.

    A port with no amplitude (e.g. gamma1 = gamma2 = 0 kills port 2) has an
    undefined angle and yields None in that slot.
    """
    c1, c2 = math.cos(2 * gamma1), math.cos(2 * gamma2)
    s1, s2 = math.sin(2 * gamma1), math.sin(2 * gamma2)
    n1, n2 = math.hypot(c1, c2), math.hypot(s1, s2)
    theta1 = 2 * math.acos(c1 / n1) if n1 > 1e-12 else None
    theta2 = 2 * math.acos(s2 / n2) if n2 > 1e-12 else None
    return theta1, theta2


@dataclass(frozen=True)
class InterceptResend:
    """Single projective basis per pulse: {(cos η, sin η), (−sin η, cos η)}.

    basis_angle = 0 is the H/V policy; π/8 is the intermediate basis halfway
    between H/V and the ±45° signal states.
    """

    basis_angle: float = 0.0


@dataclass(frozen=True)
class QkdConfig:
    gamma1: float = math.pi / 8
    gamma2: float = math.pi / 8
    gamma0: float = math.pi / 8
    n_pulses: int = 10_000
    seed: int = 42
    eve: InterceptResend | None = None

    def __post_init__(self):
        if abs(abs(self.gamma0) - math.pi / 8) > 1e-12:
            raise ValueError(
                f"gamma0 must be ±pi/8 (the ±45° encoding), got {self.gamma0}")
        if not 1 <= self.n_pulses < 2 ** 63:  # numpy array sizes are int64
            raise ValueError(f"n_pulses = {self.n_pulses} outside [1, 2^63)")
        th1, th2 = theta_angles(self.gamma1, self.gamma2)
        for name, th in (("theta1", th1), ("theta2", th2)):
            if th is None or not 0.0 < th <= math.pi / 2 + 1e-12:
                raise ValueError(
                    f"{name} = {th} outside (0, pi/2]: Bob's discrimination "
                    f"angle needs tan(theta/2) <= 1; require 0 < gamma1 <= "
                    f"gamma2 < pi/4")

    @property
    def thetas(self):
        return theta_angles(self.gamma1, self.gamma2)


def config_for_theta(theta: float, **kwargs) -> QkdConfig:
    """Config with theta1 = theta2 = theta: gamma1 = θ/4, gamma2 = π/4 − θ/4."""
    return QkdConfig(gamma1=theta / 4, gamma2=math.pi / 4 - theta / 4, **kwargs)


def _family_table(cfg: QkdConfig) -> np.ndarray:
    """Sent states indexed [bit, port-1] as rows of (H, V) amplitudes."""
    c1, c2 = math.cos(2 * cfg.gamma1), math.cos(2 * cfg.gamma2)
    s1, s2 = math.sin(2 * cfg.gamma1), math.sin(2 * cfg.gamma2)
    n1, n2 = math.hypot(c1, c2), math.hypot(s1, s2)
    enc = 1.0 if cfg.gamma0 > 0 else -1.0
    table = np.empty((2, 2, 2))
    for bit in (0, 1):
        sign = enc * (1.0 if bit == 0 else -1.0)
        table[bit, 0] = (c1 / n1, sign * c2 / n1)
        table[bit, 1] = (s2 / n2, sign * s1 / n2)
    return table


def port_probability(cfg: QkdConfig) -> float:
    """Amplitude-derived chance that a pulse exits port 1."""
    c1, c2 = math.cos(2 * cfg.gamma1), math.cos(2 * cfg.gamma2)
    return (c1 ** 2 + c2 ** 2) / 2.0


@dataclass(frozen=True)
class SessionStats:
    n_pulses: int
    sifted_key_length: int
    conclusive_rate: float
    qber: float | None
    monitor_click_rate: float
    seed: int

    def to_json(self) -> str:
        return json.dumps({
            "n_pulses": self.n_pulses,
            "sifted_key_length": self.sifted_key_length,
            "conclusive_rate": self.conclusive_rate,
            "qber": self.qber,
            "monitor_click_rate": self.monitor_click_rate,
            "seed": self.seed,
        })


def run_session(cfg: QkdConfig, log: bool = False):
    """Simulate a whole session; returns SessionStats (+ the pulse log when log).

    All randomness comes from streams derived from cfg.seed, one per role
    (alice bits/ports, eve outcomes, bob guesses/paths/bits), so identical
    configs give identical statistics and logs.  Sifting keeps matched-guess
    conclusive pulses; with no eavesdropper those bits are always correct.
    The log is a dict of per-pulse arrays: alice_bit, alice_output,
    bob_guess, monitor (bool) and bit (Bob's bit, meaningless on monitor
    pulses).
    """
    n = cfg.n_pulses
    thetas = cfg.thetas
    bits = rng.stream(cfg.seed, "alice_bits").integers(0, 2, n)
    ports = np.where(rng.stream(cfg.seed, "alice_ports").random(n)
                     < port_probability(cfg), 1, 2)
    table = _family_table(cfg)
    arriving = table[bits, ports - 1]  # (n, 2) real amplitudes

    if cfg.eve is not None:
        eta = cfg.eve.basis_angle
        e1 = np.array([math.cos(eta), math.sin(eta)])
        e2 = np.array([-math.sin(eta), math.cos(eta)])
        p_e1 = (arriving @ e1) ** 2
        got_e1 = rng.stream(cfg.seed, "eve").random(n) < p_e1
        arriving = np.where(got_e1[:, None], e1, e2)

    guesses = rng.stream(cfg.seed, "bob_guesses").integers(1, 3, n)
    cb = np.array([math.tan(thetas[0] / 2), math.tan(thetas[1] / 2)])
    cb_used = cb[guesses - 1]
    h, v = arriving[:, 0], arriving[:, 1]
    p_path1 = (cb_used * h) ** 2 + v ** 2
    monitor = rng.stream(cfg.seed, "bob_path").random(n) >= p_path1
    with np.errstate(divide="ignore", invalid="ignore"):
        p_plus = np.where(p_path1 > 0, (cb_used * h + v) ** 2 / (2 * p_path1), 0.0)
    bob_bits = np.where(rng.stream(cfg.seed, "bob_bits").random(n) < p_plus, 0, 1)
    if cfg.gamma0 < 0:
        # the public encoding sign tells Bob which ± outcome means bit 0
        bob_bits = 1 - bob_bits

    matched = guesses == ports
    kept = matched & ~monitor
    sifted = int(kept.sum())
    errors = int((bob_bits[kept] != bits[kept]).sum())
    stats = SessionStats(
        n_pulses=n,
        sifted_key_length=sifted,
        conclusive_rate=float((~monitor)[matched].mean()) if matched.any() else 0.0,
        qber=errors / sifted if sifted > 0 else None,
        monitor_click_rate=float(monitor.mean()),
        seed=cfg.seed,
    )
    if not log:
        return stats
    return stats, {"alice_bit": bits, "alice_output": ports, "bob_guess": guesses,
                   "monitor": monitor, "bit": bob_bits}


def pulse_log_csv(pulses, seed: int) -> str:
    """The pulse log of run_session as CSV; monitor rows leave the bit empty."""
    rows = zip(pulses["alice_bit"].tolist(), pulses["alice_output"].tolist(),
               pulses["bob_guess"].tolist(), pulses["monitor"].tolist(),
               pulses["bit"].tolist())
    lines = [f"# seed={seed}", "pulse,alice_bit,alice_output,bob_guess,result,bit"]
    lines += [f"{i},{a},{o},{g},{RESULT_MONITOR}," if m else
              f"{i},{a},{o},{g},{RESULT_CONCLUSIVE},{b}"
              for i, (a, o, g, m, b) in enumerate(rows)]
    lines.append("")
    return "\n".join(lines)
