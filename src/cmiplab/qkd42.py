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

#: pulses simulated per pass of run_session; bounds its memory
QKD_CHUNK = 65_536


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


def run_session(cfg: QkdConfig, log=None) -> SessionStats:
    """Simulate a session in chunks of QKD_CHUNK pulses; returns SessionStats.

    Bob receives the sent state s = 2·bit + (port − 1), or Eve's outcome
    s = 0 (e1) or 1 (e2), and guesses a family: outcome code
    k = 2·s + (guess − 1).  Bob's path-1 and + chances are 8-entry tables
    over k, and Eve's e1 chance a 4-entry one over the sent state, built once
    per session; each pulse compares its draws with table[k].  Draw order is
    output: each role draws from its own stream of cfg.seed, in the same
    order in every chunk, and a chunked draw equals one long draw, so the
    statistics and log do not depend on the chunk size.  Sifting keeps
    matched-guess conclusive pulses, always correct without Eve.  Integer
    tallies keep memory bounded.  When `log` is an open text stream, each
    chunk's rows of the pulse log (see pulse_log_csv) are written to it.
    """
    n = cfg.n_pulses
    alice_bits = rng.stream(cfg.seed, "alice_bits")
    alice_ports = rng.stream(cfg.seed, "alice_ports")
    eve = rng.stream(cfg.seed, "eve") if cfg.eve is not None else None
    bob_guesses = rng.stream(cfg.seed, "bob_guesses")
    bob_path = rng.stream(cfg.seed, "bob_path")
    bob_bits = rng.stream(cfg.seed, "bob_bits")
    p_port1 = port_probability(cfg)
    states = _family_table(cfg).reshape(4, 2)  # row s = 2·bit + (port − 1)
    if eve is not None:
        eta = cfg.eve.basis_angle
        e1 = np.array([math.cos(eta), math.sin(eta)])
        e2 = np.array([-math.sin(eta), math.cos(eta)])
        p_e1 = (states @ e1) ** 2
        states = np.array([e1, e2])
    cb = np.array([math.tan(th / 2) for th in theta_angles(cfg.gamma1, cfg.gamma2)])
    cb_used = np.tile(cb, len(states))  # row k = 2·s + (guess − 1)
    h, v = np.repeat(states, 2, axis=0).T
    p_path1 = (cb_used * h) ** 2 + v ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        p_plus = np.where(p_path1 > 0, (cb_used * h + v) ** 2 / (2 * p_path1), 0.0)
    # the public encoding sign tells Bob which ± outcome means bit 0
    bit1_if = np.less if cfg.gamma0 < 0 else np.greater_equal

    matched = sifted = errors = monitor_clicks = 0
    for start in range(0, n, QKD_CHUNK):
        m = min(QKD_CHUNK, n - start)
        bits = alice_bits.integers(0, 2, m)
        port2 = alice_ports.random(m) >= p_port1
        s = sent = 2 * bits + port2
        if eve is not None:
            s = eve.random(m) >= p_e1[sent]
        guess2 = bob_guesses.integers(1, 3, m) == 2
        k = 2 * s + guess2
        monitor = bob_path.random(m) >= p_path1[k]
        bob1 = bit1_if(bob_bits.random(m), p_plus[k])
        match = guess2 == port2
        kept = match & ~monitor
        matched += int(np.count_nonzero(match))
        sifted += int(np.count_nonzero(kept))
        errors += int(np.count_nonzero(kept & (bob1 != bits)))
        monitor_clicks += int(np.count_nonzero(monitor))
        if log is not None:
            log.write(pulse_log_csv(8 * sent + 4 * guess2 + 2 * monitor + bob1,
                                    cfg.seed, start))

    return SessionStats(
        n_pulses=n,
        sifted_key_length=sifted,
        conclusive_rate=sifted / matched if matched else 0.0,
        qber=errors / sifted if sifted > 0 else None,
        monitor_click_rate=monitor_clicks / n,
        seed=cfg.seed,
    )


#: the pulse log's row after the pulse number, indexed by the 5-bit code
#: 8·sent + 4·(guess − 1) + 2·monitor + bit, sent = 2·alice_bit + (port − 1);
#: the path-1 ± measurement always clicks, so a pulse not on the monitor is
#: conclusive
_ROW_SUFFIX = tuple(
    f",{a},{o},{g},monitor,\n" if m else f",{a},{o},{g},conclusive,{b}\n"
    for a in (0, 1) for o in (1, 2) for g in (1, 2) for m in (0, 1) for b in (0, 1))


def pulse_log_csv(codes: np.ndarray, seed: int, start: int) -> str:
    """CSV rows of a run of pulses numbered from `start`, led by the
    "# seed=" and column header lines when start == 0.

    `codes` holds each pulse's 5-bit row code (see _ROW_SUFFIX); Bob's bit
    is meaningless on monitor pulses, whose rows leave it empty.  run_session
    writes one call's text per chunk.
    """
    head = (f"# seed={seed}\npulse,alice_bit,alice_output,bob_guess,result,bit\n"
            if start == 0 else "")
    return head + "".join([str(i) + _ROW_SUFFIX[c]
                           for i, c in enumerate(codes.tolist(), start)])
