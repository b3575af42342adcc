"""Monte Carlo model of the 4+2 key-distribution scheme.

Alice drives (|H⟩ ± |V⟩)/√2 through the both-plates interferometer and sends
whichever output port fired, giving two families of two non-orthogonal
states with inner angles θ1, θ2.  Bob guesses the family, expands the pair
to orthogonal (θ → π/2) with the heralded device, and reads the ± basis on
path 1; path-2 clicks are the monitor channel.  Sifting keeps pulses where
the guess matched the sent port and the click was conclusive.  Both device
passes run through the interferometer engine; `theta_angles` is the only
closed form here.  A session runs on the calling thread in chunks addressed
by pulse index; a chance reads a 32-bit half word and a coin one bit, but a
role whose thresholds are all 0 or 2^32 is not drawn and its table is read
as bools, and a table of one value is compared as one number.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import interferometer as ifo
from . import rng

#: pulses per chunk of run_session; bounds its memory
QKD_CHUNK = 16_384


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
class QkdConfig:
    """`eve_basis` is the angle η of an intercept-resend eavesdropper, who
    measures each pulse in the basis {(cos η, sin η), (−sin η, cos η)}, or
    None for none: η = 0 is the H/V policy, π/8 the intermediate basis
    halfway between H/V and the ±45° signal states."""

    gamma1: float = math.pi / 8
    gamma2: float = math.pi / 8
    gamma0: float = math.pi / 8
    n_pulses: int = 10_000
    seed: int = 42
    eve_basis: float | None = None

    def __post_init__(self):
        if abs(abs(self.gamma0) - math.pi / 8) > 1e-12:
            raise ValueError(f"gamma0 must be ±pi/8 (the ±45° encoding), got {self.gamma0}")
        for name, value in (("n_pulses", self.n_pulses), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


@dataclass(frozen=True)
class SessionStats:
    n_pulses: int
    sifted_key_length: int
    conclusive_rate: float
    qber: float | None
    monitor_click_rate: float
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))  # keys in field order


def run_session(cfg: QkdConfig, log=None) -> SessionStats:
    """Simulate a session in chunks of QKD_CHUNK pulses; returns SessionStats.

    Bob receives the sent state s = 2·bit + (port − 1), or Eve's outcome
    s = 0 (e1) or 1 (e2), and guesses a family: outcome code
    k = 2·s + (guess − 1).  Bob's path-1 and + chances are 8-entry tables
    over k, and Eve's e1 chance a 4-entry one over the sent state, built once
    per session by the device engine: Alice's inputs, then the arriving
    states under Bob's `plates(θ_guess, π/2)`, go through one
    `evolve` call each.  The tables hold uint64 `rng.thresholds`, and a
    pulse misses a chance when its 32-bit half word of the role's raw Philox
    stream reaches the threshold; a coin is one bit of a word.  A role whose
    thresholds are all 0 or 2^32 is not drawn, as no half word changes its
    result, and its table is read as bools (t == 0); a table of one value is
    compared as one number.  Draw order is output: pulse i takes half word i
    (bit i for a coin) of each drawn role's stream of cfg.seed via `rng.addressed`,
    so a chunk depends on its index alone and the session on no `Generator` method.
    Each chunk adds to the integer tallies and writes its rows of the pulse
    log (see pulse_log_csv) to `log`, an open text stream or None, as it
    goes, so memory stays bounded; an exception, a failed write included,
    raises from the loop.
    Sifting keeps matched-guess conclusive pulses, always correct without Eve.
    """
    n = cfg.n_pulses
    enc = 1.0 if cfg.gamma0 > 0 else -1.0
    alice = ifo.evolve(np.kron([[1, enc], [1, -enc]], [[1, 0]]) / math.sqrt(2),  # bits 0, 1
                       cfg.gamma1, cfg.gamma2)
    draw = {role: rng.addressed(cfg.seed, role) for role in ("alice_bits", "bob_guesses")}

    def chance(role, p):  # t = rng.thresholds(p): its one value, t, or t == 0 if decided
        t = rng.thresholds(p).ravel()
        if ((0 < t) & (t < 2 ** 32)).any():  # else no half word changes a result
            draw[role] = rng.addressed(cfg.seed, role)
        return int(t[0]) if t.min() == t.max() else t if role in draw else t == 0

    t_port1 = chance("alice_ports", alice.p_success[0])
    states = np.stack([alice.success, alice.failure], axis=1).reshape(4, 2)
    if cfg.eve_basis is not None:
        eta = cfg.eve_basis
        e1 = np.array([math.cos(eta), math.sin(eta)])
        e2 = np.array([-math.sin(eta), math.cos(eta)])
        t_e1 = chance("eve", np.abs(states @ e1) ** 2)  # port-2 rows carry a global phase
        states = np.array([e1, e2])
    # rows: k = 2·s + (guess − 1), each under the plates of its guess
    bob_plates = [ifo.plates(th, math.pi / 2) for th in theta_angles(cfg.gamma1, cfg.gamma2)]
    bob = ifo.evolve(np.repeat(np.kron(states, [[1, 0]]), 2, axis=0),
                     *zip(*bob_plates * len(states)))
    t_path1 = chance("bob_path", bob.p_success)
    t_plus = chance("bob_bits", np.abs(bob.success.sum(axis=1)) ** 2 / 2)
    gather_k = not isinstance(t_path1, int) or not isinstance(t_plus, int)

    def reached(role, t, k=None):  # half word >= t: the chance t·2^-32 was missed
        if role not in draw:  # decided: the half word 0 reaches t where t is 0
            return np.full(m, t == 0) if isinstance(t, int) else t.take(k)
        return draw[role](start, m, bits=32) >= (t if isinstance(t, int) else t.take(k))

    tallies = np.zeros(4, np.int64)
    for start in range(0, n, QKD_CHUNK):
        m = min(QKD_CHUNK, n - start)
        bits = draw["alice_bits"](start, m, bits=1)
        port2 = reached("alice_ports", t_port1)
        s = sent = 2 * bits + port2
        if cfg.eve_basis is not None:
            s = reached("eve", t_e1, sent).view(np.uint8)
        guess2 = draw["bob_guesses"](start, m, bits=1)
        k = (2 * s + guess2).astype(np.intp) if gather_k else None  # one cast for both gathers
        monitor = reached("bob_path", t_path1, k)
        # the public encoding sign tells Bob which ± outcome means bit 0
        bob1 = reached("bob_bits", t_plus, k) != (cfg.gamma0 < 0)
        match = guess2 == port2
        kept = match & ~monitor
        tallies += [np.count_nonzero(x) for x in (match, kept, kept & (bob1 != bits), monitor)]
        if log is not None:
            log.write(pulse_log_csv(8 * sent + 4 * guess2 + 2 * monitor + bob1, cfg.seed, start))

    matched, sifted, errors, monitor_clicks = tallies.tolist()
    return SessionStats(n_pulses=n, sifted_key_length=sifted,
                        conclusive_rate=sifted / matched if matched else 0.0,
                        qber=errors / sifted if sifted > 0 else None,
                        monitor_click_rate=monitor_clicks / n, seed=cfg.seed)


#: the pulse log's row after the pulse number, indexed by the 5-bit code
#: 8·sent + 4·(guess − 1) + 2·monitor + bit, sent = 2·alice_bit + (port − 1);
#: the path-1 ± measurement always clicks, so a pulse not on the monitor is
#: conclusive.  Held as ASCII bytes padded with 0 to one width.
_ROW_SUFFIX = [row.encode().ljust(20, b"\0") for row in (
    f",{a},{o},{g},monitor,\n" if m else f",{a},{o},{g},conclusive,{b}\n"
    for a in (0, 1) for o in (1, 2) for g in (1, 2) for m in (0, 1) for b in (0, 1))]
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy() + 48  # "0000" to "9999"


def pulse_log_csv(codes: np.ndarray, seed: int, start: int) -> str:
    """CSV rows of a run of pulses numbered from `start`, led by the
    "# seed=" and column header lines when start == 0.

    `codes` holds each pulse's 5-bit row code (see _ROW_SUFFIX); Bob's bit
    is meaningless on monitor pulses, whose rows leave it empty.  run_session
    writes one call's text per chunk, built in one byte buffer.  A run of
    numbers of one width w and 10^4-block reads its last min(w, 4) digits
    from _DIGITS and drops monitor rows' padding as whole gcd(w, 4)-byte items.
    """
    head = (f"# seed={seed}\npulse,alice_bit,alice_output,bob_guess,result,bit\n"
            if start == 0 else "").encode()
    out = np.empty(len(head) + len(codes) * (len(str(start + len(codes))) + 20), np.uint8)
    out[:(pos := len(head))] = np.frombuffer(head, np.uint8)
    while len(codes):
        w, low = len(str(start)), start % 10 ** 4
        d, n = min(w, 4), min(len(codes), 10 ** w - start, 10 ** 4 - low)
        top = str(start)[:-4].encode() + bytes(d)  # the upper digits, then d for _DIGITS
        rows, run, codes = out[pos:pos + n * (w + 20)].reshape(n, w + 20), codes[:n], codes[n:]
        np.frombuffer(top + top.join(_ROW_SUFFIX), np.uint8).reshape(32, -1).take(run, 0, rows)
        rows[:, w - d:w].view(f"V{d}")[:] = _DIGITS[low:low + n, 4 - d:].view(f"V{d}")
        if (run & 2).any():  # 2·monitor: drop the monitor rows' padding
            items = rows.reshape(-1).view(f"u{math.gcd(w, 4)}")
            rows = items[items != 0].view(np.uint8)
            out[pos:pos + rows.size] = rows
        pos, start = pos + rows.size, start + n
    return str(out[:pos], "ascii")  # decodes from the buffer, with no bytes copy
