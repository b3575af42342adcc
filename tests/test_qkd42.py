import dataclasses
import io
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmiplab import entanglement_lab as elab
from cmiplab import interferometer as ifo
from cmiplab import qkd42, rng

# frozen oracle values
THETA1_WIDE = 2.0943951023931953     # theta1 for gamma1=pi/6, gamma2=pi/12 (2pi/3)
BOB_ANGLE_THIRD = 0.47765830906225465  # discrimination angle at theta=pi/3
QBER_HV = 0.5                         # single-basis H/V intercept at theta=pi/2
QBER_PI8 = 0.25                       # basis angle pi/8 at theta=pi/2
MONITOR_PI8_EVE = 0.4166666666666668  # monitor rate, eta=pi/8 at theta=pi/3


def test_theta_angles_and_empty_ports():
    th1, th2 = qkd42.theta_angles(math.pi / 6, math.pi / 12)
    assert abs(th1 - THETA1_WIDE) < 1e-12
    assert th2 is not None
    assert qkd42.theta_angles(math.pi / 4, math.pi / 4)[0] is None  # port 1 dark
    assert qkd42.theta_angles(0.0, 0.0)[1] is None                  # port 2 dark


def test_discrimination_angle():
    # Bob expands a family to orthogonal: arccos(tan(θ/2))/2
    assert abs(ifo.solve_gamma1(math.pi / 3, math.pi / 2) - BOB_ANGLE_THIRD) < 1e-12
    assert abs(ifo.solve_gamma1(math.pi / 2, math.pi / 2)) < 1e-7  # tan -> 1
    with pytest.raises(ValueError):
        ifo.solve_gamma1(2.0, math.pi / 2)


def test_config_validation():
    qkd42.QkdConfig()  # defaults are valid
    with pytest.raises(ValueError):
        qkd42.QkdConfig(gamma0=0.3)
    with pytest.raises(ValueError):
        qkd42.QkdConfig(n_pulses=0)
    with pytest.raises(ValueError, match="outside"):
        qkd42.QkdConfig(n_pulses=2 ** 63)  # beyond numpy's int64 array sizes
    assert qkd42.QkdConfig(n_pulses=2 ** 63 - 1).n_pulses == 2 ** 63 - 1
    with pytest.raises(ValueError):
        # theta1 = 2pi/3 > pi/2: Bob cannot build the discrimination stage
        qkd42.QkdConfig(gamma1=math.pi / 6, gamma2=math.pi / 12)


@pytest.mark.parametrize("bad", [True, False, 1000.0, np.int64(1000), "1000", None],
                         ids=["true", "false", "float", "numpy_int", "str", "none"])
def test_config_refuses_a_non_integer_pulse_count_or_seed(bad):
    # a bool reached session.json as true, and a float failed in range()
    # inside run_session; a numpy integer would fail in SessionStats.to_json
    with pytest.raises(ValueError, match="n_pulses must be an integer"):
        qkd42.QkdConfig(n_pulses=bad)
    with pytest.raises(ValueError, match="seed must be an integer"):
        qkd42.QkdConfig(seed=bad)


def test_config_for_theta_balances_the_ports():
    for theta in (math.pi / 3, 0.4 * math.pi, math.pi / 2):
        cfg = qkd42.config_for_theta(theta)
        th1, th2 = qkd42.theta_angles(cfg.gamma1, cfg.gamma2)
        assert abs(th1 - theta) < 1e-12 and abs(th2 - theta) < 1e-12
        p_port1 = elab.branch_probabilities(math.pi / 2, cfg.gamma1, cfg.gamma2)[0]
        assert abs(p_port1 - 0.5) < 1e-12


def test_family_states_are_normalized_with_overlap_cos_theta():
    # the engine's both-plates pass of (|H> ± |V>)/sqrt2, split by output port
    amps = np.array([[1, 0, 1, 0], [1, 0, -1, 0]]) / math.sqrt(2)
    for cfg in (qkd42.QkdConfig(gamma1=0.2, gamma2=0.3),
                *(qkd42.config_for_theta(theta)
                  for theta in (math.pi / 3, 0.4 * math.pi, math.pi / 2))):
        out = ifo.evolve(amps, cfg.gamma1, cfg.gamma2)
        for (plus, minus), theta in zip((out.success, out.failure),
                                        qkd42.theta_angles(cfg.gamma1, cfg.gamma2)):
            assert abs(np.vdot(plus, plus) - 1.0) < 1e-12
            assert abs(np.vdot(minus, minus) - 1.0) < 1e-12
            assert abs(abs(np.vdot(plus, minus)) - math.cos(theta)) < 1e-12


def test_session_without_eve_is_error_free():
    for theta in (math.pi / 3, 0.4 * math.pi, math.pi / 2):
        cfg = qkd42.config_for_theta(theta, n_pulses=20_000, seed=101)
        stats = qkd42.run_session(cfg)
        assert stats.sifted_key_length > 0
        assert stats.qber == 0.0
        p = 1 - math.cos(theta)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / (0.45 * cfg.n_pulses))
        assert abs(stats.conclusive_rate - p) < 4 * sigma + 1e-9


def test_negative_encoding_sign_still_yields_zero_qber():
    cfg = qkd42.QkdConfig(gamma0=-math.pi / 8, n_pulses=20_000, seed=5)
    stats = qkd42.run_session(cfg)
    assert stats.qber == 0.0 and stats.sifted_key_length > 0


def test_monitor_rate_tracks_the_channel():
    n = 200_000
    base = qkd42.run_session(qkd42.config_for_theta(math.pi / 3, n_pulses=n, seed=8))
    hv = qkd42.run_session(qkd42.config_for_theta(
        math.pi / 3, n_pulses=n, seed=8, eve_basis=0.0))
    tilted = qkd42.run_session(qkd42.config_for_theta(
        math.pi / 3, n_pulses=n, seed=8, eve_basis=math.pi / 8))
    sigma = math.sqrt(0.25 / n)
    # an H/V intercept leaves the monitor statistics untouched ...
    assert abs(base.monitor_click_rate - math.cos(math.pi / 3)) < 4 * sigma
    assert abs(hv.monitor_click_rate - math.cos(math.pi / 3)) < 4 * sigma
    # ... but the intermediate basis suppresses them measurably
    assert abs(tilted.monitor_click_rate - MONITOR_PI8_EVE) < 4 * sigma
    assert tilted.monitor_click_rate < base.monitor_click_rate - 20 * sigma


def test_intercept_resend_error_rates():
    n = 100_000
    for eta, expect in ((0.0, QBER_HV), (math.pi / 8, QBER_PI8)):
        cfg = qkd42.config_for_theta(math.pi / 2, n_pulses=n, seed=21,
                                     eve_basis=eta)
        stats = qkd42.run_session(cfg)
        sigma = math.sqrt(expect * (1 - expect) / stats.sifted_key_length)
        assert abs(stats.qber - expect) < 4 * sigma


def test_session_json_is_byte_deterministic():
    cfg = qkd42.QkdConfig(n_pulses=5000, seed=77)
    a = qkd42.run_session(cfg).to_json()
    b = qkd42.run_session(cfg).to_json()
    assert a == b
    assert list(__import__("json").loads(a)) == [
        "n_pulses", "sifted_key_length", "conclusive_rate", "qber",
        "monitor_click_rate", "seed"]


def test_pulse_log_agrees_with_stats():
    cfg = qkd42.config_for_theta(math.pi / 3, n_pulses=3000, seed=15)
    buf = io.StringIO()
    stats = qkd42.run_session(cfg, log=buf)
    assert stats == qkd42.run_session(cfg)
    text = buf.getvalue()
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[0] == "# seed=15"
    assert lines[1] == "pulse,alice_bit,alice_output,bob_guess,result,bit"
    assert len(lines) == cfg.n_pulses + 2
    rows = [line.split(",") for line in lines[2:]]
    assert all(len(row) == 6 for row in rows)
    assert [row[0] for row in rows] == [str(i) for i in range(cfg.n_pulses)]
    assert {row[4] for row in rows} == {"monitor", "conclusive"}
    monitor = np.array([row[4] == "monitor" for row in rows])
    kept = np.array([row[3] == row[2] for row in rows]) & ~monitor
    assert kept.sum() == stats.sifted_key_length
    assert abs(monitor.mean() - stats.monitor_click_rate) < 1e-12
    errors = sum(row[5] != row[1] for row, k in zip(rows, kept) if k)
    assert errors / kept.sum() == stats.qber
    # monitor rows leave the bit column empty; conclusive rows carry Bob's bit
    assert all(row[5] == "" for row, m in zip(rows, monitor) if m)
    assert all(row[5] in ("0", "1") for row, m in zip(rows, monitor) if not m)


@pytest.mark.parametrize("eve", [None, 0.0, math.pi / 8], ids=["no_eve", "hv", "pi8"])
def test_chunk_size_does_not_change_the_session(eve, monkeypatch):
    cfg = qkd42.config_for_theta(math.pi / 3, n_pulses=1000, seed=31, eve_basis=eve)

    def session():
        buf = io.StringIO()
        return qkd42.run_session(cfg, log=buf), buf.getvalue()

    whole = session()
    monkeypatch.setattr(qkd42, "QKD_CHUNK", 7)
    assert session() == whole


def _closed_form_port1(cfg):
    """Chance that a pulse exits Alice's port 1, from the plate amplitudes."""
    c1, c2 = math.cos(2 * cfg.gamma1), math.cos(2 * cfg.gamma2)
    return (c1 ** 2 + c2 ** 2) / 2.0


def _closed_form_families(cfg):
    """Sent states indexed [bit, port-1] as rows of real (H, V) amplitudes."""
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


class _RawStream:
    """One role's stream read by the session's draw rule, pulse by pulse:
    chance i takes 32-bit half word i of the raw words, low half first, and
    coin i takes bit i, least significant first, 64 to a word."""

    def __init__(self, seed, role, n):
        words = rng.stream(seed, role).bit_generator.random_raw(n // 2 + 1)
        self.words = [int(w) for w in words]

    def happens(self, i, p):
        """Whether the event of chance p happens at pulse i: its half word
        lies below p·2^32 rounded to the nearest whole number."""
        return (self.words[i // 2] >> 32 * (i % 2)) & 0xFFFF_FFFF < round(p * 2 ** 32)

    def coin(self, i):
        return (self.words[i // 64] >> i % 64) & 1


def _reference_session(cfg, log):
    """run_session pulse by pulse, on closed forms rather than the device
    engine: amplitudes and probabilities recomputed for every pulse from the
    plate formulas, each draw read from the raw words in Python integers,
    and the log rows written one by one rather than through pulse_log_csv."""
    n = cfg.n_pulses
    roles = ["alice_bits", "alice_ports", "bob_guesses", "bob_path", "bob_bits", "eve"]
    draws = {role: _RawStream(cfg.seed, role, n) for role in roles}
    p_port1 = _closed_form_port1(cfg)
    table = _closed_form_families(cfg)
    thetas = qkd42.theta_angles(cfg.gamma1, cfg.gamma2)
    cb = [math.tan(thetas[0] / 2), math.tan(thetas[1] / 2)]
    if cfg.eve_basis is not None:
        eta = cfg.eve_basis
        e1 = (math.cos(eta), math.sin(eta))
        e2 = (-math.sin(eta), math.cos(eta))

    matched = sifted = errors = monitor_clicks = 0
    if log is not None:
        log.write(f"# seed={cfg.seed}\npulse,alice_bit,alice_output,bob_guess,result,bit\n")
    for i in range(n):
        bit = draws["alice_bits"].coin(i)
        port = 1 if draws["alice_ports"].happens(i, p_port1) else 2
        h, v = table[bit, port - 1]
        if cfg.eve_basis is not None:
            h, v = e1 if draws["eve"].happens(i, (h * e1[0] + v * e1[1]) ** 2) else e2
        guess = 2 if draws["bob_guesses"].coin(i) else 1
        c = cb[guess - 1]
        p_path1 = (c * h) ** 2 + v ** 2
        monitor = not draws["bob_path"].happens(i, p_path1)
        p_plus = (c * h + v) ** 2 / (2 * p_path1) if p_path1 > 0 else 0.0
        bob = 0 if draws["bob_bits"].happens(i, p_plus) else 1
        if cfg.gamma0 < 0:
            # the public encoding sign tells Bob which ± outcome means bit 0
            bob = 1 - bob

        kept = guess == port and not monitor
        matched += guess == port
        sifted += kept
        errors += kept and bob != bit
        monitor_clicks += monitor
        if log is not None:
            result = "monitor," if monitor else f"conclusive,{bob}"
            log.write(f"{i},{bit},{port},{guess},{result}\n")

    return qkd42.SessionStats(
        n_pulses=n,
        sifted_key_length=sifted,
        conclusive_rate=sifted / matched if matched else 0.0,
        qber=errors / sifted if sifted > 0 else None,
        monitor_click_rate=monitor_clicks / n,
        seed=cfg.seed,
    )


# one basis angle drawn at random, fixed here so tier 1 stays reproducible
ETA_RANDOM = float(np.random.default_rng(2026).uniform(-math.pi, math.pi))


@pytest.mark.parametrize("n, theta", [(n, None) for n in (1, 6, 7, 8, 1000)]
                         + [(1000, math.pi / 2), (1000, math.pi / 3)],
                         ids=["1", "6", "7", "8", "1000", "pi2_1000", "pi3_1000"])
@pytest.mark.parametrize("gamma0", [math.pi / 8, -math.pi / 8], ids=["enc+", "enc-"])
@pytest.mark.parametrize("eve", [None, 0.0, math.pi / 8, ETA_RANDOM],
                         ids=["no_eve", "hv", "pi8", "eta_random"])
def test_session_equals_the_per_pulse_reference(eve, gamma0, n, theta, monkeypatch,
                                                formatting_threads):
    # chunks of 7 and 65 pulses start inside a coin word and on odd half
    # words; the caller's thread alone formats the log.  γ = (0.2, 0.3)
    # draws every role's chance table per pulse; at θ = π/2 and π/3 some
    # tables are decided (all 0 or 2^32) or hold one value, and the
    # reference still reads every role's half word
    common = dict(gamma0=gamma0, n_pulses=n, seed=n * 7919 + 13, eve_basis=eve)
    cfg = (qkd42.QkdConfig(gamma1=0.2, gamma2=0.3, **common) if theta is None
           else qkd42.config_for_theta(theta, **common))
    ref_log = io.StringIO()
    want = _reference_session(cfg, ref_log), ref_log.getvalue()
    for chunk in (7, 65):
        monkeypatch.setattr(qkd42, "QKD_CHUNK", chunk)
        formatting_threads.clear()
        got_log = io.StringIO()
        assert (qkd42.run_session(cfg, got_log), got_log.getvalue()) == want, chunk
        assert formatting_threads == {threading.get_ident()}


def _roles_drawn(cfg, monkeypatch):
    """The roles whose streams a 100-pulse session of cfg builds and reads."""
    built, read, addressed = set(), set(), rng.addressed

    def spy(seed, role):
        built.add(role)
        draw = addressed(seed, role)

        def reading(start, m, bits=64):
            read.add(role)
            return draw(start, m, bits)
        return reading

    monkeypatch.setattr(rng, "addressed", spy)
    qkd42.run_session(dataclasses.replace(cfg, n_pulses=100))
    assert built == read
    return read


def test_decided_chances_read_no_stream(monkeypatch):
    # a table of thresholds 0 and 2^32 alone is decided by the outcome code:
    # at θ = π/2 Bob's path-1 chance is 1 and his ± outcome certain, at
    # θ = π/3 only the ± outcome (conditional on path 1) is
    coins = {"alice_bits", "bob_guesses"}
    chances = {"alice_ports", "bob_path", "bob_bits"}
    assert _roles_drawn(qkd42.config_for_theta(math.pi / 2), monkeypatch) == (
        coins | {"alice_ports"})
    assert _roles_drawn(qkd42.config_for_theta(math.pi / 3), monkeypatch) == (
        coins | {"alice_ports", "bob_path"})
    general = qkd42.QkdConfig(gamma1=0.2, gamma2=0.3)
    assert _roles_drawn(general, monkeypatch) == coins | chances
    assert _roles_drawn(dataclasses.replace(general, eve_basis=0.0), monkeypatch) == (
        coins | chances | {"eve"})


def _bob_plus_thresholds(cfg, monkeypatch):
    """The threshold table of Bob's + outcome that run_session builds for
    cfg, over the outcome code k = 2·sent + (guess − 1): the last of the
    three tables a session without Eve builds."""
    built, thresholds = [], rng.thresholds
    monkeypatch.setattr(rng, "thresholds", lambda p: built.append(thresholds(p)) or built[-1])
    qkd42.run_session(dataclasses.replace(cfg, n_pulses=1))
    assert len(built) == 3
    return built[-1]


@pytest.mark.parametrize("gamma0", [math.pi / 8, -math.pi / 8], ids=["enc+", "enc-"])
def test_matched_plus_thresholds_make_no_eve_sessions_error_free(gamma0, monkeypatch):
    # on a matched guess Bob's ± outcome is certain up to rounding (6e-33 at
    # θ = π/3), and the threshold rounds it to exactly 0 or 2^32: no half
    # word can flip the bit, so a session without Eve has no error by
    # construction; ceil(p·2^32) would give 1, which half word 0 misses
    cfgs = [qkd42.config_for_theta(theta, gamma0=gamma0)
            for theta in np.linspace(0, math.pi / 2, 61)[1:]]
    cfgs += [qkd42.QkdConfig(gamma1=g1, gamma2=g2, gamma0=gamma0)
             for g1, g2 in ((0.2, 0.3), (0.05, 0.7), (0.3, 0.35))]
    for cfg in cfgs:
        t_plus = _bob_plus_thresholds(cfg, monkeypatch).tolist()
        # matched codes k: sent = 2·bit + (port − 1) and guess = port
        for bit in (0, 1):
            for port in (1, 2):
                k = 2 * (2 * bit + port - 1) + port - 1
                # a + outcome means bit 0 under the + encoding sign
                want = 2 ** 32 if (bit == 0) == (gamma0 > 0) else 0
                assert t_plus[k] == want, (cfg, bit, port, t_plus)


def _expected_rates(theta, eta):
    """(conclusive rate, QBER, monitor click rate) for equal family angles
    theta; the first two as perfbench's qkd_expectation gives them.  Both
    families send cos(θ/2)|H⟩ ± sin(θ/2)|V⟩ (bit 0 is +).  Eve, if present,
    projects onto (cos η, sin η) or (−sin η, cos η) and resends it.  Bob, on
    a matched guess, scales H by tan(θ/2) and reads ± on path 1.  His plates
    are the same for either guess, so a pulse misses path 1 with the same
    chance whatever he guessed: the monitor rate is 1 − the conclusive rate,
    cos θ without Eve or with H/V."""
    cb = math.tan(theta / 2)
    conclusive = errors = 0.0
    for bit, sign in ((0, 1.0), (1, -1.0)):
        h0, v0 = math.cos(theta / 2), sign * math.sin(theta / 2)
        if eta is None:
            arrivals = [(1.0, h0, v0)]
        else:
            c, s = math.cos(eta), math.sin(eta)
            arrivals = [((h0 * c + v0 * s) ** 2, c, s), ((-h0 * s + v0 * c) ** 2, -s, c)]
        for p, h, v in arrivals:
            plus, minus = (cb * h + v) ** 2 / 2, (cb * h - v) ** 2 / 2
            conclusive += 0.5 * p * (plus + minus)
            errors += 0.5 * p * (minus if bit == 0 else plus)
    return conclusive, errors / conclusive, 1.0 - conclusive


def test_expected_rates_restate_the_frozen_oracle_values():
    for theta in (math.pi / 3, math.pi / 2):
        for eta in (None, 0.0):
            assert abs(_expected_rates(theta, eta)[2] - math.cos(theta)) < 1e-12
    assert abs(_expected_rates(math.pi / 3, math.pi / 8)[2] - MONITOR_PI8_EVE) < 1e-12
    assert abs(_expected_rates(math.pi / 2, 0.0)[1] - QBER_HV) < 1e-12
    assert abs(_expected_rates(math.pi / 2, math.pi / 8)[1] - QBER_PI8) < 1e-12


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2], ids=["pi3", "pi2"])
@pytest.mark.parametrize("eve", [None, 0.0, math.pi / 8], ids=["no_eve", "hv", "pi8"])
def test_short_sessions_follow_their_closed_forms(theta, eve):
    # 200 seeds of 2,000 pulses, pooled: each rate lies within Z = 4
    # standard errors of its closed form (a correct session misses one such
    # two-sided bound with chance about 6e-5), and a session without Eve has
    # no error at all
    seeds, n = 200, 2000
    matched = sifted = errors = monitor = 0
    for seed in range(seeds):
        st = qkd42.run_session(qkd42.config_for_theta(theta, n_pulses=n, seed=seed,
                                                      eve_basis=eve))
        matched += round(st.sifted_key_length / st.conclusive_rate)
        sifted += st.sifted_key_length
        errors += round(st.qber * st.sifted_key_length)
        monitor += round(st.monitor_click_rate * n)
    rate, qber, monitor_rate = _expected_rates(theta, eve)
    for got, p, trials in ((sifted / matched, rate, matched), (errors / sifted, qber, sifted),
                           (monitor / (seeds * n), monitor_rate, seeds * n)):
        assert abs(got - p) <= 4 * math.sqrt(p * (1 - p) / trials) + 1e-12, (got, p)
    if eve is None:
        assert errors == 0


def _comprehension_log(codes, seed, start):
    """The pulse log built row by row from the row strings, as pulse_log_csv
    did before its byte table: the reference for every byte it writes."""
    suffix = tuple(
        f",{a},{o},{g},monitor,\n" if m else f",{a},{o},{g},conclusive,{b}\n"
        for a in (0, 1) for o in (1, 2) for g in (1, 2) for m in (0, 1) for b in (0, 1))
    head = (f"# seed={seed}\npulse,alice_bit,alice_output,bob_guess,result,bit\n"
            if start == 0 else "")
    return head + "".join([str(i) + suffix[c] for i, c in enumerate(codes.tolist(), start)])


@pytest.mark.parametrize("start, n", [
    (0, 100), (0, 1), (7, 1), (5, 10), (99_990, 20), (999_990, 20),
    (qkd42.QKD_CHUNK, qkd42.QKD_CHUNK), (15 * qkd42.QKD_CHUNK, qkd42.QKD_CHUNK),
    (999, 20), (9_999, 20), (10 ** 8 - 10, 20),
], ids=["header", "one_row", "one_row_later", "9_to_10", "99999_to_100000",
        "999999_to_1000000", "second_chunk", "sixteenth_chunk", "from_999",
        "from_9999", "99999999_to_100000000"])
def test_pulse_log_keeps_every_byte_of_the_row_comprehension(start, n):
    # the golden logs hold 2,000 pulses, so they never reach a second chunk
    # or a five-digit pulse number
    codes = np.random.default_rng(start + n).integers(0, 32, n)
    assert qkd42.pulse_log_csv(codes, 9, start) == _comprehension_log(codes, 9, start)
    every_code = np.arange(32)
    assert (qkd42.pulse_log_csv(every_code, 9, start)
            == _comprehension_log(every_code, 9, start))


def _assert_log_matches(codes, seed, start):
    got, want = qkd42.pulse_log_csv(codes, seed, start), _comprehension_log(codes, seed, start)
    if got != want:  # one row: a long diff, redone at each Hypothesis shrink, took minutes
        pytest.fail(next((f"{g!r} != {w!r}" for g, w in zip(got.splitlines(), want.splitlines())
                          if g != w), f"{len(got)} != {len(want)} characters"))


@pytest.mark.parametrize("start, n", [
    (19_990, 20), (123_459_990, 20), (119_990, qkd42.QKD_CHUNK), (9_990, qkd42.QKD_CHUNK),
], ids=["19990_to_20009", "123459990_to_123460009", "three_blocks", "three_blocks_from_9990"])
def test_pulse_log_crosses_blocks_of_ten_thousand(start, n):
    # the log writes the last four digits from a table and the digits above
    # them once per block of 10^4, so a row run ends at each block and width
    for codes in (np.random.default_rng(start).integers(0, 32, n), np.arange(n) % 32 & ~2):
        _assert_log_matches(codes, 9, start)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 10 - 1), st.integers(1, 2 * qkd42.QKD_CHUNK),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_pulse_log_equals_the_row_comprehension(start, n, seed, monitor):
    # without monitor rows (as at theta = pi/2) no padding is dropped
    _assert_log_matches(np.random.default_rng(seed).integers(0, 32, n) & (31 if monitor else ~2),
                        seed, start)


@pytest.fixture
def formatting_threads(monkeypatch):
    """The threads that format pulse-log rows, one id per thread."""
    seen, formatted = set(), qkd42.pulse_log_csv

    def spy(codes, seed, start):
        seen.add(threading.get_ident())
        return formatted(codes, seed, start)

    monkeypatch.setattr(qkd42, "pulse_log_csv", spy)
    return seen


def test_a_logged_session_starts_no_thread(monkeypatch):
    counts, formatted = [], qkd42.pulse_log_csv

    def spy(codes, seed, start):
        counts.append(threading.active_count())
        return formatted(codes, seed, start)

    monkeypatch.setattr(qkd42, "pulse_log_csv", spy)
    before = threading.active_count()
    qkd42.run_session(qkd42.config_for_theta(math.pi / 2, n_pulses=3 * qkd42.QKD_CHUNK + 1,
                                             seed=5), io.StringIO())
    assert counts == [before] * 4


class _FailingLog(io.StringIO):
    def write(self, text):
        if self.tell():
            raise OSError(28, "No space left on device")
        return super().write(text)


@pytest.mark.parametrize("n", [16 * 7, 17 * 7, 100 * 7 + 1])
def test_a_failed_log_write_raises_from_the_session(n, monkeypatch):
    # the second chunk's write fails: it raises from the session, which runs
    # its chunks on the calling thread and leaves no thread behind
    monkeypatch.setattr(qkd42, "QKD_CHUNK", 7)
    before = threading.active_count()
    with pytest.raises(OSError, match="No space left"):
        qkd42.run_session(qkd42.config_for_theta(math.pi / 2, n_pulses=n, seed=5),
                          _FailingLog())
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [0, 2, 3, 5])
def test_an_exception_in_a_chunk_reaches_the_caller(failing, monkeypatch):
    monkeypatch.setattr(qkd42, "QKD_CHUNK", 7)
    formatted = qkd42.pulse_log_csv

    def fail_in_one_chunk(codes, seed, start):
        if start == 7 * failing:
            raise RuntimeError(f"chunk {failing}")
        return formatted(codes, seed, start)

    monkeypatch.setattr(qkd42, "pulse_log_csv", fail_in_one_chunk)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"chunk {failing}"):
        qkd42.run_session(qkd42.config_for_theta(math.pi / 2, n_pulses=200, seed=5),
                          io.StringIO())
    assert threading.active_count() == before


def test_session_memory_is_bounded():
    # 1e6 pulses drawn at once peak near 88 MiB; 16,384-pulse chunks on one
    # thread, with half-word chances and one-bit coins, peak at 0.44 MiB
    # (1.11 MiB in a process's first session, with its one-time allocations);
    # one thread of 8,192-pulse chunks peaked at 0.26 MiB, and 65,536-pulse
    # chunks of Generator draws at 3.7 MiB
    cfg = qkd42.config_for_theta(math.pi / 2, n_pulses=1_000_000, seed=3,
                                 eve_basis=0.0)
    tracemalloc.start()
    try:
        qkd42.run_session(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_streams_are_stable_and_separated():
    a = rng.stream(1, "alice_bits").integers(0, 2, 8)
    b = rng.stream(1, "alice_bits").integers(0, 2, 8)
    c = rng.stream(1, "bob_guesses").integers(0, 2, 8)
    d = rng.stream(2, "alice_bits").integers(0, 2, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
