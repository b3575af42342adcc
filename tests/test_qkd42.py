import io
import math
import tracemalloc

import numpy as np
import pytest

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


def test_config_for_theta_balances_the_ports():
    for theta in (math.pi / 3, 0.4 * math.pi, math.pi / 2):
        cfg = qkd42.config_for_theta(theta)
        th1, th2 = qkd42.theta_angles(cfg.gamma1, cfg.gamma2)
        assert abs(th1 - theta) < 1e-12 and abs(th2 - theta) < 1e-12
        assert abs(qkd42.port_probability(cfg) - 0.5) < 1e-12


def test_family_states_are_normalized_with_overlap_cos_theta():
    cfg = qkd42.QkdConfig(gamma1=0.2, gamma2=0.3)
    table = qkd42._family_table(cfg)
    th1, th2 = qkd42.theta_angles(cfg.gamma1, cfg.gamma2)
    for port, theta in ((1, th1), (2, th2)):
        s0, s1 = table[0, port - 1], table[1, port - 1]
        assert abs(np.dot(s0, s0) - 1.0) < 1e-12
        assert abs(np.dot(s0, s1) - math.cos(theta)) < 1e-12


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
        math.pi / 3, n_pulses=n, seed=8, eve=qkd42.InterceptResend(0.0)))
    tilted = qkd42.run_session(qkd42.config_for_theta(
        math.pi / 3, n_pulses=n, seed=8, eve=qkd42.InterceptResend(math.pi / 8)))
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
                                     eve=qkd42.InterceptResend(eta))
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
    cfg = qkd42.config_for_theta(
        math.pi / 3, n_pulses=1000, seed=31,
        eve=None if eve is None else qkd42.InterceptResend(eve))

    def session():
        buf = io.StringIO()
        return qkd42.run_session(cfg, log=buf), buf.getvalue()

    whole = session()
    monkeypatch.setattr(qkd42, "QKD_CHUNK", 7)
    assert session() == whole


def _reference_session(cfg, log):
    """run_session's per-pulse chunk loop as it was before the outcome-code
    tables: amplitudes and probabilities recomputed for every pulse, and the
    log rows written one by one rather than through pulse_log_csv."""
    n = cfg.n_pulses
    alice_bits = rng.stream(cfg.seed, "alice_bits")
    alice_ports = rng.stream(cfg.seed, "alice_ports")
    eve = rng.stream(cfg.seed, "eve") if cfg.eve is not None else None
    bob_guesses = rng.stream(cfg.seed, "bob_guesses")
    bob_path = rng.stream(cfg.seed, "bob_path")
    bob_bits = rng.stream(cfg.seed, "bob_bits")
    p_port1 = qkd42.port_probability(cfg)
    table = qkd42._family_table(cfg)
    thetas = qkd42.theta_angles(cfg.gamma1, cfg.gamma2)
    cb = np.array([math.tan(thetas[0] / 2), math.tan(thetas[1] / 2)])
    if eve is not None:
        eta = cfg.eve.basis_angle
        e1 = np.array([math.cos(eta), math.sin(eta)])
        e2 = np.array([-math.sin(eta), math.cos(eta)])

    matched = sifted = errors = monitor_clicks = 0
    for start in range(0, n, qkd42.QKD_CHUNK):
        m = min(qkd42.QKD_CHUNK, n - start)
        bits = alice_bits.integers(0, 2, m)
        ports = np.where(alice_ports.random(m) < p_port1, 1, 2)
        arriving = table[bits, ports - 1]  # (m, 2) real amplitudes
        if eve is not None:
            got_e1 = eve.random(m) < (arriving @ e1) ** 2
            arriving = np.where(got_e1[:, None], e1, e2)

        guesses = bob_guesses.integers(1, 3, m)
        cb_used = cb[guesses - 1]
        h, v = arriving[:, 0], arriving[:, 1]
        p_path1 = (cb_used * h) ** 2 + v ** 2
        monitor = bob_path.random(m) >= p_path1
        with np.errstate(divide="ignore", invalid="ignore"):
            p_plus = np.where(p_path1 > 0, (cb_used * h + v) ** 2 / (2 * p_path1), 0.0)
        bob = np.where(bob_bits.random(m) < p_plus, 0, 1)
        if cfg.gamma0 < 0:
            # the public encoding sign tells Bob which ± outcome means bit 0
            bob = 1 - bob

        match = guesses == ports
        kept = match & ~monitor
        matched += int(match.sum())
        sifted += int(kept.sum())
        errors += int((bob[kept] != bits[kept]).sum())
        monitor_clicks += int(monitor.sum())
        if log is not None:
            if start == 0:
                log.write(f"# seed={cfg.seed}\n"
                          "pulse,alice_bit,alice_output,bob_guess,result,bit\n")
            for i in range(m):
                result = "monitor," if monitor[i] else f"conclusive,{bob[i]}"
                log.write(f"{start + i},{bits[i]},{ports[i]},{guesses[i]},{result}\n")

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


@pytest.mark.parametrize("n", [1, 6, 7, 8, 1000])
@pytest.mark.parametrize("gamma0", [math.pi / 8, -math.pi / 8], ids=["enc+", "enc-"])
@pytest.mark.parametrize("eve", [None, 0.0, math.pi / 8, ETA_RANDOM],
                         ids=["no_eve", "hv", "pi8", "eta_random"])
def test_session_equals_the_per_pulse_reference(eve, gamma0, n, monkeypatch):
    monkeypatch.setattr(qkd42, "QKD_CHUNK", 7)  # chunk boundaries inside n
    cfg = qkd42.QkdConfig(gamma1=0.2, gamma2=0.3, gamma0=gamma0, n_pulses=n,
                          seed=n * 7919 + 13,
                          eve=None if eve is None else qkd42.InterceptResend(eve))
    got_log, ref_log = io.StringIO(), io.StringIO()
    assert qkd42.run_session(cfg, got_log) == _reference_session(cfg, ref_log)
    assert got_log.getvalue() == ref_log.getvalue()


def test_session_memory_is_bounded():
    # 1e6 pulses drawn at once peak near 88 MiB; chunks keep it a few MiB
    cfg = qkd42.config_for_theta(math.pi / 2, n_pulses=1_000_000, seed=3,
                                 eve=qkd42.InterceptResend(0.0))
    tracemalloc.start()
    try:
        qkd42.run_session(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_streams_are_stable_and_separated():
    a = rng.stream(1, "alice_bits").integers(0, 2, 8)
    b = rng.stream(1, "alice_bits").integers(0, 2, 8)
    c = rng.stream(1, "bob_guesses").integers(0, 2, 8)
    d = rng.stream(2, "alice_bits").integers(0, 2, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c) or not np.array_equal(a, d)
    assert isinstance(rng.derive(1, "x", 3), int)
