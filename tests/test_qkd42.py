import math

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
        th1, th2 = cfg.thetas
        assert abs(th1 - theta) < 1e-12 and abs(th2 - theta) < 1e-12
        assert abs(qkd42.port_probability(cfg) - 0.5) < 1e-12


def test_family_states_are_normalized_with_overlap_cos_theta():
    cfg = qkd42.QkdConfig(gamma1=0.2, gamma2=0.3)
    table = qkd42._family_table(cfg)
    th1, th2 = cfg.thetas
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
    stats, pulses = qkd42.run_session(cfg, log=True)
    assert all(len(col) == cfg.n_pulses for col in pulses.values())
    assert stats == qkd42.run_session(cfg)
    monitor = pulses["monitor"]
    kept = (pulses["bob_guess"] == pulses["alice_output"]) & ~monitor
    assert kept.sum() == stats.sifted_key_length
    assert abs(monitor.mean() - stats.monitor_click_rate) < 1e-12
    errors = (pulses["bit"][kept] != pulses["alice_bit"][kept]).sum()
    assert errors / kept.sum() == stats.qber
    text = qkd42.pulse_log_csv(pulses, cfg.seed)
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[0] == "# seed=15"
    assert lines[1] == "pulse,alice_bit,alice_output,bob_guess,result,bit"
    assert len(lines) == cfg.n_pulses + 2
    # monitor rows leave the bit column empty; conclusive rows carry Bob's bit
    first_monitor = int(np.argmax(monitor))
    assert lines[2 + first_monitor].endswith(",monitor,")
    first_conclusive = int(np.argmin(monitor))
    row = lines[2 + first_conclusive].split(",")
    assert row[0] == str(first_conclusive) and row[4] == "conclusive"
    assert row[5] == str(pulses["bit"][first_conclusive])


def test_streams_are_stable_and_separated():
    a = rng.stream(1, "alice_bits").integers(0, 2, 8)
    b = rng.stream(1, "alice_bits").integers(0, 2, 8)
    c = rng.stream(1, "bob_guesses").integers(0, 2, 8)
    d = rng.stream(2, "alice_bits").integers(0, 2, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c) or not np.array_equal(a, d)
    assert isinstance(rng.derive(1, "x", 3), int)
