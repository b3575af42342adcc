import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmiplab import cli, qkd42
from cmiplab.qcore import state_from_json


# --- parsing helpers ---

def test_angle_literals():
    assert cli.parse_angle("1/2pi") == math.pi / 2
    assert abs(cli.parse_angle("1/2pi") - 1.5707963268) < 1e-10
    assert cli.parse_angle("pi") == math.pi
    assert cli.parse_angle("2pi") == 2 * math.pi
    assert abs(cli.parse_angle("0.44pi") - 0.44 * math.pi) < 1e-15
    assert cli.parse_angle("-1/4pi") == -math.pi / 4
    assert cli.parse_angle("1.25") == 1.25
    assert cli.parse_angle("arcsin 0.51") == math.asin(0.51)
    assert cli.parse_angle("-arcsin 1") == -math.pi / 2
    assert cli.parse_angle(" 1 / 9 pi ") == pytest.approx(math.pi / 9, abs=1e-15)


@pytest.mark.parametrize("bad", ["", "x", "1/0pi", "pip", "arcsin 2",
                                 "arcsin", "inf", "1:2"])
def test_angle_literal_rejects_garbage(bad):
    with pytest.raises(cli.UsageError):
        cli.parse_angle(bad)


def test_angle_format_round_trip_is_stable():
    for text in ("1/2pi", "0.44pi", "-0.3", "arcsin 0.9"):
        once = repr(cli.parse_angle(text))
        twice = repr(cli.parse_angle(once))
        assert once == twice
        assert cli.parse_angle(once) == cli.parse_angle(text)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_angle_format_round_trip_keeps_every_finite_float(x):
    y = cli.parse_angle(repr(x))
    assert y == x and math.copysign(1.0, y) == math.copysign(1.0, x)


#: a decimal literal past the float range
HUGE = "1" * 400


@settings(max_examples=300, deadline=None)
@given(st.text() | st.from_regex(r"-?(\d{1,400}/\d{1,400}|\d{0,400}\.?\d{0,3})pi"
                                 r"|-?arcsin ?\d{0,400}\.?\d*|-?\d{1,400}(\.\d*)?",
                                 fullmatch=True))
@example(f"{HUGE}/1pi")
@example(f"1/{HUGE}pi")
@example(f"{HUGE}pi")
@example(f"-{HUGE}")
@example(f"{'1' * 5000}/1pi")  # past int()'s digit limit
def test_angle_literal_is_a_finite_float_or_a_usage_error(text):
    try:
        value = cli.parse_angle(text)
    except cli.UsageError:
        return
    assert isinstance(value, float) and math.isfinite(value)


@pytest.mark.parametrize("argv", [
    ("cmip", f"--alpha={HUGE}/1pi", "--betas", "0.9:1/2pi:4", "--shots", "0"),
    ("cmip", f"--alpha=1/{HUGE}pi", "--betas", "0.9:1/2pi:4", "--shots", "0"),
    ("entangle", "--e-in", "0.5", "--gamma2", "0", "--gamma1s", "0:0.5:3",
     f"--delta={HUGE}pi", "--out", "x"),
    ("tomo", f"two_photon(0.5, {HUGE}pi)"),
    ("qkd", f"--theta={HUGE}", "--pulses", "100"),
], ids=["cmip_numerator", "cmip_denominator", "entangle_delta", "tomo_delta", "qkd_theta"])
def test_angles_past_the_float_range_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sweep_spec():
    grid = cli.parse_sweep("0:pi:5", "beta")
    assert grid.shape == (5,)
    assert grid[0] == 0.0 and grid[-1] == math.pi
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(cli.UsageError):
        cli.parse_sweep("0:pi:1", "beta")
    with pytest.raises(cli.UsageError):
        cli.parse_sweep("0:pi", "beta")
    with pytest.raises(cli.UsageError):
        cli.parse_sweep("0:0:4", "beta")


@pytest.mark.parametrize("argv", [
    ("cmip", "--alpha", "1/4pi", "--betas", "0:pi:100000000000000000000", "--shots", "0"),
    ("cmip", "--alpha", "1/4pi", "--betas", "0:pi:9223372036854775807", "--shots", "0"),
    ("entangle", "--e-in", "0.5", "--gamma1s", "0:0.5:1000000000000", "--gamma2", "0",
     "--out", "fig"),
], ids=["cmip_1e20", "cmip_int64_max", "entangle_1e12"])
def test_huge_sweeps_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    # the step count is rejected before any grid exists
    grids = []

    def linspace(start, stop, num):
        grids.append(num)
        return num

    monkeypatch.setattr(cli.np, "linspace", linspace)
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2^31" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())
    assert grids == []
    assert cli.parse_sweep(f"0:pi:{cli.MAX_SWEEP_STEPS - 1}", "beta") \
        == cli.MAX_SWEEP_STEPS - 1


def test_seed_resolution(monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    assert cli.resolve_seed(None) == 42
    monkeypatch.setenv(cli.ENV_SEED, "99")
    assert cli.resolve_seed(None) == 99
    assert cli.resolve_seed("7") == 7
    monkeypatch.setenv(cli.ENV_SEED, "nope")
    with pytest.raises(cli.UsageError):
        cli.resolve_seed(None)
    with pytest.raises(cli.UsageError):
        cli.resolve_seed("-1")


def test_state_specs(tmp_path):
    s = cli.parse_state_spec("psi_plus(1/4pi)")
    assert np.allclose(s.amps, [math.cos(math.pi / 8), math.sin(math.pi / 8)])
    m = cli.parse_state_spec("psi_minus(1/4pi)")
    assert np.allclose(m.amps, [math.cos(math.pi / 8), -math.sin(math.pi / 8)])
    pair = cli.parse_state_spec("two_photon(arcsin 0.51, 0)")
    half = math.asin(0.51) / 2
    assert np.allclose(pair.amps, [math.cos(half), 0, 0, math.sin(half)])
    with pytest.raises(cli.UsageError):
        cli.parse_state_spec("bell()")
    with pytest.raises(cli.UsageError):
        cli.parse_state_spec("psi_plus(1,2)")
    # json round trip through a file
    from cmiplab.qcore import state_to_json
    path = tmp_path / "state.json"
    path.write_text(state_to_json(pair))
    back = cli.parse_state_spec(f"json:{path}")
    assert np.allclose(back.amps, pair.amps)


# --- subcommands, in process ---

def run_cli(*argv):
    return cli.main(list(argv))


def test_cmip_csv_output(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    out = tmp_path / "sweep.csv"
    code = run_cli("cmip", "--alpha", "1/4pi", "--betas", "0:pi:9",
                   "--shots", "5000", "--seed", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1] == "alpha_rad,beta_rad,p_closed_form,p_monte_carlo,shots,seed"
    assert len(lines) == 11
    first = lines[2].split(",")
    assert len(first) == 6 and first[4] == "5000" and first[5] == "3"
    # deterministic: a second run writes identical bytes
    out2 = tmp_path / "sweep2.csv"
    run_cli("cmip", "--alpha", "1/4pi", "--betas", "0:pi:9",
            "--shots", "5000", "--seed", "3", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_cmip_closed_form_only(tmp_path):
    out = tmp_path / "noshots.csv"
    assert run_cli("cmip", "--alpha", "1/4pi", "--betas", "0:pi:5",
                   "--shots", "0", "--out", str(out)) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
    assert all(r[3] == "" for r in rows)


def test_cmip_sweep_ending_at_alpha_samples_probability_one(tmp_path):
    # at beta = alpha the state-route probability is 1 + 4e-16, which the
    # binomial draw rejects unless it is clipped into [0, 1]
    out = tmp_path / "contract.csv"
    assert run_cli("cmip", "--alpha", "0.8pi", "--betas", "0.05:0.8pi:41",
                   "--shots", "10", "--out", str(out)) == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert last[0] == last[1] and float(last[3]) == 1.0


def test_cmip_closed_form_keeps_its_digits_at_underflowing_angles(tmp_path):
    # sin²(β/2) is subnormal here; the true probabilities are (α/β)²
    out = tmp_path / "tiny.csv"
    assert run_cli("cmip", "--alpha", "1e-161", "--betas", "3e-161:3e-160:2",
                   "--shots", "0", "--out", str(out)) == 0
    closed = [row.split(",")[2] for row in out.read_text().splitlines()[2:]]
    assert closed == ["0.111111111", "0.00111111111"]


@pytest.mark.parametrize("betas", ["1e-200:1e-170:2", "1e-305:1e-301:2"])
def test_cmip_at_underflowing_angles(betas, tmp_path, capsys):
    # sin²(β/2) is 0 in floating point for these β: no ZeroDivisionError,
    # and below β ≈ 2e-300 the solver still diverts |H⟩, so P = 0 both ways
    out = tmp_path / "tiny.csv"
    assert run_cli("cmip", "--alpha", "0", "--betas", betas, "--out", str(out)) == 0
    assert "Traceback" not in capsys.readouterr().err
    for row in out.read_text().splitlines()[2:]:
        assert row.split(",")[2:4] == ["0", "0"]  # closed form and state route


# 2**63 - 1 is the largest count numpy's binomial and array sizes accept
TOO_MANY = str(2 ** 63)


@pytest.mark.parametrize("argv", [
    ("cmip", "--alpha", "1/4pi", "--betas", "0.9:1/2pi:2", "--shots", TOO_MANY),
    ("cmip", "--alpha", "1/4pi", "--betas", "0.9:1/2pi:2",
     "--shots", "100000000000000000000"),
    ("tomo", "psi_plus(1)", "--shots", TOO_MANY),
    ("tomo", "psi_plus(1)", "--shots", "100000000000000000000"),
    ("qkd", "--theta", "1/2pi", "--pulses", TOO_MANY),
    ("qkd", "--theta", "1/2pi", "--pulses", "100000000000000000000"),
], ids=["cmip", "cmip_1e20", "tomo", "tomo_1e20", "qkd", "qkd_1e20"])
def test_counts_beyond_int64_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_shots_at_the_int64_limit_still_run(tmp_path):
    out = tmp_path / "limit.csv"
    assert run_cli("cmip", "--alpha", "1/4pi", "--betas", "0.9:1/2pi:2",
                   "--shots", str(2 ** 63 - 1), "--seed", "7", "--out", str(out)) == 0
    for row in out.read_text().splitlines()[2:]:
        _, _, closed, mc, shots, _ = row.split(",")
        assert int(shots) == 2 ** 63 - 1 and abs(float(mc) - float(closed)) < 1e-8


def test_entangle_writes_both_tables(tmp_path):
    prefix = tmp_path / "fig"
    code = run_cli("entangle", "--e-in", "0.51", "--gamma2", "1/9pi",
                   "--gamma1s", "0:1/4pi:7", "--out", str(prefix))
    assert code == 0
    n1 = (tmp_path / "fig_n1.csv").read_text().splitlines()
    e1 = (tmp_path / "fig_e1.csv").read_text().splitlines()
    assert n1[1] == "E_in,alpha_rad,gamma1_rad,gamma2_rad,n1_closed,n1_sim"
    assert e1[1] == "gamma1_rad,e1_closed,e1_from_state,n1"
    assert len(n1) == 9 and len(e1) == 9
    row = n1[2].split(",")
    assert float(row[0]) == 0.51
    assert abs(float(row[1]) - math.asin(0.51)) < 1e-15


def test_entangle_flag_exclusivity(tmp_path, capsys):
    code = run_cli("entangle", "--gamma2", "1/9pi", "--gamma1s", "0:1/4pi:5",
                   "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    code = run_cli("entangle", "--e-in", "0.5", "--alpha", "0.5",
                   "--gamma2", "1/9pi", "--gamma1s", "0:1/4pi:5",
                   "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tomo_report_and_round_trip(tmp_path):
    report_path = tmp_path / "report.json"
    target_path = tmp_path / "target.json"
    counts_path = tmp_path / "counts.csv"
    code = run_cli("tomo", "psi_plus(1/4pi)", "--shots", "exact",
                   "--out", str(report_path), "--emit-target", str(target_path),
                   "--counts-out", str(counts_path))
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["fidelity_vs_target"] == pytest.approx(1.0, abs=1e-8)
    assert counts_path.read_text().startswith("# seed=")
    target = state_from_json(target_path.read_text())
    assert abs(target.amps[0] - math.cos(math.pi / 8)) < 1e-15
    # feed the emitted state back in
    report2 = tmp_path / "again.json"
    assert run_cli("tomo", f"json:{target_path}", "--shots", "exact",
                   "--out", str(report2)) == 0
    doc2 = json.loads(report2.read_text())
    assert doc2["fidelity_vs_target"] == pytest.approx(1.0, abs=1e-8)


def test_tomo_two_photon_concurrence(capsys):
    assert run_cli("tomo", "two_photon(arcsin 0.51, 0)", "--shots", "exact") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["concurrence"] == pytest.approx(0.51, abs=1e-6)


_QUBIT_BASIS = [{"factor": "signal_pol", "symbols": ["H", "V"]}]
_BAD_STATE_FILES = {
    "eight_dim": json.dumps({
        "basis": [{"factor": f, "symbols": ["H", "V"]} for f in ("a", "b", "c")],
        "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}),
    "unnormalised": json.dumps({"basis": _QUBIT_BASIS,
                                "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}),
    "not_json": "{not json",
    "no_basis": json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}),
    "no_amplitudes": json.dumps({"basis": _QUBIT_BASIS}),
    "nan": json.dumps({"basis": _QUBIT_BASIS,
                       "amplitudes": [[math.nan, 0.0], [0.0, 0.0]]}),
    # an executable's header: not UTF-8 text
    "not_utf8": b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100)),
    # tomography measures polarization only: neither a path factor nor a
    # lone idler may pass as the signal_pol catalog
    "pol_and_path": json.dumps({
        "basis": [{"factor": "signal_pol", "symbols": ["H", "V"]},
                  {"factor": "signal_path", "symbols": ["1", "2"]}],
        "amplitudes": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0.0]]}),
    "idler_only": json.dumps({"basis": [{"factor": "idler_pol", "symbols": ["H", "V"]}],
                              "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}),
    "duplicate_symbols": json.dumps({"basis": [{"factor": "signal_pol", "symbols": ["H", "H"]}],
                                     "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}),
    # its squared norm is past the float range
    "overflow": json.dumps({"basis": _QUBIT_BASIS,
                            "amplitudes": [[1e200, 0.0], [0.0, 0.0]]}),
}


@pytest.mark.parametrize("spec", ["two_photon(4, 0)", *(
    f"json:{name}" for name in _BAD_STATE_FILES)])
def test_tomo_bad_state_is_a_usage_error(spec, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, data in _BAD_STATE_FILES.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    assert run_cli("tomo", spec, "--shots", "100") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if spec == "json:not_utf8":
        # names the file and gives the decoder's reason, not the bytes read
        assert "not_utf8" in err and "invalid start byte" in err and len(err) < 200
    if spec == "json:duplicate_symbols":
        # the state loader rejects it, not tomography's basis match
        assert "duplicate symbols in factor 'signal_pol'" in err


def test_tomo_nan_state_in_exact_mode_is_a_usage_error(tmp_path, capsys):
    # the exact Born probabilities of a NaN state would all be NaN
    path = tmp_path / "nan.json"
    path.write_text(_BAD_STATE_FILES["nan"])
    assert run_cli("tomo", f"json:{path}") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_tomo_unreadable_state_file_is_an_io_error(tmp_path, capsys):
    assert run_cli("tomo", f"json:{tmp_path / 'absent.json'}") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_qkd_json_and_log(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    out = tmp_path / "session.json"
    log = tmp_path / "pulses.csv"
    code = run_cli("qkd", "--theta", "1/3pi", "--pulses", "4000",
                   "--seed", "6", "--out", str(out), "--log", str(log))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 6 and doc["n_pulses"] == 4000
    assert doc["qber"] == 0.0
    lines = log.read_text().splitlines()
    assert lines[1] == "pulse,alice_bit,alice_output,bob_guess,result,bit"
    assert len(lines) == 4002
    # byte-identical on a rerun
    out2 = tmp_path / "session2.json"
    run_cli("qkd", "--theta", "1/3pi", "--pulses", "4000",
            "--seed", "6", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    assert cli.build_parser() is cli.build_parser()
    eve_out, plain_out = tmp_path / "eve.json", tmp_path / "plain.json"
    assert run_cli("qkd", "--eve", "intercept", "--pulses", "5000", "--seed", "3",
                   "--out", str(eve_out)) == 0
    assert run_cli("qkd", "--pulses", "5000", "--seed", "3", "--out", str(plain_out)) == 0
    want = qkd42.run_session(qkd42.QkdConfig(n_pulses=5000, seed=3))
    assert plain_out.read_text() == want.to_json() + "\n"
    assert json.loads(plain_out.read_text())["qber"] == 0.0
    assert json.loads(eve_out.read_text())["qber"] > 0.0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_qkd_log_full_device_is_an_io_error(capsys):
    # the log streams as the session runs; a failed write or flush is exit 2
    assert run_cli("qkd", "--pulses", "200000", "--log", "/dev/full") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full") and err.count("\n") == 1


@pytest.mark.parametrize("cmd, opt, angle, rest", [
    ("qkd", "--gamma0", "-1/8pi", ("--pulses", "500")),
    ("cmip", "--alpha", "-pi", ("--betas", "0:pi:3", "--shots", "0")),
    ("entangle", "--del", "-1/4pi",
     ("--e-in", "0.5", "--gamma2", "0", "--gamma1s", "0:0.5:3", "--out", "x")),
], ids=["qkd_gamma0", "cmip_alpha", "entangle_del_abbreviated"])
def test_negative_angle_after_a_space(cmd, opt, angle, rest, tmp_path, monkeypatch, capsys):
    # argparse would read "-1/8pi" as an option; the README allows a leading
    # minus on every angle, so both spellings must mean the same, also for an
    # option given by a prefix, as argparse allows
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    monkeypatch.chdir(tmp_path)
    runs = []
    for spelling in ((opt, angle), (f"{opt}={angle}",)):
        code = run_cli(cmd, *spelling, *rest)
        files = {p.name: p.read_text() for p in tmp_path.iterdir()}
        runs.append((code, capsys.readouterr(), files))
    assert runs[0] == runs[1]
    if cmd == "qkd":
        assert runs[0][0] == 0 and json.loads(runs[0][1].out)["n_pulses"] == 500
    if cmd == "entangle":
        assert runs[0][0] == 0 and set(runs[0][2]) == {"x_n1.csv", "x_e1.csv"}


def test_qkd_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "1234")
    assert run_cli("qkd", "--pulses", "1000") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 1234


def test_qkd_flag_validation(capsys):
    assert run_cli("qkd", "--theta", "1/3pi", "--gamma1", "0.2") == 1
    assert run_cli("qkd", "--eve", "teleport") == 1
    assert run_cli("qkd", "--gamma1", "1/6pi", "--gamma2", "1/12pi") == 1
    err = capsys.readouterr().err
    assert "gamma" in err


def test_exit_codes(tmp_path, capsys):
    assert run_cli() == 1                                   # no command
    assert run_cli("cmip", "--alpha", "nope", "--betas", "0:pi:4") == 1
    assert run_cli("cmip", "--alpha", "1/4pi", "--betas", "0:pi:4",
                   "--shots", "0", "--out", "/nonexistent/dir/x.csv") == 2
    assert run_cli("qkd", "--pulses", "100", "--log", "/nonexistent/dir/x.csv") == 2
    assert run_cli("frobnicate") == 1                       # unknown command
    capsys.readouterr()


def test_verify_exit_codes_and_mutation(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "[PASS] inner_product_contract" in out
    assert run_cli("verify", "--mutate", "gamma1") == 3
    out = capsys.readouterr().out
    assert "[FAIL] inner_product_contract" in out


def test_console_entry_point_subprocess(tmp_path):
    # the real process must propagate exit codes and bytes; it imports the
    # same cmiplab as this one, whether installed or on the test path
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    res = subprocess.run([sys.executable, "-m", "cmiplab", "qkd",
                          "--pulses", "500", "--seed", "1"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["seed"] == 1
    bad = subprocess.run([sys.executable, "-m", "cmiplab", "cmip",
                          "--alpha", "bogus", "--betas", "0:pi:4"],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 1
    assert "error:" in bad.stderr
