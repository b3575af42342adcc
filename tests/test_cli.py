import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cmiplab import cli, qkd42
from cmiplab import entanglement_lab as elab
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
    assert cli.parse_angle("arcsin -0.5") == math.asin(-0.5)
    assert cli.parse_angle(" 1 / 9 pi ") == pytest.approx(math.pi / 9, abs=1e-15)


@pytest.mark.parametrize("bad", ["", "x", "1/0pi", "pip", "arcsin 2",
                                 "arcsin", "inf", "1:2", "--1", "- -1", "-+1",
                                 "+1", "+0.5", "arcsin +0.5", "1_0", "1e-1_0", "١",
                                 "１/２pi", "٣pi", "arcsin 0.1_0"])
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
    ("cmip", "--alpha", "1/4pi", "--betas", "-1e308:1e308:3", "--shots", "0"),
    ("entangle", "--alpha", "1", "--gamma2", "0", "--gamma1s", "-1e308:1e308:3", "--out", "x"),
], ids=["cmip_numerator", "cmip_denominator", "entangle_delta", "tomo_delta", "qkd_theta",
        "cmip_sweep_span", "entangle_sweep_span"])
def test_angles_past_the_float_range_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("opt, value, name", [("--gamma2", "1e308", "gamma2"),
                                              ("--gamma1s", "0:1e308:2", "gamma1")],
                         ids=["gamma2", "gamma1s"])
def test_entangle_plate_angles_outside_their_range_are_usage_errors(
        opt, value, name, tmp_path, monkeypatch, capsys):
    # the one error line names the plate and its range
    monkeypatch.chdir(tmp_path)
    args = {"--e-in": "0", "--gamma2": "0", "--gamma1s": "0:1/4pi:2", "--out": "fig", opt: value}
    assert run_cli("entangle", *(x for item in args.items() for x in item)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err == f"error: {name} = 1e+308 outside [0, pi/4]\n"


@pytest.mark.parametrize("argv, code, err", [
    (("qkd", "--gamma1=", "--pulses", "100"), 1, "error: cannot parse angle ''"),
    (("qkd", "--gamma2=", "--pulses", "100"), 1, "error: cannot parse angle ''"),
    (("tomo", "psi_plus(1/4pi)", "--counts-out="), 2, "error: cannot write : "),
    (("tomo", "psi_plus(1/4pi)", "--emit-target="), 2, "error: cannot write : "),
    (("qkd", "--log=", "--pulses", "100"), 2, "error: cannot write : "),
    (("entangle", "--e-in", "0.5", "--gamma2", "0", "--gamma1s", "0:0.5:3", "--out="), 2,
     "error: cannot write : "),
], ids=["qkd_gamma1", "qkd_gamma2", "tomo_counts_out", "tomo_emit_target", "qkd_log",
        "entangle_out"])
def test_an_empty_option_value_is_not_an_absent_option(argv, code, err, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(err) and captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())  # an empty path is no file name


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
    with pytest.raises(cli.UsageError, match="float range"):
        cli.parse_sweep("1e308:-1e308:3", "beta")  # the span overflows


@pytest.mark.parametrize("argv", [
    ("cmip", "--alpha", "1/4pi", "--betas", "0:pi:100000000000000000000", "--shots", "0"),
    ("cmip", "--alpha", "1/4pi", "--betas", "0:pi:9223372036854775807", "--shots", "0"),
    ("entangle", "--e-in", "0.5", "--gamma1s", "0:0.5:1000000000000", "--gamma2", "0",
     "--out", "fig"),
    # the cap: a sweep of 2^19 - 1 points peaks near 0.5 GiB
    ("cmip", "--alpha", "1/4pi", "--betas", f"0:pi:{2 ** 19}", "--shots", "10"),
    ("entangle", "--e-in", "0.5", "--gamma1s", f"0:0.5:{2 ** 19}", "--gamma2", "0",
     "--out", "fig"),
], ids=["cmip_1e20", "cmip_int64_max", "entangle_1e12", "cmip_2^19", "entangle_2^19"])
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
    assert f"< {cli.MAX_SWEEP_STEPS} steps" in err and "Traceback" not in err
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


#: numbers that int() and float() read, with a "_", a leading "+" or
#: non-ASCII digits, which the CLI refuses as it refuses them in angles
_E_IN = ("entangle", "--gamma2", "0", "--gamma1s", "0:0.5:3", "--out", "fig", "--e-in")


@pytest.mark.parametrize("argv, env_seed", [
    (("qkd", "--pulses", "10", "--seed", "1_0"), None),
    (("qkd", "--pulses", "10", "--seed", "١"), None),
    (("qkd", "--pulses", "10", "--seed", "+1"), None),
    (("qkd", "--pulses", "10"), "١"),
    (("qkd", "--pulses", "10"), "1_0"),
    (("qkd", "--pulses", "١٠"), None),
    (("qkd", "--pulses", "1_0"), None),
    (("cmip", "--alpha", "0.5", "--betas", "0.6:1:1_0", "--shots", "1_0"), None),
    (("cmip", "--alpha", "0.5", "--betas", "0.6:1:+3", "--shots", "0"), None),
    (("cmip", "--alpha", "0.5", "--betas", "0.6:1:3", "--shots", "+10"), None),
    (("tomo", "psi_plus(1)", "--shots", "١٠"), None),
    ((*_E_IN, "0.5_0"), None),
    ((*_E_IN, "٠.٥"), None),
    ((*_E_IN, "+0.5"), None),
    # non-ASCII spaces, which str.strip() would drop: ideographic, no-break, em
    (("qkd", "--pulses", "10", "--theta", "\u30001/3pi"), None),
    (("cmip", "--alpha", "\xa00.5", "--betas", "0.6:1:3", "--shots", "0"), None),
    (("cmip", "--alpha", "0.5", "--betas", "0.6:1\u2003:3", "--shots", "0"), None),
], ids=["seed_underscore", "seed_arabic", "seed_plus", "env_seed_arabic",
        "env_seed_underscore", "pulses_arabic", "pulses_underscore", "cmip_steps_and_shots",
        "cmip_steps_plus", "cmip_shots_plus", "tomo_shots_arabic", "e_in_underscore",
        "e_in_arabic", "e_in_plus", "theta_ideographic_space", "alpha_no_break_space",
        "betas_em_space"])
def test_every_number_keeps_the_angle_grammar(argv, env_seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if env_seed is None:
        monkeypatch.delenv(cli.ENV_SEED, raising=False)
    else:
        monkeypatch.setenv(cli.ENV_SEED, env_seed)
    assert cli.main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_number_reads_plain_ascii_numbers():
    assert cli.number(" 7 ", "n") == 7 and cli.number("-1", "n") == -1
    assert cli.number("0.5", "x", kind=float) == 0.5
    assert cli.number("1e3", "x", kind=float) == 1000.0
    for bad in ("1_0", "+1", " +1", "١", "１", "٠.٥", "x", ""):
        with pytest.raises(cli.UsageError):
            cli.number(bad, "n")


@pytest.mark.parametrize("argv, env_seed, err", [
    (("qkd", "--pulses", "10", "--seed", "1_0"), None, "seed '1_0' is not an integer"),
    (("qkd", "--pulses", "10"), "\u30001", "seed '\\u30001' is not an integer"),
    (("tomo", "psi_plus(1)", "--shots", "x"), None, "--shots 'x' is not an integer"),
    (("cmip", "--alpha", "0.5", "--betas", "0.6:1:+3"), None,
     "beta sweep step count '+3' is not an integer"),
    ((*_E_IN, "\xa00.5"), None, "--e-in '\\xa00.5' is not a number"),
    (("qkd", "--pulses", "1_0"), None, "--pulses '1_0' is not an integer"),
], ids=["seed", "env_seed", "shots", "sweep_steps", "e_in", "pulses"])
def test_a_refused_number_is_named_and_quoted(argv, env_seed, err, tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.chdir(tmp_path)
    if env_seed is None:
        monkeypatch.delenv(cli.ENV_SEED, raising=False)
    else:
        monkeypatch.setenv(cli.ENV_SEED, env_seed)
    assert cli.main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("argv, err", [
    # argv bytes that are not UTF-8 reach Python as surrogate escapes
    (("cmip", "--alpha", os.fsdecode(b"\xa00.5"), "--betas", "0.6:1:3"),
     r"cannot parse angle '\xa00.5'"),
    (("qkd", "--pulses", "10", "--seed", os.fsdecode(b"1\xff")), r"seed '1\xff' is not an integer"),
    (("tomo", os.fsdecode(b"psi_plus(\x80)")), r"cannot parse angle '\x80'"),
    # any other text is quoted by repr: a typed backslash, other non-ASCII text
    (("cmip", "--alpha", "\\udca0", "--betas", "0.6:1:3"), r"cannot parse angle '\\udca0'"),
    (("qkd", "--eve", "\u3000\ud800"), r"unknown eavesdropper policy '\u3000\ud800' "
     "(use intercept or intercept:<angle>)"),
], ids=["angle", "seed", "state_spec_argument", "typed_escape", "other_text"])
def test_a_refusal_quotes_undecodable_argv_by_its_bytes(argv, err, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err == f"error: {err}\n"


def test_state_specs(tmp_path):
    s = cli.parse_state_spec("psi_plus(1/4pi)")
    assert np.allclose(s.amps, [math.cos(math.pi / 8), math.sin(math.pi / 8)])
    m = cli.parse_state_spec("psi_minus(1/4pi)")
    assert np.allclose(m.amps, [math.cos(math.pi / 8), -math.sin(math.pi / 8)])
    pair = cli.parse_state_spec("two_photon(arcsin 0.51, 0)")
    half = math.asin(0.51) / 2
    assert np.allclose(pair.amps, [math.cos(half), 0, 0, math.sin(half)])
    # ASCII spaces around the spec and its arguments are allowed
    assert np.array_equal(cli.parse_state_spec(" two_photon( arcsin 0.51 , 0 ) ").amps,
                          pair.amps)
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


def _per_cell_entangle_files(e_in, alpha, grid, gamma2, res, seed):
    """The two entangle tables written cell by cell from the result arrays,
    as cmd_entangle did before it joined its rows: the byte reference."""
    n1 = [f"# seed={seed}\n", "E_in,alpha_rad,gamma1_rad,gamma2_rad,n1_closed,n1_sim\n"]
    e1 = [f"# seed={seed}\n", "gamma1_rad,e1_closed,e1_from_state,n1\n"]
    for i, g1 in enumerate(grid):
        n1.append(f"{e_in:.17g},{alpha:.17g},{g1:.17g},{gamma2:.17g},"
                  f"{res['n1_closed'][i]:.17g},{res['n1_state'][i]:.17g}\n")
        e1.append(f"{g1:.17g},{res['e1_closed'][i]:.17g},"
                  f"{res['e1_state'][i]:.17g},{res['n1_closed'][i]:.17g}\n")
    return "".join(n1), "".join(e1)


@pytest.mark.parametrize("case", range(6))
def test_entangle_tables_keep_every_byte_of_the_per_cell_rows(case, tmp_path):
    r = np.random.default_rng(case)
    steps = int(r.integers(2, 300))
    sweep = f"0:1/4pi:{steps}" if case % 2 else f"1/4pi:0:{steps}"  # both ends
    gamma2 = 0.0 if case < 2 else float(r.uniform(0.0, math.pi / 4))
    delta, seed = float(r.uniform(-math.pi, math.pi)), int(r.integers(0, 2 ** 63))
    if case % 3:
        e_in = float(r.uniform(0.0, 1.0))
        alpha, source = math.asin(e_in), ("--e-in", repr(e_in))
    else:
        alpha = float(r.uniform(0.0, math.pi))
        e_in, source = abs(math.sin(alpha)), (f"--alpha={alpha!r}",)
    prefix = tmp_path / "fig"
    assert run_cli("entangle", *source, f"--gamma2={gamma2!r}", "--gamma1s", sweep,
                   f"--delta={delta!r}", "--seed", str(seed), "--out", str(prefix)) == 0
    grid = cli.parse_sweep(sweep, "gamma1")
    res = elab.concentration_sweep(alpha, grid, gamma2, delta)
    assert ((tmp_path / "fig_n1.csv").read_text(), (tmp_path / "fig_e1.csv").read_text()) \
        == _per_cell_entangle_files(e_in, alpha, grid, gamma2, res, seed)


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
    # a string of symbols: iterating it would give ("H", "V")
    "symbols_string": json.dumps({"basis": [{"factor": "signal_pol", "symbols": "HV"}],
                                  "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}),
    # its squared norm is past the float range
    "overflow": json.dumps({"basis": _QUBIT_BASIS,
                            "amplitudes": [[1e200, 0.0], [0.0, 0.0]]}),
    # past the float range as a JSON integer: complex() would overflow
    "huge_integer": json.dumps({"basis": _QUBIT_BASIS,
                                "amplitudes": [[10 ** 400, 0], [0, 0]]}),
    # JSON true and false are not the numbers 1 and 0
    "bool_amplitude": json.dumps({"basis": _QUBIT_BASIS,
                                  "amplitudes": [[True, 0], [False, 0]]}),
    # deep enough to exhaust json.loads' recursion limit
    "nested": "[" * 990 + "]" * 990,
    # 64 two-symbol factors: dimension 2^64, which int64 wraps to 0
    "wide_basis": json.dumps({"basis": [{"factor": f"f{i}", "symbols": ["H", "V"]}
                                        for i in range(64)], "amplitudes": []}),
    "pair_swapped": json.dumps({
        "basis": [{"factor": "idler_pol", "symbols": ["H", "V"]},
                  {"factor": "signal_pol", "symbols": ["H", "V"]}],
        "amplitudes": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0.0]]}),
    "symbols_reversed": json.dumps({"basis": [{"factor": "signal_pol", "symbols": ["V", "H"]}],
                                    "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}),
    "path_only": json.dumps({"basis": [{"factor": "signal_path", "symbols": ["1", "2"]}],
                             "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}),
    # the basis is read first, so the amplitude past the float range is never reached
    "path_huge_integer": json.dumps({"basis": [{"factor": "signal_path", "symbols": ["1", "2"]}],
                                     "amplitudes": [[10 ** 400, 0], [0, 0]]}),
}
#: files whose basis is neither of the two a state file may hold
_REFUSED_BASES = ("eight_dim", "pol_and_path", "idler_only", "duplicate_symbols",
                  "symbols_string", "wide_basis", "pair_swapped", "symbols_reversed",
                  "path_only", "path_huge_integer")


@pytest.mark.parametrize("spec", [
    "two_photon(4, 0)", "two_photon(1,,0)", "psi_plus(,1)", "psi_plus(1,)",
    "two_photon(,1,0,)", "psi_plus(\u30001)", *(f"json:{name}" for name in _BAD_STATE_FILES)])
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
    if spec.removeprefix("json:") in _REFUSED_BASES:
        # the state loader rejects it, not tomography's basis match
        assert "basis must be signal_pol, or signal_pol then idler_pol" in err
    if spec in ("json:huge_integer", "json:bool_amplitude"):
        assert "two finite numbers, not bools" in err


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


def _child_env(unbuffered=False):
    """The environment of a child `python -m cmiplab`: it imports the same
    cmiplab as this process, whether installed or on the test path.  Its
    stdout is block-buffered into a file or pipe, or with `unbuffered`
    (PYTHONUNBUFFERED=1) written straight through, whatever this process
    was started with."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_console_entry_point_subprocess(tmp_path):
    # the real process must propagate exit codes and bytes
    env = _child_env()
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


FULL_DEVICE_ARGV = pytest.mark.parametrize(
    "argv", [("qkd", "--pulses", "10"), ("verify",), ("tomo", "psi_plus(1)"), ("--help",),
             ("cmip", "--help")], ids=["qkd", "verify", "tomo", "help", "cmip_help"])


def _run_into_full_device(argv, unbuffered):
    with open("/dev/full", "w") as full:
        res = subprocess.run([sys.executable, "-m", "cmiplab", *argv], stdout=full,
                             stderr=subprocess.PIPE, text=True, env=_child_env(unbuffered))
    assert res.returncode == 2
    assert res.stderr.startswith("error: cannot write stdout: ") and res.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@FULL_DEVICE_ARGV
def test_stdout_full_device_is_an_io_error(argv):
    # stdout is block-buffered into a file, so the write fails on the flush;
    # one error line and exit 2, and nothing more when the interpreter exits.
    # argparse prints --help and exits before any command runs
    _run_into_full_device(argv, unbuffered=False)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@FULL_DEVICE_ARGV
def test_unbuffered_stdout_full_device_is_an_io_error(argv):
    # with PYTHONUNBUFFERED, sys.stdout writes straight to the raw file
    _run_into_full_device(argv, unbuffered=True)


def test_stdout_pipe_closed_after_the_first_line_is_an_io_error():
    # 200 000 rows fill the pipe long before the sweep ends, so the child is
    # still writing when the reader goes away
    child = subprocess.Popen([sys.executable, "-m", "cmiplab", "cmip", "--alpha", "1/4pi",
                              "--betas", "0.1:3:200000", "--shots", "0", "--seed", "1"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 2
    assert first == b"# seed=1\n"
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1


def test_unbuffered_stdout_closed_after_the_first_line_is_an_io_error():
    # with PYTHONUNBUFFERED, sys.stdout writes through to the raw file, and a
    # pipe closed during one large write would cut it short without an error
    child = subprocess.Popen([sys.executable, "-m", "cmiplab", "cmip", "--alpha", "1/4pi",
                              "--betas", "0.1:3:200000", "--shots", "0", "--seed", "1"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=_child_env(unbuffered=True))
    assert child.stdout.readline() == b"# seed=1\n"
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 2
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_pulse_log_pipe_closed_after_the_first_line_is_an_io_error(unbuffered, tmp_path):
    # a 16 000-pulse log is one chunk and one write, far larger than a pipe
    # holds; unbuffered, that write used to end short and the run exit 0
    child = subprocess.Popen([sys.executable, "-m", "cmiplab", "qkd", "--pulses", "16000",
                              "--seed", "1", "--log", "-", "--out", str(tmp_path / "s.json")],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=_child_env(unbuffered))
    assert child.stdout.readline() == b"# seed=1\n"
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 2
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_three_outputs_to_stdout_in_one_run(unbuffered, tmp_path):
    # each output opens and closes stdout in turn; none of them may close fd 1
    files = tmp_path / "counts.csv", tmp_path / "target.json", tmp_path / "report.json"
    base = [sys.executable, "-m", "cmiplab", "tomo", "psi_plus(1)", "--seed", "1"]
    to_files = subprocess.run([*base, "--counts-out", str(files[0]), "--emit-target",
                               str(files[1]), "--out", str(files[2])], env=_child_env())
    assert to_files.returncode == 0
    res = subprocess.run([*base, "--counts-out", "-", "--emit-target", "-"],
                         capture_output=True, text=True, env=_child_env(unbuffered))
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == "".join(f.read_text(encoding="utf-8") for f in files)


# --- a grammar fuzzer for the whole CLI boundary ---

def _mostly(valid, edge):
    """Values from `valid` three times in four, else from `edge`."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else edge)


#: angle literals: the valid forms, then edge values and malformed ones
_angles = _mostly(
    st.one_of(st.floats(0.0, math.pi).map(repr),
              st.builds("{}/8pi".format, st.integers(0, 8)),
              st.sampled_from(("pi", "0.44pi", "arcsin 0.51", "-1/8pi", "1 / 9 pi"))),
    st.one_of(st.floats(-4.0, 4.0).map(repr),
              st.sampled_from(("-0", "-pi", "-arcsin 1", "arcsin 2", "1/0pi", "nan", "inf",
                               "-inf", "5e-324", "-5e-324", "2.2e-308", "1e-170",
                               str(2 ** 31), str(2 ** 63), "1e308", "-1e308", f"{HUGE}pi",
                               "", "x", "pip", "\u30001/8pi"))))
#: every step count, pulse count and shot count a run accepts is small;
#: oversize values come only from the range the CLI rejects
_OVERSIZE = (str(2 ** 63), str(2 ** 64), "1" * 30)
_steps = _mostly(st.integers(2, 64).map(str),
                 st.sampled_from(("-2", "0", "1", str(2 ** 19), str(2 ** 31), *_OVERSIZE,
                                  "x", "1.5", "")))
_sweeps = _mostly(st.builds("{}:{}:{}".format, _angles, _angles, _steps),
                  st.sampled_from(("0:pi", "0:1:2:3", "::", "0:pi:3:")))
#: entangle's plate angles: valid ones in [0, pi/4], edge ones outside it;
#: a plate sweep's edge values are the general sweep's
_valid_plates = st.one_of(st.floats(0.0, math.pi / 4).map(repr),
                          st.builds("{}/16pi".format, st.integers(0, 4)))
_plates = _mostly(_valid_plates,
                  st.one_of(st.floats(math.pi / 4, 4.0, exclude_min=True).map(repr),
                            st.sampled_from(("-5e-324", "-1/8pi", "1/2pi", "1e308", "nan", "x"))))
_plate_sweeps = _mostly(st.builds("{}:{}:{}".format, _valid_plates, _valid_plates, _steps),
                        _sweeps)
_BAD_COUNTS = ("-1", *_OVERSIZE, "1e3", "x", "")
_shots = _mostly(st.one_of(st.integers(0, 10 ** 4).map(str), st.just("exact")),
                 st.sampled_from((str(2 ** 63 - 1), *_BAD_COUNTS)))
_pulses = _mostly(st.integers(1, 10 ** 4).map(str), st.sampled_from(("0", *_BAD_COUNTS)))
_seeds = _mostly(st.integers(0, 2 ** 64 - 1).map(str),
                 st.sampled_from(("-1", str(2 ** 64), "x", "")))
_outs = _mostly(st.sampled_from(("out.txt", "-")), st.sampled_from((".", "nodir/out.txt")))
_state_files = {**_BAD_STATE_FILES,
                "qubit": json.dumps({"basis": _QUBIT_BASIS,
                                     "amplitudes": [[0.6, 0.0], [0.0, 0.8]]})}
_states = _mostly(
    st.one_of(st.builds("{}({})".format, st.sampled_from(
                  ("psi_plus", "psi_minus", "phi_plus", "phi_minus")), _angles),
              st.builds("two_photon({}, {})".format, _angles, _angles),
              st.just("json:../in/qubit")),
    st.sampled_from((*(f"json:../in/{name}" for name in _BAD_STATE_FILES), "json:../in/absent",
                     "bell()", "psi_plus(1, 2)", "two_photon(1)", "two_photon(1,,0)", "json:",
                     "psi_plus")))

#: the strategy for each option's value
_VALUES = {
    "--alpha": _angles, "--betas": _sweeps, "--shots": _shots, "--seed": _seeds,
    "--out": _outs, "--gamma2": _plates, "--gamma1s": _plate_sweeps, "--delta": _angles,
    "--e-in": _mostly(st.floats(0.0, 1.0).map(repr), st.sampled_from(("1.5", "-0.1", "nan", "x"))),
    "--counts-out": _outs, "--emit-target": _outs, "--theta": _angles, "--gamma1": _angles,
    "--gamma0": _angles, "--pulses": _pulses, "--log": _outs,
    "--eve": _mostly(st.sampled_from(("intercept", "intercept:1/8pi")),
                     st.one_of(st.just("teleport"), _angles.map("intercept:{}".format))),
    "--mutate": _mostly(st.just("gamma1"), st.just("gamma2")),
}
#: per subcommand, the options a run needs (a tuple: one of them), each
#: given nine times in ten, and the optional ones, each given half the time
_COMMANDS = {
    "cmip": (("--alpha", "--betas"), ("--shots", "--seed", "--out")),
    "entangle": ((("--e-in", "--alpha"), "--gamma2", "--gamma1s", "--out"),
                 ("--delta", "--seed")),
    "tomo": ((), ("--shots", "--seed", "--out", "--counts-out", "--emit-target")),
    "qkd": ((), ("--theta", "--gamma1", "--gamma2", "--gamma0", "--pulses", "--seed", "--eve",
                 "--log", "--out")),
    "verify": ((), ("--mutate",)),
}


@st.composite
def cli_argv(draw):
    command = draw(_mostly(st.sampled_from(list(_COMMANDS)),
                           st.sampled_from(("frobnicate", ""))))
    argv = [command] if command else []
    if command == "tomo":
        argv.append(draw(_states))
    needed, optional = _COMMANDS.get(command, ((), ()))
    chosen = [draw(st.sampled_from(o)) if isinstance(o, tuple) else o
              for o in needed if draw(st.integers(0, 9))]
    chosen += [o for o in optional if draw(st.booleans())]
    for opt in draw(st.permutations(chosen)):
        value = draw(_VALUES[opt])
        if draw(st.integers(0, 3)) == 0:  # argparse takes a unique prefix
            cut = draw(st.integers(3, len(opt)))
            opt = opt if "--help".startswith(opt[:cut]) else opt[:cut]
        argv += [f"{opt}={value}"] if draw(st.booleans()) else [opt, value]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("--bogus", "extra"))))
    return argv


def _run_in(where, argv):
    """cli.main on argv in a fresh directory: the exit code, stdout, stderr
    and the bytes of every file it wrote."""
    where.mkdir()
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(where)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    files = {str(p.relative_to(where)): p.read_bytes()
             for p in sorted(where.rglob("*")) if p.is_file()}
    return code, out.getvalue(), err.getvalue(), files


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
@example(argv=["entangle", "--gamma1s", "0:1e308:2", "--gamma2", "0", "--e-in", "0",
               "--out", "fig"])  # 2·γ1 overflowed in a numpy scalar: a warning line
@example(argv=["entangle", "--e-in", "0", "--gamma2", "1e308", "--gamma1s", "0:1:2",
               "--out", "fig"])  # cos(2·γ2) of an infinite angle: "math domain error"
def test_cli_grammar_fuzz(argv, tmp_path, monkeypatch):
    # any argv the grammar builds ends in a documented exit code, with no
    # escaping exception and at most one "error:" line; a run that succeeds
    # writes the same bytes again
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    inputs = tmp_path / "in"
    if not inputs.exists():
        inputs.mkdir()
        for name, data in _state_files.items():
            (inputs / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    runs = len(list(tmp_path.iterdir()))
    first = _run_in(tmp_path / f"run{runs}", argv)
    code, _, err, _ = first
    assert code in (0, 1, 2, 3)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1
                         and err.endswith("\n")), err
    if code == 0:
        assert _run_in(tmp_path / f"run{runs + 1}", argv) == first


# --- a fuzzer for the state file, the CLI's one file input ---

#: any JSON value, with the numbers a float cannot hold
_json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.floats(),
                         st.text(max_size=6),
                         st.sampled_from((10 ** 400, -10 ** 400, 5e-324, 1e308, -0.0)))
_json_values = st.recursive(_json_leaves, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
    st.text(max_size=6), kids, max_size=4), max_leaves=12)
#: extra keys, which a reader ignores
_extras = st.dictionaries(st.text(max_size=6), _json_values, max_size=2)
#: labels: the three the program names, then near misses, non-ASCII ones
#: (a Cyrillic "ѕ", a lone surrogate) and other JSON values
_labels = _mostly(st.sampled_from(("signal_pol", "idler_pol", "signal_path")),
                  st.one_of(st.sampled_from(("ѕignal_pol", "signal_pöl", "Signal_pol", "",
                                             "\ud800")),
                            st.text(max_size=12), _json_values))
_symbols = _mostly(st.just(["H", "V"]), st.one_of(
    st.sampled_from((["V", "H"], ["H", "H"], "HV", ["1", "2"], ["H"], ["H", "V", "D"], ["Н", "V"])),
    st.lists(st.text(max_size=2), max_size=3), _json_values))
_factors = _mostly(st.builds(lambda extra, lab, syms: {**extra, "factor": lab, "symbols": syms},
                             _extras, _labels, _symbols), _json_values)
_VALID_BASES = ([{"factor": "signal_pol", "symbols": ["H", "V"]}],
                [{"factor": "signal_pol", "symbols": ["H", "V"]},
                 {"factor": "idler_pol", "symbols": ["H", "V"]}])
_state_bases = _mostly(st.sampled_from(_VALID_BASES), st.one_of(
    st.lists(_factors, max_size=3), _factors.map(lambda f: [f] * 64), _json_values))
_parts = _mostly(st.floats(-1.0, 1.0), st.one_of(st.sampled_from(
    (math.nan, math.inf, -math.inf, 10 ** 400, True, False, 1e308, 5e-324, "0.5", None)),
    _json_values))


def _unit(parts):
    """(re, im) pairs of the unit vector along parts, or of |0⟩ if they are all 0."""
    norm = math.sqrt(sum(x * x for x in parts))
    parts = [x / norm for x in parts] if norm else [1.0] + [0.0] * (len(parts) - 1)
    return [parts[i:i + 2] for i in range(0, len(parts), 2)]


_amplitude_lists = _mostly(
    st.sampled_from((4, 8)).flatmap(lambda k: st.lists(st.floats(-1.0, 1.0), min_size=k,
                                                       max_size=k)).map(_unit),
    st.one_of(st.lists(_mostly(st.tuples(_parts, _parts).map(list),
                               st.one_of(st.lists(_parts, max_size=3), _json_values)),
                       max_size=9), _json_values))


@st.composite
def state_files(draw):
    """The bytes of a state file: mostly a document with a basis and
    amplitudes, either maybe missing, else any JSON value, maybe nested deep."""
    # the shape is drawn first: Hypothesis draws late choices small more often
    keep = [k for k in ("basis", "amplitudes") if draw(st.integers(0, 9))]
    whole = draw(st.integers(0, 9))
    depth = draw(_mostly(st.just(0), st.sampled_from((1, 50, 2000))))
    ascii_only = draw(st.booleans())
    doc = {**draw(_extras), "basis": draw(_state_bases), "amplitudes": draw(_amplitude_lists)}
    value = {k: v for k, v in doc.items() if k in keep or k not in ("basis", "amplitudes")}
    value = value if whole else draw(_json_values)
    text = "[" * depth + json.dumps(value, ensure_ascii=ascii_only) + "]" * depth
    return text.encode("utf-8", "surrogatepass")  # a lone surrogate is not UTF-8


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=state_files())
@example(data=_BAD_STATE_FILES["wide_basis"].encode())
@example(data=_BAD_STATE_FILES["path_huge_integer"].encode())
@example(data=json.dumps({"basis": _VALID_BASES[0] * 2,  # a duplicate label
                          "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}).encode())
@example(data=json.dumps({"basis": [{"factor": "\ud800", "symbols": ["H", "V"]}]},
                         ensure_ascii=False).encode("utf-8", "surrogatepass"))
def test_state_file_fuzz(data, tmp_path, monkeypatch):
    # any state file ends in a report (exit 0) or in one "error:" line with
    # exit 1 or 2, never in an escaping exception
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    path = tmp_path / "state.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["tomo", f"json:{path}"])
    err = err.getvalue()
    if code == 0:
        assert err == ""
        assert json.loads(out.getvalue())["basis"] in (["signal_pol"], ["signal_pol", "idler_pol"])
    else:
        assert code in (1, 2) and err.startswith("error: ") and err.count("\n") == 1, err
