"""Golden-output gate: fixed CLI runs must reproduce their stored bytes.

Each case runs `cli.main` in a fresh directory and compares every file it
writes, plus its standard output, byte for byte with `tests/golden/<case>/`.
The stored files are the outputs of the code before the device and session
refactor, so a refactor that changes any printed digit fails here.  Some
cases also rest on numpy's Generator methods, Philox's raw stream or LAPACK;
`tests/test_canaries.py` pins those calls, and a failure here names the
canaries of its case.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from cmiplab import cli
from test_canaries import canaries_of

GOLDEN = Path(__file__).parent / "golden"

# (case, argv, exit code); output paths are relative to the run directory
CASES = [
    ("cmip_expand", ["cmip", "--alpha", "1/4pi", "--betas", "1/4pi:pi:41",
                     "--shots", "100000", "--seed", "11", "--out", "sweep.csv"], 0),
    ("cmip_contract", ["cmip", "--alpha", "0.8pi", "--betas", "0.05:0.75pi:41",
                       "--shots", "4096", "--seed", "12", "--out", "sweep.csv"], 0),
    ("entangle_gamma2_zero", ["entangle", "--e-in", "0.51", "--gamma2", "0",
                              "--gamma1s", "0:1/4pi:101", "--seed", "13",
                              "--out", "fig"], 0),
    ("entangle_gamma2", ["entangle", "--alpha", "1/3pi", "--gamma2", "1/9pi",
                         "--gamma1s", "0:1/4pi:101", "--seed", "14", "--out", "fig"], 0),
    ("entangle_delta", ["entangle", "--alpha", "0.7", "--gamma2", "0.3",
                        "--delta", "0.9", "--gamma1s", "0:1/4pi:101",
                        "--seed", "15", "--out", "fig"], 0),
    ("tomo_one_exact", ["tomo", "psi_plus(1/4pi)", "--shots", "exact", "--seed", "16",
                        "--out", "report.json", "--counts-out", "counts.csv",
                        "--emit-target", "target.json"], 0),
    ("tomo_one_shots", ["tomo", "phi_minus(0.6pi)", "--shots", "10000", "--seed", "17",
                        "--out", "report.json", "--counts-out", "counts.csv",
                        "--emit-target", "target.json"], 0),
    ("tomo_two_exact", ["tomo", "two_photon(arcsin 0.51, 1/5pi)", "--shots", "exact",
                        "--seed", "18", "--out", "report.json",
                        "--counts-out", "counts.csv", "--emit-target", "target.json"], 0),
    ("tomo_two_shots", ["tomo", "two_photon(1.1, 0)", "--shots", "10000", "--seed", "19",
                        "--out", "report.json", "--counts-out", "counts.csv",
                        "--emit-target", "target.json"], 0),
    ("qkd_no_eve", ["qkd", "--theta", "1/3pi", "--pulses", "2000", "--seed", "20",
                    "--out", "session.json", "--log", "pulses.csv"], 0),
    ("qkd_intercept", ["qkd", "--theta", "1/2pi", "--pulses", "2000", "--seed", "21",
                       "--eve", "intercept", "--out", "session.json",
                       "--log", "pulses.csv"], 0),
    ("qkd_intercept_pi8", ["qkd", "--theta", "1/2pi", "--pulses", "2000", "--seed", "22",
                           "--eve", "intercept:1/8pi", "--out", "session.json",
                           "--log", "pulses.csv"], 0),
    ("qkd_stats_only", ["qkd", "--gamma1", "0.2", "--gamma2", "0.3",
                        "--gamma0=-1/8pi", "--pulses", "50000", "--seed", "23"], 0),
    ("verify", ["verify"], 0),
    ("verify_mutate_gamma1", ["verify", "--mutate", "gamma1"], 3),
]


@pytest.mark.parametrize("case,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(case, argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(argv)) == code
    produced = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    stdout = capsys.readouterr().out
    if stdout:
        produced["stdout.txt"] = stdout.encode()
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, (
            f"{case}/{name} differs from the golden copy; if a canary in "
            f"tests/test_canaries.py fails too ({', '.join(canaries_of(case)) or 'none'} "
            f"for this case), numpy or its LAPACK moved the call it names")


@pytest.mark.parametrize("case", ["entangle_gamma2_zero", "entangle_gamma2", "entangle_delta"])
def test_entangle_state_route_is_within_1e15_of_the_closed_form(case):
    # the state route reads each pure path-1 branch as 2|ad − bc|
    with open(GOLDEN / case / "fig_e1.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    closed, state = (np.array([float(r[k]) for r in rows]) for k in ("e1_closed", "e1_from_state"))
    assert len(rows) == 101 and not np.isnan(closed).any()
    assert np.max(np.abs(state - closed)) <= 1e-15
