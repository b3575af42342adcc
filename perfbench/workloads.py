"""The three workloads: their inputs, warm-up and operations.

Every workload is driven through `cmiplab.cli.main(argv)` in-process, with
outputs written to a scratch directory.  A workload is a list of operations
that make one round; a run repeats whole rounds.  Each operation's inputs
come from the benchmark seed only, so a round repeats the same work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (CheckFailed, check_cmip, check_counts, check_entangle,
                    check_pulse_log, check_session, check_state_json, check_tomo,
                    check_verify, concentrated_amps, concentrated_concurrence,
                    linspace, two_photon_amps)

SWEEP_POINTS = 100
MC_SHOTS = 10_000
TOMO_SHOTS = 10_000
LOG_PULSES = 10_000
SESSION_PULSES = 1_000_000
VERIFY_ROUND = 4          # verify runs per round; one of them is mutated
# a concurrence reconstructed from 1e4 shots per setting is off by 0.011 rms
# (0.027 at worst over 300 reconstructions); 0.05 is about 4.5 times the rms
CONCURRENCE_TOL = 0.05


@dataclass
class Op:
    """One operation: CLI calls run in order, then checked.

    `check(exit_codes, stdout, texts)` receives the text of every file in
    `outputs`, keyed by file name, and raises CheckFailed on a wrong output.
    """

    label: str
    calls: list[list[str]]
    outputs: list[Path]
    check: Callable


def _num(x: float) -> str:
    return repr(float(x))


def _require_ok(rcs):
    if any(rc != 0 for rc in rcs):
        raise CheckFailed(f"exit codes {rcs}")


def paper_figures(seed: int, scratch: Path) -> list[Op]:
    """One pass of the script that regenerates the paper's data."""
    r = random.Random(seed)
    cli_seed = lambda: r.randrange(1, 2 ** 31)  # noqa: E731
    f = lambda name: scratch / name  # noqa: E731

    # cmip: expand (alpha below every beta) and contract (above every beta)
    ax, sx = r.uniform(0.55, 0.85), cli_seed()
    ac, sc = r.uniform(2.25, 2.45), cli_seed()
    bx = (0.9, math.pi / 2)
    bc = (0.3, 2.2)
    # entangle: gamma2 = 0 from --e-in, gamma2 != 0 from --alpha
    e_in, s_e0 = r.uniform(0.45, 0.6), cli_seed()
    alpha_e, g2_e, s_e1 = r.uniform(0.8, 1.3), r.uniform(0.1, 0.3), cli_seed()
    g1s = linspace(0.0, math.pi / 4, SWEEP_POINTS)
    # tomo: the input pair, a concentrated pair, one single-qubit state
    alpha_t, s_t1 = r.uniform(0.5, 1.2), cli_seed()
    alpha_cp, g1_cp, s_t2 = math.asin(e_in), r.uniform(0.35, 0.5), cli_seed()
    a_q, s_t3 = r.uniform(0.5, 2.5), cli_seed()
    # qkd: logged sessions at theta = pi/2, without and with H/V intercept
    s_q1, s_q2 = cli_seed(), cli_seed()

    conc_in = f("concentrated_in.json")
    write_concentrated_pair(conc_in, alpha_cp, g1_cp)

    calls = [
        ["cmip", "--alpha", _num(ax), "--betas", f"{_num(bx[0])}:1/2pi:{SWEEP_POINTS}",
         "--shots", str(MC_SHOTS), "--seed", str(sx), "--out", str(f("cmip_expand.csv"))],
        ["cmip", "--alpha", _num(ac), "--betas", f"{_num(bc[0])}:{_num(bc[1])}:{SWEEP_POINTS}",
         "--shots", str(MC_SHOTS), "--seed", str(sc), "--out", str(f("cmip_contract.csv"))],
        ["entangle", "--e-in", _num(e_in), "--gamma1s", f"0:1/4pi:{SWEEP_POINTS}",
         "--gamma2", "0", "--seed", str(s_e0), "--out", str(f("conc0"))],
        ["entangle", "--alpha", _num(alpha_e), "--gamma1s", f"0:1/4pi:{SWEEP_POINTS}",
         "--gamma2", _num(g2_e), "--seed", str(s_e1), "--out", str(f("conc1"))],
        ["tomo", f"two_photon({_num(alpha_t)}, 0)", "--shots", str(TOMO_SHOTS),
         "--seed", str(s_t1), "--out", str(f("tomo_pair.json")),
         "--emit-target", str(f("tomo_pair_target.json")),
         "--counts-out", str(f("tomo_pair_counts.csv"))],
        ["tomo", f"json:{conc_in}", "--shots", str(TOMO_SHOTS), "--seed", str(s_t2),
         "--out", str(f("tomo_conc.json")), "--emit-target", str(f("tomo_conc_target.json"))],
        ["tomo", f"psi_plus({_num(a_q)})", "--shots", str(TOMO_SHOTS), "--seed", str(s_t3),
         "--out", str(f("tomo_qubit.json"))],
        ["qkd", "--theta", "1/2pi", "--pulses", str(LOG_PULSES), "--seed", str(s_q1),
         "--log", str(f("qkd_log.csv")), "--out", str(f("qkd_log.json"))],
        ["qkd", "--theta", "1/2pi", "--pulses", str(LOG_PULSES), "--seed", str(s_q2),
         "--eve", "intercept", "--log", str(f("qkd_eve_log.csv")),
         "--out", str(f("qkd_eve_log.json"))],
    ]
    outputs = [f(n) for n in (
        "cmip_expand.csv", "cmip_contract.csv", "conc0_n1.csv", "conc0_e1.csv",
        "conc1_n1.csv", "conc1_e1.csv", "tomo_pair.json", "tomo_pair_target.json",
        "tomo_pair_counts.csv", "tomo_conc.json", "tomo_conc_target.json",
        "tomo_qubit.json", "qkd_log.csv", "qkd_log.json", "qkd_eve_log.csv",
        "qkd_eve_log.json")]

    def check(rcs, stdout, texts):
        _require_ok(rcs)
        t = lambda name: texts[name]  # noqa: E731
        check_cmip(t("cmip_expand.csv"), ax, linspace(bx[0], bx[1], SWEEP_POINTS),
                   MC_SHOTS, sx)
        check_cmip(t("cmip_contract.csv"), ac, linspace(bc[0], bc[1], SWEEP_POINTS),
                   MC_SHOTS, sc)
        check_entangle(t("conc0_n1.csv"), t("conc0_e1.csv"), math.asin(e_in), e_in,
                       g1s, 0.0, s_e0)
        check_entangle(t("conc1_n1.csv"), t("conc1_e1.csv"), alpha_e,
                       abs(math.sin(alpha_e)), g1s, g2_e, s_e1)
        pair = two_photon_amps(alpha_t)
        check_state_json(t("tomo_pair_target.json"), pair, 2)
        check_counts(t("tomo_pair_counts.csv"), TOMO_SHOTS, s_t1)
        check_tomo(t("tomo_pair.json"), pair, abs(math.sin(alpha_t)), CONCURRENCE_TOL)
        conc = concentrated_amps(alpha_cp, g1_cp, 0.0)
        check_state_json(t("tomo_conc_target.json"), conc, 2)
        check_tomo(t("tomo_conc.json"), conc,
                   concentrated_concurrence(alpha_cp, g1_cp, 0.0), CONCURRENCE_TOL)
        check_tomo(t("tomo_qubit.json"), [math.cos(a_q / 2), math.sin(a_q / 2)],
                   None, 0.0)
        for name, eve in (("qkd_log", None), ("qkd_eve_log", 0.0)):
            stats = check_session(t(f"{name}.json"), math.pi / 2, eve, LOG_PULSES,
                                  s_q1 if eve is None else s_q2)
            check_pulse_log(t(f"{name}.csv"), stats)

    return [Op("figures_pass", calls, outputs, check)]


def write_concentrated_pair(path: Path, alpha: float, gamma1: float):
    """Input for the tomography of a concentrated pair: the path-1 branch of
    the filtered pair, made by the library and saved as JSON."""
    from cmiplab import entanglement_lab as elab
    from cmiplab.qcore import state_to_json
    pair = elab.prepare_two_photon(elab.TwoPhotonConfig(alpha, 0.0))
    phi1 = elab.apply_cmip_signal(pair, gamma1, 0.0).phi1
    path.write_text(state_to_json(phi1), encoding="utf-8")


THETAS = (("1/3pi", math.pi / 3), ("1/2pi", math.pi / 2))
EVES = ((None, None), ("intercept", 0.0), ("intercept:1/8pi", math.pi / 8))


def qkd_sessions(seed: int, scratch: Path) -> list[Op]:
    """Stats-only sessions over theta x eavesdropper, each with its own seed."""
    r = random.Random(seed)
    ops = []
    for theta_txt, theta in THETAS:
        for eve_txt, eve in EVES:
            s = r.randrange(1, 2 ** 31)
            out = scratch / f"session_{len(ops)}.json"
            argv = ["qkd", "--theta", theta_txt, "--pulses", str(SESSION_PULSES),
                    "--seed", str(s), "--out", str(out)]
            if eve_txt is not None:
                argv += ["--eve", eve_txt]

            def check(rcs, stdout, texts, out=out, theta=theta, eve=eve, s=s):
                _require_ok(rcs)
                check_session(texts[out.name], theta, eve, SESSION_PULSES, s)

            ops.append(Op(f"session theta={theta_txt} eve={eve_txt}", [argv], [out], check))
    return ops


def verify_gate(seed: int, scratch: Path) -> list[Op]:
    """`cmiplab verify` runs; one run per round is `--mutate gamma1`.

    verify takes no seed of its own, so the benchmark seed only picks where
    in the round the mutated run falls.
    """
    mutated_at = random.Random(seed).randrange(VERIFY_ROUND)
    ops = []
    for i in range(VERIFY_ROUND):
        mutated = i == mutated_at
        argv = ["verify", "--mutate", "gamma1"] if mutated else ["verify"]

        def check(rcs, stdout, texts, mutated=mutated):
            check_verify(rcs[0], stdout, mutated)

        ops.append(Op("verify --mutate gamma1" if mutated else "verify", [argv], [], check))
    return ops


WORKLOADS = {
    "paper_figures": paper_figures,
    "qkd_sessions": qkd_sessions,
    "verify_gate": verify_gate,
}


def warm_up(scratch: Path):
    """One small call into each layer (verify is only imported: its one
    entry point is a full pass)."""
    import cmiplab.verify  # noqa: F401
    from cmiplab import cli, qkd42, rng, tomography
    from cmiplab import entanglement_lab as elab
    from cmiplab import interferometer as ifo
    from cmiplab.qcore import DensityMatrix, postselect

    ifo.run_cmip(+1, ifo.plan_for(0.5, 1.0))
    postselect(ifo.input_state(0.5, +1), "signal_path", "1")
    elab.apply_cmip_signal(elab.prepare_two_photon(elab.TwoPhotonConfig(0.5)), 0.2, 0.1)
    rho = DensityMatrix.from_state(ifo.target_state(0.7, +1))
    tomography.reconstruct(tomography.simulate_counts(rho, 100, 1))
    qkd42.run_session(qkd42.config_for_theta(math.pi / 2, n_pulses=1000, seed=1))
    rng.stream(1, "warm_up").random()
    rc = cli.main(["cmip", "--alpha", "0.5", "--betas", "0.6:1.0:2", "--shots", "10",
                   "--seed", "1", "--out", str(scratch / "warm_up.csv")])
    if rc != 0:
        raise RuntimeError(f"warm-up cmip call exited {rc}")
