"""Output checks made apart from the program.

Expected values come from the paper's closed forms written out here with
`math`; matrix checks (eigenvalues, concurrence) use numpy directly.  Nothing
here calls into cmiplab.  Every check raises `CheckFailed` with a reason.
"""

from __future__ import annotations

import json
import math

import numpy as np

SIGMAS = 5.0


class CheckFailed(Exception):
    pass


def require(ok: bool, reason: str):
    if not ok:
        raise CheckFailed(reason)


def close(got: float, want: float, tol: float, what: str):
    require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} ± {tol:g}")


def linspace(start: float, stop: float, steps: int) -> list[float]:
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def read_csv(text: str, header: str) -> tuple[int, list[list[str]]]:
    """Seed from the `# seed=` line, then the rows after `header`."""
    lines = text.split("\n")
    require(lines[0].startswith("# seed="), f"CSV opens with {lines[0][:20]!r}")
    require(lines[1] == header, f"CSV header {lines[1]!r}")
    require(lines[-1] == "", "CSV does not end in a newline")
    return int(lines[0][len("# seed="):]), [ln.split(",") for ln in lines[2:-1]]


# -- cmip -------------------------------------------------------------------

def cmip_probability(alpha: float, beta: float) -> float:
    if alpha <= beta:
        return math.sin(alpha / 2) ** 2 / math.sin(beta / 2) ** 2
    return math.cos(alpha / 2) ** 2 / math.cos(beta / 2) ** 2


def check_cmip(text: str, alpha: float, betas: list[float], shots: int, seed: int):
    got_seed, rows = read_csv(
        text, "alpha_rad,beta_rad,p_closed_form,p_monte_carlo,shots,seed")
    require(got_seed == seed, f"cmip seed {got_seed} != {seed}")
    require(len(rows) == len(betas), f"cmip rows {len(rows)} != {len(betas)}")
    for row, beta in zip(rows, betas):
        a, b, p_cf, p_mc = (float(x) for x in row[:4])
        require(int(row[4]) == shots and int(row[5]) == seed, f"cmip row {row}")
        close(a, alpha, 1e-8 * alpha, "cmip alpha")
        close(b, beta, 1e-8 * beta, "cmip beta")
        p = cmip_probability(alpha, beta)
        close(p_cf, p, 2e-8 * p + 1e-15, f"cmip closed form at beta={beta}")
        sigma = math.sqrt(p * (1.0 - p) / shots)
        close(p_mc, p, SIGMAS * sigma + 1e-9, f"cmip Monte Carlo at beta={beta}")


# -- entangle ---------------------------------------------------------------

def check_entangle(n1_text: str, e1_text: str, alpha: float, e_in: float,
                   gamma1s: list[float], gamma2: float, seed: int):
    s1, n1_rows = read_csv(n1_text, "E_in,alpha_rad,gamma1_rad,gamma2_rad,n1_closed,n1_sim")
    s2, e1_rows = read_csv(e1_text, "gamma1_rad,e1_closed,e1_from_state,n1")
    require(s1 == seed and s2 == seed, f"entangle seeds {s1}, {s2} != {seed}")
    require(len(n1_rows) == len(e1_rows) == len(gamma1s),
            f"entangle rows {len(n1_rows)}, {len(e1_rows)} != {len(gamma1s)}")
    ca, sa = math.cos(alpha / 2) ** 2, math.sin(alpha / 2) ** 2
    c2 = math.cos(2 * gamma2)
    for nrow, erow, g1 in zip(n1_rows, e1_rows, gamma1s):
        e, a, g1_got, g2_got, n1_cf, n1_sim = (float(x) for x in nrow)
        g1_e, e1_cf, e1_state, n1_e = (float(x) for x in erow)
        close(e, e_in, 1e-12, "entangle E_in")
        close(a, alpha, 1e-12, "entangle alpha")
        close(g1_got, g1, 1e-12, "entangle gamma1")
        require(g1_e == g1_got and g2_got == gamma2, "entangle angle columns")
        c1 = math.cos(2 * g1)
        n1 = ca * c1 ** 2 + sa * c2 ** 2
        close(n1_cf, n1, 1e-12, f"n1 closed form at gamma1={g1}")
        require(n1_e == n1_cf, "n1 columns of the two files differ")
        close(n1_sim, n1_cf, 1e-9, f"n1 state route at gamma1={g1}")
        e1 = e_in * abs(c1 * c2) / n1
        close(e1_cf, e1, 1e-12 * max(1.0, 1.0 / n1), f"e1 closed form at gamma1={g1}")
        close(e1_state, e1_cf, 1e-9, f"e1 state route at gamma1={g1}")


# -- tomo -------------------------------------------------------------------

def two_photon_amps(alpha: float) -> list[complex]:
    """cos(a/2)|HH⟩ + sin(a/2)|VV⟩ in (HH, HV, VH, VV) order."""
    return [math.cos(alpha / 2), 0.0, 0.0, math.sin(alpha / 2)]


def concentrated_amps(alpha: float, gamma1: float, gamma2: float) -> list[complex]:
    """Path-1 branch of the filtered pair, normalized."""
    h = math.cos(alpha / 2) * math.cos(2 * gamma1)
    v = math.sin(alpha / 2) * math.cos(2 * gamma2)
    n = math.hypot(h, v)
    return [h / n, 0.0, 0.0, v / n]


def concentrated_concurrence(alpha: float, gamma1: float, gamma2: float) -> float:
    c1, c2 = math.cos(2 * gamma1), math.cos(2 * gamma2)
    n1 = math.cos(alpha / 2) ** 2 * c1 ** 2 + math.sin(alpha / 2) ** 2 * c2 ** 2
    return abs(math.sin(alpha)) * abs(c1 * c2) / n1


def wootters(rho: np.ndarray) -> float:
    """Concurrence from the eigenvalues of ρ·(σy⊗σy)ρ*(σy⊗σy)."""
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    r = rho @ flip @ rho.conj() @ flip
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def check_state_json(text: str, amps: list[complex], n_qubits: int):
    doc = json.loads(text)
    want_factors = ["signal_pol", "idler_pol"][:n_qubits]
    factors = [f["factor"] for f in doc["basis"]]
    require(factors == want_factors, f"state factors {factors}")
    got = [complex(re, im) for re, im in doc["amplitudes"]]
    require(len(got) == len(amps), f"state has {len(got)} amplitudes")
    worst = max(abs(g - w) for g, w in zip(got, amps))
    require(worst <= 1e-12, f"state amplitudes off by {worst:.2e}")


def check_tomo(report_text: str, amps: list[complex], concurrence: float | None,
               conc_tol: float):
    doc = json.loads(report_text)
    rho = np.array([[complex(re, im) for re, im in row] for row in doc["rho_hat"]])
    d = len(amps)
    require(rho.shape == (d, d), f"rho_hat shape {rho.shape}")
    require(np.abs(rho - rho.conj().T).max() <= 1e-10, "rho_hat not Hermitian")
    close(float(np.trace(rho).real), 1.0, 1e-10, "rho_hat trace")
    lo = float(np.linalg.eigvalsh(rho)[0])
    require(lo >= -1e-10, f"rho_hat eigenvalue {lo:.3e} < 0")
    psi = np.array(amps, dtype=complex)
    fid = float(np.vdot(psi, rho @ psi).real)
    close(doc["fidelity_vs_target"], fid, 1e-9, "reported fidelity")
    require(fid >= 0.98, f"fidelity {fid:.4f} < 0.98")
    if concurrence is None:
        require(doc["concurrence"] is None, "single-qubit report has a concurrence")
        return
    c = wootters(rho)
    close(doc["concurrence"], c, 1e-6, "reported concurrence")
    close(c, concurrence, conc_tol, "reconstructed concurrence")


def check_counts(text: str, shots: int, seed: int):
    got_seed, rows = read_csv(text, "setting,count,shots,seed")
    require(got_seed == seed and len(rows) == 36, "counts table seed/size")
    labels = "HVDARL"
    require(sorted(r[0] for r in rows) == sorted(a + b for a in labels for b in labels),
            "counts table settings")
    for setting, count, shots_txt, seed_txt in rows:
        require(0 <= int(count) <= shots == int(shots_txt), f"count {count} for {setting}")
        require(int(seed_txt) == seed, "counts row seed")


# -- qkd --------------------------------------------------------------------

def qkd_expectation(theta: float, eve_angle: float | None) -> tuple[float, float]:
    """(conclusive rate, QBER) for equal family angles theta.

    Both families send cos(θ/2)|H⟩ ± sin(θ/2)|V⟩ (bit 0 is +).  Eve, if
    present, projects onto (cos η, sin η) or (−sin η, cos η) and resends it.
    Bob, on a matched guess, scales H by tan(θ/2) and reads ± on path 1.
    """
    cb = math.tan(theta / 2)
    conclusive = errors = 0.0
    for bit, sign in ((0, 1.0), (1, -1.0)):
        h0, v0 = math.cos(theta / 2), sign * math.sin(theta / 2)
        if eve_angle is None:
            arrivals = [(1.0, h0, v0)]
        else:
            c, s = math.cos(eve_angle), math.sin(eve_angle)
            arrivals = [((h0 * c + v0 * s) ** 2, c, s),
                        ((-h0 * s + v0 * c) ** 2, -s, c)]
        for p, h, v in arrivals:
            plus, minus = (cb * h + v) ** 2 / 2, (cb * h - v) ** 2 / 2
            conclusive += 0.5 * p * (plus + minus)
            errors += 0.5 * p * (minus if bit == 0 else plus)
    return conclusive, errors / conclusive


def check_session(stats_text: str, theta: float, eve_angle: float | None,
                  n_pulses: int, seed: int) -> dict:
    st = json.loads(stats_text)
    keys = ["n_pulses", "sifted_key_length", "conclusive_rate", "qber",
            "monitor_click_rate", "seed"]
    require(list(st) == keys, f"session keys {list(st)}")
    require(st["n_pulses"] == n_pulses and st["seed"] == seed, "session size/seed")
    sifted, rate, qber = st["sifted_key_length"], st["conclusive_rate"], st["qber"]
    require(sifted > 0, "empty sifted key")
    want_rate, want_qber = qkd_expectation(theta, eve_angle)
    if eve_angle is None or eve_angle == 0.0:
        # the literal figure: unambiguous discrimination succeeds 1 − cos θ
        close(want_rate, 1.0 - math.cos(theta), 1e-12, "expected conclusive rate")
    matched = sifted / rate
    sigma = math.sqrt(want_rate * (1 - want_rate) / matched)
    close(rate, want_rate, SIGMAS * sigma + 1e-12, "conclusive rate")
    if eve_angle is None:
        require(qber == 0.0, f"QBER {qber} without an eavesdropper")
    else:
        if theta == math.pi / 2:
            literal = 0.5 if eve_angle == 0.0 else 0.25
            close(want_qber, literal, 1e-12, "expected intercept QBER")
        sigma = math.sqrt(want_qber * (1 - want_qber) / sifted)
        close(qber, want_qber, SIGMAS * sigma, "QBER")
    return st


def check_pulse_log(text: str, stats: dict):
    seed, rows = read_csv(text, "pulse,alice_bit,alice_output,bob_guess,result,bit")
    require(seed == stats["seed"], f"log seed {seed}")
    require(len(rows) == stats["n_pulses"], f"log has {len(rows)} rows")
    sifted = errors = 0
    for i, (pulse, bit, out, guess, result, bob) in enumerate(rows):
        require(int(pulse) == i, f"log row {i} numbered {pulse}")
        if result == "conclusive" and out == guess:
            sifted += 1
            errors += bob != bit
        elif result not in ("conclusive", "monitor"):
            raise CheckFailed(f"log result {result!r}")
    require(sifted == stats["sifted_key_length"],
            f"log sifted {sifted} != {stats['sifted_key_length']}")
    close(errors / sifted, stats["qber"], 1e-15, "log QBER")


# -- verify -----------------------------------------------------------------

MUTATION_FAILURES = ("inner_product_contract", "probability_equivalence")
VERIFY_CHECKS = 16         # invariant checks one verify pass prints


def check_verify(rc: int, stdout: str, mutated: bool) -> list[str]:
    lines = stdout.splitlines()
    results = [ln for ln in lines if ln.startswith(("[PASS] ", "[FAIL] "))]
    require(len(results) == VERIFY_CHECKS and len(lines) == VERIFY_CHECKS + 1,
            f"verify printed {len(results)} check lines")
    names = [ln[7:].split(":", 1)[0] for ln in results]
    failed = [n for n, ln in zip(names, results) if ln.startswith("[FAIL]")]
    want_failed = list(MUTATION_FAILURES) if mutated else []
    require(failed == want_failed, f"verify failed checks {failed}")
    require(rc == (3 if mutated else 0), f"verify exit code {rc}")
    require(lines[-1] == f"{VERIFY_CHECKS - len(failed)}/{VERIFY_CHECKS} checks passed",
            f"verify summary {lines[-1]!r}")
    return names
