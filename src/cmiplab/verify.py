"""Self-contained invariant checks runnable from the CLI.

Each `_check_*` function returns its check's worst deviation, or for a
yes/no check its count of violations; `run_all` holds the tolerances and
the detail templates, so a `CheckResult` carries the numbers its detail
line is formatted from.  `run_all` accepts an alternative gamma1 solver so
intentional faults (mutation testing) can demonstrate that the physics
contracts actually bite.  The three (α, β) grid checks read one device
pass, which takes its expansion plate angles from that solver.

Draw order is output.  Draws of one kind come from one call, which gives
the same bits as the per-sample draws; where kinds interleave within a
sample they stay in a loop that fills preallocated arrays.  The state route
makes one batched engine call per stack; the closed forms stay on `math`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import entanglement_lab as elab
from . import interferometer as ifo
from . import qkd42, tomography
from .qcore import (POSTSELECT_MIN, apply_rows, check_density_rows, concurrences,
                    density_rows, normalize_rows, postselect_rows, row_norms)


@dataclass(frozen=True)
class CheckResult:
    """Passed means `worst` <= `tol`; a check that raised has worst = inf."""

    name: str
    passed: bool
    detail: str
    worst: float
    tol: float


def _unit_rows(z):
    """Rows z[i, 0] + i·z[i, 1] over their norms, from (n, 2, d) normal draws."""
    v = z[:, 0] + 1j * z[:, 1]
    return v / row_norms(v)[:, None]


def _mixed_rows(z):
    """g·g†/tr with g = z[i, 0] + i·z[i, 1], from (n, 2, d, d) normal draws."""
    g = z[:, 0] + 1j * z[:, 1]
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def _unitary_rows(z):
    """The QR factor Q of z[i, 0] + i·z[i, 1], times the phases of R's diagonal."""
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _check_unitarity(gen):
    n = 100
    plates, plates_g, z = np.empty((4, n)), np.empty((2, n)), np.empty((n, 2, 4))
    for i in range(n):
        a, b = gen.uniform(0, math.pi, size=2)
        plates[:, i] = ifo.plates(a, b, *gen.uniform(0, 2 * math.pi, size=2))
        z[i] = gen.normal(size=(2, 4))
        plates_g[:, i] = gen.uniform(0, math.pi / 4, size=2)
    out = apply_rows(ifo.device_unitary(*plates), _unit_rows(z))
    G = ifo.device_unitary(*plates_g)
    return max(np.max(np.abs(row_norms(out) - 1.0)),
               np.max(np.abs(G.conj().swapaxes(1, 2) @ G - np.eye(4))))


def _check_normalization(gen):
    repaired = normalize_rows(np.array([[1.0 + 3e-10, 0.0]], dtype=complex))
    violations = int(not abs(row_norms(repaired)[0] - 1.0) < 1e-15)
    try:
        normalize_rows(np.array([[1.01, 0.0]], dtype=complex))
        violations += 1
    except ValueError:
        pass
    return violations


def _check_postselect_completeness(gen):
    basis = ifo.FULL_BASIS
    amps = normalize_rows(_unit_rows(gen.normal(size=(50, 2, 8))))
    worst = 0.0
    for factor, syms in basis:
        total = sum(postselect_rows(amps, basis, factor, sym)[1] for sym in syms)
        worst = max(worst, np.max(np.abs(total - 1.0)))
    return worst


def _check_concurrence_pure(gen):
    v = _unit_rows(gen.normal(size=(1000, 2, 4)))
    c = concurrences(density_rows(v))  # Wootters: pure rows take the formula
    return np.max(np.abs(c - 2 * np.abs(v[:, 0] * v[:, 3] - v[:, 1] * v[:, 2])))


def _check_concurrence_local_unitary(gen):
    n = 200
    # per sample: 16 real and 16 imaginary parts of ρ's factor, then 4 + 4
    # for each of the two local unitaries
    z = gen.normal(size=(n, 48))
    rhos = _mixed_rows(z[:, :32].reshape(n, 2, 4, 4))
    u, v = (_unitary_rows(z[:, lo:lo + 8].reshape(n, 2, 2, 2)) for lo in (32, 40))
    UV = (u[:, :, None, :, None] * v[:, None, :, None, :]).reshape(n, 4, 4)  # kron(u, v)
    turned = UV @ rhos @ UV.conj().swapaxes(1, 2)
    return np.max(np.abs(concurrences(rhos) - concurrences(turned)))


def _check_delta_independence(gen):
    alphas, deltas = np.linspace(0.1, 3.0, 7), np.linspace(0.0, 2 * math.pi, 9)
    pairs = np.array([elab.prepare_two_photon(elab.TwoPhotonConfig(float(a), float(d))).amps
                      for a in alphas for d in deltas])
    pol, _ = postselect_rows(normalize_rows(pairs), ifo.FULL_BASIS, "signal_path", "1")
    br = ifo.evolve(pairs, 0.3, 0.2)
    e1 = elab.branch_concurrences(br.success, br.p_success)
    e2 = elab.branch_concurrences(br.failure, br.p_failure)
    vals = np.stack([concurrences(pol), br.p_success, e1, e2], axis=1).reshape(7, 9, 4)
    return np.max(np.abs(vals[:, 1:] - vals[:, :1]))


def _ab_grid():
    for alpha in np.arange(0.1, 3.05, 0.1):
        for beta in np.linspace(0.05, math.pi - 0.05, 30):
            yield float(alpha), float(beta)


def _grid_deviations(gamma1_solver):
    """Worst deviations of the device over the (α, β) grid, for both signs.

    Returns (⟨φ+|φ−⟩ vs cos β, success probability vs closed form, stray
    failure amplitude).  Each point's plate angles are solved here, by the
    branch rule of `ifo.plates` but with γ1 from `gamma1_solver`; then the
    grid's + and − inputs are evolved together in one `evolve` call.
    `run_all` memoises it for one call, bound to that call's solver.
    """
    grid = list(_ab_grid())
    n = len(grid)
    alphas, betas = np.array(grid).T
    g1, g2, p_closed = np.zeros((3, n))
    for i, (alpha, beta) in enumerate(grid):
        if alpha <= beta:
            g1[i] = gamma1_solver(alpha, beta)
        else:
            g2[i] = ifo.solve_gamma2(alpha, beta)
        p_closed[i] = ifo.closed_form_probability(alpha, beta)
    # rows: the + inputs of the grid, then its − inputs
    amps = np.concatenate([ifo.input_amps(alphas, sign) for sign in (+1, -1)])
    out = ifo.evolve(amps, np.tile(g1, 2), np.tile(g2, 2))
    plus, minus = out.success.reshape(2, n, 2)
    ip = (plus.conj()[:, None, :] @ minus[:, :, None])[:, 0, 0]
    worst_ip = float(max(np.max(np.abs(ip.real - np.cos(betas))),
                         np.max(np.abs(ip.imag))))
    worst_p = float(np.max(np.abs(out.p_success - np.tile(p_closed, 2))))
    # the failure branch holds a single mode: V for expansion, H for
    # contraction; the stray amplitude is the other one
    stray_mode = np.tile(np.where(alphas <= betas, 0, 1), 2)
    has_fail = out.p_failure >= POSTSELECT_MIN
    stray = np.abs(out.failure[np.arange(2 * n), stray_mode])[has_fail]
    return worst_ip, worst_p, float(np.max(stray, initial=0.0))


def _check_inner_product(gen, deviations):
    return deviations()[0]


def _check_probability_equivalence(gen, deviations):
    return deviations()[1]


def _check_usd_point(gen):
    return max(abs(ifo.closed_form_probability(a, math.pi / 2) - (1 - math.cos(a)))
               for a in np.arange(0.1, 1.55, 0.1).tolist())


def _check_monotonicity(gen):
    violations = 0
    for alpha in np.arange(0.2, 3.0, 0.2).tolist():
        for to in (math.pi, 0.0):  # up, then down from β = α
            p = [ifo.closed_form_probability(alpha, b) for b in np.linspace(alpha, to, 40).tolist()]
            violations += sum(not x >= y - 1e-12 for x, y in zip(p, p[1:]))
    return violations


def _check_failure_purity(gen, deviations):
    return deviations()[2]


def _pair_grid():
    """The two-photon checks' 1000 (α, γ1, γ2) as float lists, α outermost, γ2 innermost."""
    plates = np.linspace(0.0, math.pi / 4, 10)
    return [g.ravel().tolist() for g in np.meshgrid(np.linspace(0.15, math.pi - 0.15, 10),
                                                    plates, plates, indexing="ij")]


def _closed_pair_grid():
    """Closed-form (n1, n2, e1, e2) rows over `_pair_grid()`, NaN for an empty branch."""
    return np.array([elab.output_entanglement(*p) for p in zip(*_pair_grid())], dtype=float)


def _check_entanglement_brute_force(gen, closed_grid):
    alphas, g1s, g2s = _pair_grid()
    pairs = np.repeat([elab.prepare_two_photon(elab.TwoPhotonConfig(a, 0.4)).amps
                       for a in alphas[::100]], 100, axis=0)
    br = ifo.evolve(pairs, g1s, g2s)
    e1 = elab.branch_concurrences(br.success, br.p_success)
    e2 = elab.branch_concurrences(br.failure, br.p_failure)
    brute = np.stack([br.p_success, br.p_failure, e1, e2], axis=1)
    # an empty branch (NaN on either side) has nothing to compare
    return np.nanmax(np.abs(closed_grid() - brute))


def _check_predicate_equivalence(gen, closed_grid):
    mismatches = 0
    for alpha, g1, g2, e1 in zip(*_pair_grid(), closed_grid()[:, 2].tolist()):
        pred = elab.concentration_predicate(alpha, g1, g2)
        if math.isnan(e1):
            continue  # empty branch: nothing to compare
        e_in = abs(math.sin(alpha))
        mismatches += e1 < e_in - 1e-12 if pred else e1 > e_in + 1e-12
    return mismatches


def _check_tomography_round_trip(gen):
    # draw order is output: each round draws a one-qubit, then a two-qubit state
    z = {1: np.empty((10, 2, 2, 2)), 2: np.empty((10, 2, 4, 4))}
    for i in range(10):
        for draws in z.values():
            draws[i] = gen.normal(size=draws.shape[1:])
    worst = 0.0
    for n, draws in z.items():
        check_density_rows(rhos := _mixed_rows(draws))
        estimates = tomography.estimate_rows(n, np.clip(tomography.CATALOG[n].born(rhos), 0.0, 1.0))
        check_density_rows(estimates)
        worst = max(worst, np.max(np.abs(estimates - rhos)))
    return worst


def _check_qkd_no_eve(gen):
    qbers = [qkd42.run_session(qkd42.config_for_theta(theta, n_pulses=20_000, seed=7)).qber
             for theta in (math.pi / 3, math.pi / 2)]
    return max(q or 0.0 for q in qbers)  # None: nothing sifted, nothing wrong


def _check_determinism(gen):
    _, a = ifo.success_probability_sweep(0.7, [1.9], 5000, 42)
    _, b = ifo.success_probability_sweep(0.7, [1.9], 5000, 42)
    cfg = qkd42.QkdConfig(n_pulses=5000, seed=42)
    return (not np.array_equal(a, b)) + (qkd42.run_session(cfg) != qkd42.run_session(cfg))


def run_all(gamma1_solver=None, seed: int = 20260824) -> list[CheckResult]:
    """Run every invariant check; `gamma1_solver` overrides the device solver
    inside the interferometer contracts (mutation-testing hook)."""
    deviations = functools.cache(lambda: _grid_deviations(gamma1_solver or ifo.solve_gamma1))
    closed_grid = functools.cache(_closed_pair_grid)  # both live for this call only
    # name, check, its extra arguments, tolerance, detail template for worst
    checks = [
        ("unitarity_preservation", _check_unitarity, (), 1e-12,
         "worst unitarity deviation {:.2e}"),
        ("normalization_repair", _check_normalization, (), 0,
         "repairs 1e-9 deviations, rejects 1e-2"),
        ("postselect_completeness", _check_postselect_completeness, (), 1e-12,
         "worst probability-sum deviation {:.2e}"),
        ("concurrence_pure_equivalence", _check_concurrence_pure, (), 1e-9,
         "worst |Wootters − 2|ad−bc|| = {:.2e}"),
        ("concurrence_local_unitary_invariance", _check_concurrence_local_unitary, (), 1e-9,
         "worst local-unitary deviation {:.2e}"),
        ("delta_independence", _check_delta_independence, (), 1e-12,
         "worst delta dependence {:.2e}"),
        ("inner_product_contract", _check_inner_product, (deviations,), 1e-9,
         "worst ⟨φ+|φ−⟩ − cos β deviation {:.2e}"),
        ("probability_equivalence", _check_probability_equivalence, (deviations,), 1e-12,
         "worst amplitude-vs-closed-form gap {:.2e}"),
        ("usd_idp_point", _check_usd_point, (), 1e-12,
         "worst |P(α,π/2) − (1−cos α)| = {:.2e}"),
        ("probability_monotonicity", _check_monotonicity, (), 0,
         "P never increases as β moves away from α on either side"),
        ("failure_state_purity", _check_failure_purity, (deviations,), 1e-9,
         "worst stray failure amplitude {:.2e}"),
        ("entanglement_closed_vs_brute", _check_entanglement_brute_force, (closed_grid,), 1e-9,
         "worst closed-form-vs-state gap {:.2e}"),
        ("concentration_predicate_equivalence", _check_predicate_equivalence, (closed_grid,), 0,
         "{:.0f} predicate mismatches"),
        ("tomography_round_trip", _check_tomography_round_trip, (), 1e-8,
         "worst exact-mode reconstruction error {:.2e}"),
        ("qkd_no_eve_errorfree", _check_qkd_no_eve, (), 0,
         "qber exactly 0 without an eavesdropper"),
        ("seeded_determinism", _check_determinism, (), 0,
         "identical seeds give identical counts and session stats"),
    ]
    results = []
    for name, fn, extra, tol, template in checks:
        gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        try:
            worst = float(fn(gen, *extra))
            detail = template.format(worst)
        except Exception as exc:  # a crash is a failure, not an abort
            worst, detail = math.inf, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, worst <= tol, detail, worst, tol))
    return results
