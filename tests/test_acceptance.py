"""Top-level acceptance gate: one test per release criterion, printed as a
PASS/FAIL summary after the run.  Expected values are frozen outputs of
independently written closed-form oracles; two documented literals that the
closed forms contradict are kept as strict expected failures rather than
silently adjusted."""

import math
import time

import numpy as np
import pytest

from cmiplab import entanglement_lab as elab
from cmiplab import interferometer as ifo
from cmiplab import qkd42, tomography, verify
from cmiplab.qcore import DensityMatrix, StateVector, polarization_basis

SEED = 20260824

# frozen oracle values (gamma2 = pi/9 throughout the concentration criteria)
PEAK_G1 = 0.6795980255630659       # branch-1 peak location for E = 0.51
PEAK_N1 = 0.08205302977505978      # branch probability at that peak
UPPER_CROSSING = 0.756591212911803  # second e1 = E crossing
COMMON_N1 = 0.5868240888334652     # cos^2(2 pi/9)


def test_criterion_1_discrimination_limit(acceptance):
    with acceptance("criterion 1: unambiguous-discrimination limit"):
        start = time.perf_counter()
        for a in np.arange(0.1, 1.51, 0.1):
            p = ifo.closed_form_probability(float(a), math.pi / 2)
            assert abs(p - (1 - math.cos(a))) < 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_probability_curves(acceptance):
    note = "Monte Carlo vs closed form, 1e5 shots/point"
    with acceptance("criterion 2: success-probability curves", note):
        start = time.perf_counter()
        shots = 100_000
        betas = np.linspace(0.0, math.pi, 64)
        for alpha in (math.pi / 2, math.pi / 4):
            closed, mc = ifo.success_probability_sweep(alpha, betas, shots, SEED)
            bound = 4 * np.sqrt(closed * (1 - closed) / shots)
            assert np.all(np.abs(mc - closed) <= bound + 1e-12)
            # the curve touches 1 exactly where the device does nothing
            assert ifo.closed_form_probability(alpha, alpha) == 1.0
            c_at, mc_at = ifo.success_probability_sweep(
                alpha, np.array([alpha]), shots, SEED)
            assert c_at[0] == 1.0 and mc_at[0] == 1.0
        assert time.perf_counter() - start < 30.0


def test_criterion_3_inner_product_contract(acceptance):
    with acceptance("criterion 3: output inner product equals cos(beta)"):
        start = time.perf_counter()
        worst = 0.0
        for alpha in np.linspace(0.1, 3.0, 30):
            for beta in np.linspace(0.05, math.pi - 0.05, 30):
                plan = ifo.plan_for(float(alpha), float(beta))
                sp = ifo.run_cmip(+1, plan).success[0]
                sm = ifo.run_cmip(-1, plan).success[0]
                ip = complex(np.vdot(sp, sm))
                worst = max(worst, abs(ip - math.cos(beta)))
        assert worst < 1e-9, worst
        assert time.perf_counter() - start < 5.0


def test_criterion_4_branch_probability_curves(acceptance):
    with acceptance("criterion 4: branch-probability curves intersect"):
        start = time.perf_counter()
        grid = np.linspace(0.0, math.pi / 4, 46)
        assert abs(grid[20] - math.pi / 9) < 1e-15
        for e_in in (0.51, 0.74, 0.90):
            alpha = math.asin(e_in)
            ca, sa = math.cos(alpha / 2) ** 2, math.sin(alpha / 2) ** 2
            for g1 in grid:
                n1, _ = elab.branch_probabilities(alpha, float(g1), math.pi / 9)
                direct = (ca * math.cos(2 * g1) ** 2
                          + sa * math.cos(2 * math.pi / 9) ** 2)
                assert abs(n1 - direct) < 1e-12
            n1_common, _ = elab.branch_probabilities(alpha, math.pi / 9, math.pi / 9)
            assert abs(n1_common - COMMON_N1) < 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_5_concentration_curve(acceptance):
    note = ("peak n1 literal 0.081986 tracked separately as an expected "
            "failure; closed form gives 0.0820530")
    with acceptance("criterion 5: concentration window and peak", note):
        start = time.perf_counter()
        e_in, g2 = 0.51, math.pi / 9
        alpha = math.asin(e_in)
        state = elab.prepare_two_photon(elab.TwoPhotonConfig(alpha))
        for g1 in np.linspace(0.0, math.pi / 4, 61):
            e1, _ = elab.output_entanglement(e_in, float(g1), g2, alpha)
            n1, _ = elab.branch_probabilities(alpha, float(g1), g2)
            direct = e_in * abs(math.cos(2 * g1) * math.cos(2 * g2)) / n1
            assert abs(e1 - direct) < 1e-9
            br = elab.apply_cmip_signal(state, float(g1), g2)
            assert abs(e1 - br.e1) < 1e-9
        # window edges: crossing at gamma1 = gamma2 and the frozen upper root
        e_at_g2, _ = elab.output_entanglement(e_in, g2, g2, alpha)
        assert abs(e_at_g2 - e_in) < 1e-12

        def gap(g1):
            return elab.output_entanglement(e_in, g1, g2, alpha)[0] - e_in

        lo, hi = 0.7, 0.78
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        assert abs(crossing - UPPER_CROSSING) < 1e-9
        assert abs(crossing / math.pi - 0.24083) < 1e-5
        # unit-concurrence peak
        g1max = elab.solve_max_entanglement(alpha, g2, branch=1)
        assert abs(g1max - PEAK_G1) < 1e-9
        assert abs(g1max / math.pi - 0.21633) < 1e-5
        e_peak, _ = elab.output_entanglement(e_in, g1max, g2, alpha)
        assert abs(e_peak - 1.0) < 1e-9
        assert abs(elab.apply_cmip_signal(state, g1max, g2).e1 - 1.0) < 1e-9
        n1_peak, _ = elab.branch_probabilities(alpha, g1max, g2)
        assert abs(n1_peak - PEAK_N1) < 1e-9
        assert time.perf_counter() - start < 10.0


@pytest.mark.xfail(strict=True, reason=(
    "at E=0.51, gamma2=pi/9 the branch probability at the unit-concurrence "
    "peak is 0.0820530; the quoted 0.081986 misses it by 6.7e-5, far beyond "
    "the 1e-6 tolerance"))
def test_criterion_5_peak_probability_quoted_literal():
    alpha = math.asin(0.51)
    g1max = elab.solve_max_entanglement(alpha, math.pi / 9, branch=1)
    n1_peak, _ = elab.branch_probabilities(alpha, g1max, math.pi / 9)
    assert abs(n1_peak - 0.081986) <= 1e-6


def test_criterion_6_predicate_equivalence(acceptance):
    with acceptance("criterion 6: concentration predicate equivalence"):
        start = time.perf_counter()
        mismatches = 0
        for alpha in np.linspace(0.05, math.pi - 0.05, 20):
            e_in = abs(math.sin(alpha))
            for g1 in np.linspace(0.0, math.pi / 4, 20):
                for g2 in np.linspace(0.0, math.pi / 4, 20):
                    pred = elab.concentration_predicate(
                        float(alpha), float(g1), float(g2))
                    e1, _ = elab.output_entanglement(e_in, g1, g2, alpha)
                    if e1 is None:
                        continue  # empty branch: no state to compare
                    if pred and e1 < e_in - 1e-12:
                        mismatches += 1
                    elif not pred and e1 > e_in + 1e-12:
                        mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - start < 10.0


def test_criterion_7_tomography_round_trip(acceptance):
    note = "exact mode <= 1e-8; F > 0.99 median at 1e4 shots"
    with acceptance("criterion 7: tomography round trip", note):
        start = time.perf_counter()
        gen = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(100):
            for n, dim in ((1, 2), (2, 4)):
                basis = tomography._basis_for(n)
                v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
                rho = DensityMatrix.from_state(StateVector(basis, v / np.linalg.norm(v)))
                rep = tomography.reconstruct(tomography.simulate_counts(rho, None, 0))
                worst = max(worst, float(np.max(np.abs(rep.rho_hat.matrix - rho.matrix))))
        assert worst <= 1e-8, worst
        pol = polarization_basis()
        for half in (math.pi / 8, 0.22 * math.pi):
            target = StateVector(pol, [math.cos(half), math.sin(half)])
            rho = DensityMatrix.from_state(target)
            fids = []
            for seed in range(20):
                rep = tomography.reconstruct(
                    tomography.simulate_counts(rho, 10_000, seed), target=target)
                fids.append(rep.fidelity_vs_target)
            assert np.median(fids) > 0.99
        assert time.perf_counter() - start < 60.0


def test_criterion_8_qkd_session(acceptance):
    note = "H/V intercept QBER literal 0.25 tracked separately; oracle gives 0.5"
    with acceptance("criterion 8: key-distribution session", note):
        start = time.perf_counter()
        n = 100_000
        stats = qkd42.run_session(qkd42.QkdConfig(n_pulses=n, seed=SEED))
        assert stats.qber == 0.0 and stats.sifted_key_length > 0
        for theta in (math.pi / 3, 0.4 * math.pi, math.pi / 2):
            st = qkd42.run_session(qkd42.config_for_theta(theta, n_pulses=n, seed=SEED))
            p = 1 - math.cos(theta)
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / (0.45 * n))
            assert abs(st.conclusive_rate - p) <= 4 * sigma + 1e-9
        eve = qkd42.run_session(qkd42.config_for_theta(
            math.pi / 2, n_pulses=n, seed=SEED, eve=qkd42.InterceptResend(0.0)))
        sigma = math.sqrt(0.25 / eve.sifted_key_length)
        assert abs(eve.qber - 0.5) <= 4 * sigma
        assert time.perf_counter() - start < 30.0


@pytest.mark.xfail(strict=True, reason=(
    "an H/V intercept-resend at theta=pi/2 ports produces QBER 1/2, not 1/4; "
    "1/4 is what the pi/8 intermediate basis gives"))
def test_criterion_8_intercept_qber_quoted_literal():
    eve = qkd42.run_session(qkd42.config_for_theta(
        math.pi / 2, n_pulses=100_000, seed=SEED, eve=qkd42.InterceptResend(0.0)))
    sigma = math.sqrt(0.25 * 0.75 / eve.sifted_key_length)
    assert abs(eve.qber - 0.25) <= 4 * sigma


def test_criterion_9_property_suite(acceptance):
    with acceptance("criterion 9: invariant suite"):
        start = time.perf_counter()
        results = verify.run_all()
        named = {r.name for r in results}
        assert {"unitarity_preservation", "normalization_repair",
                "postselect_completeness", "concurrence_pure_equivalence",
                "concurrence_local_unitary_invariance",
                "delta_independence"} <= named
        bad = [r for r in results if not r.passed]
        assert not bad, bad
        assert time.perf_counter() - start < 180.0
