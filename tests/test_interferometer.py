import cmath
import math

import numpy as np
import pytest

from cmiplab import interferometer as ifo

# frozen closed-form values (computed independently, full precision)
G1_QUARTER_TO_HALF = 0.5718588702012102   # acos(sqrt(2)-1)/2
P_QUARTER_TO_HALF = 0.29289321881345254   # 1 - 1/sqrt(2)
P_HALF_TO_QUARTER = 0.5857864376269049    # 2 - sqrt(2)
C2_HALF_TO_QUARTER = 0.41421356237309503  # tan(pi/8)


def test_expand_solver_matches_frozen_value():
    assert abs(ifo.solve_gamma1(math.pi / 4, math.pi / 2) - G1_QUARTER_TO_HALF) < 1e-15


def test_contract_solver_matches_frozen_value():
    g2 = ifo.solve_gamma2(math.pi / 2, math.pi / 4)
    assert abs(math.cos(2 * g2) - C2_HALF_TO_QUARTER) < 1e-15


def test_solvers_at_equal_angles_return_zero():
    for a in (0.3, 1.0, 2.2):
        assert ifo.solve_gamma1(a, a) == 0.0
        assert ifo.solve_gamma2(a, a) == 0.0


def test_solvers_reject_wrong_ordering():
    with pytest.raises(ValueError):
        ifo.solve_gamma1(0.8, 0.5)  # expansion needs beta >= alpha
    with pytest.raises(ValueError):
        ifo.solve_gamma2(0.5, 0.8)  # contraction needs alpha >= beta


def test_contract_hardware_angle_sign_and_magnitude():
    a, b = math.pi / 2, math.pi / 4
    hw = ifo.contract_hardware_angle(a, b)
    assert hw < 0
    # -acos(-c2)/2 is the solver angle shifted by a quarter turn
    assert abs(hw - (ifo.solve_gamma2(a, b) - math.pi / 2)) < 1e-12


def test_closed_form_probability_frozen_values():
    assert abs(ifo.closed_form_probability(math.pi / 4, math.pi / 2)
               - P_QUARTER_TO_HALF) < 1e-15
    assert abs(ifo.closed_form_probability(math.pi / 2, math.pi / 4)
               - P_HALF_TO_QUARTER) < 1e-15
    for a in (0.2, 1.1, 2.5):
        assert ifo.closed_form_probability(a, a) == 1.0


def test_unambiguous_discrimination_limit():
    # expanding all the way to orthogonal reaches the optimal 1 - cos(alpha)
    for a in np.arange(0.1, 1.55, 0.1):
        p = ifo.closed_form_probability(a, math.pi / 2)
        assert abs(p - (1 - math.cos(a))) < 1e-12


def test_plan_for_picks_branch_by_ordering():
    assert ifo.plan_for(0.4, 1.0).branch == ifo.EXPAND
    assert ifo.plan_for(1.0, 0.4).branch == ifo.CONTRACT
    plan = ifo.plan_for(0.7, 0.7)
    assert plan.gamma1 == 0.0 and plan.gamma2 == 0.0


def test_device_unitary_is_unitary_at_zero_phase():
    for a, b in ((0.3, 1.2), (2.0, 0.9)):
        U = ifo.device_unitary(*ifo.plan_for(a, b).plates())[0]
        assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12


def test_plan_unitary_places_the_phase_plates():
    # phi acts on the V input when expanding, phi' on the H input when contracting
    expand = ifo.plan_for(0.5, 1.3, phi=0.8, phi_prime=0.4)
    want = ifo.device_unitary(expand.gamma1, expand.gamma2, 0.0, 0.8)[0]
    assert np.array_equal(ifo.device_unitary(*expand.plates())[0], want)
    contract = ifo.plan_for(1.3, 0.5, phi=0.8, phi_prime=0.4)
    want = ifo.device_unitary(contract.gamma1, contract.gamma2, 0.4, 0.0)[0]
    assert np.array_equal(ifo.device_unitary(*contract.plates())[0], want)


def test_sweep_solves_each_plate_once(monkeypatch):
    calls = []

    def counting(solver):
        def wrapper(alpha, beta):
            calls.append((alpha, beta))
            return solver(alpha, beta)
        return wrapper

    monkeypatch.setattr(ifo, "solve_gamma1", counting(ifo.solve_gamma1))
    monkeypatch.setattr(ifo, "solve_gamma2", counting(ifo.solve_gamma2))
    betas = np.linspace(0.1, 3.0, 17)  # both branches and alpha = beta
    ifo.success_probability_sweep(1.2, betas, 100, 3)
    assert len(calls) == betas.size


def test_success_states_match_targets_and_probabilities():
    worst_p, worst_ov = 0.0, 0.0
    for a in np.linspace(0.1, 3.0, 12):
        for b in np.linspace(0.1, 3.0, 12):
            plan = ifo.plan_for(a, b)
            p_ref = ifo.closed_form_probability(a, b)
            for sign in (+1, -1):
                out = ifo.run_cmip(sign, plan)
                worst_p = max(worst_p, abs(out.p_success[0] - p_ref))
                ov = np.vdot(out.success[0], ifo.target_state(b, sign).amps)
                worst_ov = max(worst_ov, abs(abs(ov) - 1.0))
                assert abs(out.p_success[0] + out.p_failure[0] - 1.0) < 1e-12
    assert worst_p < 1e-12, worst_p
    assert worst_ov < 1e-12, worst_ov


def test_output_pair_inner_product_equals_cos_beta():
    for a, b in ((0.3, 1.4), (1.4, 0.3), (0.9, 2.8), (2.8, 0.9)):
        plan = ifo.plan_for(a, b)
        sp = ifo.run_cmip(+1, plan).success[0]
        sm = ifo.run_cmip(-1, plan).success[0]
        assert abs(np.vdot(sp, sm) - math.cos(b)) < 1e-12


def test_failure_state_is_a_single_mode():
    # expansion leaks only V into path 2, contraction only H; the failure
    # row is the polarization (H, V)
    fail = ifo.run_cmip(+1, ifo.plan_for(0.4, 1.2)).failure[0]
    assert abs(abs(fail[1]) - 1.0) < 1e-12
    fail = ifo.run_cmip(+1, ifo.plan_for(1.2, 0.4)).failure[0]
    assert abs(abs(fail[0]) - 1.0) < 1e-12


def test_phase_plate_carries_through_to_the_output():
    phi = 0.8
    plan = ifo.plan_for(0.5, 1.3, phi=phi)
    out = ifo.run_cmip(+1, plan)
    h, v = out.success[0]
    assert abs(cmath.phase(v / h) - phi) < 1e-12
    assert abs(out.p_success[0] - ifo.closed_form_probability(0.5, 1.3)) < 1e-12


def test_sampling_is_deterministic_and_unbiased():
    plan = ifo.plan_for(math.pi / 4, math.pi / 2)
    shots = 100_000
    [success] = ifo.sample_runs(+1, [plan], shots, [13])
    assert ifo.sample_runs(+1, [plan], shots, [13]) == [success]
    assert 0 <= success <= shots
    p = P_QUARTER_TO_HALF
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(success / shots - p) < 4 * sigma


def test_sweep_shapes_and_closed_form_only_mode():
    betas = np.linspace(0.0, math.pi, 9)
    closed, mc = ifo.success_probability_sweep(math.pi / 4, betas, 2000, seed=5)
    assert closed.shape == betas.shape and mc.shape == betas.shape
    assert np.all((mc >= 0) & (mc <= 1))
    closed2, mc2 = ifo.success_probability_sweep(math.pi / 4, betas, 0, seed=5)
    assert mc2 is None
    assert np.allclose(closed, closed2, atol=0)
