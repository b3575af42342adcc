import math

import numpy as np
import pytest

from cmiplab import entanglement_lab as elab
from cmiplab import interferometer as ifo
from cmiplab.qcore import apply_rows, concurrences

# frozen solutions for gamma2 = pi/9 and the three input entanglement values
# used in the concentration curves (alpha = arcsin E, full precision)
PEAKS = {
    0.51: dict(g1max=0.6795980255630659, n1max=0.08205302977505978,
               crossing=0.756591212911803),
    0.74: dict(g1max=0.61251603817807, n1max=0.1921221758879912,
               crossing=0.7101422491893046),
    0.90: dict(g1max=0.5349863164608069, n1max=0.3310333987474242,
               crossing=0.6325529656417535),
}
G1_BRANCH2_051 = 0.08857845190886197
N1_AT_ZERO_051 = 0.9711137153480875
COMMON_N1 = 0.5868240888334652  # cos^2(2 pi/9), shared by all three curves
G2 = math.pi / 9


def test_config_validation_and_entanglement():
    with pytest.raises(ValueError):
        elab.TwoPhotonConfig(-0.1)
    with pytest.raises(ValueError):
        elab.TwoPhotonConfig(3.2)


def test_prepared_pair_amplitudes():
    cfg = elab.TwoPhotonConfig(0.8, delta=0.3)
    s = elab.prepare_two_photon(cfg)
    assert s.basis == elab.FULL_BASIS
    assert abs(s.amps[0] - math.cos(0.4)) < 1e-15  # |H,1,H⟩
    expected_vv = math.sin(0.4) * np.exp(0.3j)
    assert abs(s.amps[5] - expected_vv) < 1e-15  # |V,1,V⟩
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-15
    pair = elab.polarization_pair_state(cfg)
    assert pair.basis == elab.PAIR_BASIS
    assert abs(pair.amps[0] - math.cos(0.4)) < 1e-15
    assert abs(pair.amps[3] - expected_vv) < 1e-15


def test_general_unitary_matrix_entries():
    g1, g2 = 0.2, 0.5
    c1, s1 = math.cos(2 * g1), math.sin(2 * g1)
    c2, s2 = math.cos(2 * g2), math.sin(2 * g2)
    # H1 -> c1 H1 - i s1 V2, V1 -> c2 V1 - i s2 H2 and the completing pair,
    # basis order H1, H2, V1, V2
    want = np.array([
        [c1, -1j * s1, 0, 0],
        [-1j * s1, c1, 0, 0],
        [0, 0, c2, -1j * s2],
        [0, 0, -1j * s2, c2],
    ])[[0, 3, 2, 1]][:, [0, 3, 2, 1]]
    U = ifo.device_unitary(g1, g2)[0]
    assert np.max(np.abs(U - want)) < 1e-15
    assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12


def test_zero_plates_are_the_identity():
    s = elab.prepare_two_photon(elab.TwoPhotonConfig(1.1, 0.7))
    out = apply_rows(ifo.device_unitary(0.0, 0.0), s.amps[None])[0]
    assert np.max(np.abs(out - s.amps)) < 1e-15


def test_branch_probabilities_match_state_route():
    worst = 0.0
    for alpha in np.linspace(0.2, 2.9, 7):
        s = elab.prepare_two_photon(elab.TwoPhotonConfig(float(alpha)))
        for g1 in np.linspace(0.0, math.pi / 4, 6):
            for g2 in np.linspace(0.0, math.pi / 4, 6):
                n1, n2 = elab.branch_probabilities(alpha, g1, g2)
                br = elab.apply_cmip_signal(s, float(g1), float(g2))
                worst = max(worst, abs(br.n1 - n1), abs(br.n2 - n2))
                assert abs(n1 + n2 - 1.0) < 1e-12
    assert worst < 1e-12, worst


def test_curves_intersect_at_equal_plate_angles():
    for e_in in (0.51, 0.74, 0.90):
        alpha = math.asin(e_in)
        n1, _ = elab.branch_probabilities(alpha, G2, G2)
        assert abs(n1 - COMMON_N1) < 1e-12
        _, _, e1, _ = elab.output_entanglement(alpha, G2, G2)
        assert abs(e1 - e_in) < 1e-12


def test_branch_one_peak_values():
    for e_in, ref in PEAKS.items():
        alpha = math.asin(e_in)
        g1 = elab.solve_max_entanglement(alpha, G2, branch=1)
        assert abs(g1 - ref["g1max"]) < 1e-12
        _, _, e1, _ = elab.output_entanglement(alpha, g1, G2)
        assert abs(e1 - 1.0) < 1e-9
        n1, _ = elab.branch_probabilities(alpha, g1, G2)
        assert abs(n1 - ref["n1max"]) < 1e-12
        # state route agrees at the peak
        s = elab.prepare_two_photon(elab.TwoPhotonConfig(alpha))
        br = elab.apply_cmip_signal(s, g1, G2)
        assert abs(br.e1 - 1.0) < 1e-9
        assert abs(br.n1 - n1) < 1e-12


def test_branch_two_peak():
    alpha = math.asin(0.51)
    g1 = elab.solve_max_entanglement(alpha, G2, branch=2)
    assert abs(g1 - G1_BRANCH2_051) < 1e-12
    s = elab.prepare_two_photon(elab.TwoPhotonConfig(alpha))
    br = elab.apply_cmip_signal(s, g1, G2)
    assert abs(br.e2 - 1.0) < 1e-9


def test_solve_max_entanglement_out_of_reach():
    # strongly tilted input with a nearly closed second plate: no root
    assert elab.solve_max_entanglement(2.0, 0.1, branch=1) is None
    with pytest.raises(ValueError):
        elab.solve_max_entanglement(0.0, 0.1, branch=1)
    with pytest.raises(ValueError):
        elab.solve_max_entanglement(1.0, 0.1, branch=3)


def test_concentration_window_for_e051():
    alpha = math.asin(0.51)
    crossing = PEAKS[0.51]["crossing"]
    _, _, e_at_cross, _ = elab.output_entanglement(alpha, crossing, G2)
    assert abs(e_at_cross - 0.51) < 1e-9
    # predicate flips exactly at the window edges gamma2 and the upper crossing
    assert elab.concentration_predicate(alpha, G2, G2)
    assert not elab.concentration_predicate(alpha, G2 - 0.01, G2)
    assert elab.concentration_predicate(alpha, G2 + 0.01, G2)
    assert elab.concentration_predicate(alpha, crossing - 1e-3, G2)
    assert not elab.concentration_predicate(alpha, crossing + 1e-3, G2)


def test_predicate_rejects_out_of_range_plates():
    with pytest.raises(ValueError):
        elab.concentration_predicate(0.5, -0.1, 0.2)
    with pytest.raises(ValueError):
        elab.concentration_predicate(0.5, 0.2, 1.0)


def test_delta_does_not_move_probabilities_or_entanglement():
    ref = None
    for delta in (0.0, 1.0, 2.5, 5.0):
        s = elab.prepare_two_photon(elab.TwoPhotonConfig(1.3, delta))
        br = elab.apply_cmip_signal(s, 0.25, 0.45)
        vals = (br.n1, br.e1, br.n2, br.e2)
        if ref is None:
            ref = vals
        else:
            assert max(abs(x - y) for x, y in zip(vals, ref)) < 1e-12


def test_product_input_stays_product():
    s = elab.prepare_two_photon(elab.TwoPhotonConfig(0.0))
    br = elab.apply_cmip_signal(s, 0.3, 0.1)
    assert br.e1 < 1e-9
    _, _, e1, _ = elab.output_entanglement(0.0, 0.3, 0.1)
    assert e1 == 0.0


def test_empty_branches_report_none():
    s = elab.prepare_two_photon(elab.TwoPhotonConfig(0.9))
    br = elab.apply_cmip_signal(s, math.pi / 4, math.pi / 4)
    assert br.n1 < 1e-12 and br.phi1 is None and br.e1 is None
    br2 = elab.apply_cmip_signal(s, 0.0, 0.0)
    assert br2.n2 < 1e-12 and br2.e2 is None
    _, _, e1, e2 = elab.output_entanglement(0.9, math.pi / 4, math.pi / 4)
    assert e1 is None and e2 is not None


def test_concentration_sweep_columns():
    grid = np.linspace(0.0, math.pi / 4, 11)
    cols = elab.concentration_sweep(math.asin(0.51), grid, math.pi / 4)
    assert set(cols) == {"n1_closed", "n1_state", "e1_closed", "e1_state"}
    # with gamma2 = pi/4 the last grid point empties branch 1
    assert np.isnan(cols["e1_closed"][-1]) and np.isnan(cols["e1_state"][-1])
    good = ~np.isnan(cols["e1_closed"])
    assert np.max(np.abs(cols["n1_closed"] - cols["n1_state"])) < 1e-12
    assert np.max(np.abs(cols["e1_closed"][good] - cols["e1_state"][good])) < 1e-9
    assert abs(cols["n1_closed"][0]
               - elab.branch_probabilities(math.asin(0.51), 0.0, math.pi / 4)[0]) < 1e-15


def test_concentration_sweep_runs_wootters_on_path_1_only(monkeypatch):
    # entangle prints only the path-1 concurrence; with gamma2 = 0 every
    # path-2 branch but the first is live, so a path-2 pass would show
    rows = []

    def counting(states):
        rows.append(len(states))
        return concurrences(states)

    monkeypatch.setattr(elab, "concurrences", counting)
    elab.concentration_sweep(math.asin(0.51), np.linspace(0.0, math.pi / 4, 100), 0.0)
    assert sum(rows) == 100


def test_n1_at_closed_first_plate():
    n1, _ = elab.branch_probabilities(math.asin(0.51), 0.0, G2)
    assert abs(n1 - N1_AT_ZERO_051) < 1e-12
