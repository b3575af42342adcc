"""The batched device engine against its n = 1 calls.

Every row of a batched call must carry the same bits as the scalar call for
that row alone, including which branches are empty, and the row chunking
must not change any result.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmiplab import entanglement_lab as elab
from cmiplab import interferometer as ifo
from cmiplab import qcore
from cmiplab.qcore import POSTSELECT_MIN, DensityMatrix, concurrence, concurrences

EDGE_ANGLES = (0.0, math.pi, math.pi / 2)
EDGE_PLATES = (0.0, math.pi / 4)

angles = st.one_of(st.sampled_from(EDGE_ANGLES), st.floats(0.0, math.pi))
plates = st.one_of(st.sampled_from(EDGE_PLATES), st.floats(0.0, math.pi / 4))
phases = st.one_of(st.just(0.0), st.floats(-2 * math.pi, 2 * math.pi))


@st.composite
def plan_rows(draw):
    alpha, beta = draw(angles), draw(angles)
    if draw(st.booleans()):
        beta = alpha
    return ifo.plan_for(alpha, beta, phi=draw(phases), phi_prime=draw(phases))


@st.composite
def pair_rows(draw):
    g1, g2 = draw(plates), draw(plates)
    if draw(st.booleans()):
        g1 = g2 = 0.0  # branch 2 is empty
    return draw(angles), draw(phases), g1, g2


def same_state(batch_row, p, single_row):
    """A batched state row against the one-row call's row: the same bits, and
    a zero row on both sides for an empty branch."""
    if p < POSTSELECT_MIN:
        return not batch_row.any() and not single_row.any()
    return np.array_equal(batch_row, single_row)


@settings(max_examples=60, deadline=None)
@given(st.lists(plan_rows(), min_size=1, max_size=12), st.sampled_from((+1, -1)))
@example([ifo.plan_for(0.0, 0.0), ifo.plan_for(5e-324, 0.0)], +1)  # γ2's 0/0
def test_batched_device_rows_equal_single_runs(plans, sign):
    batch = ifo.run_plans(sign, plans)
    for i, plan in enumerate(plans):
        one = ifo.run_cmip(sign, plan)
        assert one.basis == batch.basis and len(one.p_success) == 1
        assert batch.p_success[i] == one.p_success[0]
        assert batch.p_failure[i] == one.p_failure[0]
        assert same_state(batch.success[i], one.p_success[0], one.success[0])
        assert same_state(batch.failure[i], one.p_failure[0], one.failure[0])


@settings(max_examples=200, deadline=None)
@given(angles, angles)
@example(0.0, 1e-200)    # sin²(β/2) underflows to 0
@example(5e-324, 0.0)    # the contraction solver's tan ratio is 0/0
def test_closed_form_and_solvers_hold_at_subnormal_angles(alpha, beta):
    assert 0.0 <= ifo.closed_form_probability(alpha, beta) <= 1.0
    gamma = (ifo.solve_gamma1 if alpha <= beta else ifo.solve_gamma2)(alpha, beta)
    assert 0.0 <= gamma <= math.pi / 4


def same_entanglement(batch_e, single_e):
    return np.isnan(batch_e) if single_e is None else batch_e == single_e


@settings(max_examples=60, deadline=None)
@given(st.lists(pair_rows(), min_size=1, max_size=12))
def test_batched_pair_rows_equal_single_filters(rows):
    states = [elab.prepare_two_photon(elab.TwoPhotonConfig(a, d)) for a, d, _, _ in rows]
    g1s = np.array([r[2] for r in rows])
    g2s = np.array([r[3] for r in rows])
    batch = elab.filter_pairs(np.array([s.amps for s in states]), g1s, g2s)
    for i, state in enumerate(states):
        one = elab.apply_cmip_signal(state, float(g1s[i]), float(g2s[i]))
        assert batch.n1[i] == one.n1 and batch.n2[i] == one.n2
        assert same_entanglement(batch.e1[i], one.e1)
        assert same_entanglement(batch.e2[i], one.e2)
        for phi, n, single in ((batch.phi1, one.n1, one.phi1), (batch.phi2, one.n2, one.phi2)):
            if n >= elab.EMPTY_BRANCH_TOL:
                assert np.array_equal(phi[i], single.amps)
            else:
                assert single is None
    if not (g1s.any() or g2s.any()):
        assert np.all(batch.n2 == 0.0) and np.all(np.isnan(batch.e2))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_batched_concurrence_rows_equal_single_calls(n, seed):
    gen = np.random.default_rng(seed)
    g = gen.normal(size=(n, 4, 4)) + 1j * gen.normal(size=(n, 4, 4))
    mixed = g @ g.conj().swapaxes(1, 2)
    mixed /= np.trace(mixed, axis1=1, axis2=2).real[:, None, None]
    pure = gen.normal(size=(n, 4)) + 1j * gen.normal(size=(n, 4))
    pure /= np.sqrt(np.sum(np.abs(pure) ** 2, axis=1))[:, None]
    basis = elab.PAIR_BASIS
    c_mixed, c_pure = concurrences(mixed), concurrences(pure)
    for i in range(n):
        assert c_mixed[i] == concurrence(DensityMatrix(basis, mixed[i]))
        one = DensityMatrix.from_state(qcore.StateVector(basis, pure[i]))
        assert c_pure[i] == concurrence(one)


def test_small_chunks_give_the_same_sweeps(monkeypatch):
    grid = np.linspace(0.0, math.pi / 4, 101)
    betas = np.linspace(0.05, 0.8 * math.pi, 41)

    def sweeps():
        return (elab.concentration_sweep(math.asin(0.51), grid, math.pi / 9, 0.7),
                ifo.success_probability_sweep(0.8 * math.pi, betas, 1000, 5))

    conc, (p_closed, p_mc) = sweeps()
    monkeypatch.setattr(qcore, "CHUNK_ROWS", 7)
    conc7, (p_closed7, p_mc7) = sweeps()
    for key in conc:
        assert np.array_equal(conc[key], conc7[key], equal_nan=True), key
    assert np.array_equal(p_closed, p_closed7) and np.array_equal(p_mc, p_mc7)


def test_one_bad_row_fails_the_whole_batch():
    rhos = np.tile(np.eye(4, dtype=complex) / 4, (6, 1, 1))
    bad = {
        "not Hermitian": np.diag([0.25] * 4) + np.triu(np.full((4, 4), 0.1j), 1),
        "trace": np.eye(4) / 2,
        "negative eigenvalue": np.diag([0.7, 0.4, 0.1, -0.2]),
    }
    for message, m in bad.items():
        stack = rhos.copy()
        stack[4] = m
        with pytest.raises(ValueError, match=message):
            concurrences(stack)
    pure = np.tile(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), (6, 1))
    pure[3, 0] = 1.01
    with pytest.raises(ValueError, match="state norm"):
        concurrences(pure)
    units = ifo.device_unitary(np.linspace(0.0, 0.7, 6), 0.3)
    units[2, 0, 0] *= 1.001
    with pytest.raises(ValueError, match="unitary"):
        qcore.check_unitary_rows(units)
