"""The batched device engine against its n = 1 calls.

Every row of a batched call must carry the same bits as the scalar call for
that row alone, including which branches are empty, and the row chunking
must not change any result.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cmiplab import entanglement_lab as elab
from cmiplab import interferometer as ifo
from cmiplab import qcore, qkd42
from cmiplab.qcore import POSTSELECT_MIN, DensityMatrix, concurrence, concurrences

EDGE_ANGLES = (0.0, math.pi, math.pi / 2)
EDGE_PLATES = (0.0, math.pi / 4)

angles = st.one_of(st.sampled_from(EDGE_ANGLES), st.floats(0.0, math.pi))
plates = st.one_of(st.sampled_from(EDGE_PLATES), st.floats(0.0, math.pi / 4))
phases = st.one_of(st.just(0.0), st.floats(-2 * math.pi, 2 * math.pi))


@st.composite
def plan_rows(draw):
    """(α, the `plates` of α → β with two phase plates)."""
    alpha, beta = draw(angles), draw(angles)
    if draw(st.booleans()):
        beta = alpha
    return alpha, ifo.plates(alpha, beta, phi=draw(phases), phi_prime=draw(phases))


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
@example([(0.0, ifo.plates(0.0, 0.0)), (5e-324, ifo.plates(5e-324, 0.0))], +1)  # γ2's 0/0
def test_batched_device_rows_equal_single_runs(plans, sign):
    alphas, angle_rows = zip(*plans)
    batch = ifo.evolve(ifo.input_amps(alphas, sign), *np.array(angle_rows).T)
    for i, (alpha, row) in enumerate(plans):
        one = ifo.evolve(ifo.input_amps(alpha, sign), *row)
        assert len(one.p_success) == 1
        assert batch.p_success[i] == one.p_success[0]
        assert batch.p_failure[i] == one.p_failure[0]
        assert same_state(batch.success[i], one.p_success[0], one.success[0])
        assert same_state(batch.failure[i], one.p_failure[0], one.failure[0])


def entrywise_device_unitary(gamma1, gamma2, phase_h, phase_v):
    """`device_unitary` as it was written before its plate loop: each of the
    eight block entries and both phase columns spelled out."""
    g1, g2, ph, pv = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                           for x in (gamma1, gamma2, phase_h, phase_v)))
    H1, H2, V1, V2 = ifo._H1, ifo._H2, ifo._V1, ifo._V2
    c1, s1 = np.cos(2 * g1), np.sin(2 * g1)
    c2, s2 = np.cos(2 * g2), np.sin(2 * g2)
    m = np.zeros((g1.size, 4, 4), dtype=complex)
    m[:, H1, H1], m[:, V2, H1] = c1, -1j * s1
    m[:, H1, V2], m[:, V2, V2] = -1j * s1, c1
    m[:, V1, V1], m[:, H2, V1] = c2, -1j * s2
    m[:, V1, H2], m[:, H2, H2] = -1j * s2, c2
    phase = np.empty((g1.size, 1, 4), dtype=complex)
    phase[:, 0, H1] = phase[:, 0, V2] = np.exp(1j * ph)
    phase[:, 0, V1] = phase[:, 0, H2] = np.exp(1j * pv)
    return m * phase


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(plates, plates, phases, phases), min_size=1, max_size=8),
       st.integers(0, 3))
def test_plate_loop_keeps_the_entrywise_bits(rows, scalar):
    # one column of arguments is a scalar broadcast against the others
    args = [np.array(col) for col in zip(*rows)]
    args[scalar] = float(args[scalar][0])
    assert np.array_equal(ifo.device_unitary(*args), entrywise_device_unitary(*args))
    assert np.array_equal(ifo.device_unitary(*rows[0]), entrywise_device_unitary(*rows[0]))


@settings(max_examples=200, deadline=None)
@given(angles, angles)
@example(0.0, 1e-200)    # sin²(β/2) underflows to 0
@example(5e-324, 0.0)    # the contraction solver's tan ratio is 0/0
def test_closed_form_and_solvers_hold_at_subnormal_angles(alpha, beta):
    assert 0.0 <= ifo.closed_form_probability(alpha, beta) <= 1.0
    gamma = (ifo.solve_gamma1 if alpha <= beta else ifo.solve_gamma2)(alpha, beta)
    assert 0.0 <= gamma <= math.pi / 4


#: below this angle sin(x/2) = x/2 in floating point
LINEAR = 1e-9


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, LINEAR), st.one_of(angles, st.floats(0.0, LINEAR)))
@example(3e-170, 1e-160)   # sin²(α/2) and sin²(β/2) are subnormal: 9e-20
@example(1e-161, 3e-161)   # the cmip reproduction: 1/9
@example(1e-161, 3e-160)   # and 1/900
@example(1e-160, 1e-100)   # only sin²(α/2) is subnormal: 1e-120
@example(1.5e-323, 1.0)    # α/2 rounds on the subnormal grid
@example(0.0, 5e-324)      # β/2 underflows to 0
def test_closed_form_keeps_its_digits_at_tiny_alpha(alpha, beta):
    assume(alpha < beta)
    p = ifo.closed_form_probability(alpha, beta)
    if beta <= LINEAR:
        want = (alpha / beta) ** 2
    else:  # P ∝ α² here: scale α to [2^-41, 2^-40), where nothing underflows
        m, e = math.frexp(alpha)
        want = math.ldexp(ifo.closed_form_probability(math.ldexp(m, -40), beta),
                          2 * (e + 40))
    assert math.isclose(p, want, rel_tol=1e-14, abs_tol=1e-320)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(st.sampled_from((0.0, math.pi)), st.sampled_from((0.0, math.pi))),
                 st.floats(0.0, math.pi).map(lambda a: (a, a))),
       st.sampled_from((+1, -1)))
def test_edge_plans_evolve_to_the_closed_form(angles_pair, sign):
    alpha, beta = angles_pair
    out = ifo.run_cmip(sign, ifo.plan_for(alpha, beta))
    assert abs(out.p_success[0] - ifo.closed_form_probability(alpha, beta)) <= 1e-12


def same_entanglement(batch_e, single_e):
    return np.isnan(batch_e) if single_e is None else batch_e == single_e


@settings(max_examples=60, deadline=None)
@given(st.lists(pair_rows(), min_size=1, max_size=12))
def test_batched_pair_rows_equal_single_filters(rows):
    states = [elab.prepare_two_photon(elab.TwoPhotonConfig(a, d)) for a, d, _, _ in rows]
    g1s = np.array([r[2] for r in rows])
    g2s = np.array([r[3] for r in rows])
    batch = ifo.evolve(np.array([s.amps for s in states]), g1s, g2s)
    assert batch.success.shape == (len(rows), 4)
    e1 = elab.branch_concurrences(batch.success, batch.p_success)
    e2 = elab.branch_concurrences(batch.failure, batch.p_failure)
    for i, state in enumerate(states):
        one = elab.apply_cmip_signal(state, float(g1s[i]), float(g2s[i]))
        assert batch.p_success[i] == one.n1 and batch.p_failure[i] == one.n2
        assert same_entanglement(e1[i], one.e1)
        assert same_entanglement(e2[i], one.e2)
        for phi, n, single in ((batch.success, one.n1, one.phi1),
                               (batch.failure, one.n2, one.phi2)):
            if n >= elab.EMPTY_BRANCH_TOL:
                assert np.array_equal(phi[i], single.amps)
            else:
                assert single is None
    if not (g1s.any() or g2s.any()):
        assert np.all(batch.p_failure == 0.0) and np.all(np.isnan(e2))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_batched_concurrence_rows_equal_single_calls(n, seed):
    # density-matrix rows take Wootters, the route of the scalar call; pure
    # rows take 2|ad − bc| of their norm-repaired amplitudes
    gen = np.random.default_rng(seed)
    g = gen.normal(size=(n, 4, 4)) + 1j * gen.normal(size=(n, 4, 4))
    mixed = g @ g.conj().swapaxes(1, 2)
    mixed /= np.trace(mixed, axis1=1, axis2=2).real[:, None, None]
    pure = gen.normal(size=(n, 4)) + 1j * gen.normal(size=(n, 4))
    pure /= np.sqrt(np.sum(np.abs(pure) ** 2, axis=1))[:, None]
    pure *= 1.0 + gen.uniform(-1e-10, 1e-10, size=(n, 1))  # within the norm repair
    basis = elab.PAIR_BASIS
    c_mixed, c_pure = concurrences(mixed), concurrences(pure)
    v = qcore.normalize_rows(pure)
    assert np.array_equal(c_pure, 2 * np.abs(v[:, 0] * v[:, 3] - v[:, 1] * v[:, 2]))
    for i in range(n):
        assert c_mixed[i] == concurrence(DensityMatrix(basis, mixed[i]))
        one = DensityMatrix.from_state(qcore.StateVector(basis, pure[i]))
        assert abs(c_pure[i] - concurrence(one)) <= 1e-14


def test_pure_rows_take_no_decomposition(monkeypatch):
    # the pure-state formula needs no eigenvalues or singular values; the
    # density-matrix route still does
    def refuse(*args, **kwargs):
        raise AssertionError("decomposition on the pure-state route")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    gen = np.random.default_rng(3)
    pure = gen.normal(size=(3 * qcore.CHUNK_ROWS, 4)) + 0j
    pure /= qcore.row_norms(pure)[:, None]
    assert concurrences(pure).shape == (3 * qcore.CHUNK_ROWS,)
    res = elab.concentration_sweep(math.asin(0.51), np.linspace(0.0, math.pi / 4, 11), 0.2)
    assert not np.isnan(res["e1_state"]).any()
    with pytest.raises(AssertionError, match="decomposition"):
        concurrences(qcore.density_rows(pure[:2]))


def test_a_density_stack_takes_one_eigendecomposition(monkeypatch):
    # the density check's eigenvalues and Wootters' √ρ come from one eigh
    eigh, calls = np.linalg.eigh, []

    def spy(mats):
        calls.append(mats.shape)
        return eigh(mats)

    def refuse(*args, **kwargs):
        raise AssertionError("a second decomposition on the density route")

    gen = np.random.default_rng(11)
    g = gen.normal(size=(300, 4, 4)) + 1j * gen.normal(size=(300, 4, 4))
    rhos = g @ g.conj().swapaxes(1, 2)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    monkeypatch.setattr(np.linalg, "eigh", spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    c = concurrences(rhos)
    assert calls == [(300, 4, 4)]
    monkeypatch.undo()
    assert np.array_equal(c, qcore._wootters(*np.linalg.eigh(rhos)))


def test_small_chunks_give_the_same_sweeps(monkeypatch):
    grid = np.linspace(0.0, math.pi / 4, 101)
    betas = np.linspace(0.05, 0.8 * math.pi, 41)
    # at 7 rows a chunk, Bob's 8-row pass of the session without Eve splits
    sessions = [qkd42.QkdConfig(n_pulses=5000, seed=3, eve_basis=eve) for eve in (None, 0.0)]

    def sweeps():
        return (elab.concentration_sweep(math.asin(0.51), grid, math.pi / 9, 0.7),
                ifo.success_probability_sweep(0.8 * math.pi, betas, 1000, 5),
                [qkd42.run_session(cfg) for cfg in sessions])

    conc, (p_closed, p_mc), stats = sweeps()
    monkeypatch.setattr(qcore, "CHUNK_ROWS", 7)
    conc7, (p_closed7, p_mc7), stats7 = sweeps()
    for key in conc:
        assert np.array_equal(conc[key], conc7[key], equal_nan=True), key
    assert np.array_equal(p_closed, p_closed7) and np.array_equal(p_mc, p_mc7)
    assert stats == stats7


def test_sweeps_evolve_one_chunk_of_unitaries_at_a_time(monkeypatch):
    # evolve builds each chunk's unitaries inside its chunk loop, and the β
    # sweep sends its one input state through a (4, n) array of plate angles;
    # at 2^16 points a whole-grid (n, 4, 4) stack would alone add 16 MiB, and
    # n plan objects or an (n, 4) input stack would not fit the 20 MiB limit
    build, sizes = ifo.device_unitary, []

    def spy(*plates):
        m = build(*plates)
        sizes.append(len(m))
        return m

    monkeypatch.setattr(ifo, "device_unitary", spy)
    ifo.success_probability_sweep(0.7, np.linspace(0.05, 3.0, 1000), 100, 1)
    elab.concentration_sweep(math.asin(0.51), np.linspace(0.0, math.pi / 4, 1000), 0.3)
    assert sum(sizes) == 2000 and max(sizes) <= qcore.CHUNK_ROWS
    monkeypatch.undo()

    n = 2 ** 16
    grid, betas = np.linspace(0.0, math.pi / 4, n), np.linspace(0.05, 3.0, n)
    for run, limit_mib in (
            (lambda: elab.concentration_sweep(math.asin(0.51), grid, 0.3), 32),
            (lambda: ifo.success_probability_sweep(math.pi / 4, betas, 1000, 7), 20)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2 ** 20


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
