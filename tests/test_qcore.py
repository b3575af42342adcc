import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmiplab.qcore import (IDLER_POL, DensityMatrix, ModeBasis,
                           StateVector, apply_rows, check_density_rows,
                           check_unitary_rows, concurrence, fidelity,
                           normalize_rows, path_basis, polarization_basis,
                           postselect, row_norms, state_from_json,
                           state_to_json)

TWO_QUBIT = polarization_basis("a").combine(polarization_basis("b"))


def bell_phi_plus():
    return StateVector(TWO_QUBIT, np.array([1, 0, 0, 1]) / math.sqrt(2))


def test_basis_indexing_round_trip():
    basis = polarization_basis().combine(path_basis())
    assert basis.dim == 4
    assert basis.labels == ("signal_pol", "signal_path")
    # polarization-major layout: H1, H2, V1, V2
    layout = [("H", "1"), ("H", "2"), ("V", "1"), ("V", "2")]
    assert [basis.index(*syms) for syms in layout] == list(range(basis.dim))


def test_basis_combine_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        polarization_basis("a").combine(polarization_basis("a"))


def test_state_keeps_raw_amplitudes_until_normalized():
    # branch components carry their probability in the norm, so construction
    # must not rescale
    s = StateVector(polarization_basis(), [3.0, 4.0])
    assert abs(s.norm - 5.0) < 1e-15
    h = s.basis.index("H")
    assert abs(s.amps[h] - 3.0) < 1e-15
    n = StateVector(s.basis, s.amps / s.norm)
    assert abs(n.amps[h] - 0.6) < 1e-15 and abs(n.norm - 1.0) < 1e-15


def test_normalize_rows_repairs_small_and_rejects_large():
    repaired = normalize_rows(np.array([[1.0 + 3e-10, 0.0]], dtype=complex))
    assert abs(row_norms(repaired)[0] - 1.0) < 1e-15
    with pytest.raises(ValueError):
        normalize_rows(np.array([[1.01, 0.0]], dtype=complex))
    # fidelity repairs its target the same way
    basis = polarization_basis()
    rho = DensityMatrix(basis, np.diag([1.0, 0.0]))
    assert fidelity(rho, StateVector(basis, [1.0 + 3e-10, 0.0])) == 1.0
    with pytest.raises(ValueError):
        fidelity(rho, StateVector(basis, [1.01, 0.0]))


def test_density_matrix_validation():
    basis = polarization_basis()
    with pytest.raises(ValueError):
        DensityMatrix(basis, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(basis, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(basis, np.array([[1.1, 0.0], [0.0, -0.1]]))  # negative eigenvalue


def test_checks_reject_a_nan_row():
    # NaN compares false with every tolerance, so each check asks "within
    # tolerance?" and rejects on no
    eye = np.eye(2, dtype=complex)
    nan = np.diag([np.nan, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        normalize_rows(np.stack([eye[0], nan[0]]))
    with pytest.raises(ValueError):
        check_unitary_rows(np.stack([eye, nan]))
    with pytest.raises(ValueError):
        check_density_rows(np.stack([eye / 2, nan]))


def test_tensor_and_postselect_inverse():
    pol = StateVector(polarization_basis(), [math.cos(0.3), math.sin(0.3)])
    path = StateVector(path_basis(), [1.0, 0.0])
    joint = StateVector(pol.basis.combine(path.basis), np.kron(pol.amps, path.amps))
    kept, prob = postselect(joint, "signal_path", "1")
    assert abs(prob - 1.0) < 1e-12
    assert np.allclose(kept.amps, pol.amps)
    gone, prob2 = postselect(joint, "signal_path", "2")
    assert gone is None and prob2 < 1e-15


def test_postselect_probabilities_sum_to_one():
    gen = np.random.default_rng(7)
    for _ in range(25):
        v = gen.normal(size=4) + 1j * gen.normal(size=4)
        s = StateVector(TWO_QUBIT, v / np.linalg.norm(v))
        for factor in ("a", "b"):
            total = sum(postselect(s, factor, sym)[1] for sym in ("H", "V"))
            assert abs(total - 1.0) < 1e-12


def test_fidelity_pure_targets():
    rho = DensityMatrix.from_state(bell_phi_plus())
    assert abs(fidelity(rho, bell_phi_plus()) - 1.0) < 1e-14
    ortho = StateVector(TWO_QUBIT, np.array([1, 0, 0, -1]) / math.sqrt(2))
    assert abs(fidelity(rho, ortho)) < 1e-14


def test_concurrence_extremes():
    assert abs(concurrence(DensityMatrix.from_state(bell_phi_plus())) - 1.0) < 1e-12
    product = StateVector(TWO_QUBIT, [1.0, 0.0, 0.0, 0.0])
    assert concurrence(DensityMatrix.from_state(product)) < 1e-12
    mixed = DensityMatrix(TWO_QUBIT, np.eye(4) / 4)
    assert concurrence(mixed) == 0.0


def test_concurrence_matches_pure_state_formula():
    # C(a|HH> + b|HV> + c|VH> + d|VV>) = 2|ad - bc|
    gen = np.random.default_rng(23)
    worst = 0.0
    for _ in range(300):
        v = gen.normal(size=4) + 1j * gen.normal(size=4)
        v /= np.linalg.norm(v)
        c = concurrence(DensityMatrix.from_state(StateVector(TWO_QUBIT, v)))
        worst = max(worst, abs(c - 2 * abs(v[0] * v[3] - v[1] * v[2])))
    assert worst < 1e-9, worst


def test_concurrence_werner_family():
    # p|phi+><phi+| + (1-p) I/4 has concurrence max(0, (3p-1)/2)
    bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
    for p, expect in ((1.0, 1.0), (0.8, 0.7), (1 / 3, 0.0), (0.2, 0.0)):
        rho = DensityMatrix(TWO_QUBIT, p * bell + (1 - p) * np.eye(4) / 4)
        assert abs(concurrence(rho) - expect) < 1e-12


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        concurrence(DensityMatrix(polarization_basis(), np.eye(2) / 2))


def test_apply_lifts_onto_leading_factors():
    gen = np.random.default_rng(3)
    q, _ = np.linalg.qr(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))
    amps = gen.normal(size=8) + 1j * gen.normal(size=8)
    out = apply_rows(q[None], amps[None])[0]
    assert out.shape == (8,)
    assert np.max(np.abs(out - np.kron(q, np.eye(2)) @ amps)) < 1e-12
    assert np.max(np.abs(apply_rows(q[None], amps[None, :4])[0] - q @ amps[:4])) < 1e-12
    with pytest.raises(ValueError):
        apply_rows(q[None], np.tile(amps, (2, 1)))  # one operator, two states


def test_state_json_round_trip():
    gen = np.random.default_rng(5)
    basis = polarization_basis().combine(path_basis())
    s = StateVector(basis, gen.normal(size=4) + 1j * gen.normal(size=4))
    back = state_from_json(state_to_json(s))
    assert back.basis == s.basis
    assert np.max(np.abs(back.amps - s.amps)) < 1e-15


_BASES = (polarization_basis(), polarization_basis().combine(path_basis()),
          polarization_basis().combine(path_basis()).combine(polarization_basis(IDLER_POL)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_BASES).flatmap(lambda basis: st.tuples(
    st.just(basis), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=2 * basis.dim, max_size=2 * basis.dim))))
def test_state_json_round_trip_keeps_every_bit(case):
    basis, parts = case
    s = StateVector(basis, np.array(parts).view(complex))  # (re, im) pairs
    back = state_from_json(state_to_json(s))
    assert back.basis == s.basis
    assert back.amps.tobytes() == s.amps.tobytes()  # signed zeros included


def test_mode_basis_drop_and_keep():
    basis = TWO_QUBIT.combine(path_basis("c"))
    assert basis.drop("b").labels == ("a", "c")
    with pytest.raises(ValueError):
        basis.drop("nope")
