import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmiplab import entanglement_lab as elab
from cmiplab import interferometer as ifo
from cmiplab.qcore import (IDLER_POL, PAIR_BASIS, POL_BASIS, SIGNAL_POL, DensityMatrix,
                           StateVector, apply_rows, check_density_rows,
                           check_unitary_rows, concurrence, fidelity,
                           normalize_rows, postselect, row_norms, state_from_json,
                           state_to_json)


def bell_phi_plus():
    return StateVector(PAIR_BASIS, np.array([1, 0, 0, 1]) / math.sqrt(2))


def test_basis_indexing_round_trip():
    # the literal flat indices are the factors' symbols, first factor slowest
    def flat(basis, *syms):
        shape = [len(symbols) for _, symbols in basis]
        multi = [symbols.index(sym) for sym, (_, symbols) in zip(syms, basis)]
        return int(np.ravel_multi_index(multi, shape))

    assert [lab for lab, _ in ifo.BASIS] == ["signal_pol", "signal_path"]
    assert (ifo._H1, ifo._H2, ifo._V1, ifo._V2) == tuple(
        flat(ifo.BASIS, *syms) for syms in (("H", "1"), ("H", "2"), ("V", "1"), ("V", "2")))
    assert [lab for lab, _ in elab.FULL_BASIS] == ["signal_pol", "signal_path", "idler_pol"]
    assert (elab._HH, elab._VV) == (flat(elab.FULL_BASIS, "H", "1", "H"),
                                    flat(elab.FULL_BASIS, "V", "1", "V"))


def test_state_keeps_raw_amplitudes_until_normalized():
    # branch components carry their probability in the norm, so construction
    # must not rescale
    s = StateVector(POL_BASIS, [3.0, 4.0])
    assert abs(np.linalg.norm(s.amps) - 5.0) < 1e-15
    assert abs(s.amps[0] - 3.0) < 1e-15  # H
    n = StateVector(s.basis, s.amps / np.linalg.norm(s.amps))
    assert abs(n.amps[0] - 0.6) < 1e-15 and abs(np.linalg.norm(n.amps) - 1.0) < 1e-15


def test_normalize_rows_repairs_small_and_rejects_large():
    repaired = normalize_rows(np.array([[1.0 + 3e-10, 0.0]], dtype=complex))
    assert abs(row_norms(repaired)[0] - 1.0) < 1e-15
    with pytest.raises(ValueError):
        normalize_rows(np.array([[1.01, 0.0]], dtype=complex))
    # fidelity repairs its target the same way
    basis = POL_BASIS
    rho = DensityMatrix(basis, np.diag([1.0, 0.0]))
    assert fidelity(rho, StateVector(basis, [1.0 + 3e-10, 0.0])) == 1.0
    with pytest.raises(ValueError):
        fidelity(rho, StateVector(basis, [1.01, 0.0]))


def test_density_matrix_validation():
    basis = POL_BASIS
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
    pol = StateVector(POL_BASIS, [math.cos(0.3), math.sin(0.3)])
    joint = StateVector(ifo.BASIS, np.kron(pol.amps, [1.0, 0.0]))  # in path 1
    kept, prob = postselect(joint, "signal_path", "1")
    assert abs(prob - 1.0) < 1e-12
    assert kept.basis == POL_BASIS  # the measured factor is dropped
    assert np.allclose(kept.amps, pol.amps)
    gone, prob2 = postselect(joint, "signal_path", "2")
    assert gone is None and prob2 < 1e-15
    with pytest.raises(ValueError, match="unknown factor label 'nope'"):
        postselect(joint, "nope", "1")
    with pytest.raises(ValueError, match="symbol '3' not in factor 'signal_path'"):
        postselect(joint, "signal_path", "3")


def test_postselect_probabilities_sum_to_one():
    gen = np.random.default_rng(7)
    for _ in range(25):
        v = gen.normal(size=4) + 1j * gen.normal(size=4)
        s = StateVector(PAIR_BASIS, v / np.linalg.norm(v))
        for factor in (SIGNAL_POL, IDLER_POL):
            total = sum(postselect(s, factor, sym)[1] for sym in ("H", "V"))
            assert abs(total - 1.0) < 1e-12


def test_fidelity_pure_targets():
    rho = DensityMatrix.from_state(bell_phi_plus())
    assert abs(fidelity(rho, bell_phi_plus()) - 1.0) < 1e-14
    ortho = StateVector(PAIR_BASIS, np.array([1, 0, 0, -1]) / math.sqrt(2))
    assert abs(fidelity(rho, ortho)) < 1e-14


def test_concurrence_extremes():
    assert abs(concurrence(DensityMatrix.from_state(bell_phi_plus())) - 1.0) < 1e-12
    product = StateVector(PAIR_BASIS, [1.0, 0.0, 0.0, 0.0])
    assert concurrence(DensityMatrix.from_state(product)) < 1e-12
    mixed = DensityMatrix(PAIR_BASIS, np.eye(4) / 4)
    assert concurrence(mixed) == 0.0


def test_concurrence_matches_pure_state_formula():
    # C(a|HH> + b|HV> + c|VH> + d|VV>) = 2|ad - bc|
    gen = np.random.default_rng(23)
    worst = 0.0
    for _ in range(300):
        v = gen.normal(size=4) + 1j * gen.normal(size=4)
        v /= np.linalg.norm(v)
        c = concurrence(DensityMatrix.from_state(StateVector(PAIR_BASIS, v)))
        worst = max(worst, abs(c - 2 * abs(v[0] * v[3] - v[1] * v[2])))
    assert worst < 1e-9, worst


def test_concurrence_werner_family():
    # p|phi+><phi+| + (1-p) I/4 has concurrence max(0, (3p-1)/2)
    bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
    for p, expect in ((1.0, 1.0), (0.8, 0.7), (1 / 3, 0.0), (0.2, 0.0)):
        rho = DensityMatrix(PAIR_BASIS, p * bell + (1 - p) * np.eye(4) / 4)
        assert abs(concurrence(rho) - expect) < 1e-12


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        concurrence(DensityMatrix(POL_BASIS, np.eye(2) / 2))


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
    s = StateVector(PAIR_BASIS, gen.normal(size=4) + 1j * gen.normal(size=4))
    back = state_from_json(state_to_json(s))
    assert back.basis is PAIR_BASIS
    assert np.max(np.abs(back.amps - s.amps)) < 1e-15


@pytest.mark.parametrize("factor", [
    {"factor": "signal_pol", "symbols": "HV"},  # not read as ("H", "V")
    {"factor": "signal_pol", "symbols": ["H", 1]},
    {"factor": ["signal_pol"], "symbols": ["H", "V"]},
    {"factor": 0, "symbols": ["H", "V"]},
], ids=["symbols_string", "symbol_number", "factor_list", "factor_number"])
def test_state_json_needs_a_string_name_and_a_list_of_string_symbols(factor):
    text = json.dumps({"basis": [factor], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ValueError, match="basis must be signal_pol, or signal_pol then idler_pol"):
        state_from_json(text)


#: the bases a state file may hold, with their dimensions
_BASES = ((POL_BASIS, 2), (PAIR_BASIS, 4))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_BASES).flatmap(lambda bd: st.tuples(
    st.just(bd[0]), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=2 * bd[1], max_size=2 * bd[1]))))
def test_state_json_round_trip_keeps_every_bit(case):
    basis, parts = case
    s = StateVector(basis, np.array(parts).view(complex))  # (re, im) pairs
    back = state_from_json(state_to_json(s))
    assert back.basis == s.basis
    assert back.amps.tobytes() == s.amps.tobytes()  # signed zeros included
