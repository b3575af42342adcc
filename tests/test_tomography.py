import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmiplab import entanglement_lab as elab
from cmiplab import qcore, tomography
from cmiplab.qcore import POL_BASIS, DensityMatrix, StateVector


def random_pure(gen, dim):
    v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return v / np.linalg.norm(v)


def test_catalog_sizes_and_projector_shape():
    one, two = tomography.CATALOG[1], tomography.CATALOG[2]
    assert one.projectors.shape == (6, 2, 2) and two.projectors.shape == (36, 4, 4)
    assert len(one.settings) == 6 and len(two.settings) == 36
    for P in one.projectors:
        assert np.allclose(P, P.conj().T)
        assert np.allclose(P @ P, P)          # rank-1 projector
        assert abs(np.trace(P).real - 1.0) < 1e-12
    assert two.settings[0] == ("H", "H") and two.settings[1] == ("H", "V")
    assert np.allclose(two.projectors[1], np.kron(one.projectors[0], one.projectors[1]))


def test_circular_kets_convention():
    # R = (H - iV)/sqrt2, L = (H + iV)/sqrt2
    one = tomography.CATALOG[1]
    projector = dict(zip(one.settings, one.projectors))
    want = np.outer([1, -1j], [1, 1j]) / 2.0
    assert np.max(np.abs(projector[("R",)] - want)) < 1e-15
    # H/V projectors resolve the identity
    assert np.allclose(projector[("H",)] + projector[("V",)], np.eye(2))


def projection(catalog, f):
    """The Pauli coefficients of frequencies f as reconstruct takes them."""
    return catalog.design.T @ f / (catalog.design ** 2).sum(axis=0)


def test_design_matrix_is_informationally_complete():
    one, two = tomography.CATALOG[1].design, tomography.CATALOG[2].design
    assert one.shape == (6, 4) and two.shape == (36, 16)
    # exact integers: the one-qubit table of 0 and ±1, and its Kronecker square
    assert one.dtype.kind == "i" and set(one.ravel().tolist()) == {-1, 0, 1}
    assert two.dtype.kind == "i" and np.array_equal(two, np.kron(one, one))
    # the independent route: tr(Π_i P_k) from the kets
    for catalog in tomography.CATALOG.values():
        traces = np.trace(catalog.projectors[:, None] @ catalog.paulis[None], axis1=2, axis2=3)
        assert np.max(np.abs(traces - catalog.design)) <= 1e-15
    # orthogonal nonzero columns, so the design has full column rank
    assert np.array_equal(one.T @ one, np.diag([6, 2, 2, 2]))
    assert np.array_equal(two.T @ two, np.diag(np.kron([6, 2, 2, 2], [6, 2, 2, 2])))


def test_projection_is_the_least_squares_solution():
    # lstsq is the reference: the diagonal D^T D makes its solution the projection
    gen = np.random.default_rng(31)
    worst = 0.0
    for n, catalog in tomography.CATALOG.items():
        for seed in range(200):
            g = gen.normal(size=(2 ** n, 2 ** n)) + 1j * gen.normal(size=(2 ** n, 2 ** n))
            rho = DensityMatrix(catalog.basis, g @ g.conj().T / np.trace(g @ g.conj().T).real)
            for shots in (None, 10_000):
                f = tomography.simulate_counts(rho, shots, seed).frequencies()
                c, *_ = np.linalg.lstsq(catalog.design, f, rcond=None)
                worst = max(worst, float(np.max(np.abs(projection(catalog, f) - c))))
    assert worst <= 2e-15, worst


def test_exact_counts_are_born_probabilities():
    s = StateVector(POL_BASIS, [1.0, 0.0])
    table = tomography.simulate_counts(DensityMatrix.from_state(s), None, 0)
    assert table.shots_per_setting is None
    assert abs(table.counts[("H",)] - 1.0) < 1e-15
    assert abs(table.counts[("V",)]) < 1e-15
    assert abs(table.counts[("D",)] - 0.5) < 1e-15
    assert abs(table.counts[("R",)] - 0.5) < 1e-15


def test_counts_are_seeded_and_bounded():
    gen = np.random.default_rng(2)
    rho = DensityMatrix.from_state(
        StateVector(POL_BASIS, random_pure(gen, 2)))
    t1 = tomography.simulate_counts(rho, 500, 9)
    t2 = tomography.simulate_counts(rho, 500, 9)
    t3 = tomography.simulate_counts(rho, 500, 10)
    assert t1.counts == t2.counts
    assert t1.counts != t3.counts
    assert all(0 <= c <= 500 for c in t1.counts.values())


def test_counts_csv_round_trip():
    gen = np.random.default_rng(4)
    basis = tomography.CATALOG[2].basis
    rho = DensityMatrix.from_state(StateVector(basis, random_pure(gen, 4)))
    for shots in (None, 777):
        table = tomography.simulate_counts(rho, shots, 31)
        text = table.to_csv()
        assert text.startswith("# seed=31\n")
        assert text.splitlines()[1] == "setting,count,shots,seed"
        back = tomography.CountsTable.from_csv(text)
        assert back.shots_per_setting == shots
        assert back.seed == 31
        if shots is None:
            assert all(abs(back.counts[k] - table.counts[k]) == 0.0
                       for k in table.counts)
        else:
            assert back.counts == table.counts


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2)), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.none(), st.integers(1, 2 ** 63 - 1)), st.integers(0, 2 ** 64 - 1))
def test_counts_csv_round_trip_is_exact(n_qubits, state_seed, shots, seed):
    basis = tomography.CATALOG[n_qubits].basis
    amps = random_pure(np.random.default_rng(state_seed), 2 ** n_qubits)
    table = tomography.simulate_counts(
        DensityMatrix.from_state(StateVector(basis, amps)), shots, seed)
    assert tomography.CountsTable.from_csv(table.to_csv()) == table


def test_stacked_born_and_pauli_sums_equal_the_setting_loops():
    # simulate_counts and reconstruct take all settings in one array call;
    # the per-setting loops they replaced give the same bits
    gen = np.random.default_rng(8)
    for _ in range(50):
        for n, catalog in tomography.CATALOG.items():
            psi = random_pure(gen, 2 ** n)
            rho = np.outer(psi, psi.conj())
            born = catalog.born(rho)
            loop = np.array([np.trace(rho @ P).real for P in catalog.projectors])
            assert born.tobytes() == loop.tobytes()
            c = projection(catalog, born)
            stacked = (c[:, None, None] * catalog.paulis).sum(axis=0)
            assert stacked.tobytes() == sum(ck * P for ck, P in zip(c, catalog.paulis)).tobytes()


def test_exact_reconstruction_of_random_states():
    gen = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        for n, dim in ((1, 2), (2, 4)):
            basis = tomography.CATALOG[n].basis
            rho = DensityMatrix.from_state(StateVector(basis, random_pure(gen, dim)))
            report = tomography.reconstruct(
                tomography.simulate_counts(rho, None, 0))
            worst = max(worst, float(np.max(np.abs(report.rho_hat.matrix - rho.matrix))))
            assert report.residual < 1e-10
    assert worst <= 1e-15, worst


def test_reconstruction_reports_fidelity_and_concurrence():
    basis = tomography.CATALOG[2].basis
    triplet = StateVector(basis, np.array([1, 0, 0, 1]) / math.sqrt(2))
    report = tomography.reconstruct(
        tomography.simulate_counts(DensityMatrix.from_state(triplet), None, 0),
        target=triplet)
    assert abs(report.fidelity_vs_target - 1.0) < 1e-10
    assert abs(report.concurrence - 1.0) < 1e-8
    single = StateVector(POL_BASIS, [math.cos(0.4), math.sin(0.4)])
    report1 = tomography.reconstruct(
        tomography.simulate_counts(DensityMatrix.from_state(single), None, 0))
    assert report1.concurrence is None and report1.fidelity_vs_target is None


@pytest.mark.xfail(strict=True, reason=(
    "qcore.fidelity returns the real part of <t|rho|t> unclipped, so the exact "
    "reconstruction of the tomo_two_exact golden state reads 1.0000000000000004; "
    "ROADMAP item 3 bounds it and regenerates tomo_two_exact/report.json"))
def test_exact_fidelity_is_at_most_one():
    target = elab.polarization_pair_state(elab.TwoPhotonConfig(math.asin(0.51), math.pi / 5))
    report = tomography.reconstruct(
        tomography.simulate_counts(DensityMatrix.from_state(target), None, 18), target=target)
    assert report.fidelity_vs_target <= 1.0


def test_two_qubit_reconstruction_decomposes_its_estimate_twice(monkeypatch):
    # the positivity repair's eigh, then the DensityMatrix check's, whose
    # (w, V) concurrence reads: the estimate is not checked a second time
    basis = tomography.CATALOG[2].basis
    state = StateVector(basis, np.array([0.6, 0.0, 0.0, 0.8]))
    table = tomography.simulate_counts(DensityMatrix.from_state(state), 1000, 4)
    calls, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    report = tomography.reconstruct(table)
    # the repair decomposes the table's one-row stack
    assert [np.shape(a) for a in calls] == [(1, 4, 4), (1, 4, 4)]
    # the raw estimate is the projection's Pauli sum, exactly Hermitian with
    # no symmetrizing step (only its diagonal's zero imaginary parts may
    # differ from the conjugate's in sign)
    catalog = tomography.CATALOG[2]
    c = projection(catalog, table.frequencies())
    assert calls[0][0].tobytes() == (c[:, None, None] * catalog.paulis).sum(axis=0).tobytes()
    assert np.array_equal(calls[0][0], calls[0][0].conj().T)
    # the same bits as Wootters on a fresh decomposition of the estimate
    assert report.concurrence == qcore.concurrences(report.rho_hat.matrix[None])[0]


def random_rhos(gen, n_qubits, count):
    """`count` random n-qubit density matrices g·g†/tr, of ranks 1 to 2^n in turn."""
    d = 2 ** n_qubits
    rhos = []
    for i in range(count):
        g = gen.normal(size=(d, 1 + i % d)) + 1j * gen.normal(size=(d, 1 + i % d))
        m = g @ g.conj().T
        rhos.append(m / np.trace(m).real)
    return np.array(rhos)


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_born_equals_each_matrix_born(n):
    catalog = tomography.CATALOG[n]
    rhos = random_rhos(np.random.default_rng(20 + n), n, 16)
    stacked = catalog.born(rhos)
    assert stacked.shape == (16, 6 ** n)
    assert stacked.tobytes() == np.array([catalog.born(rho) for rho in rhos]).tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_estimate_equals_its_one_row_calls(n):
    # verify estimates a stack per qubit count and reconstruct a one-row
    # stack: the same bits, for exact frequency rows and 10^4-shot rows
    catalog = tomography.CATALOG[n]
    rhos = [DensityMatrix(catalog.basis, m)
            for m in random_rhos(np.random.default_rng(30 + n), n, 12)]
    freqs = np.array([tomography.simulate_counts(rho, shots, i).frequencies()
                      for i, rho in enumerate(rhos) for shots in (None, 10_000)])
    stacked = tomography.estimate_rows(n, freqs)
    assert stacked.shape == (24, 2 ** n, 2 ** n)
    for f, estimate in zip(freqs, stacked):
        assert estimate.tobytes() == tomography.estimate_rows(n, f[None])[0].tobytes()
    # the report holds the one-row estimate as it came
    table = tomography.simulate_counts(rhos[0], 10_000, 5)
    report = tomography.reconstruct(table)
    assert (report.rho_hat.matrix.tobytes()
            == tomography.estimate_rows(n, table.frequencies()[None])[0].tobytes())


@pytest.mark.parametrize("n", [1, 2])
def test_a_collapsed_row_is_refused(n):
    catalog = tomography.CATALOG[n]
    freqs = np.tile(catalog.born(np.eye(2 ** n) / 2 ** n), (3, 1))
    tomography.estimate_rows(n, freqs)
    freqs[1] = 0.0
    with pytest.raises(ValueError, match="reconstruction collapsed to the zero matrix"):
        tomography.estimate_rows(n, freqs)
    zeros = tomography.CountsTable(dict.fromkeys(catalog.settings, 0), 100, 0)
    with pytest.raises(ValueError, match="reconstruction collapsed to the zero matrix"):
        tomography.reconstruct(zeros)


def test_finite_shot_fidelity_is_high():
    target = StateVector(POL_BASIS,
                         [math.cos(0.22 * math.pi), math.sin(0.22 * math.pi)])
    table = tomography.simulate_counts(DensityMatrix.from_state(target), 10_000, 7)
    report = tomography.reconstruct(table, target=target)
    assert report.fidelity_vs_target > 0.99
    assert report.residual < 0.05


def test_repair_keeps_reconstruction_physical():
    # heavy shot noise forces the raw inversion outside the state set; the
    # repaired estimate must still be a density matrix with a real residual
    gen = np.random.default_rng(12)
    basis = tomography.CATALOG[2].basis
    rho = DensityMatrix.from_state(StateVector(basis, random_pure(gen, 4)))
    for seed in range(5):
        report = tomography.reconstruct(tomography.simulate_counts(rho, 40, seed))
        w = np.linalg.eigvalsh(report.rho_hat.matrix)
        assert w[0] > -1e-12
        assert abs(np.trace(report.rho_hat.matrix).real - 1.0) < 1e-10
        assert report.residual >= 0.0


def test_incomplete_table_is_rejected():
    table = tomography.CountsTable({("H",): 1.0, ("V",): 0.0}, None, 0)
    with pytest.raises(KeyError):
        tomography.reconstruct(table)


def _counts_csv(shots=1000):
    s = StateVector(POL_BASIS, [math.cos(0.3), math.sin(0.3)])
    return tomography.simulate_counts(DensityMatrix.from_state(s), shots, 3).to_csv()


def _edit_row(text, setting, new_row):
    lines = text.splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(setting + ","))
    lines[i] = "" if new_row is None else new_row + "\n"
    return "".join(lines)


@pytest.mark.parametrize("setting,row,why", [
    ("V", None, "each setting"),            # one setting row removed
    ("V", "HV,10,1000,3", "each setting"),  # a two-qubit label in a one-qubit table
    ("V", "H,10,1000,3", "each setting"),   # a setting repeated
    ("V", "V,10,999,3", "one shots value"),
    ("V", "V,5000,1000,3", "outside"),      # more clicks than shots
    ("V", "V,-1,1000,3", "outside"),
    ("V", "V,10,0,3", "one shots value"),
    ("V", "V,10,1000", "4 fields"),
])
def test_counts_csv_validation(setting, row, why):
    text = _edit_row(_counts_csv(), setting, row)
    with pytest.raises(ValueError, match=why):
        tomography.CountsTable.from_csv(text)


def test_exact_counts_csv_rejects_probabilities_outside_the_unit_interval():
    s = StateVector(POL_BASIS, [1.0, 0.0])
    text = tomography.simulate_counts(DensityMatrix.from_state(s), None, 3).to_csv()
    with pytest.raises(ValueError, match="outside"):
        tomography.CountsTable.from_csv(_edit_row(text, "H", "H,1.5,exact,3"))
    with pytest.raises(ValueError, match="one shots value"):
        tomography.CountsTable.from_csv("# seed=3\nsetting,count,shots,seed\n")


def test_counts_csv_rejects_zero_shots_and_three_qubit_labels():
    with pytest.raises(ValueError, match=">= 1"):
        tomography.CountsTable.from_csv(_counts_csv().replace(",1000,", ",0,"))
    three = "".join(f"{a}{b}{c},0,10,3\n" for a in "HV" for b in "HV" for c in "HV")
    with pytest.raises(ValueError, match="each setting"):
        tomography.CountsTable.from_csv(three)


def test_simulate_counts_input_validation():
    basis = tomography.CATALOG[1].basis
    rho = DensityMatrix(basis, np.eye(2) / 2)
    with pytest.raises(ValueError):
        tomography.simulate_counts(rho, 0, 1)
    big = DensityMatrix(elab.FULL_BASIS, np.eye(8) / 8)
    with pytest.raises(ValueError):
        tomography.simulate_counts(big, 100, 1)


def test_report_json_fields():
    s = StateVector(POL_BASIS, [1.0, 0.0])
    report = tomography.reconstruct(
        tomography.simulate_counts(DensityMatrix.from_state(s), None, 0), target=s)
    import json
    doc = json.loads(report.to_json())
    assert set(doc) == {"basis", "rho_hat", "fidelity_vs_target", "concurrence",
                        "residual"}
    assert doc["basis"] == ["signal_pol"]
    assert doc["rho_hat"][0][0][0] == pytest.approx(1.0, abs=1e-10)
    assert doc["concurrence"] is None
