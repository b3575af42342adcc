import math

import pytest

from cmiplab import entanglement_lab as elab
from cmiplab import interferometer as ifo
from cmiplab import qcore, verify
from cmiplab.interferometer import solve_gamma1

REQUIRED = {
    "unitarity_preservation",
    "normalization_repair",
    "postselect_completeness",
    "concurrence_pure_equivalence",
    "concurrence_local_unitary_invariance",
    "delta_independence",
}


def test_all_checks_pass_on_a_clean_build():
    results = verify.run_all()
    names = {r.name for r in results}
    assert REQUIRED <= names
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert all(isinstance(r.detail, str) and r.detail for r in results)


def crooked(alpha, beta):
    """The `verify --mutate gamma1` fault: γ1 off by 1e-3, inside its range."""
    return min(solve_gamma1(alpha, beta) + 1e-3, math.pi / 4)


def test_perturbed_solver_breaks_the_inner_product_contract():
    results = {r.name: r for r in verify.run_all(gamma1_solver=crooked)}
    assert not results["inner_product_contract"].passed
    # checks that do not involve the expansion solver stay green
    assert results["unitarity_preservation"].passed
    assert results["concurrence_pure_equivalence"].passed
    assert results["usd_idp_point"].passed


def test_grid_is_evaluated_once_per_solver():
    calls = []

    def counting(alpha, beta):
        calls.append((alpha, beta))
        return solve_gamma1(alpha, beta)

    results = verify.run_all(gamma1_solver=counting)
    assert all(r.passed for r in results)
    # the three (α, β) grid checks share one pass
    expand_points = sum(a <= b for a, b in verify._ab_grid())
    assert len(calls) == expand_points
    # the memo lives for one run_all call: the next call evaluates the grid again
    verify.run_all(gamma1_solver=counting)
    assert len(calls) == 2 * expand_points


def test_a_mutated_run_evolves_the_grid_once(monkeypatch):
    # the three (α, β) grid checks share one device pass under the run's
    # solver: 900 points, each with its + and − input
    rows, evolve = [], ifo.evolve

    def spy(amps, *angles):
        rows.append(len(amps))
        return evolve(amps, *angles)

    monkeypatch.setattr(ifo, "evolve", spy)
    verify.run_all(gamma1_solver=crooked)
    assert 2 * len(list(verify._ab_grid())) == 1800 and rows.count(1800) == 1


def test_pair_grid_closed_forms_are_evaluated_once(monkeypatch):
    calls = []
    closed = elab.output_entanglement

    def counting(*args):
        calls.append(args)
        return closed(*args)

    monkeypatch.setattr(elab, "output_entanglement", counting)
    results = verify.run_all()
    assert all(r.passed for r in results)
    # entanglement_closed_vs_brute and concentration_predicate_equivalence
    # share one pass over the 1000 (α, γ1, γ2) points
    assert len(calls) == 1000
    # the memo lives for one run_all call
    verify.run_all()
    assert len(calls) == 2000


def test_raising_solver_fails_its_checks_without_aborting():
    def broken(alpha, beta):
        raise ArithmeticError("solver fault")

    results = verify.run_all(gamma1_solver=broken)
    assert len(results) == 16
    failed = {r.name: r.detail for r in results if not r.passed}
    # the three (α, β) grid checks read the one pass under the run's solver
    assert set(failed) == {"inner_product_contract", "probability_equivalence",
                           "failure_state_purity"}
    assert all("ArithmeticError: solver fault" in d for d in failed.values())


def test_results_carry_their_numbers():
    clean = verify.run_all()
    assert all(r.worst <= r.tol and r.passed for r in clean), clean
    mutated = verify.run_all(gamma1_solver=crooked)
    assert [r.name for r in mutated if r.worst > r.tol] == [
        "inner_product_contract", "probability_equivalence"]
    assert all(r.passed == (r.worst <= r.tol) for r in mutated)
    # the detail line is formatted from the number
    ip = next(r for r in mutated if r.name == "inner_product_contract")
    assert ip.detail.endswith(f"{ip.worst:.2e}") and ip.tol == 1e-9


# run_all(seed=s) before the per-sample checks were batched: each check's
# detail line and its exact worst value (0 violations for the yes/no checks)
PINNED_SEEDS = {
    1: [
        ('worst unitarity deviation 2.22e-16', 2.220446049250313e-16),
        ('repairs 1e-9 deviations, rejects 1e-2', 0),
        ('worst probability-sum deviation 4.44e-16', 4.440892098500626e-16),
        ('worst |Wootters − 2|ad−bc|| = 1.78e-15', 1.7763568394002505e-15),
        ('worst local-unitary deviation 2.78e-15', 2.7755575615628914e-15),
        ('worst delta dependence 5.55e-16', 5.551115123125783e-16),
        ('worst ⟨φ+|φ−⟩ − cos β deviation 2.55e-15', 2.55351295663786e-15),
        ('worst amplitude-vs-closed-form gap 6.66e-16', 6.661338147750939e-16),
        ('worst |P(α,π/2) − (1−cos α)| = 3.33e-16', 3.3306690738754696e-16),
        ('P never increases as β moves away from α on either side', 0),
        ('worst stray failure amplitude 0.00e+00', 0.0),
        ('worst closed-form-vs-state gap 6.00e-15', 5.995204332975845e-15),
        ('0 predicate mismatches', 0),
        ('worst exact-mode reconstruction error 4.44e-16', 4.442087593794096e-16),
        ('qber exactly 0 without an eavesdropper', 0),
        ('identical seeds give identical counts and session stats', 0),
    ],
    7: [
        ('worst unitarity deviation 3.33e-16', 3.3306690738754696e-16),
        ('repairs 1e-9 deviations, rejects 1e-2', 0),
        ('worst probability-sum deviation 4.44e-16', 4.440892098500626e-16),
        ('worst |Wootters − 2|ad−bc|| = 2.22e-15', 2.220446049250313e-15),
        ('worst local-unitary deviation 3.22e-15', 3.219646771412954e-15),
        ('worst delta dependence 5.55e-16', 5.551115123125783e-16),
        ('worst ⟨φ+|φ−⟩ − cos β deviation 2.55e-15', 2.55351295663786e-15),
        ('worst amplitude-vs-closed-form gap 6.66e-16', 6.661338147750939e-16),
        ('worst |P(α,π/2) − (1−cos α)| = 3.33e-16', 3.3306690738754696e-16),
        ('P never increases as β moves away from α on either side', 0),
        ('worst stray failure amplitude 0.00e+00', 0.0),
        ('worst closed-form-vs-state gap 6.00e-15', 5.995204332975845e-15),
        ('0 predicate mismatches', 0),
        ('worst exact-mode reconstruction error 4.45e-16', 4.446498126012308e-16),
        ('qber exactly 0 without an eavesdropper', 0),
        ('identical seeds give identical counts and session stats', 0),
    ],
    123456789: [
        ('worst unitarity deviation 2.22e-16', 2.220446049250313e-16),
        ('repairs 1e-9 deviations, rejects 1e-2', 0),
        ('worst probability-sum deviation 4.44e-16', 4.440892098500626e-16),
        ('worst |Wootters − 2|ad−bc|| = 2.44e-15', 2.4424906541753444e-15),
        ('worst local-unitary deviation 2.78e-15', 2.7755575615628914e-15),
        ('worst delta dependence 5.55e-16', 5.551115123125783e-16),
        ('worst ⟨φ+|φ−⟩ − cos β deviation 2.55e-15', 2.55351295663786e-15),
        ('worst amplitude-vs-closed-form gap 6.66e-16', 6.661338147750939e-16),
        ('worst |P(α,π/2) − (1−cos α)| = 3.33e-16', 3.3306690738754696e-16),
        ('P never increases as β moves away from α on either side', 0),
        ('worst stray failure amplitude 0.00e+00', 0.0),
        ('worst closed-form-vs-state gap 6.00e-15', 5.995204332975845e-15),
        ('0 predicate mismatches', 0),
        ('worst exact-mode reconstruction error 6.66e-16', 6.661338147750939e-16),
        ('qber exactly 0 without an eavesdropper', 0),
        ('identical seeds give identical counts and session stats', 0),
    ],
}


@pytest.mark.parametrize("seed", sorted(PINNED_SEEDS))
def test_other_seeds_keep_their_bits(seed):
    results = verify.run_all(seed=seed)
    assert [(r.detail, r.worst) for r in results] == PINNED_SEEDS[seed]
    assert all(r.passed for r in results)


def test_each_check_runs_once_in_result_order(monkeypatch):
    # the benchmark tracer names each check's span by matching the order of
    # the verify._check_* calls with the order of run_all's results
    names = [n for n in vars(verify) if n.startswith("_check_")]
    calls = []
    for name in names:
        def fake(gen, *extra, _name=name):
            calls.append(_name)
            return float(len(calls) - 1)  # the result this call produced
        monkeypatch.setattr(verify, name, fake)
    results = verify.run_all()
    assert sorted(calls) == sorted(names) and len(names) == len(results)
    assert [r.worst for r in results] == list(range(len(results)))


def test_a_broken_wootters_fails_the_pure_equivalence_check(monkeypatch):
    # the pure-state check reads Wootters through density matrices, so it
    # still compares two routes; no other check reads a pure row's Wootters
    wootters = qcore._wootters
    monkeypatch.setattr(qcore, "_wootters", lambda w, V: wootters(w, V) + 1e-6)
    failed = [r.name for r in verify.run_all() if not r.passed]
    assert failed == ["concurrence_pure_equivalence"]
