import math

from cmiplab import verify
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


def test_perturbed_solver_breaks_the_inner_product_contract():
    def crooked(alpha, beta):
        return min(solve_gamma1(alpha, beta) + 1e-3, math.pi / 4)

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
    # inner_product_contract and probability_equivalence share one pass
    expand_points = sum(a <= b for a, b in verify._ab_grid())
    assert len(calls) == expand_points


def test_raising_solver_fails_its_checks_without_aborting():
    def broken(alpha, beta):
        raise ArithmeticError("solver fault")

    results = verify.run_all(gamma1_solver=broken)
    assert len(results) == 16
    failed = {r.name: r.detail for r in results if not r.passed}
    assert set(failed) == {"inner_product_contract", "probability_equivalence"}
    assert all("ArithmeticError: solver fault" in d for d in failed.values())
