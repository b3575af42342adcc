"""Hand-made physics faults, and the `verify` checks that catch each one.

Each fault replaces one expression in the source of one function or module
constant and rebinds the edited definition in its module, where every caller
looks it up, for one `verify.run_all()`.  The table pins exactly which
checks fail.  A fault that verify misses is a strict xfail that names the
tier-1 tests that catch it: a check added later turns that xfail into a
pass, and the change that adds the check moves the fault's checks into the
table.
"""

import ast
import inspect
from typing import NamedTuple

import pytest
import test_entanglement_lab
import test_qcore
import test_qkd42
import test_rng
import test_tomography

from cmiplab import entanglement_lab, interferometer, qcore, qkd42, rng, tomography, verify


class Fault(NamedTuple):
    module: object
    function: str       # a function, or a module constant bound by one assignment
    old: str            # an expression that occurs once in its source
    new: str            # what the fault puts in its place
    fails: tuple = ()   # the verify checks that fail, in result order
    caught_by: tuple = ()  # for a fault verify misses: the tier-1 tests that fail


FAULTS = {
    # pure rows have λ2 = λ3 = λ4 ≈ 0, and local unitaries keep every λ
    "wootters_plus_lambda4": Fault(
        qcore, "_wootters", "lam[:, 2] - lam[:, 3]", "lam[:, 2] + lam[:, 3]",
        caught_by=("test_qcore.py::test_concurrence_werner_family",
                   # these two only because printed digits of a worst moved
                   "test_golden.py::test_cli_output_matches_golden[verify]"
                   " and [verify_mutate_gamma1]",
                   "test_verify.py::test_other_seeds_keep_their_bits, all three seeds")),
    # verify's one session has θ1 = θ2
    "theta_angles_swapped": Fault(
        qkd42, "theta_angles", "return theta1, theta2", "return theta2, theta1",
        caught_by=("test_qkd42.py::test_theta_angles_and_empty_ports",
                   "test_qkd42.py::test_family_states_are_normalized_with_overlap_cos_theta",
                   "test_qkd42.py::test_matched_plus_thresholds_make_no_eve_sessions_error_free"
                   " [enc+] and [enc-]",
                   "test_golden.py::test_cli_output_matches_golden[qkd_stats_only]")),
    # a p just below 1 gets t = 2^32 - 1: a miss has chance 2^-32 a pulse
    "thresholds_by_floor": Fault(
        rng, "thresholds", "np.rint(", "np.floor(",
        caught_by=("test_rng.py::test_thresholds_split_the_words_at_p"
                   " [0.9999999999999999] and [0.3]",
                   "test_qkd42.py::test_decided_chances_read_no_stream",
                   "test_qkd42.py::test_matched_plus_thresholds_make_no_eve_sessions_error_free"
                   " [enc+] and [enc-]")),
    "thresholds_scaled": Fault(
        rng, "thresholds", "* 2.0 ** 32)", "* 2.0 ** 32 * (1 - 1e-3))",
        fails=("qkd_no_eve_errorfree",)),
    "predicate_negated": Fault(
        entanglement_lab, "concentration_predicate", "return lhs <= 0.0",
        "return not lhs <= 0.0", fails=("concentration_predicate_equivalence",)),
    # the predicate check reads e1 only, so it stays green
    "e2_scaled": Fault(
        entanglement_lab, "output_entanglement", "abs(s1 * s2) / n2",
        "abs(s1 * s2) / n2 * (1 + 1e-6)", fails=("entanglement_closed_vs_brute",)),
    # every Pauli coefficient over the 6^n settings, not over its diag(DᵀD)
    "estimate_divisor_settings": Fault(
        tomography, "estimate_rows", "/ (catalog.design ** 2).sum(axis=0)",
        "/ len(catalog.design)", fails=("tomography_round_trip",)),
    # Eve resends e2 on outcome e1 and e1 on e2; verify runs no session with
    # Eve, and at θ = π/2 an H/V intercept moves no byte
    "eve_resends_the_other_state": Fault(
        qkd42, "run_session", "states = np.array([e1, e2])", "states = np.array([e2, e1])",
        caught_by=("test_qkd42.py::test_monitor_rate_tracks_the_channel",
                   "test_qkd42.py::test_intercept_resend_error_rates",
                   "test_qkd42.py::test_session_equals_the_per_pulse_reference"
                   " [hv-*], [pi8-*] and [eta_random-*]",
                   "test_golden.py::test_cli_output_matches_golden[qkd_intercept_pi8]")),
    # one bit of one pulse-log row: Bob's bit 1 logged as 0 on row code 21
    # (Alice's bit 1 sent from port 1, family 2 guessed); verify writes no log
    "row_suffix_bit_flipped": Fault(
        qkd42, "_ROW_SUFFIX", "conclusive,{b}", "conclusive,{b ^ ((a, o, g, b) == (1, 1, 2, 1))}",
        caught_by=("test_qkd42.py::test_pulse_log_keeps_every_byte_of_the_row_comprehension",
                   "test_qkd42.py::test_session_equals_the_per_pulse_reference",
                   "test_golden.py::test_cli_output_matches_golden[qkd_no_eve],"
                   " [qkd_intercept] and [qkd_intercept_pi8]")),
    # +i on the path-changing amplitudes conjugates a path-2 branch's global
    # phase, which no probability, overlap or concurrence that verify reads sees
    "device_plus_i": Fault(
        interferometer, "device_unitary", "-1j * s", "1j * s",
        caught_by=("test_engine.py::test_plate_loop_keeps_the_entrywise_bits",
                   "test_entanglement_lab.py::test_general_unitary_matrix_entries")),
    "plate_angle_scaled": Fault(
        interferometer, "_plate_angle", "0.5 * math.acos(", "0.5 * (1 + 1e-9) * math.acos(",
        fails=("inner_product_contract", "probability_equivalence")),
    "n2_from_rounded_n1": Fault(
        entanglement_lab, "branch_probabilities", "return n1, 1.0 - n1",
        "return n1, 1.0 - round(n1, 9)", fails=("entanglement_closed_vs_brute",)),
    # verify's round trip inverts exact Born probabilities of mixed states,
    # whose estimates are physical up to rounding, within its tolerances
    "estimate_unclipped": Fault(
        tomography, "estimate_rows", "np.clip(w, 0.0, None)", "w",
        caught_by=("test_tomography.py::test_repair_keeps_reconstruction_physical",)),
}

#: one tier-1 test per fault that verify misses, called directly under it
PHYSICS_CATCHERS = {
    "wootters_plus_lambda4": test_qcore.test_concurrence_werner_family,
    "theta_angles_swapped": test_qkd42.test_theta_angles_and_empty_ports,
    "thresholds_by_floor": lambda: test_rng.test_thresholds_split_the_words_at_p(0.3),
    "eve_resends_the_other_state": test_qkd42.test_monitor_rate_tracks_the_channel,
    "row_suffix_bit_flipped":
        lambda: test_qkd42.test_pulse_log_keeps_every_byte_of_the_row_comprehension(0, 100),
    "device_plus_i": test_entanglement_lab.test_general_unitary_matrix_entries,
    "estimate_unclipped": test_tomography.test_repair_keeps_reconstruction_physical,
}


def definition_source(module, name):
    """The source of the module's top-level function or assignment that binds `name`."""
    source = inspect.getsource(module)
    for node in ast.parse(source).body:
        if (isinstance(node, ast.FunctionDef) and node.name == name or isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == [name]):
            return ast.get_source_segment(source, node)
    raise LookupError(f"{module.__name__} binds no {name} at top level")


def inject(monkeypatch, fault):
    """Rebind the fault's definition to its source with `old` replaced by `new`."""
    source = definition_source(fault.module, fault.function)
    assert source.count(fault.old) == 1, f"{fault.function} no longer holds {fault.old!r}"
    namespace = {}
    exec(compile("from __future__ import annotations\n" + source.replace(fault.old, fault.new),
                 inspect.getsourcefile(fault.module), "exec"), vars(fault.module), namespace)
    monkeypatch.setattr(fault.module, fault.function, namespace[fault.function])


def _missed(name):
    return pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=(
        "verify passes every check; caught by " + "; ".join(FAULTS[name].caught_by))))


@pytest.mark.parametrize("name", [_missed(n) if not f.fails else n for n, f in FAULTS.items()])
def test_verify_fails_exactly_the_checks_of_a_fault(name, monkeypatch):
    fault = FAULTS[name]
    inject(monkeypatch, fault)
    failed = tuple(r.name for r in verify.run_all() if not r.passed)
    assert failed, "verify passes every check"
    assert failed == fault.fails


def test_the_clean_tree_fails_no_check():
    # so the table's failures are the faults' own
    assert all(r.passed for r in verify.run_all())
    assert set(PHYSICS_CATCHERS) == {n for n, f in FAULTS.items() if not f.fails}
    assert all(f.caught_by for f in FAULTS.values() if not f.fails)


@pytest.mark.parametrize("name", sorted(PHYSICS_CATCHERS))
def test_a_fault_verify_misses_fails_its_physics_test(name, monkeypatch):
    PHYSICS_CATCHERS[name]()  # passes on the clean tree
    inject(monkeypatch, FAULTS[name])
    # the test fails on its assertions, or on the ValueError of a state check
    # (an unclipped estimate is no density matrix)
    with pytest.raises((AssertionError, ValueError)):
        PHYSICS_CATCHERS[name]()
