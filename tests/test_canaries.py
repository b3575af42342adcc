"""Canaries for the numpy and LAPACK outputs that golden cases rest on.

Each canary pins, as literals taken at numpy 2.4.6, a few outputs of one
call on a fixed Philox key or a fixed small matrix, compared bit for bit:
integers as they are, floats as `float.hex` strings.
NEP 19 lets `Generator` method streams change between numpy feature
releases, and a LAPACK or BLAS build may round a decomposition differently;
either would fail several golden cases at once with byte diffs that do not
say why.  A failing canary names the call that moved, and `GOLDENS` names
the golden cases (`tests/test_golden.py`) that rest on it.
"""

import math

import numpy as np

from cmiplab import rng

#: canary -> the golden cases whose bytes rest on that call
GOLDENS = {
    "random_raw": ("qkd_no_eve", "qkd_intercept", "qkd_intercept_pi8", "qkd_stats_only"),
    "binomial": ("cmip_expand", "cmip_contract", "tomo_one_shots", "tomo_two_shots"),
    "uniform": ("verify", "verify_mutate_gamma1"),
    "normal": ("verify", "verify_mutate_gamma1"),
    "eigh": ("tomo_one_exact", "tomo_one_shots", "tomo_two_exact", "tomo_two_shots",
             "verify", "verify_mutate_gamma1"),
    "svd": ("tomo_two_exact", "tomo_two_shots", "verify", "verify_mutate_gamma1"),
    "qr": ("verify", "verify_mutate_gamma1"),
}

#: a Hermitian 4×4 matrix with distinct eigenvalues, and a general one
HERMITIAN = np.array([[2, 1 - 1j, 0.5j, 0], [1 + 1j, -1, 0.25, 1j],
                      [-0.5j, 0.25, 0.5, 1 - 0.5j], [0, -1j, 1 + 0.5j, 3]])
GENERAL = HERMITIAN @ np.diag([1, 2j, -1, 0.5]) + 0.125


def canaries_of(case):
    """The canaries whose calls the golden case rests on."""
    return [name for name, cases in GOLDENS.items() if case in cases]


def test_random_raw():
    # the key session's draws are Philox's raw stream read by its own rule
    words = rng.stream(7, "canary").bit_generator.random_raw(3)
    assert words.tolist() == [17355408409294559612, 4626067253323626278, 4187683206431818028]


def test_binomial():
    # n·p below and above 30 take numpy's inversion and BTPE samplers
    counts = rng.stream(7, "canary").binomial([10, 50, 1000, 100000], [0.3, 0.5, 0.5, 0.93])
    assert counts.tolist() == [5, 23, 492, 92900]


def _verify_generator():
    """A generator built as verify builds one per check, at its default seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(20260824)))


def hexes(values):
    """Each float of an array (real and imaginary parts in turn) as
    float.hex, which names its bits exactly."""
    a = np.ascontiguousarray(values)
    return [x.hex() for x in (a.view(np.float64) if np.iscomplexobj(a) else a).ravel().tolist()]


def test_uniform():
    assert hexes(_verify_generator().uniform(0, math.pi, 3)) == [
        "0x1.abf79994a89b2p-2", "0x1.ddea5c317db2bp+0", "0x1.a03b0562110ddp-3"]


def test_normal():
    gen = _verify_generator()
    gen.uniform(0, math.pi, 3)
    assert hexes(gen.normal(size=3)) == [
        "-0x1.46d9dec34bc2dp-2", "0x1.07cb7dc18ac79p-5", "0x1.e0ef6e739853ep-1"]


def test_eigh():
    w, V = np.linalg.eigh(HERMITIAN)
    assert hexes(w) == ["-0x1.e2a48abbc0705p+0", "0x1.f305f91ca6ac7p-3",
                        "0x1.3324ee9d5db87p+1", "0x1.defcf72eb814cp+1"]
    # the eigenvectors' phases are free; a matrix rebuilt from them is not
    assert hexes(((V * np.abs(w)) @ V.conj().T)[0]) == [
        "0x1.3af166bae8b50p+1", "0x0.0p+0", "0x1.97e3b38e2d41ap-3", "-0x1.61a2c73bd80a7p-3",
        "0x1.b2076292a9b9ap-5", "0x1.6c8c9b4f0b3d6p-3", "0x1.881c1133a8d21p-3",
        "0x1.e1d04497ddd5ap-3"]


def test_svd():
    assert hexes(np.linalg.svd(GENERAL, compute_uv=False)) == [
        "0x1.1cc7def61883ap+2", "0x1.3eae9af1c450ep+1", "0x1.c81790d9ea77bp+0",
        "0x1.f4556b28e5fe1p-4"]


def test_qr():
    # Q times the phases of R's diagonal, as verify's random unitaries take it
    q, r = np.linalg.qr(GENERAL)
    d = np.diagonal(r)
    assert hexes(np.abs(d)) == ["0x1.542a278d2d035p+1", "0x1.fb8e51b793b60p+1",
                                "0x1.9b7b671627106p-1", "0x1.238313a1a639ep-2"]
    assert hexes((q * (d / np.abs(d)))[:, 0]) == [
        "0x1.9966d73f6ecfep-1", "-0x0.0p+0", "0x1.b17bf2f7debe2p-2", "0x1.8151bb86fee1ep-2",
        "0x1.8151bb86fee1ep-5", "-0x1.8151bb86fee1ep-3", "0x1.8151bb86fee1ep-5", "0x0.0p+0"]


def test_every_named_golden_case_exists():
    from test_golden import CASES
    names = {case for case, _, _ in CASES}
    assert {case for cases in GOLDENS.values() for case in cases} <= names
