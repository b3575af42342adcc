"""One reset generator per sampling loop: the same draws as a fresh stream per
key, and one Philox build per loop (none when the loop draws nothing)."""

import math

import numpy as np
import pytest

from cmiplab import interferometer as ifo
from cmiplab import rng, tomography
from cmiplab.qcore import DensityMatrix, StateVector


def draws(gen):
    return (gen.binomial(1000, 0.3),
            gen.integers(0, 2 ** 40, 3).tolist(),
            gen.integers(0, 2 ** 31 - 1, 3, dtype=np.int32).tolist(),
            gen.random(3).tolist(),
            gen.normal(size=3).tolist())


def test_a_reset_generator_draws_as_a_fresh_stream():
    keys = [(5, "tomo", 0), (5, "tomo", 1),
            (rng.derive(7, "cmip_sweep", 3), "sample_runs"), (5, "tomo", 0)]
    gens = rng.streams(keys)
    for key in keys:
        gen = next(gens)
        assert draws(gen) == draws(rng.stream(*key)), key
        # a 32-bit draw can leave half a 64-bit word buffered, which the next
        # reset must drop
        while not gen.bit_generator.state["has_uint32"]:
            gen.integers(0, 2 ** 31 - 1, dtype=np.int32)
    assert next(gens, None) is None


@pytest.fixture
def philox_builds(monkeypatch):
    built, philox = [], np.random.Philox

    def counting(*args, **kwargs):
        built.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    return built


def test_each_sampling_loop_builds_one_generator(philox_builds):
    betas = np.linspace(0.05, 3.0, 100)
    two_qubit = DensityMatrix.from_state(
        StateVector(tomography.CATALOG[2].basis, np.array([1, 0, 0, 1]) / math.sqrt(2)))
    loops = {
        "shot-mode sweep": (lambda: ifo.success_probability_sweep(0.7, betas, 100, 1), 1),
        "two-qubit shot-mode counts": (lambda: tomography.simulate_counts(two_qubit, 500, 3), 1),
        "exact counts": (lambda: tomography.simulate_counts(two_qubit, None, 3), 0),
        "closed-form sweep": (lambda: ifo.success_probability_sweep(0.7, betas, 0, 1), 0),
    }
    for name, (run, builds) in loops.items():
        philox_builds.clear()
        run()
        assert len(philox_builds) == builds, name
