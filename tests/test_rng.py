"""One generator and one binomial call per sampling call: the counts it
draws are binomial and uncorrelated between points, and each call builds one
Philox generator (none when it draws nothing).  The key session's draws are
slices of Philox's raw stream: 32-bit half words for chances, compared with
thresholds that round p to 2^-32, and single bits for coins."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cmiplab import interferometer as ifo
from cmiplab import rng, tomography
from cmiplab.qcore import DensityMatrix, StateVector

#: every mean, variance and correlation below must lie within Z standard
#: errors of its binomial value; a correct sampler misses one such two-sided
#: bound with chance about 6e-5
Z = 4.0
SEEDS = 400


def _assert_binomial(counts, n, p):
    """Per column of a (seeds, points) count table: mean n·p, variance
    n·p(1 − p), and no correlation with the next column."""
    s = counts.shape[0]
    var = n * p * (1 - p)
    mu4 = var * (1 + 3 * (n - 2) * p * (1 - p))  # binomial fourth central moment
    mean, sample_var = counts.mean(axis=0), counts.var(axis=0, ddof=1)
    assert np.all(np.abs(mean - n * p) <= Z * np.sqrt(var / s)), (mean, n * p)
    se_var = np.sqrt((mu4 - var ** 2 * (s - 3) / (s - 1)) / s)
    assert np.all(np.abs(sample_var - var) <= Z * se_var), (sample_var, var)
    r = [np.corrcoef(counts[:, i], counts[:, i + 1])[0, 1] for i in range(counts.shape[1] - 1)]
    assert np.all(np.abs(r) <= Z / math.sqrt(s)), r


@pytest.mark.parametrize("alpha, shots", [(math.pi / 4, 10), (2.3, 1000), (math.pi / 4, 100_000)])
def test_sweep_counts_are_binomial(alpha, shots):
    betas = np.linspace(0.05, 3.0, 6)
    counts = []
    for seed in range(SEEDS):
        p, p_mc = ifo.success_probability_sweep(alpha, betas, shots, seed)
        counts.append(np.rint(p_mc * shots))
    _assert_binomial(np.array(counts), shots, p)


@pytest.mark.parametrize("shots", [50, 10_000])
def test_tomography_counts_are_binomial(shots):
    # a pure state mixed with white noise: every setting's chance is in (0, 1)
    amps = np.array([0.3 + 0.1j, -0.5, 0.6j, 0.2 - 0.4j]) / math.sqrt(0.91)
    rho = DensityMatrix(tomography.CATALOG[2].basis,
                        0.7 * np.outer(amps, amps.conj()) + 0.3 * np.eye(4) / 4)
    p = tomography.CATALOG[2].born(rho.matrix)
    assert np.all((p > 0.05) & (p < 0.95))
    counts = [list(tomography.simulate_counts(rho, shots, seed).counts.values())
              for seed in range(SEEDS)]
    _assert_binomial(np.array(counts, dtype=float), shots, p)


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


#: call sizes in sequence: odd counts start the next call on an odd half word
CALL_SIZES = (1, 7, 8, 16384, 3)
EDGE_PS = (0.0, 2.0 ** -53, 0.5, np.nextafter(1.0, 0.0), 1.0, 1.0000000000000004)


def _bits_of(words, count):
    """Bit i of words[i // 64], least significant first, for i < count."""
    i = np.arange(count)
    return ((words[i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)).astype(np.uint8)


def _coins(words):
    """The coins of raw words as run_session unpacks them: bit i of word j is
    coin 64·j + i."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")


def test_coin_flips_equal_generator_integers():
    # coin i is bit i of Generator.integers' full-range uint64 draws, which
    # are the raw words, read in order a whole number of words at a time
    sizes = [-(-m // 64) for m in CALL_SIZES]
    words = rng.stream(5, "coins").integers(0, 2 ** 64, sum(sizes), dtype=np.uint64)
    coins = _bits_of(words, 64 * sum(sizes))
    random_raw, start = rng.stream(5, "coins").bit_generator.random_raw, 0
    for w in sizes:
        got = _coins(random_raw(w))
        assert got.dtype == np.uint8 and len(got) == 64 * w
        assert np.array_equal(got, coins[start:start + 64 * w]), (start, w)
        start += 64 * w


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 5, 6, 7, 63, 64, 65, 127, 1001, 8192])
@pytest.mark.parametrize("m", [1, 2, 5, 64])
def test_addressed_draws_are_slices_of_one_long_draw(start, m):
    # words [start, start + m), read in order after words [0, start), and
    # their half words and coins, equal the same slices of one draw from the
    # stream's start: start % 4 covers each word of a Philox block, and
    # starts 63 to 127 put the read on either side of a 64-word coin chunk
    random_raw = rng.stream(11, "slices").bit_generator.random_raw
    random_raw(start)
    got = random_raw(m)
    words = rng.stream(11, "slices").bit_generator.random_raw(start + m)
    halves = rng.stream(11, "slices").integers(0, 2 ** 32, 2 * (start + m), dtype=np.uint32)
    assert np.array_equal(got, words[start:])
    assert np.array_equal(got.astype("<u8", copy=False).view("<u4"), halves[2 * start:])
    assert np.array_equal(_coins(got), _bits_of(words, 64 * (start + m))[64 * start:])


@pytest.mark.parametrize("p", EDGE_PS)
def test_raw_words_against_thresholds_equal_generator_random(p):
    # a half word h, the uniform u = h·2^-32, reaches t exactly when u
    # reaches t·2^-32, and agrees with Generator.random's test u >= p
    # wherever u is farther than 2^-33 from p; the half words of one raw
    # read, low half first, are Generator.integers' full-range uint32 draws
    gen, t, start = rng.stream(5, "uniforms"), rng.thresholds(p), 0
    raw = rng.stream(5, "uniforms").bit_generator.random_raw(-(-sum(CALL_SIZES) // 2))
    all_halves = raw.astype("<u8", copy=False).view("<u4")
    for m in CALL_SIZES:
        halves = all_halves[start:start + m]
        assert halves.dtype == np.uint32
        assert np.array_equal(halves, gen.integers(0, 2 ** 32, m, dtype=np.uint32))
        u, reached = halves * 2.0 ** -32, halves >= t
        assert np.array_equal(reached, u >= int(t) * 2.0 ** -32)
        far = np.abs(u - p) > 2.0 ** -33
        assert np.array_equal(reached[far], (u >= p)[far])
        start += m


@pytest.mark.parametrize("p", EDGE_PS + (0.3, 1 / 3, 5e-324))
def test_thresholds_split_the_words_at_p(p):
    # t·2^-32 is the nearest multiple of 2^-32 to p, so a half word falls
    # below t with chance within 2^-33 of p; a p at or just above 1 gives
    # t = 2^32, and compared as uint64 no half word reaches it (as uint32 it
    # would wrap to 0, which every half word reaches)
    t = rng.thresholds(p)
    assert t.dtype == np.uint64 and 0 <= int(t) <= 2 ** 32
    assert abs(Fraction(int(t)) - Fraction(p) * 2 ** 32) <= Fraction(1, 2)
    halves = np.array([h for h in (0, int(t) - 1, int(t), int(t) + 1, 2 ** 32 - 1)
                       if 0 <= h < 2 ** 32], dtype=np.uint32)
    assert np.array_equal(halves >= t, halves.astype(object) >= int(t)), halves
