"""Deterministic random streams for Monte Carlo runs.

All sampling uses Philox-4x64, a counter-based generator with a 128-bit key.
A stream is addressed by a base seed plus a path of labels; the key is the
16-byte BLAKE2b digest of the decimal seed and the path elements joined by
NUL bytes, so the same (seed, path) yields bit-identical draws on every
platform and disjoint paths give independent streams.  Each sampling call
draws from one stream: Philox is counter-based, so draws within a stream run
on sequential counters under one key, and `addressed` sets the counter.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_key(seed: int, *path) -> np.ndarray:
    """128-bit Philox key for (seed, *path), as two uint64 words."""
    payload = b"\x00".join(str(x).encode() for x in (int(seed), *path))
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


def stream(seed: int, *path) -> np.random.Generator:
    """Independent deterministic generator for (seed, *path)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *path)))


def thresholds(p) -> np.ndarray:
    """uint64 t with Generator.random() >= p exactly when a raw word >> 11 >= t."""
    return np.ceil(np.asarray(p) * 2.0 ** 53).astype(np.uint64)


def addressed(seed: int, *path):
    """Draw function (start, m, coins=False) -> draws [start, start + m) of
    stream (seed, *path): raw words, or coins as uint8 (Generator.integers(0,
    2): the top bit of each 32-bit half word, low half first).  A counter set
    to c yields words 4c to 4c + 3 next, so a draw sets it to start // 4 and
    drops start % 4 words.  It owns its bit generator: one per thread."""
    bit_generator = stream(seed, *path).bit_generator
    state = bit_generator.state

    def draw(start: int, m: int, coins: bool = False) -> np.ndarray:
        if coins:
            words = draw(start // 2, (start + m + 1) // 2 - start // 2)
            halves = words.astype("<u8", copy=False).view("<u4")[start % 2:start % 2 + m]
            return (halves >= 2 ** 31).view(np.uint8)
        state["state"]["counter"][0], state["buffer_pos"] = start // 4, 4
        bit_generator.state = state
        return bit_generator.random_raw(start % 4 + m)[start % 4:]
    return draw
