"""Deterministic random streams for Monte Carlo runs.

All sampling uses Philox-4x64, a counter-based generator with a 128-bit key.
A stream is addressed by a base seed plus a path of labels; the key is the
16-byte BLAKE2b digest of the decimal seed and the path elements joined by
NUL bytes, so the same (seed, path) yields bit-identical draws on every
platform and disjoint paths give independent streams.  Each sampling call
draws from one stream: Philox is counter-based, so successive draws within a
stream run on sequential counters under one key and need no key of their own.
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


def coin_flips(bit_generator: np.random.BitGenerator):
    """Draw function m -> Generator.integers(0, 2, m) as uint8: the top bit of each
    32-bit half word, low half first; an odd count's spare half starts the next call."""
    spare = np.empty(0, np.uint8)

    def draw(m: int) -> np.ndarray:
        nonlocal spare
        words = bit_generator.random_raw((m - len(spare) + 1) // 2)
        coins = (words.astype("<u8", copy=False).view("<u4") >= 2 ** 31).view(np.uint8)
        coins = np.concatenate((spare, coins)) if len(spare) else coins
        spare = coins[m:]
        return coins[:m]
    return draw
