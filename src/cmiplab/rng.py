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
    """uint64 t = rint(p·2^32): a 32-bit half word is below t with chance within
    2^-33 of p, exactly 0 or 1 near 0 or 1, and never when t = 2^32 (no uint32)."""
    return np.rint(np.asarray(p) * 2.0 ** 32).astype(np.uint64)


def addressed(seed: int, *path):
    """Draw function (start, m, bits=64) -> draws [start, start + m) of stream
    (seed, *path): raw words, their 32-bit half words, low half first
    (bits=32), or their bits, least significant first, as uint8 coins
    (bits=1).  A counter set to c yields words 4c to 4c + 3 next, so a draw
    sets it to the block of its first word and drops the words before it, so
    draws may start anywhere, in any order and of any size."""
    bit_generator = stream(seed, *path).bit_generator
    state = bit_generator.state

    def draw(start: int, m: int, bits: int = 64) -> np.ndarray:
        if bits < 64:
            per = 64 // bits
            words = draw(start // per, (start % per + m - 1) // per + 1).astype("<u8", copy=False)
            split = (words.view("<u4") if bits == 32
                     else np.unpackbits(words.view(np.uint8), bitorder="little"))
            return split[start % per:start % per + m]
        state["state"]["counter"][0], state["buffer_pos"] = start // 4, 4
        bit_generator.state = state
        return bit_generator.random_raw(start % 4 + m)[start % 4:]
    return draw
