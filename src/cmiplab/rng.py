"""Deterministic random streams for Monte Carlo runs.

All sampling uses Philox-4x64, a counter-based generator with a 128-bit key.
A stream is addressed by a base seed plus a path of labels; the key is the
16-byte BLAKE2b digest of the decimal seed and the path elements joined by
NUL bytes, so the same (seed, path) yields bit-identical draws on every
platform and disjoint paths give independent streams.  Each sampling call
draws from one stream: Philox is counter-based, so draws within a stream run
on sequential counters under one key, read front to back.
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

