"""Deterministic random streams for Monte Carlo runs.

All sampling uses Philox-4x64, a counter-based generator with a 128-bit key.
A stream is addressed by a base seed plus a path of labels/indices; the key
is the 16-byte BLAKE2b digest of the decimal seed and the path elements
joined by NUL bytes, so the same (seed, path) yields bit-identical draws on
every platform and disjoint paths give independent streams.  `streams` resets
one generator to each stream's start, with the same draws as a fresh stream.
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


def streams(keys):
    """One generator, reset to the start of stream(*key) for each key in turn."""
    gen = None
    for seed, *path in keys:
        if gen is None:
            gen = stream(seed, *path)
            fresh = gen.bit_generator.state  # counter 0, empty buffers
        else:
            fresh["state"]["key"] = stream_key(seed, *path)
            gen.bit_generator.state = fresh
        yield gen


def derive(seed: int, *path) -> int:
    """64-bit child seed for handing to components that take plain seeds."""
    return int(stream_key(seed, *path)[0])
