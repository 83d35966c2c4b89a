"""Keyed deterministic random streams.

Every stochastic choice in the pipeline draws from a substream keyed by a
master seed plus a tuple of purpose/id parts. Keys never include presentation
positions, which is what makes per-item draws invariant to candidate order.
"""
from __future__ import annotations

import hashlib

import numpy as np

_SEPARATOR = b"\x1f"
_WORD = (1 << 64) - 1


def _encode(part) -> bytes:
    """The separator, then a typed encoding of one key part."""
    if isinstance(part, str):
        return _SEPARATOR + b"s" + part.encode("utf-8")
    if isinstance(part, bytes):
        return _SEPARATOR + part
    if isinstance(part, (bool, np.bool_)):
        return _SEPARATOR + (b"b1" if part else b"b0")
    if isinstance(part, (int, np.integer)):
        return _SEPARATOR + b"i" + str(int(part)).encode("ascii")
    raise TypeError(f"stream key parts must be int/str/bytes, got {type(part)!r}")


def stream_key(master_seed: int, *parts) -> int:
    """Collapse (seed, parts) into a 128-bit Philox key via SHA-256 of the
    seed's decimal digits followed by each part's encoding."""
    data = b"".join([str(int(master_seed)).encode("ascii"), *map(_encode, parts)])
    return int.from_bytes(hashlib.sha256(data).digest()[:16], "little")


def substream(master_seed: int, *parts) -> np.random.Generator:
    """Independent Generator for the given key tuple."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, *parts)))


def first_randoms(master_seed: int, keys) -> np.ndarray:
    """`substream(master_seed, *parts).random()` for each `parts` tuple in `keys`.

    One Philox is re-keyed through its `state` setter for every key, with its
    counter and buffer reset as a fresh generator has them. That skips the
    OS entropy each new bit generator seeds itself from before its key
    replaces it.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    out = []
    for parts in keys:
        k = stream_key(master_seed, *parts)
        key[0], key[1] = k & _WORD, k >> 64
        bits.state = state
        out.append(gen.random())
    return np.asarray(out, dtype=np.float64)


class KeyedStreams:
    """Factory bound to one master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)

    def stream(self, *parts) -> np.random.Generator:
        return substream(self.master_seed, *parts)

    def __repr__(self) -> str:
        return f"KeyedStreams(master_seed={self.master_seed})"
