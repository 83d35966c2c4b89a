"""Keyed deterministic random streams.

Every stochastic choice in the pipeline draws from a substream keyed by a
master seed plus a tuple of purpose/id parts. Keys never include presentation
positions, which is what makes per-item draws invariant to candidate order.
"""
from __future__ import annotations

import hashlib

import numpy as np

_SEPARATOR = b"\x1f"


def stream_key(master_seed: int, *parts) -> int:
    """Collapse (seed, parts) into a 128-bit Philox key via SHA-256."""
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode("ascii"))
    for part in parts:
        h.update(_SEPARATOR)
        if isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, (bool, np.bool_)):
            h.update(b"b" + (b"1" if part else b"0"))
        elif isinstance(part, (int, np.integer)):
            h.update(b"i" + str(int(part)).encode("ascii"))
        elif isinstance(part, str):
            h.update(b"s" + part.encode("utf-8"))
        else:
            raise TypeError(f"stream key parts must be int/str/bytes, got {type(part)!r}")
    return int.from_bytes(h.digest()[:16], "little")


def substream(master_seed: int, *parts) -> np.random.Generator:
    """Independent Generator for the given key tuple."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, *parts)))


class KeyedStreams:
    """Factory bound to one master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)

    def stream(self, *parts) -> np.random.Generator:
        return substream(self.master_seed, *parts)

    def __repr__(self) -> str:
        return f"KeyedStreams(master_seed={self.master_seed})"
