"""Golden values for the keyed streams: every byte of the generated data
depends on how `stream_key` derives its keys."""
from __future__ import annotations

import numpy as np
import pytest

from plrank.rng import KeyedStreams, first_randoms, stream_key, substream


@pytest.mark.parametrize(
    "seed, parts, key",
    [
        (42, ("teacher", "u1", "i7"), 334543999948807781394299848970085800272),
        (0, (3, -5, np.int64(9)), 58901212775075594062553711084336313073),
        (7, (b"raw\x00bytes", True, False, np.bool_(True)), 168925686385254002829655348870505226893),
        (123456789, ("ünïcode", 0, b""), 90773350339686114162087246956290224664),
        (-3, (), 186753078440375605171584393673147505505),
    ],
)
def test_stream_key_golden_values(seed, parts, key):
    assert stream_key(seed, *parts) == key


def test_stream_key_tells_types_apart():
    assert len({stream_key(0, 1), stream_key(0, "1"), stream_key(0, b"1"), stream_key(0, True)}) == 4
    with pytest.raises(TypeError, match="int/str/bytes"):
        stream_key(0, 1.5)


def test_substream_golden_draws():
    assert substream(42, "teacher", "u1", "i7").random(3).tolist() == [
        0.6312143594443701, 0.20987225792216413, 0.30387859033212994,
    ]
    assert substream(42, "exposure", 17).integers(0, 1000, 4).tolist() == [305, 14, 32, 534]
    assert substream(5, "init", "policy").normal(size=2).tolist() == [
        -1.7713824526332198, -0.19026758020475387,
    ]
    assert KeyedStreams(42).stream("exposure", 17).integers(0, 1000, 4).tolist() == [305, 14, 32, 534]


def test_first_randoms_match_fresh_substreams():
    keys = [("teacher", f"u{u}", f"i{i}") for u in range(50) for i in range(0, 200, 10)]
    keys += [(j, b"x", j % 2 == 0) for j in range(24)]
    assert len(keys) >= 1000
    fresh = np.array([substream(9, *parts).random() for parts in keys])
    rekeyed = first_randoms(9, keys)
    assert rekeyed.dtype == np.float64
    assert rekeyed.tobytes() == fresh.tobytes()
    assert first_randoms(9, []).shape == (0,)
