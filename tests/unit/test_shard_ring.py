"""The shard transport's framed shared-memory rings."""

import pickle

import pytest

from repro.shard.ring import RingFull, ShmRing, dumps_frame, loads_frame


def test_ring_round_trip():
    ring = ShmRing(capacity=4096)
    try:
        payload = {"window": 3, "batch": list(range(50))}
        frame = ring.write(dumps_frame(payload))
        assert loads_frame(ring.read(*frame)) == payload
        ring.consume(*frame)
    finally:
        ring.close()


def test_ring_wraparound_preserves_frames():
    """Frames that don't fit before the segment end wrap to offset 0."""
    ring = ShmRing(capacity=256)
    try:
        bodies = [bytes([i]) * 90 for i in range(12)]
        live = []
        for body in bodies:
            # keep two frames in flight so the write cursor laps the end
            if len(live) == 2:
                offset, length, expect = live.pop(0)
                assert bytes(ring.read(offset, length)) == expect
                ring.consume(offset, length)
            frame = ring.try_write(body)
            assert frame is not None
            live.append(frame + (body,))
        for offset, length, expect in live:
            assert bytes(ring.read(offset, length)) == expect
            ring.consume(offset, length)
        # fully drained ring rewinds: a segment-sized frame fits again
        assert ring.try_write(b"x" * 256) is not None
    finally:
        ring.close()


def test_ring_overflow_returns_none_and_raises():
    ring = ShmRing(capacity=128)
    try:
        frame = ring.write(b"a" * 100)
        assert ring.try_write(b"b" * 100) is None   # unconsumed data
        with pytest.raises(RingFull):
            ring.write(b"b" * 100)
        ring.consume(*frame)
        assert ring.try_write(b"b" * 100) is not None
        assert ring.try_write(b"c" * 200) is None   # exceeds the segment
    finally:
        ring.close()


def test_ring_read_bounds_checked():
    ring = ShmRing(capacity=128)
    try:
        with pytest.raises(ValueError):
            ring.read(100, 64)
        with pytest.raises(ValueError):
            ring.read(-1, 4)
    finally:
        ring.close()


def test_frame_pickles_arbitrary_payloads():
    view = memoryview(dumps_frame([("a", 1.5, None)]))
    assert loads_frame(view) == [("a", 1.5, None)]
    assert pickle.loads(bytes(view)) == [("a", 1.5, None)]
