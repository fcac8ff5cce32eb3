"""Streamed generation replays whole-trace generation byte for byte.

``stream_benchmark`` and ``load_benchmark`` run the same interpreter
through the same emitter; only the sink differs.  These tests hold the
two paths to identical columns across window sizes and cut points, and
pin the seed-12345 suite digests so a change to the interpreter that
moves every trace together is caught too.
"""

import numpy as np
import pytest

from repro.trace.stream import TraceStream
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark, stream_benchmark

#: ``load_benchmark(name, 2000, 12345).digest()`` for every suite benchmark.
PINNED_DIGESTS = {
    "compress": "c6a5206ad80d957599f3354b133d59ef",
    "gcc": "3f53e5d4628c68eec287adcc01555c61",
    "go": "96d55374f1b3315354b4d125aa5a920b",
    "ijpeg": "85f458aedfb8b1737b96acb6fb603f73",
    "m88ksim": "634d02b25197fcb4f113ddbfd295ada7",
    "perl": "6dad189ad8fe5f47ea1d2d5c020181de",
    "vortex": "79e4ce5d22f78d2461c9f72cb2e8ed90",
    "xlisp": "9fcc31c0c0977062e2cee98354a11d30",
}


def test_pins_cover_the_suite():
    assert sorted(PINNED_DIGESTS) == sorted(BENCHMARK_NAMES)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_whole_trace_digest_is_pinned(name):
    assert load_benchmark(name, 2000, 12345).digest() == PINNED_DIGESTS[name]


def _mid_loop_length(name: str, after: int) -> int:
    """A length whose last branch is a taken loop-closing branch.

    The cut then falls between two iterations of a running loop.
    """
    trace = load_benchmark(name, after + 2000, 12345)
    hits = np.flatnonzero(trace.is_backward & trace.taken)
    hits = hits[hits >= after]
    assert len(hits), f"{name}: no taken loop branch after {after}"
    return int(hits[0]) + 1


def _cases(name: str):
    """``(window, length)`` pairs covering every kind of cut."""
    return [
        (8, 2000),  # ends on a window edge
        (8, _mid_loop_length(name, 2000)),
        (1000, 2500),  # ends mid-window
        (1000, _mid_loop_length(name, 2500)),
        (65536, 1000),  # shorter than one window
        (65536, 65536 + 4001),  # spans two windows
    ]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_streamed_file_equals_whole_trace(tmp_path, name):
    for window, length in _cases(name):
        path = tmp_path / f"{name}-{window}-{length}.bpt"
        written = stream_benchmark(name, path, length=length, chunk_branches=window)
        assert written == length
        stream = TraceStream.open(path)
        assert stream.num_chunks == -(-length // window)
        streamed = stream.whole()
        whole = load_benchmark(name, length, 12345)
        for column in ("pc", "target", "taken"):
            np.testing.assert_array_equal(
                getattr(streamed, column), getattr(whole, column),
                err_msg=f"{name} window={window} length={length}: {column}",
            )
            assert getattr(streamed, column).dtype == getattr(whole, column).dtype
        assert stream.digest() == whole.digest()
