"""Branch-trace substrate.

The paper drives every experiment from traces of dynamic conditional
branches (SPECint95 run to completion).  This package provides the trace
data model used throughout the reproduction:

* :class:`~repro.trace.record.BranchRecord` -- a single dynamic branch.
* :class:`~repro.trace.trace.Trace` -- an immutable, columnar
  (numpy-backed) sequence of dynamic branches.
* :class:`~repro.trace.trace.TraceBuilder` -- incremental construction.
* :func:`~repro.trace.stream.write_trace` /
  :func:`~repro.trace.stream.read_trace` -- compact binary ``.bpt``
  (``BPT2``) files; every other layout comes in through
  :func:`~repro.trace.ingest.load_imported_trace`.
* :class:`~repro.trace.stats.TraceStatistics` -- summary statistics
  (drives Table 1).
"""

from repro.trace.record import BranchRecord
from repro.trace.stats import TraceStatistics, compute_statistics
from repro.trace.stream import read_trace, write_text_trace, write_trace
from repro.trace.trace import Trace, TraceBuilder

__all__ = [
    "BranchRecord",
    "Trace",
    "TraceBuilder",
    "TraceStatistics",
    "compute_statistics",
    "read_trace",
    "write_text_trace",
    "write_trace",
]
