"""Fabric++'s contributions: reordering, early abort, batch cutting.

This package is the paper's primary contribution, kept free of DES / network
concerns so it can be tested and benchmarked standalone (the paper does the
same in its Appendix B micro-benchmarks):

- :mod:`repro.core.conflict_graph` — read/write-set conflict detection
  through a key -> transactions index, and conflict-graph construction
  (Algorithm 1, step 1; the paper's bit vectors yield the same graph);
- :mod:`repro.core.reorder` — cycle detection and removal plus serializable
  schedule generation (Algorithm 1, steps 2-5);
- :mod:`repro.core.early_abort` — the within-block version-mismatch filter
  applied in the ordering phase (Section 5.2.2);
- :mod:`repro.core.batch_cutter` — batch cutting with the vanilla criteria
  plus Fabric++'s unique-keys bound (Section 5.1.2).
"""

from repro.core.batch_cutter import BatchCutter, CutReason
from repro.core.conflict_graph import build_conflict_graph
from repro.core.early_abort import filter_stale_within_block
from repro.core.reorder import ReorderResult, reorder

__all__ = [
    "BatchCutter",
    "CutReason",
    "build_conflict_graph",
    "filter_stale_within_block",
    "ReorderResult",
    "reorder",
]
