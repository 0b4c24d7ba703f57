"""``repro.validation`` — the peer's pluggable validation/commit stage.

The peer historically validated blocks in a single inline serial loop.
This package makes that stage a pluggable *concurrency-control
strategy*, dispatched through :mod:`repro.validation.registry`:

- ``serial`` — :func:`repro.validation.serial.serial_validator`, the
  legacy loop moved verbatim (the default, bit-identical to the
  pre-pipeline build), upgraded to
  :class:`repro.validation.pipeline.PipelinedValidator` with the serial
  scheduler when ``validation_workers`` / ``pipeline_depth`` are set;
- ``dependency`` — the modelled pipeline with topological MVCC waves;
- ``lockless`` — :class:`repro.validation.lockless.LocklessValidator`,
  OCC snapshot validation with no exclusive write lock and
  first-committer-wins write-write aborts (Meir et al.,
  arXiv:1911.12711);
- ``depaware`` — :class:`repro.validation.depaware.DepAwareValidator`,
  conflict-graph dataflow execution with out-of-arrival-order commits
  (Kaul et al., arXiv:2509.07425).

``serial``, ``dependency`` and ``depaware`` produce identical committed
ledgers and per-transaction outcomes — only simulated timing changes.
``lockless`` intentionally diverges on intra-block write-write races
(``abort_occ_ww``); the CC oracle test pins the exact bound.

Every strategy commits through :mod:`repro.validation.commit`: it
supplies only the ``check`` that decides outcomes and charges time.
"""

from __future__ import annotations

from repro.validation.pipeline import PipelinedValidator
from repro.validation.registry import (
    StrategyInfo,
    build_strategy,
    get_strategy,
    register_strategy,
    strategy_names,
)
from repro.validation.serial import serial_validator
from repro.validation.workers import VerifyWorkerPool

__all__ = [
    "PipelinedValidator",
    "StrategyInfo",
    "VerifyWorkerPool",
    "build_strategy",
    "get_strategy",
    "register_strategy",
    "serial_validator",
    "strategy_names",
]

