"""The concurrency-control strategy registry — the CC zoo.

The peer's validation/commit stage is a seam where database-style
concurrency control pays off, and several papers propose competing
schemes. This registry names them as pluggable *strategies* (mirroring
:mod:`repro.workloads.registry`): a strategy is a factory that, given a
peer and a channel, returns the generator that owns the channel's
validator loop. Each loop commits through
:func:`repro.validation.commit.commit_block` and supplies only the
per-block ``check``.

Built-in strategies:

- ``serial`` — the legacy inline loop (default, golden-hash pinned), or
  the modelled pipeline with the serial scheduler when any pipeline knob
  (``validation_workers`` / ``pipeline_depth``) is non-default.
- ``dependency`` — the modelled pipeline with topological MVCC waves
  from the intra-block conflict graph (identical outcomes to serial;
  timing only).
- ``lockless`` — OCC-style validation after Meir et al.,
  *Lockless Transaction Isolation in Hyperledger Fabric*
  (arXiv:1911.12711): reads validate against the block-start snapshot,
  no exclusive write lock is ever taken, and write-write races within a
  block abort at commit (first-committer-wins,
  ``TxOutcome.ABORT_OCC_WW``).
- ``depaware`` — conflict-graph-driven dataflow execution after Kaul et
  al., *Dependency-Aware Execution in Hyperledger Fabric*
  (arXiv:2509.07425): each transaction validates as soon as all its
  graph predecessors have resolved, so non-conflicting transactions
  commit out of arrival order — but serializably, with outcomes
  identical to serial.

``serial``, ``dependency`` and ``depaware`` are outcome-equivalent: the
committed ledger and every per-transaction outcome match the serial
baseline bit for bit. ``lockless`` intentionally diverges on
write-write races; :data:`StrategyInfo.divergence` documents the bound
and the oracle test (``tests/validation/test_cc_oracle.py``) pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generator, Tuple

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer

#: A strategy factory: builds the validator generator for one channel.
StrategyFactory = Callable[["Peer", str], Generator]


@dataclass(frozen=True)
class StrategyInfo:
    """A registered concurrency-control strategy."""

    name: str
    factory: StrategyFactory
    #: One-line description for ``--help`` and docs.
    description: str
    #: Empty string == outcome-equivalent to the serial baseline
    #: (identical committed ledger and per-tx outcomes). Otherwise a
    #: short statement of the intentional, pinned divergence.
    divergence: str = ""


_STRATEGIES: Dict[str, StrategyInfo] = {}


def register_strategy(
    name: str,
    factory: StrategyFactory,
    description: str = "",
    divergence: str = "",
) -> None:
    """Register ``factory`` as the CC strategy named ``name``."""
    if name in _STRATEGIES:
        raise ConfigError(f"cc strategy {name!r} is already registered")
    _STRATEGIES[name] = StrategyInfo(
        name=name,
        factory=factory,
        description=description,
        divergence=divergence,
    )


def strategy_names() -> Tuple[str, ...]:
    """The registered strategy names, sorted."""
    return tuple(sorted(_STRATEGIES))


def get_strategy(name: str) -> StrategyInfo:
    """Look up a registered strategy, raising :class:`ConfigError`."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        known = ", ".join(strategy_names())
        raise ConfigError(
            f"unknown cc strategy {name!r}; known: {known}"
        ) from None


def build_strategy(name: str, peer: "Peer", channel: str) -> Generator:
    """Build the validator generator for ``peer``/``channel``."""
    return get_strategy(name).factory(peer, channel)


# -- built-in strategies --------------------------------------------------------


def _make_serial(peer: "Peer", channel: str) -> Generator:
    from repro.validation.pipeline import PipelinedValidator
    from repro.validation.serial import serial_validator

    # The pipeline knobs still select the modelled pipeline (worker
    # lanes, cross-block overlap) with its serial MVCC scheduler; the
    # all-default configuration keeps the legacy loop bit-identical.
    if peer.config.uses_validation_pipeline:
        return PipelinedValidator(peer, channel, scheduler="serial").run()
    return serial_validator(peer, channel)


def _make_dependency(peer: "Peer", channel: str) -> Generator:
    from repro.validation.pipeline import PipelinedValidator

    return PipelinedValidator(peer, channel, scheduler="dependency").run()


def _make_lockless(peer: "Peer", channel: str) -> Generator:
    from repro.validation.lockless import LocklessValidator

    return LocklessValidator(peer, channel).run()


def _make_depaware(peer: "Peer", channel: str) -> Generator:
    from repro.validation.depaware import DepAwareValidator

    return DepAwareValidator(peer, channel).run()


register_strategy(
    "serial",
    _make_serial,
    description=(
        "legacy in-order validation; the modelled pipeline's serial "
        "scheduler when validation_workers/pipeline_depth are set"
    ),
)
register_strategy(
    "dependency",
    _make_dependency,
    description=(
        "pipeline with topological MVCC waves over the intra-block "
        "conflict graph (outcome-identical to serial)"
    ),
)
register_strategy(
    "lockless",
    _make_lockless,
    description=(
        "OCC validation against the block-start snapshot, no exclusive "
        "write lock, first-committer-wins write-write aborts "
        "(Meir et al., arXiv:1911.12711)"
    ),
    divergence=(
        "blocks containing intra-block write-write races resolve them "
        "first-committer-wins (abort_occ_ww) instead of "
        "last-writer-wins; all other blocks are outcome-identical"
    ),
)
register_strategy(
    "depaware",
    _make_depaware,
    description=(
        "conflict-graph dataflow execution: transactions validate as "
        "soon as their dependencies resolve and commit out of arrival "
        "order, serializably (Kaul et al., arXiv:2509.07425)"
    ),
)
