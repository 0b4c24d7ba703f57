"""Lockless OCC validation (Meir et al., arXiv:1911.12711).

*Lockless Transaction Isolation in Hyperledger Fabric* removes the
peer's state read-write lock: validation never blocks endorsement-time
simulation, reads validate optimistically against the snapshot the
block started from, and conflicts surface as commit-time aborts instead
of lock waits.

The modelled strategy keeps the serial validator's per-transaction cost
charges (so throughput differences come from concurrency control, not
from a different cost model) but changes two things:

1. **No exclusive write lock, ever** — even on vanilla Fabric, where
   the serial validator stalls every in-flight simulation for the whole
   block (paper Section 4.2.1). Valid writes apply atomically inline,
   like Fabric++'s fine-grained commit. This is where lockless beats
   vanilla committed-TPS under low contention: endorsements no longer
   queue behind block validation.

2. **First-committer-wins write-write resolution** — all MVCC decisions
   are taken in one pure OCC pass against the block-start snapshot
   before any write applies. A transaction whose write set intersects
   an earlier winner's write set aborts with
   :attr:`TxOutcome.ABORT_OCC_WW` (Fabric's native rule lets later
   blind writers silently overwrite — last-writer-wins). This is the
   strategy's one *intentional* divergence from the serial baseline;
   blocks without intra-block write-write races are outcome-identical,
   which the CC oracle test pins.

A transaction that both reads stale data and loses a write-write race
is classified ``abort_mvcc`` (the read check runs first, mirroring the
serial validator's check order).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List

from repro.fabric.metrics import TxOutcome, ValidationStats
from repro.ledger.state_db import Version
from repro.validation.serial import next_expected_block

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer
    from repro.ledger.block import Block

STRATEGY = "lockless"


class LocklessValidator:
    """Per-channel OCC validator: snapshot reads, no write lock."""

    def __init__(self, peer: "Peer", channel: str) -> None:
        self.peer = peer
        self.channel = channel
        self.pcs = peer.channels[channel]
        self.config = peer.config
        self.costs = peer.config.costs

    def run(self) -> Generator:
        """The validator loop; registered as the channel validator."""
        return self._loop()

    def _decide(self, block: "Block") -> List[TxOutcome]:
        """Phase 1: pure OCC decisions against the block-start snapshot.

        No simulated time passes and no write applies during this pass,
        so every decision sees exactly the state the block arrived at —
        the OCC snapshot — plus the pending writes of earlier winners
        (first-committer-wins).
        """
        peer = self.peer
        winner_writes: Dict[str, Version] = {}
        outcomes: List[TxOutcome] = []
        for index, tx in enumerate(block.transactions):
            if not peer._endorsements_valid(self.channel, tx):
                outcome = TxOutcome.ABORT_POLICY
            elif not peer._reads_current(self.channel, tx, winner_writes):
                outcome = TxOutcome.ABORT_MVCC
            elif any(key in winner_writes for key in tx.rwset.writes):
                outcome = TxOutcome.ABORT_OCC_WW
            else:
                outcome = TxOutcome.COMMITTED
                version = Version(block.block_id, index)
                for key in tx.rwset.writes:
                    winner_writes[key] = version
            outcomes.append(outcome)
        return outcomes

    def _loop(self) -> Generator:
        peer = self.peer
        pcs = self.pcs
        costs = self.costs
        speed = peer.speed_factor
        while True:
            block = yield from next_expected_block(pcs)
            pcs.validating = True
            tracer = peer.tracer
            block_start = peer.env.now
            committed_in_block = 0
            ww_aborts = 0
            try:
                yield from peer.cpu.use(costs.block_overhead * speed)
                if tracer is not None:
                    tracer.charge("ledger", costs.block_overhead * speed)

                # Phase 1 is free of simulated time; phase 2 below pays
                # the same per-transaction validation cost as the serial
                # baseline and applies the winners' writes inline.
                outcomes = self._decide(block)
                for index, tx in enumerate(block.transactions):
                    tx_start = peer.env.now
                    yield from peer.cpu.use(
                        costs.tx_validation_cost(len(tx.endorsements))
                        * speed
                    )
                    outcome = outcomes[index]
                    valid = outcome is TxOutcome.COMMITTED
                    block.mark(tx.tx_id, valid)
                    if tracer is not None:
                        verify_cost = (
                            costs.verify_signature
                            * len(tx.endorsements)
                            / costs.validation_parallelism
                        ) * speed
                        tracer.charge(
                            "verify", verify_cost, count=len(tx.endorsements)
                        )
                        tracer.charge("mvcc", costs.mvcc_check * speed)
                        tracer.span(
                            "tx.validate",
                            cat="validate",
                            track=f"{peer.name}/{self.channel}/validator",
                            start=tx_start,
                            tx_id=tx.tx_id,
                            outcome=outcome.value,
                        )
                    committed_in_block += 1 if valid else 0
                    if valid:
                        version = Version(block.block_id, index)
                        for key, value in tx.rwset.writes.items():
                            pcs.state.apply_write(key, value, version)
                    else:
                        if outcome is TxOutcome.ABORT_OCC_WW:
                            ww_aborts += 1
                        tx.failure_reason = outcome.value
                    if peer.is_reference:
                        peer._report(tx, outcome)

                pcs.state.advance_block(block.block_id)
                pcs.ledger.append(block)
                if tracer is not None:
                    tracer.span(
                        "block.validate",
                        cat="validate",
                        track=f"{peer.name}/{self.channel}/validator",
                        start=block_start,
                        block_id=block.block_id,
                        txs=len(block.transactions),
                        committed=committed_in_block,
                        strategy=STRATEGY,
                        ww_aborts=ww_aborts,
                    )
            finally:
                pcs.validating = False

            if peer.is_reference and peer._metrics is not None:
                peer._metrics.record_block(len(block.transactions))
                self._sync_stats(len(block.transactions))

    def _sync_stats(self, tx_count: int) -> None:
        """Attach/update the reference peer's validation stats."""
        metrics = self.peer._metrics
        if metrics.validation is None:
            metrics.validation = ValidationStats(
                workers=self.config.validation_workers,
                pipeline_depth=self.config.pipeline_depth,
                strategy=STRATEGY,
            )
        stats = metrics.validation
        stats.blocks += 1
        stats.txs += tx_count
        # OCC validates strictly in block order: the critical path is
        # the whole block.
        stats.critical_path_total += tx_count
        stats.horizon = self.peer.env.now
