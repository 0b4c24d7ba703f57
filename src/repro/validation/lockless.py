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

from repro.fabric.metrics import TxOutcome
from repro.ledger.state_db import Version
from repro.validation.commit import BlockCommit, commit_in_order
from repro.validation.serial import folded_tx_charge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer
    from repro.ledger.block import Block

STRATEGY = "lockless"


class LocklessValidator:
    """Per-channel OCC validator: snapshot reads, no write lock."""

    def __init__(self, peer: "Peer", channel: str) -> None:
        self.peer = peer
        self.channel = channel

    def run(self) -> Generator:
        """The validator loop; registered as the channel validator."""
        return commit_in_order(
            self.peer,
            self.channel,
            self._check,
            STRATEGY,
            lock=False,
            inline=True,
        )

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

    def _check(self, commit: BlockCommit) -> Generator:
        """Phase 2: pay the serial baseline's per-transaction cost and
        settle the phase-1 decisions, applying winners' writes inline."""
        outcomes = self._decide(commit.block)
        for index, tx in enumerate(commit.block.transactions):
            tx_start = self.peer.env.now
            yield from folded_tx_charge(self.peer, tx)
            commit.settle(index, tx, outcomes[index], tx_start)
        return {"ww_aborts": outcomes.count(TxOutcome.ABORT_OCC_WW)}
