"""The block commit every concurrency-control strategy shares.

The paper's validation phase is one commit procedure. Vanilla Fabric
holds the exclusive write lock over the whole block and applies the
valid writes at the end (Section 4.2.1, Appendix A.3); Fabric++ drops
the lock and applies each valid transaction's writes as soon as it is
decided (Section 5.2.1). The strategies in this package differ only in
*when* each transaction is checked and what the check costs, so each
supplies just a ``check(commit)`` generator that decides outcomes,
charges simulated time and hands every decision to
:meth:`BlockCommit.settle`. :func:`commit_block` does the rest: the
lock, the block overhead, the final write application, the ledger
append, the ``block.validate`` span and the reference peer's accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Tuple

from repro.fabric.metrics import TxOutcome, ValidationStats
from repro.ledger.state_db import Version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer, PeerChannelState
    from repro.fabric.transaction import Transaction
    from repro.ledger.block import Block
    from repro.validation.workers import VerifyWorkerPool

#: CPU scheduling band of validation work; it preempts endorsement
#: (``repro.fabric.peer.ENDORSE_PRIORITY``).
VALIDATE_PRIORITY = 0


def next_expected_block(pcs: "PeerChannelState", fetched: int = 0) -> Generator:
    """Yield deliveries until the next in-order block is available.

    Delivery may arrive out of order (gossip races); validation must
    follow block-id order, so early arrivals wait in a reorder buffer.
    The next expected id follows the ledger tip, so that recovery
    catch-up (which appends replayed blocks directly) transparently
    advances this loop past the blocks it missed, or ``fetched`` — the
    last block a pipelined caller already has in flight — whichever is
    higher. Re-gossiped duplicates of an id that is already buffered are
    dropped (first delivery wins): a second copy can never legitimately
    differ, and overwriting would let a late duplicate replace the block
    the validator is about to pick up.
    """
    while True:
        expected = max(pcs.ledger.tip_block_id, fetched) + 1
        for stale_id in [
            block_id
            for block_id in pcs.pending_blocks
            if block_id < expected
        ]:
            del pcs.pending_blocks[stale_id]  # applied via catch-up
        if expected in pcs.pending_blocks:
            break
        block = yield pcs.incoming_blocks.get()
        if (
            block.block_id >= max(pcs.ledger.tip_block_id, fetched) + 1
            and block.block_id not in pcs.pending_blocks
        ):
            pcs.pending_blocks[block.block_id] = block
    return pcs.pending_blocks.pop(expected)


class BlockCommit:
    """One block's shared commit state, handed to a strategy's ``check``."""

    def __init__(
        self, peer: "Peer", channel: str, block: "Block", inline: bool
    ) -> None:
        self.peer = peer
        self.channel = channel
        self.block = block
        self.state = peer.channels[channel].state
        #: Apply each valid transaction's writes as soon as it settles
        #: (Fabric++, lockless) instead of all at once at block end.
        self.inline = inline
        #: Versions written by this block's valid transactions that are
        #: not yet in the store; MVCC checks overlay them on the state.
        self.pending_writes: Dict[str, Version] = {}
        self.valid_writes: List[Tuple[int, Dict[str, object]]] = []
        self.committed = 0

    def outcome(self, tx: "Transaction", policy_ok: bool) -> TxOutcome:
        """The two validation checks of Section 2.2.3, policy first."""
        if not policy_ok:
            return TxOutcome.ABORT_POLICY
        if not self.peer._reads_current(self.channel, tx, self.pending_writes):
            return TxOutcome.ABORT_MVCC
        return TxOutcome.COMMITTED

    def settle(
        self,
        index: int,
        tx: "Transaction",
        outcome: TxOutcome,
        span_start: float,
    ) -> None:
        """Record the decided ``outcome`` of the block's ``index``-th tx."""
        peer = self.peer
        block = self.block
        valid = outcome is TxOutcome.COMMITTED
        block.mark(tx.tx_id, valid)
        if peer.tracer is not None:
            peer.tracer.span(
                "tx.validate",
                cat="validate",
                track=f"{peer.name}/{self.channel}/validator",
                start=span_start,
                tx_id=tx.tx_id,
                outcome=outcome.value,
            )
        if valid:
            self.committed += 1
            version = Version(block.block_id, index)
            if self.inline:
                # Each valid transaction's writes apply atomically right
                # away, visible to chaincodes simulating in parallel
                # (Section 5.2.1's "apply their updates in an atomic
                # fashion while T5 is simulating").
                for key, value in tx.rwset.writes.items():
                    self.state.apply_write(key, value, version)
            else:
                for key in tx.rwset.writes:
                    self.pending_writes[key] = version
                self.valid_writes.append((index, tx.rwset.writes))
        else:
            tx.failure_reason = outcome.value
        if peer.is_reference:
            peer._report(tx, outcome)


#: A strategy's per-block check: decides and settles every transaction,
#: charging simulated time, and returns extra ``block.validate`` span
#: arguments (``waves`` doubles as the block's critical-path length).
Check = Callable[[BlockCommit], Generator]


def commit_block(
    peer: "Peer",
    channel: str,
    block: "Block",
    check: Check,
    strategy: str,
    *,
    lock: bool,
    inline: bool,
    pool: Optional["VerifyWorkerPool"] = None,
    fold_stats: bool = True,
) -> Generator:
    """Validate and commit ``block`` on ``peer``'s ``channel``.

    ``lock`` holds the exclusive write lock over the whole block, so
    every in-flight simulation on this peer stalls until the block
    committed (vanilla, Section 4.2.1). ``fold_stats`` is off only for
    the legacy serial loop, whose snapshots carry no ``validation`` key.
    """
    pcs = peer.channels[channel]
    costs = peer.config.costs
    tracer = peer.tracer
    commit = BlockCommit(peer, channel, block, inline)
    block_start = peer.env.now
    pcs.validating = True
    if lock:
        yield pcs.lock.acquire_write()
    try:
        overhead = costs.block_overhead * peer.speed_factor
        yield from peer.cpu.use(overhead, VALIDATE_PRIORITY)
        if tracer is not None:
            tracer.charge("ledger", overhead)
        extras = yield from check(commit)
        if inline:
            pcs.state.advance_block(block.block_id)
        else:
            # A check may settle out of block order; the store applies
            # writes exactly as the serial validator would.
            commit.valid_writes.sort(key=lambda entry: entry[0])
            pcs.state.apply_block_writes(block.block_id, commit.valid_writes)
        pcs.ledger.append(block)
        if tracer is not None:
            tracer.span(
                "block.validate",
                cat="validate",
                track=f"{peer.name}/{channel}/validator",
                start=block_start,
                block_id=block.block_id,
                txs=len(block.transactions),
                committed=commit.committed,
                strategy=strategy,
                **extras,
            )
    finally:
        pcs.validating = False
        if lock:
            pcs.lock.release_write()

    metrics = peer._metrics
    if not peer.is_reference or metrics is None:
        return
    metrics.record_block(len(block.transactions))
    if not fold_stats:
        return
    if metrics.validation is None:
        metrics.validation = ValidationStats(
            workers=peer.config.validation_workers,
            pipeline_depth=peer.config.pipeline_depth,
            strategy=strategy,
        )
    stats = metrics.validation
    stats.blocks += 1
    stats.txs += len(block.transactions)
    # A check without waves validates strictly in block order: its
    # critical path is the whole block.
    stats.critical_path_total += extras.get("waves", len(block.transactions))
    if pool is not None:
        # Pool totals are copied (the pool is shared across channels, so
        # the copy is idempotent); per-block counters are incremented.
        stats.verify_tasks = pool.tasks
        stats.queue_delay_total = pool.queue_delay_total
        stats.lane_busy = pool.lane_busy_times()
    stats.horizon = peer.env.now


def commit_in_order(
    peer: "Peer", channel: str, check: Check, strategy: str, **options
) -> Generator:
    """The validator loop: commit each block in id order as it arrives."""
    pcs = peer.channels[channel]
    while True:
        block = yield from next_expected_block(pcs)
        yield from commit_block(peer, channel, block, check, strategy, **options)
