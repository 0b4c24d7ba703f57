"""The legacy inline serial validator, moved here verbatim.

This is the validation/commit loop the peer has always run: one block at
a time, one transaction after the other, signature verification folded
into a single per-transaction CPU charge whose cost model divides the
verification work by ``CostModel.validation_parallelism`` (an *assumed*
worker pool). It remains the default because every golden hash in the
test suite was captured under it — every other concurrency-control
strategy in :mod:`repro.validation.registry` must be opted into via the
``cc_strategy`` / ``validation_workers`` / ``pipeline_depth`` knobs, and
the default configuration stays bit-identical to the pre-pipeline build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from repro.fabric.metrics import TxOutcome
from repro.ledger.state_db import Version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer, PeerChannelState
    from repro.ledger.block import Block


def next_expected_block(pcs: "PeerChannelState") -> Generator:
    """Yield deliveries until the next in-order block is available.

    Delivery may arrive out of order (gossip races); validation must
    follow block-id order, so early arrivals wait in a reorder buffer.
    The next expected id is derived from the ledger tip so that recovery
    catch-up (which appends replayed blocks directly) transparently
    advances this loop past the blocks it missed. Re-gossiped duplicates
    of an id that is already buffered are dropped (first delivery wins):
    a second copy can never legitimately differ, and overwriting would
    let a late duplicate replace the block the validator is about to
    pick up.
    """
    while True:
        expected = pcs.ledger.tip_block_id + 1
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
            block.block_id >= pcs.ledger.tip_block_id + 1
            and block.block_id not in pcs.pending_blocks
        ):
            pcs.pending_blocks[block.block_id] = block
    return pcs.pending_blocks.pop(expected)


def serial_validator(peer: "Peer", channel: str) -> Generator:
    """Sequential per-channel validation pipeline (one block at a time)."""
    pcs = peer.channels[channel]
    costs = peer.config.costs
    vanilla = not peer.config.early_abort_simulation
    while True:
        block = yield from next_expected_block(pcs)
        pcs.validating = True
        tracer = peer.tracer
        block_start = peer.env.now
        committed_in_block = 0
        if vanilla:
            # Vanilla serialises validation against simulation: the
            # whole block validation runs under the exclusive write
            # lock, so every in-flight simulation on this peer stalls
            # until the block committed (Section 4.2.1). Fabric++'s
            # fine-grained concurrency control removes this lock and
            # lets both phases overlap (Section 5.2.1).
            yield pcs.lock.acquire_write()
        try:
            yield from peer.cpu.use(costs.block_overhead * peer.speed_factor)
            if tracer is not None:
                tracer.charge(
                    "ledger", costs.block_overhead * peer.speed_factor
                )

            pending_writes: Dict[str, Version] = {}
            valid_writes: List[Tuple[int, Dict[str, object]]] = []
            for index, tx in enumerate(block.transactions):
                tx_start = peer.env.now
                yield from peer.cpu.use(
                    costs.tx_validation_cost(len(tx.endorsements))
                    * peer.speed_factor
                )
                outcome = peer._validate_transaction(
                    channel, tx, pending_writes
                )
                valid = outcome is TxOutcome.COMMITTED
                block.mark(tx.tx_id, valid)
                if tracer is not None:
                    verify_cost = (
                        costs.verify_signature
                        * len(tx.endorsements)
                        / costs.validation_parallelism
                    ) * peer.speed_factor
                    tracer.charge(
                        "verify", verify_cost, count=len(tx.endorsements)
                    )
                    tracer.charge(
                        "mvcc", costs.mvcc_check * peer.speed_factor
                    )
                    tracer.span(
                        "tx.validate",
                        cat="validate",
                        track=f"{peer.name}/{channel}/validator",
                        start=tx_start,
                        tx_id=tx.tx_id,
                        outcome=outcome.value,
                    )
                committed_in_block += 1 if valid else 0
                if valid:
                    version = Version(block.block_id, index)
                    if vanilla:
                        for key in tx.rwset.writes:
                            pending_writes[key] = version
                        valid_writes.append((index, tx.rwset.writes))
                    else:
                        # Fabric++'s fine-grained concurrency control:
                        # each valid transaction's writes apply
                        # atomically right away, visible to chaincodes
                        # simulating in parallel (Section 5.2.1's
                        # "apply their updates in an atomic fashion
                        # while T5 is simulating").
                        for key, value in tx.rwset.writes.items():
                            pcs.state.apply_write(key, value, version)
                else:
                    tx.failure_reason = outcome.value
                if peer.is_reference:
                    peer._report(tx, outcome)

            # Commit: vanilla applies all valid writes at once under
            # the write lock; Fabric++ already applied them inline and
            # only finalises the block height.
            if vanilla:
                pcs.state.apply_block_writes(block.block_id, valid_writes)
            else:
                pcs.state.advance_block(block.block_id)
            pcs.ledger.append(block)
            if tracer is not None:
                tracer.span(
                    "block.validate",
                    cat="validate",
                    track=f"{peer.name}/{channel}/validator",
                    start=block_start,
                    block_id=block.block_id,
                    txs=len(block.transactions),
                    committed=committed_in_block,
                    strategy="serial",
                )
        finally:
            pcs.validating = False
            if vanilla:
                pcs.lock.release_write()

        if peer.is_reference and peer._metrics is not None:
            peer._metrics.record_block(len(block.transactions))
