"""Dependency-aware dataflow validation (Kaul et al., arXiv:2509.07425).

*Dependency-Aware Execution in Hyperledger Fabric* replaces the block's
sequential validate/commit loop with a dataflow over the intra-block
conflict graph: every transaction becomes a task gated only on its
graph predecessors, so non-conflicting transactions validate and commit
concurrently and *out of arrival order* — while conflict chains
serialise exactly as the sequential validator would.

The modelled strategy reuses
:func:`repro.core.conflict_graph.build_validation_dependencies`, whose
edges cover every hazard (true, anti, output, and phantom-range), and
runs one task per transaction on the peer's verify worker pool
(``validation_workers`` lanes, full per-endorsement verification cost
like the modelled pipeline). A task:

1. verifies its endorsements on a pool lane (no dependencies — this is
   the embarrassingly parallel part);
2. waits for all graph predecessors to *decide*;
3. runs its MVCC check on a pool lane against the committed store
   overlaid with the pending writes of decided winners, then decides,
   applies its writes, and fires its decision event.

Because the dependency edges cover every key and range intersection, a
transaction's check can never observe (or miss) a write of a
non-predecessor — the overlay only ever differs from the sequential
validator's in keys the transaction provably does not touch. Outcomes
are therefore bit-identical to the serial baseline; only timing
changes. The block itself still commits atomically at the end (vanilla
holds the write lock over the block like the pipeline's commit stage;
Fabric++ applies winners' writes inline as each task decides).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from repro.core.conflict_graph import (
    build_validation_dependencies,
    dependency_waves,
)
from repro.fabric.metrics import TxOutcome, ValidationStats
from repro.ledger.state_db import Version
from repro.validation.serial import next_expected_block

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer
    from repro.ledger.block import Block
    from repro.sim.engine import Event

STRATEGY = "depaware"

#: Mirror of ``repro.fabric.peer.VALIDATE_PRIORITY`` (imported lazily to
#: avoid a module cycle; asserted equal in the test suite).
VALIDATE_PRIORITY = 0


class DepAwareValidator:
    """Per-channel dataflow validator over the conflict graph."""

    def __init__(self, peer: "Peer", channel: str) -> None:
        self.peer = peer
        self.channel = channel
        self.pcs = peer.channels[channel]
        self.config = peer.config
        self.costs = peer.config.costs
        self.vanilla = not peer.config.early_abort_simulation
        self.pool = peer.verify_pool()

    def run(self) -> Generator:
        """The validator loop; registered as the channel validator."""
        return self._loop()

    def _loop(self) -> Generator:
        peer = self.peer
        pcs = self.pcs
        env = peer.env
        costs = self.costs
        speed = peer.speed_factor
        while True:
            block = yield from next_expected_block(pcs)
            pcs.validating = True
            tracer = peer.tracer
            block_start = env.now
            if self.vanilla:
                # Like the pipeline's commit stage: only the
                # state-touching phase takes the exclusive lock.
                yield pcs.lock.acquire_write()
            try:
                yield from peer.cpu.use(
                    costs.block_overhead * speed, VALIDATE_PRIORITY
                )
                if tracer is not None:
                    tracer.charge("ledger", costs.block_overhead * speed)

                graph = build_validation_dependencies(
                    [tx.rwset for tx in block.transactions]
                )
                waves = dependency_waves(graph)

                decided: List["Event"] = [
                    env.event() for _ in block.transactions
                ]
                # Shared commit state, mutated by the tasks in decision
                # (dataflow) order.
                pending_writes: Dict[str, Version] = {}
                valid_writes: List[Tuple[int, Dict[str, object]]] = []
                committed = [0]
                for index, tx in enumerate(block.transactions):
                    preds = sorted(graph.predecessors(index))
                    env.process(
                        self._tx_task(
                            block,
                            index,
                            tx,
                            [decided[p] for p in preds],
                            decided[index],
                            pending_writes,
                            valid_writes,
                            committed,
                        ),
                        name=f"{peer.name}/{self.channel}/depaware-{index}",
                    )
                if decided:
                    yield env.all_of(decided)

                if self.vanilla:
                    # Tasks append in decision order; the store applies
                    # writes exactly as the serial validator would.
                    valid_writes.sort(key=lambda entry: entry[0])
                    pcs.state.apply_block_writes(block.block_id, valid_writes)
                else:
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
                        committed=committed[0],
                        strategy=STRATEGY,
                        waves=len(waves),
                    )
            finally:
                pcs.validating = False
                if self.vanilla:
                    pcs.lock.release_write()

            if peer.is_reference and peer._metrics is not None:
                peer._metrics.record_block(len(block.transactions))
                self._sync_stats(len(waves), len(block.transactions))

    def _tx_task(
        self,
        block: "Block",
        index: int,
        tx,
        pred_events: List["Event"],
        done: "Event",
        pending_writes: Dict[str, Version],
        valid_writes: List[Tuple[int, Dict[str, object]]],
        committed: List[int],
    ) -> Generator:
        """One transaction's dataflow task: verify → wait preds → decide."""
        peer = self.peer
        env = peer.env
        costs = self.costs
        speed = peer.speed_factor
        tracer = peer.tracer
        tx_start = env.now
        # Endorsement verification depends on no other transaction.
        policy_ok = peer._endorsements_valid(self.channel, tx)
        verify_cost = costs.verify_signature * len(tx.endorsements) * speed
        yield self.pool.submit(verify_cost, label=tx.tx_id)
        if tracer is not None:
            tracer.charge("verify", verify_cost, count=len(tx.endorsements))
        if pred_events:
            yield env.all_of(pred_events)
        yield self.pool.submit(costs.mvcc_check * speed, label=tx.tx_id)
        if tracer is not None:
            tracer.charge("mvcc", costs.mvcc_check * speed)

        if not policy_ok:
            outcome = TxOutcome.ABORT_POLICY
        elif not peer._reads_current(self.channel, tx, pending_writes):
            outcome = TxOutcome.ABORT_MVCC
        else:
            outcome = TxOutcome.COMMITTED
        valid = outcome is TxOutcome.COMMITTED
        block.mark(tx.tx_id, valid)
        if valid:
            committed[0] += 1
            version = Version(block.block_id, index)
            if self.vanilla:
                for key in tx.rwset.writes:
                    pending_writes[key] = version
                valid_writes.append((index, tx.rwset.writes))
            else:
                # Fabric++: the winner's writes apply atomically as soon
                # as it decides — commit out of arrival order.
                for key in tx.rwset.writes:
                    pending_writes[key] = version
                for key, value in tx.rwset.writes.items():
                    self.pcs.state.apply_write(key, value, version)
        else:
            tx.failure_reason = outcome.value
        if tracer is not None:
            tracer.span(
                "tx.validate",
                cat="validate",
                track=f"{peer.name}/{self.channel}/validator",
                start=tx_start,
                tx_id=tx.tx_id,
                outcome=outcome.value,
            )
        if peer.is_reference:
            peer._report(tx, outcome)
        done.succeed()

    def _sync_stats(self, wave_count: int, tx_count: int) -> None:
        """Attach/update the reference peer's validation stats.

        Pool totals are copied (the pool is shared across channels, so
        the copy is idempotent); per-block counters are incremented.
        """
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
        stats.critical_path_total += wave_count
        stats.verify_tasks = self.pool.tasks
        stats.queue_delay_total = self.pool.queue_delay_total
        stats.lane_busy = self.pool.lane_busy_times()
        stats.horizon = self.peer.env.now
