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

from typing import TYPE_CHECKING, Generator, List

from repro.core.conflict_graph import (
    build_validation_dependencies,
    dependency_waves,
)
from repro.validation.commit import BlockCommit, commit_in_order

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer
    from repro.sim.engine import Event

STRATEGY = "depaware"


class DepAwareValidator:
    """Per-channel dataflow validator over the conflict graph."""

    def __init__(self, peer: "Peer", channel: str) -> None:
        self.peer = peer
        self.channel = channel
        self.pool = peer.verify_pool()

    def run(self) -> Generator:
        """The validator loop; registered as the channel validator."""
        vanilla = not self.peer.config.early_abort_simulation
        return commit_in_order(
            self.peer,
            self.channel,
            self._check,
            STRATEGY,
            lock=vanilla,
            inline=not vanilla,
            pool=self.pool,
        )

    def _check(self, commit: BlockCommit) -> Generator:
        """Spawn one dataflow task per transaction; wait for them all."""
        env = self.peer.env
        transactions = commit.block.transactions
        graph = build_validation_dependencies([tx.rwset for tx in transactions])
        waves = dependency_waves(graph)
        decided: List["Event"] = [env.event() for _ in transactions]
        for index, tx in enumerate(transactions):
            preds = sorted(graph.predecessors(index))
            env.process(
                self._tx_task(
                    commit, index, tx, [decided[p] for p in preds], decided[index]
                ),
                name=f"{self.peer.name}/{self.channel}/depaware-{index}",
            )
        if decided:
            yield env.all_of(decided)
        return {"waves": len(waves)}

    def _tx_task(
        self,
        commit: BlockCommit,
        index: int,
        tx,
        pred_events: List["Event"],
        done: "Event",
    ) -> Generator:
        """One transaction's dataflow task: verify → wait preds → decide."""
        peer = self.peer
        env = peer.env
        costs = peer.config.costs
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
        # Settling applies a Fabric++ winner's writes at once — commit
        # out of arrival order.
        commit.settle(index, tx, commit.outcome(tx, policy_ok), tx_start)
        done.succeed()
