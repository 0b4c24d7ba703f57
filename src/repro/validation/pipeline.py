"""The modelled validation/commit pipeline (opt-in replacement for serial).

Three orthogonal mechanisms, each behind its own config knob:

1. **Verify worker pool** (``validation_workers``): per-endorsement
   signature verification runs on modelled lanes
   (:class:`~repro.validation.workers.VerifyWorkerPool`). Unlike the
   legacy validator — which divides the verification cost by the assumed
   ``CostModel.validation_parallelism`` — the pipeline charges the *full*
   cost per transaction and lets the lanes provide the parallelism, so
   worker scaling, core contention and saturation are simulated.

2. **MVCC scheduler** (``cc_strategy``): ``serial`` runs the
   conflict checks one transaction after the other in block order;
   ``dependency`` groups the block's transactions into topological waves
   of the intra-block dependency graph
   (:func:`repro.core.conflict_graph.build_validation_dependencies`) and
   checks each wave concurrently on the worker lanes. Waves commit in
   order, and the dependency edges (true, anti, output, and phantom-range
   hazards) guarantee every transaction still observes exactly the state
   the sequential validator would have shown it — outcomes are identical,
   only timing changes.

3. **Cross-block pipelining** (``pipeline_depth``): verification of block
   *k+1* may overlap the commit of block *k*. Verification touches no
   state, so it runs outside the vanilla RWLock; only the MVCC/commit
   stage takes the exclusive write lock, preserving the
   simulation-vs-validation coupling of paper Section 4.2.1 (and
   Fabric++'s lock-free inline applies in Section 5.2.1).

The commit stage enforces block order even when verifications finish out
of order, and drops verified blocks that recovery catch-up has already
applied underneath it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.core.conflict_graph import (
    build_validation_dependencies,
    dependency_waves,
)
from repro.ledger.block import Block
from repro.sim.engine import Event
from repro.sim.resources import Resource
from repro.validation.commit import (
    VALIDATE_PRIORITY,
    BlockCommit,
    commit_block,
    next_expected_block,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer


@dataclass
class _VerifiedBlock:
    """A block that finished the verify stage, awaiting in-order commit."""

    block: Block
    #: Per-transaction endorsement-policy verdicts, by block position.
    policy_ok: List[bool]


class PipelinedValidator:
    """Per-channel validation pipeline: fetch/verify stage + commit stage."""

    def __init__(self, peer: "Peer", channel: str, scheduler: str) -> None:
        self.peer = peer
        self.channel = channel
        self.pcs = peer.channels[channel]
        self.costs = peer.config.costs
        self.vanilla = not peer.config.early_abort_simulation
        #: "serial" or "dependency": the registry strategy that built us.
        self.scheduler = scheduler
        self.pool = peer.verify_pool()
        #: Bounds the number of blocks in flight (verifying or waiting to
        #: commit). Depth 1 makes verify and commit strictly alternate;
        #: depth k lets verification run k-1 blocks ahead of the commit.
        self.depth_tokens = Resource(peer.env, peer.config.pipeline_depth)
        self._ready: Dict[int, _VerifiedBlock] = {}
        self._ready_signal: Optional[Event] = None
        peer.env.process(
            self._commit_loop(), name=f"{peer.name}/{channel}/committer"
        )

    def run(self) -> Generator:
        """The fetch/verify stage; registered as the channel validator."""
        return self._fetch_verify()

    # -- stage 1: in-order fetch + parallel verify --------------------------

    def _fetch_verify(self) -> Generator:
        # The last block handed to the verify stage: blocks in flight but
        # not yet committed must not be fetched again (the ledger tip
        # lags them by design).
        fetched = 0
        while True:
            block = yield from next_expected_block(self.pcs, fetched)
            fetched = block.block_id
            # Acquire an in-flight slot *before* verifying, so at most
            # ``pipeline_depth`` blocks occupy the pipeline at once.
            yield self.depth_tokens.request()
            verified = yield from self._verify_block(block)
            self._ready[block.block_id] = verified
            signal = self._ready_signal
            self._ready_signal = None
            if signal is not None:
                signal.succeed()

    def _verify_block(self, block: Block) -> Generator:
        """Verify every transaction's endorsements on the worker pool.

        Signature verification reads no state, so it needs neither the
        write lock nor block order — this is the stage that overlaps the
        previous block's commit.
        """
        peer = self.peer
        env = peer.env
        costs = self.costs
        tracer = peer.tracer
        verify_start = env.now
        policy_ok: List[bool] = []
        events: List[Event] = []
        for tx in block.transactions:
            # The verdict is pure computation; the simulated time it
            # costs is modelled by the pool task below.
            policy_ok.append(peer._endorsements_valid(self.channel, tx))
            cost = (
                costs.verify_signature
                * len(tx.endorsements)
                * peer.speed_factor
            )
            events.append(self.pool.submit(cost, label=tx.tx_id))
            if tracer is not None:
                tracer.charge("verify", cost, count=len(tx.endorsements))
        if events:
            yield env.all_of(events)
        if tracer is not None:
            tracer.span(
                "block.verify",
                cat="validate",
                track=f"{peer.name}/{self.channel}/verify",
                start=verify_start,
                block_id=block.block_id,
                txs=len(block.transactions),
            )
        return _VerifiedBlock(block=block, policy_ok=policy_ok)

    # -- stage 2: in-order MVCC check + commit ------------------------------

    def _commit_loop(self) -> Generator:
        pcs = self.pcs
        env = self.peer.env
        while True:
            while True:
                tip = pcs.ledger.tip_block_id
                for stale_id in [
                    block_id for block_id in self._ready if block_id <= tip
                ]:
                    # Recovery catch-up already applied this block while
                    # it sat verified; its pipeline slot frees up.
                    del self._ready[stale_id]
                    self.depth_tokens.release()
                if tip + 1 in self._ready:
                    break
                self._ready_signal = env.event()
                yield self._ready_signal
            verified = self._ready.pop(pcs.ledger.tip_block_id + 1)
            try:
                # Only the state-touching stage takes the exclusive lock;
                # verification of later blocks proceeds around it.
                yield from commit_block(
                    self.peer,
                    self.channel,
                    verified.block,
                    partial(self._mvcc_waves, policy_ok=verified.policy_ok),
                    self.scheduler,
                    lock=self.vanilla,
                    inline=not self.vanilla,
                    pool=self.pool,
                )
            finally:
                self.depth_tokens.release()

    def _mvcc_waves(self, commit: BlockCommit, policy_ok: List[bool]) -> Generator:
        """Check the block's MVCC waves in order, on the lanes or the CPU."""
        peer = self.peer
        env = peer.env
        mvcc_cost = self.costs.mvcc_check * peer.speed_factor
        transactions = commit.block.transactions
        if self.scheduler == "dependency":
            graph = build_validation_dependencies([tx.rwset for tx in transactions])
            waves = dependency_waves(graph)
        else:
            # Serial: every transaction is its own wave, in order.
            waves = [[index] for index in range(len(transactions))]
        for wave in waves:
            wave_start = env.now
            if self.scheduler == "dependency":
                yield env.all_of(
                    [
                        self.pool.submit(mvcc_cost, label=transactions[index].tx_id)
                        for index in wave
                    ]
                )
            else:
                yield from peer.cpu.use(mvcc_cost, VALIDATE_PRIORITY)
            for index in wave:
                tx = transactions[index]
                if peer.tracer is not None:
                    peer.tracer.charge("mvcc", mvcc_cost)
                commit.settle(
                    index, tx, commit.outcome(tx, policy_ok[index]), wave_start
                )
        return {"waves": len(waves)}
