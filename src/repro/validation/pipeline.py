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
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.core.conflict_graph import (
    build_validation_dependencies,
    dependency_waves,
)
from repro.fabric.metrics import TxOutcome, ValidationStats
from repro.ledger.block import Block
from repro.ledger.state_db import Version
from repro.sim.engine import Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer

#: Mirror of ``repro.fabric.peer.VALIDATE_PRIORITY`` (imported lazily to
#: avoid a module cycle; asserted equal in the test suite).
VALIDATE_PRIORITY = 0


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
        self.config = peer.config
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
        #: Highest block id handed to the verify stage; the fetcher must
        #: not re-fetch blocks that are in flight but not yet committed
        #: (the ledger tip lags them by design).
        self._last_fetched = 0
        peer.env.process(
            self._commit_loop(), name=f"{peer.name}/{channel}/committer"
        )

    def run(self) -> Generator:
        """The fetch/verify stage; registered as the channel validator."""
        return self._fetch_verify()

    # -- stage 1: in-order fetch + parallel verify --------------------------

    def _fetch_verify(self) -> Generator:
        pcs = self.pcs
        env = self.peer.env
        while True:
            while True:
                expected = max(pcs.ledger.tip_block_id, self._last_fetched) + 1
                for stale_id in [
                    block_id
                    for block_id in pcs.pending_blocks
                    if block_id < expected
                ]:
                    del pcs.pending_blocks[stale_id]  # applied via catch-up
                if expected in pcs.pending_blocks:
                    break
                block = yield pcs.incoming_blocks.get()
                if block.block_id >= (
                    max(pcs.ledger.tip_block_id, self._last_fetched) + 1
                ) and block.block_id not in pcs.pending_blocks:
                    # First delivery wins: a re-gossiped duplicate of a
                    # buffered id must not replace the original block.
                    pcs.pending_blocks[block.block_id] = block
            block = pcs.pending_blocks.pop(expected)
            self._last_fetched = block.block_id
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
                yield from self._commit_block(verified)
            finally:
                self.depth_tokens.release()

    def _commit_block(self, verified: _VerifiedBlock) -> Generator:
        peer = self.peer
        pcs = self.pcs
        env = peer.env
        costs = self.costs
        tracer = peer.tracer
        block = verified.block
        speed = peer.speed_factor
        block_start = env.now
        committed_in_block = 0
        if self.vanilla:
            # Only the state-touching stage takes the exclusive lock;
            # verification of later blocks proceeds around it.
            yield pcs.lock.acquire_write()
        pcs.validating = True
        try:
            yield from peer.cpu.use(
                costs.block_overhead * speed, VALIDATE_PRIORITY
            )
            if tracer is not None:
                tracer.charge("ledger", costs.block_overhead * speed)

            if self.scheduler == "dependency":
                graph = build_validation_dependencies(
                    [tx.rwset for tx in block.transactions]
                )
                waves = dependency_waves(graph)
            else:
                # Serial: every transaction is its own wave, in order.
                waves = [[index] for index in range(len(block.transactions))]

            pending_writes: Dict[str, Version] = {}
            valid_writes: List[Tuple[int, Dict[str, object]]] = []
            for wave in waves:
                wave_start = env.now
                if self.scheduler == "dependency":
                    events = [
                        self.pool.submit(
                            costs.mvcc_check * speed,
                            label=block.transactions[index].tx_id,
                        )
                        for index in wave
                    ]
                    yield env.all_of(events)
                else:
                    yield from peer.cpu.use(
                        costs.mvcc_check * speed, VALIDATE_PRIORITY
                    )
                for index in wave:
                    tx = block.transactions[index]
                    if not verified.policy_ok[index]:
                        outcome = TxOutcome.ABORT_POLICY
                    elif not peer._reads_current(
                        self.channel, tx, pending_writes
                    ):
                        outcome = TxOutcome.ABORT_MVCC
                    else:
                        outcome = TxOutcome.COMMITTED
                    valid = outcome is TxOutcome.COMMITTED
                    block.mark(tx.tx_id, valid)
                    if tracer is not None:
                        tracer.charge("mvcc", costs.mvcc_check * speed)
                        tracer.span(
                            "tx.validate",
                            cat="validate",
                            track=f"{peer.name}/{self.channel}/validator",
                            start=wave_start,
                            tx_id=tx.tx_id,
                            outcome=outcome.value,
                        )
                    if valid:
                        committed_in_block += 1
                        version = Version(block.block_id, index)
                        if self.vanilla:
                            for key in tx.rwset.writes:
                                pending_writes[key] = version
                            valid_writes.append((index, tx.rwset.writes))
                        else:
                            for key, value in tx.rwset.writes.items():
                                pcs.state.apply_write(key, value, version)
                    else:
                        tx.failure_reason = outcome.value
                    if peer.is_reference:
                        peer._report(tx, outcome)

            if self.vanilla:
                # Waves may visit indices out of block order; the store
                # applies writes exactly as the serial validator would.
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
                    committed=committed_in_block,
                    strategy=self.scheduler,
                    waves=len(waves),
                )
        finally:
            pcs.validating = False
            if self.vanilla:
                pcs.lock.release_write()

        if peer.is_reference and peer._metrics is not None:
            peer._metrics.record_block(len(block.transactions))
            self._sync_stats(len(waves), len(block.transactions))

    def _sync_stats(self, wave_count: int, tx_count: int) -> None:
        """Fold pipeline counters into the reference peer's metrics.

        Pool totals are copied (the pool is shared across channels, so
        the copy is idempotent); per-block counters are incremented.
        """
        metrics = self.peer._metrics
        if metrics.validation is None:
            metrics.validation = ValidationStats(
                workers=self.config.validation_workers,
                pipeline_depth=self.config.pipeline_depth,
                strategy=self.scheduler,
            )
        stats = metrics.validation
        stats.blocks += 1
        stats.txs += tx_count
        stats.critical_path_total += wave_count
        stats.verify_tasks = self.pool.tasks
        stats.queue_delay_total = self.pool.queue_delay_total
        stats.lane_busy = self.pool.lane_busy_times()
        stats.horizon = self.peer.env.now
