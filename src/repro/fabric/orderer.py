"""The ordering service.

One trusted service per network establishes the global transaction order
and cuts blocks (paper Section 2.2.2). The vanilla service treats
transactions as black boxes and keeps arrival order; Fabric++'s service
inspects read/write sets to (a) early-abort transactions whose reads are
provably stale (within-block version mismatches, Section 5.2.2), (b) remove
transactions stuck in conflict cycles, and (c) reorder the survivors into a
serializable schedule (Section 5.1).

All channels' ordering processes run on one orderer machine and share its
CPU, as in the paper's setup (one server runs the ordering service).

:class:`OrderingService` is the whole pipeline: admission control, the
receiver loop, stalls, the batch timer and the cut transform. The
replicated service (:mod:`repro.consensus.service`) runs the same
pipeline behind a Raft cluster and overrides three hooks: where the CPU
comes from (:meth:`OrderingService._ordering_cpu`), when clients hear of
an early abort (:attr:`OrderingService.NOTIFY_AT_CUT`) and what happens
to a cut batch (:meth:`OrderingService._ship`).
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.core.batch_cutter import BatchCutter, CutReason
from repro.core.early_abort import filter_stale_within_block
from repro.core.reorder import ReorderResult, reorder
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
from repro.fabric.transaction import Transaction
from repro.ledger.block import Block
from repro.ledger.ledger import GENESIS_HASH
from repro.sim.engine import Environment
from repro.sim.resources import Resource, Store
from repro.trace.tracer import ASYNC, Tracer

#: Seconds between delivery-credit backlog polls (only scheduled when a
#: ``delivery_backlog_limit`` is configured; never in default runs).
DELIVERY_POLL_INTERVAL = 0.002


class OrderingService:
    """The ordering pipeline of one channel."""

    #: Clients hear of an early abort when the batch is cut. The Raft
    #: facade defers it until the log entry carrying the abort commits.
    NOTIFY_AT_CUT = True

    def __init__(
        self,
        env: Environment,
        channel: str,
        config: FabricConfig,
        cpu: Optional[Resource],
        broadcast: Callable[[str, Block], None],
        notify: Callable[[str, TxOutcome], None],
        tracer: Optional[Tracer] = None,
    ) -> None:
        """``broadcast`` ships a cut block to all peers; ``notify`` resolves
        early-aborted transactions back to their clients."""
        self.env = env
        self.channel = channel
        self.config = config
        self.cpu = cpu
        self.tracer = tracer
        self.incoming: Store = Store(env)
        self._broadcast = broadcast
        self._notify = notify
        self._cutter = BatchCutter(
            config.batch,
            track_unique_keys=config.reordering,
        )
        self._next_block_id = 1
        self._tip_hash = GENESIS_HASH
        self._generation = 0
        #: Fault injection: windows during which consensus stalls.
        self._stall_windows: tuple = ()
        #: Counters exposed for tests and reports.
        self.blocks_cut = 0
        self.txs_received = 0
        self.txs_early_aborted = 0
        #: Backpressure: shared OverloadStats, attached by the network
        #: when a queue bound is configured; None keeps submission on the
        #: historical unbounded path with zero extra work.
        self.overload = None
        #: Delivery credit: a callable reporting the deepest
        #: delivered-but-unvalidated block backlog across the channel's
        #: peers, attached by the network when ``delivery_backlog_limit``
        #: is configured. None disables the stall entirely.
        self.peer_backlog: Optional[Callable[[], int]] = None
        env.process(self._receiver(), name=f"orderer/{channel}")

    @property
    def next_block_id(self) -> int:
        """Id the next cut block will carry (committed tip + 1)."""
        return self._next_block_id

    @property
    def pending_count(self) -> int:
        """Transactions accepted but not yet resolved (liveness probe).

        The solo orderer resolves every transaction at its cut and keeps
        no such set, so this is always 0.
        """
        return 0

    # -- receiving ---------------------------------------------------------------

    def submit(self, transaction: Transaction) -> bool:
        """Accept a transaction from a client.

        Returns False when admission control rejects it at a full bounded
        queue (the client retries or sheds); True means enqueued. With no
        queue bound configured this always accepts, unbounded — the
        historical behavior.
        """
        return self._admit(transaction)

    def _admit(self, transaction: Transaction) -> bool:
        """Admission control, then enqueue; False at a full bounded queue."""
        stats = self.overload
        if stats is not None:
            stats.submissions += 1
            limit = self.config.backpressure.orderer_queue_limit
            depth = len(self.incoming)
            if 0 < limit <= depth:
                stats.orderer_rejections += 1
                return False
            stats.queue_depth_sum += depth
            if depth > stats.queue_depth_peak:
                stats.queue_depth_peak = depth
        if self.tracer is not None:
            transaction.orderer_arrival = self.env.now
        self.txs_received += 1
        self.incoming.put(transaction)
        return True

    def install_stalls(self, windows: tuple) -> None:
        """Fault injection: stall processing during the given windows."""
        self._stall_windows = tuple(windows)

    def _maybe_stall(self) -> Generator:
        """Block until the current stall window (if any) has passed.

        With no windows installed this yields nothing at all, so healthy
        runs schedule no extra events.
        """
        for window in self._stall_windows:
            if window.at <= self.env.now < window.until:
                yield window.until - self.env.now

    def _ordering_cpu(self) -> Generator:
        """Hook: the CPU that orders next, and the Raft leader it belongs to.

        The solo orderer owns one CPU and has no leader. It schedules no
        event here, so healthy runs stay bit-identical.
        """
        yield from ()
        return self.cpu, None

    def _receiver(self) -> Generator:
        while True:
            transaction = yield self.incoming.get()
            yield from self._maybe_stall()
            cpu, _leader = yield from self._ordering_cpu()
            yield from cpu.use(self.config.costs.order_tx)
            if self.tracer is not None:
                self.tracer.charge("ordering", self.config.costs.order_tx)
            was_empty = self._cutter.is_empty
            reason = self._cutter.add(transaction, self.env.now)
            if reason is not None:
                yield from self._cut(reason)
            elif was_empty:
                # First transaction of a fresh batch: arm the batch timer.
                self.env.process(
                    self._batch_timer(self._generation, self._cutter.deadline()),
                    name=f"orderer/{self.channel}/timer",
                )

    def _batch_timer(self, generation: int, deadline: Optional[float]) -> Generator:
        if deadline is None:  # pragma: no cover - defensive
            return
        yield max(0.0, deadline - self.env.now)
        # A timer that expires inside a stall window must not cut
        # mid-stall: wait the stall out first, and only then decide. If a
        # size cut raced us during the stall, the generation moved on and
        # this timer is stale. With no stalls installed this adds no
        # events, keeping healthy runs bit-identical.
        yield from self._maybe_stall()
        # Only cut if no other criterion already cut this batch.
        if generation == self._generation and not self._cutter.is_empty:
            yield from self._cut(CutReason.TIMEOUT)

    # -- cutting -----------------------------------------------------------------

    def _cut(self, reason: CutReason) -> Generator:
        """Cut the pending batch and transform it (Sections 5.1, 5.2.2):
        drop stale reads, then reorder the survivors and drop the
        transactions stuck in conflict cycles."""
        cut = self._cutter.cut(reason)
        self._generation += 1
        if not cut:  # pragma: no cover - cut() callers guard non-empty
            return
        cut_start = self.env.now
        tracer = self.tracer
        costs = self.config.costs
        yield from self._maybe_stall()
        cpu, leader = yield from self._ordering_cpu()
        yield from cpu.use(costs.order_block)
        if tracer is not None:
            tracer.charge("ordering", costs.order_block)

        batch = cut
        early_aborted: List[Transaction] = []
        result = None
        if self.config.early_abort_ordering:
            batch, early_aborted = self._apply_version_filter(batch)

        if self.config.reordering and batch:
            yield from cpu.use(costs.reorder_per_tx * len(batch))
            if tracer is not None:
                tracer.charge(
                    "ordering", costs.reorder_per_tx * len(batch), count=len(batch)
                )
            rwsets = [tx.rwset for tx in batch]
            result = reorder(rwsets, max_cycles=self.config.max_cycles_per_block)
            for index in result.aborted:
                early_aborted.append(
                    self._abort_early(batch[index], TxOutcome.EARLY_ABORT_CYCLE)
                )
            batch = [batch[index] for index in result.schedule]

        yield from self._ship(
            leader, reason, cut_start, cut, batch, early_aborted, result
        )

    def _apply_version_filter(self, batch: List[Transaction]):
        """Within-block version-mismatch early abort (Section 5.2.2)."""
        kept_indices, aborted_indices = filter_stale_within_block(
            [tx.rwset for tx in batch]
        )
        aborted = [
            self._abort_early(batch[index], TxOutcome.EARLY_ABORT_VERSION)
            for index in aborted_indices
        ]
        return [batch[index] for index in kept_indices], aborted

    def _abort_early(self, tx: Transaction, outcome: TxOutcome) -> Transaction:
        tx.failure_reason = outcome.value
        if self.NOTIFY_AT_CUT:
            self._notify(tx.tx_id, outcome)
        return tx

    def _ship(
        self,
        leader,
        reason: CutReason,
        cut_start: float,
        cut: List[Transaction],
        batch: List[Transaction],
        early_aborted: List[Transaction],
        result: Optional[ReorderResult],
    ) -> Generator:
        """Hook: seal the transformed batch into a block and broadcast it.

        ``cut`` is the batch as cut, ``batch``/``early_aborted`` what the
        transform made of it, and ``result`` the reorder outcome (None
        without reordering).
        """
        block = self._seal(batch, early_aborted)
        tracer = self.tracer
        if tracer is not None:
            # Queue-wait spans: submission to cut, per transaction of the
            # batch (including the ones this cut early-aborted).
            self._trace_queue_waits(cut)
            tracer.span(
                "orderer.cut",
                cat="order",
                track=f"orderer/{self.channel}",
                start=cut_start,
                reason=reason.value,
                block_id=block.block_id,
                batch=len(block.transactions),
                early_aborts=len(early_aborted),
                cycles_found=result.cycles_found if result else 0,
                # Wall-clock channel: the reordering computation's real
                # elapsed time, reported here so deterministic result
                # objects never carry it.
                reorder_wall_seconds=result.elapsed_seconds if result else 0.0,
            )
        yield from self._delivery_credit()
        self._broadcast(self.channel, block)

    def _seal(
        self, batch: List[Transaction], early_aborted: List[Transaction]
    ) -> Block:
        """Chain the next block over ``batch`` and its early aborts."""
        self.txs_early_aborted += len(early_aborted)
        for tx in batch:
            tx.ordered_at = self.env.now
        block = Block.create(
            self._next_block_id, self._tip_hash, batch, early_aborted=early_aborted
        )
        self._next_block_id += 1
        self._tip_hash = block.header.data_hash
        self.blocks_cut += 1
        return block

    def _trace_queue_waits(self, transactions: List[Transaction]) -> None:
        for tx in transactions:
            if tx.orderer_arrival is not None:
                self.tracer.span(
                    "orderer.queue",
                    cat="order",
                    track=f"orderer/{self.channel}/queue",
                    start=tx.orderer_arrival,
                    tx_id=tx.tx_id,
                    mode=ASYNC,
                )

    def _delivery_credit(self) -> Generator:
        """Pause delivery while a peer's block backlog sits at the bound.

        Polling keeps the coupling loose — the orderer never reaches
        into peer internals beyond the depth callable — and the interval
        is far below every other pipeline timescale. While the receiver
        is parked here its inbound queue fills, so sustained validation
        overload turns into admission rejections at ``submit``. With no
        limit configured this yields nothing at all.
        """
        limit = self.config.backpressure.delivery_backlog_limit
        if limit <= 0 or self.peer_backlog is None:
            return
        stall_start = self.env.now
        while self.peer_backlog() >= limit:
            yield from self._maybe_stall()
            yield DELIVERY_POLL_INTERVAL
        if self.overload is not None and self.env.now > stall_start:
            self.overload.delivery_stall_seconds += self.env.now - stall_start

    def flush(self) -> Generator:
        """Cut whatever is pending (used by tests to drain the pipeline)."""
        if not self._cutter.is_empty:
            yield from self._cut(CutReason.FLUSH)
