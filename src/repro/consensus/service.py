"""The replicated ordering facade: the cluster behind one channel's intake.

:class:`ReplicatedOrderingService` runs the ordering pipeline of
:class:`~repro.fabric.orderer.OrderingService` — admission control,
stalls, batch cutting, the reorder/early-abort transform, ``flush`` —
and supplies its three hooks: the CPU is the current Raft leader's,
clients hear of an early abort only when the entry carrying it commits,
and a cut batch is proposed to the leader instead of broadcast. A batch
becomes a peer-visible block only after the channel's Raft group has
committed its log entry on a quorum of orderer nodes.

Failover correctness rests on three pieces:

- *Authoritative apply*: block ids and the tip hash are assigned at
  commit time, in committed-log order, never at proposal time — so a
  leader whose proposals are lost cannot burn ids or fork the chain.
- *Re-proposal*: the facade tracks every unresolved transaction; when it
  adopts a new leader (monotone by term — modelling Raft client
  redirection), any pending transaction absent from that leader's entire
  log is re-queued through the cutter, so no accepted transaction is
  lost to a failover.
- *Apply-time dedup*: the same transaction can legitimately end up in
  two committed entries (an inherited old-term entry committing after
  the facade already re-proposed its batch through a newer leader);
  the committed-id set suppresses the second occurrence, keeping commits
  exactly-once per tx id.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.consensus.cluster import OrdererCluster
from repro.consensus.raft import LEADER, LogEntry, RaftGroup, RaftReplica
from repro.core.batch_cutter import CutReason
from repro.core.reorder import ReorderResult
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome
# ``reorder`` and ``filter_stale_within_block`` are bound here as well as
# in the orderer module: perfbench's layer trace wraps every by-name
# import site of the cut transform's functions, and checks this one.
from repro.fabric.orderer import (  # noqa: F401
    OrderingService,
    filter_stale_within_block,
    reorder,
)
from repro.fabric.transaction import Transaction
from repro.ledger.block import Block
from repro.sim.engine import Environment
from repro.trace.tracer import Tracer


class ReplicatedOrderingService(OrderingService):
    """Ordering pipeline of one channel, backed by the Raft cluster."""

    NOTIFY_AT_CUT = False

    def __init__(
        self,
        env: Environment,
        channel: str,
        channel_index: int,
        config: FabricConfig,
        cluster: OrdererCluster,
        broadcast: Callable[[str, Block], None],
        notify: Callable[[str, TxOutcome], None],
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(env, channel, config, None, broadcast, notify, tracer)
        self.cluster = cluster
        # Authoritative chain state (block id, tip hash) advances only at
        # commit time.
        self._applied = 0
        self._committed_tx_ids: set = set()
        # Unresolved transactions in submission order (dict = ordered).
        self._pending: Dict[str, Transaction] = {}
        # Ids currently sitting in the intake store or the cutter, i.e.
        # not yet inside any proposed log entry. Re-proposals bypass
        # admission control: an accepted transaction is never dropped by
        # its own failover.
        self._unproposed: set = set()
        # Leadership adoption (monotone by term).
        self._adopted: Optional[RaftReplica] = None
        self._adopted_term = 0
        self._leader_event = env.event()
        self.group = RaftGroup(
            cluster,
            channel,
            channel_index,
            config,
            on_leader=self._adopt,
            on_commit=self._on_commit,
            tracer=tracer,
        )
        self.group.start()

    @property
    def pending_count(self) -> int:
        """Transactions accepted but not yet resolved (liveness probe)."""
        return len(self._pending)

    # -- receiving -----------------------------------------------------------

    def submit(self, transaction: Transaction) -> bool:
        """Accept a transaction from a client.

        Returns False when admission control rejects it at a full bounded
        queue — before any pending-state bookkeeping, so a rejected
        transaction is never re-proposed across failovers. True means
        accepted (the historical unbounded behavior when no bound is
        configured). It calls ``_admit``, not ``super().submit()``, so one
        submission is one ``submit`` call however the classes are wrapped.
        """
        if not self._admit(transaction):
            return False
        self._pending[transaction.tx_id] = transaction
        self._unproposed.add(transaction.tx_id)
        return True

    # -- leadership ----------------------------------------------------------

    def _ordering_cpu(self) -> Generator:
        """Wait until the adopted leader is alive and still believes it
        leads; return its node's CPU and the leader.

        A stale minority leader is deliberately still usable:
        transactions proposed into its doomed log model client requests
        lost to the wrong side of a partition, and are re-proposed once
        the majority side elects a successor.
        """
        while True:
            leader = self._adopted
            if leader is not None and leader.role == LEADER and not leader.node.crashed:
                return leader.node.cpu, leader
            yield self._leader_event

    def _adopt(self, replica: RaftReplica) -> None:
        """Follow a leadership change (Raft clients re-discover leaders);
        re-propose every pending transaction the new leader's log lacks."""
        if replica.current_term <= self._adopted_term:
            return
        self._adopted = replica
        self._adopted_term = replica.current_term
        in_log = {
            tx.tx_id
            for entry in replica.log
            for tx in entry.batch + entry.early_aborted
        }
        requeued = 0
        for tx_id, transaction in list(self._pending.items()):
            if (
                tx_id in in_log
                or tx_id in self._unproposed
                or tx_id in self._committed_tx_ids
            ):
                continue
            # The previous transform may have stamped an abort reason the
            # fresh cut will recompute against the new batch composition.
            transaction.failure_reason = None
            self._unproposed.add(tx_id)
            self.incoming.put(transaction)
            requeued += 1
        if requeued:
            self.group.stats.txs_reproposed += requeued
        waiters, self._leader_event = self._leader_event, self.env.event()
        waiters.succeed()

    # -- proposing ----------------------------------------------------------

    def _ship(
        self,
        leader: RaftReplica,
        reason: CutReason,
        cut_start: float,
        cut: List[Transaction],
        batch: List[Transaction],
        early_aborted: List[Transaction],
        result: Optional[ReorderResult],
    ) -> Generator:
        """Propose the transformed batch to the leader that ordered it.

        Leadership may have moved while the batch held the leader's CPU;
        a refused proposal recycles the whole batch through the intake.
        """
        yield from ()
        for tx in cut:
            self._unproposed.discard(tx.tx_id)
        if not leader.propose(batch, early_aborted):
            for tx in batch + early_aborted:
                tx.failure_reason = None
                self._unproposed.add(tx.tx_id)
                self.incoming.put(tx)

    # -- committing ----------------------------------------------------------

    def _on_commit(self, replica: RaftReplica) -> None:
        """Apply newly committed entries from whichever replica advanced.

        Raft guarantees every replica's committed prefix is identical, so
        applying from the first replica to report an index is safe.
        """
        while self._applied < replica.commit_index:
            entry = replica.log[self._applied]
            self._applied += 1
            self._apply(entry)

    def _apply(self, entry: LogEntry) -> None:
        if entry.noop:
            return
        batch = [
            tx for tx in entry.batch if tx.tx_id not in self._committed_tx_ids
        ]
        early = [
            tx
            for tx in entry.early_aborted
            if tx.tx_id not in self._committed_tx_ids
        ]
        duplicates = (len(entry.batch) - len(batch)) + (
            len(entry.early_aborted) - len(early)
        )
        if duplicates:
            self.group.stats.duplicate_txs_suppressed += duplicates
        if not batch and not early:
            # Every transaction already committed through an earlier
            # entry: the whole block collapses and no id is consumed.
            return
        for tx in batch + early:
            self._committed_tx_ids.add(tx.tx_id)
            self._pending.pop(tx.tx_id, None)
        for tx in early:
            self._notify(tx.tx_id, TxOutcome(tx.failure_reason))
        block = self._seal(batch, early)
        self.group.stats.entries_committed += 1
        if self.tracer is not None:
            self.tracer.span(
                "consensus.replicate",
                cat="consensus",
                track=f"consensus/{self.channel}",
                start=entry.proposed_at,
                block_id=block.block_id,
                batch=len(block.transactions),
                early_aborts=len(early),
            )
            self._trace_queue_waits(batch + early)
        self._broadcast(self.channel, block)
