"""Replicated CFT ordering: a deterministic, DES-modelled Raft cluster.

The paper's setup runs one immortal ordering process (Section 6.1); real
Fabric replaced that single trust point with a Raft ordering service
because ordering is the pipeline's availability choke point. This package
models that cluster inside the existing discrete-event simulation:

- :mod:`repro.consensus.cluster` — the orderer machines: per-node CPUs,
  crash flags, the partition-aware message transport, and the shared
  :class:`~repro.fabric.metrics.ConsensusStats`.
- :mod:`repro.consensus.raft` — the consensus state machine: leader
  election with randomized timeouts, heartbeats, log replication, and
  the quorum commit rule (current-term entries only).
- :mod:`repro.consensus.service` — :class:`ReplicatedOrderingService`,
  selected by ``FabricConfig.orderer_nodes > 1``. It runs the pipeline of
  :class:`~repro.fabric.orderer.OrderingService` and supplies its three
  hooks: the leader's CPU orders, early aborts reach clients at commit,
  and a cut batch is proposed to the leader; a block is broadcast to
  peers only after a quorum of orderer nodes has acknowledged its entry.

Determinism: every random draw (election timeouts) comes from per-replica
streams seeded with ``mix_seed(seed, CONSENSUS_SEED_SALT, channel,
node)``, independent of the workload, client, and fault streams. The
default single-orderer configuration builds none of this machinery and
stays bit-identical to the pre-consensus build.
"""

from repro.consensus.cluster import CONSENSUS_SEED_SALT, OrdererCluster, OrdererNode
from repro.consensus.raft import CANDIDATE, FOLLOWER, LEADER, LogEntry, RaftGroup, RaftReplica
from repro.consensus.service import ReplicatedOrderingService
from repro.fabric.config import ConsensusConfig

__all__ = [
    "CANDIDATE",
    "CONSENSUS_SEED_SALT",
    "ConsensusConfig",
    "FOLLOWER",
    "LEADER",
    "LogEntry",
    "OrdererCluster",
    "OrdererNode",
    "RaftGroup",
    "RaftReplica",
    "ReplicatedOrderingService",
]
