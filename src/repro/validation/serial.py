"""The legacy inline serial validator.

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

from typing import TYPE_CHECKING, Generator

from repro.validation.commit import BlockCommit, commit_in_order

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer
    from repro.fabric.transaction import Transaction


def folded_tx_charge(peer: "Peer", tx: "Transaction") -> Generator:
    """Charge one transaction's folded verify + MVCC validation cost."""
    costs = peer.config.costs
    speed = peer.speed_factor
    yield from peer.cpu.use(
        costs.tx_validation_cost(len(tx.endorsements)) * speed
    )
    if peer.tracer is not None:
        verify_cost = (
            costs.verify_signature
            * len(tx.endorsements)
            / costs.validation_parallelism
        ) * speed
        peer.tracer.charge("verify", verify_cost, count=len(tx.endorsements))
        peer.tracer.charge("mvcc", costs.mvcc_check * speed)


def serial_validator(peer: "Peer", channel: str) -> Generator:
    """Sequential per-channel validation pipeline (one block at a time)."""

    def check(commit: BlockCommit) -> Generator:
        for index, tx in enumerate(commit.block.transactions):
            tx_start = peer.env.now
            yield from folded_tx_charge(peer, tx)
            policy_ok = peer._endorsements_valid(channel, tx)
            commit.settle(index, tx, commit.outcome(tx, policy_ok), tx_start)
        return {}

    vanilla = not peer.config.early_abort_simulation
    return commit_in_order(
        peer,
        channel,
        check,
        "serial",
        lock=vanilla,
        inline=not vanilla,
        fold_stats=False,
    )
