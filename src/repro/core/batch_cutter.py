"""Batch cutting inside the ordering service (paper Section 5.1.2).

The ordering service receives a stream of transactions and decides when to
"cut" the current batch into a block. Vanilla Fabric cuts when one of three
conditions holds: (a) the batch reached a transaction count, (b) it reached
a byte size, (c) a timeout elapsed since the batch's first transaction.
Fabric++ adds (d): the batch touches a bounded number of unique keys, which
keeps the reordering computation (dominated by conflict-graph construction
over unique keys) bounded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Set

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.transaction import Transaction


@dataclass(frozen=True)
class BatchCutConfig:
    """When the ordering service cuts the current batch into a block.

    Vanilla criteria (paper Section 5.1.2): transaction count, byte size,
    and time since the first transaction of the batch. Fabric++ adds the
    unique-key bound so the reordering run time stays bounded.
    """

    max_transactions: int = 1024
    max_bytes: int = 2 * 1024 * 1024
    max_batch_delay: float = 1.0
    #: Fabric++ extension: cut when the batch touches this many unique keys.
    #: ``None`` disables the criterion (vanilla behaviour).
    max_unique_keys: Optional[int] = 16384

    def validate(self) -> None:
        """Raise :class:`ConfigError` on nonsensical limits."""
        if self.max_transactions < 1:
            raise ConfigError("max_transactions must be >= 1")
        if self.max_bytes < 1:
            raise ConfigError("max_bytes must be >= 1")
        if self.max_batch_delay <= 0:
            raise ConfigError("max_batch_delay must be > 0")
        if self.max_unique_keys is not None and self.max_unique_keys < 1:
            raise ConfigError("max_unique_keys must be >= 1 or None")


class CutReason(enum.Enum):
    """Why a batch was cut."""

    TX_COUNT = "tx_count"
    BYTES = "bytes"
    TIMEOUT = "timeout"
    UNIQUE_KEYS = "unique_keys"
    FLUSH = "flush"


class BatchCutter:
    """Accumulates transactions and reports when to cut a block."""

    def __init__(self, config: BatchCutConfig, track_unique_keys: bool = False) -> None:
        """``track_unique_keys`` enables Fabric++'s criterion (d)."""
        config.validate()
        self._config = config
        self._track_unique_keys = track_unique_keys and (
            config.max_unique_keys is not None
        )
        self._batch: List["Transaction"] = []
        self._bytes = 0
        self._first_arrival: Optional[float] = None
        self._keys: Set[str] = set()
        self.last_cut_reason: Optional[CutReason] = None

    def __len__(self) -> int:
        return len(self._batch)

    @property
    def is_empty(self) -> bool:
        """True when no transaction is pending."""
        return not self._batch

    @property
    def first_arrival(self) -> Optional[float]:
        """Arrival time of the oldest pending transaction."""
        return self._first_arrival

    @property
    def unique_keys(self) -> int:
        """Unique keys touched by the pending batch (0 if not tracked)."""
        return len(self._keys)

    def deadline(self) -> Optional[float]:
        """Simulated time at which the timeout criterion fires."""
        if self._first_arrival is None:
            return None
        return self._first_arrival + self._config.max_batch_delay

    def add(self, transaction: "Transaction", now: float) -> Optional[CutReason]:
        """Add a transaction; return a :class:`CutReason` if the batch is full.

        The caller cuts (via :meth:`cut`) when a reason is returned. The
        count/bytes/keys criteria are checked after adding, so a block
        holds *at most* the configured limits.
        """
        if self._first_arrival is None:
            self._first_arrival = now
        self._batch.append(transaction)
        self._bytes += transaction.estimated_size_bytes()
        if self._track_unique_keys:
            self._keys.update(transaction.rwset.unique_keys)

        if len(self._batch) >= self._config.max_transactions:
            return CutReason.TX_COUNT
        if self._bytes >= self._config.max_bytes:
            return CutReason.BYTES
        if (
            self._track_unique_keys
            and len(self._keys) >= self._config.max_unique_keys
        ):
            return CutReason.UNIQUE_KEYS
        return None

    def timeout_due(self, now: float) -> bool:
        """True if the timeout criterion has fired for the pending batch."""
        deadline = self.deadline()
        return deadline is not None and now >= deadline

    def cut(self, reason: CutReason) -> List["Transaction"]:
        """Return the pending batch and reset for the next one."""
        batch = self._batch
        self._batch = []
        self._bytes = 0
        self._first_arrival = None
        self._keys = set()
        self.last_cut_reason = reason
        return batch
