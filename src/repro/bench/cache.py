"""On-disk result cache keyed by a stable experiment fingerprint.

Re-running a benchmark grid recomputes only the grid points whose spec
actually changed: every completed run is stored under
``.repro-cache/<fingerprint>.json``, where the fingerprint is a SHA-256
over the canonical JSON of (configuration, workload reference, duration,
drain, code version). Any field change — a config knob, a workload
parameter, the seed, the duration — produces a different key. The code
version is a digest of the package sources, so any code edit
invalidates everything at once.

Only specs whose workload is a :class:`~repro.workloads.registry.WorkloadRef`
are cacheable; closures and ad-hoc workload instances cannot be
fingerprinted and always run live.

The cache stores the run's *full* metrics snapshot, so a cache hit
reconstructs an :class:`ExperimentResult` that is row-for-row identical
to the live run that produced it (floats round-trip exactly through
JSON). The requesting spec's label and report params are re-applied on
load — they identify the row, not the simulation, and are deliberately
not part of the key.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

from repro.bench.results import ExperimentResult, metrics_from_dict, metrics_to_dict
from repro.bench.spec import ExperimentSpec
from repro.codec import to_dict
from repro.errors import ConfigError

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Root of the package sources hashed into every cache key.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def source_digest(root: Path = PACKAGE_ROOT) -> str:
    """SHA-256 over every ``.py`` file under ``root``, path and bytes.

    Any edit to the simulator's code changes it, so a cache written by
    other code never serves a result. :func:`code_version` memoizes it
    for the package itself.
    """
    hasher = hashlib.sha256()
    for path in sorted(Path(root).rglob("*.py")):
        hasher.update(path.relative_to(root).as_posix().encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


@functools.lru_cache(maxsize=None)
def code_version() -> str:
    """The package's source digest, computed once per process."""
    return source_digest()


def spec_fingerprint(spec: ExperimentSpec, version: Optional[str] = None) -> str:
    """Stable hex fingerprint of everything that determines a run's output.

    ``version`` defaults to :func:`code_version`. Raises
    :class:`TypeError` for non-cacheable specs (workload not a
    :class:`WorkloadRef`).
    """
    if not spec.is_cacheable:
        raise TypeError(
            "only specs with a WorkloadRef workload can be fingerprinted"
        )
    payload = {
        "version": version if version is not None else code_version(),
        "config": to_dict(spec.resolved_config()),
        "workload": spec.workload.describe(),
        "duration": spec.duration,
        "drain": spec.drain,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """File-per-entry result cache under a root directory.

    The directory is created lazily on the first ``put``. ``hits`` and
    ``misses`` count ``get`` calls for sweep statistics.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        version: Optional[str] = None,
    ) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self._version = version
        self.hits = 0
        self.misses = 0

    @property
    def version(self) -> str:
        """The code version keyed into every fingerprint."""
        return self._version if self._version is not None else code_version()

    def key(self, spec: ExperimentSpec) -> Optional[str]:
        """The spec's cache key, or None when the spec is not cacheable."""
        if not spec.is_cacheable:
            return None
        return spec_fingerprint(spec, version=self.version)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """The cached result for ``spec``, or None on a miss.

        Corrupt or unreadable entries count as misses (and are removed),
        so a damaged cache degrades to recomputation, never to an error.
        """
        key = self.key(spec)
        if key is None:
            self.misses += 1
            return None
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            metrics = metrics_from_dict(payload["metrics"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, ConfigError):
            # ValueError covers JSONDecodeError; ConfigError is the codec's
            # verdict on a payload that does not fit the current classes.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return ExperimentResult(
            label=spec.resolved_label(),
            config=spec.resolved_config(),
            metrics=metrics,
            duration=spec.duration,
            params=dict(spec.params),
        )

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> bool:
        """Store ``result`` under the spec's key; False if not cacheable."""
        key = self.key(spec)
        if key is None:
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": self.version,
            "fingerprint": key,
            "metrics": metrics_to_dict(result.metrics),
        }
        path = self._path(key)
        # Atomic publish: never leave a half-written entry behind.
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
        return True

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in self.root.glob("*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
