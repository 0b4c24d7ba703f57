"""The benchmark's workloads, as :class:`repro.bench.spec.ExperimentSpec`.

Every workload uses the paper defaults: 2 orgs x 2 peers, 4 closed-loop
clients per channel at 512 proposals/s each, default batch cutting. The
reasons for each choice are in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import replace
from pathlib import Path
from typing import Dict, Tuple

#: Simulated seconds the clients fire, and the drain window after it.
DURATION = 10.0
DRAIN = 3.0

#: Time of ``child.probe`` on the uncontended 2-vCPU x86_64 host this
#: benchmark was built on (python 3.11). Host times are reported at this
#: speed: see "Timing" in README.md.
PROBE_S = 0.70e-3

#: The checkout root: ``perfbench/`` sits directly below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Paper Smallbank (Table 6): 100k users, uniform access, Pw = 0.95.
SMALLBANK = {"num_users": 100_000, "prob_write": 0.95, "s_value": 0.0}
#: Paper custom workload with a 1% hot set: RW=4, HR=0.4, HW=0.1.
HOTKEY = {
    "num_accounts": 10_000,
    "reads_writes": 4,
    "prob_hot_read": 0.4,
    "prob_hot_write": 0.1,
    "hot_set_fraction": 0.01,
}


#: Fabric++: all three of the paper's optimisations on.
FABRICPP = {
    "reordering": True,
    "early_abort_simulation": True,
    "early_abort_ordering": True,
}

#: Workload name -> (FabricConfig overrides, registered workload, params).
WORKLOADS: Dict[str, Tuple[Dict[str, object], str, Dict[str, object]]] = {
    "smallbank-fabricpp": (FABRICPP, "smallbank", SMALLBANK),
    "hotkey-fabricpp": (FABRICPP, "custom", HOTKEY),
    "smallbank-fabric-raft-depval": (
        {"orderer_nodes": 3, "validation_workers": 4, "cc_strategy": "dependency"},
        "smallbank",
        SMALLBANK,
    ),
}


def make_spec(workload: str, seed: int):
    """The :class:`ExperimentSpec` of ``workload`` under ``seed``.

    The seed goes to both the network (``ExperimentSpec.seed``) and the
    workload generator (``WorkloadRef.seed``).
    """
    from repro.bench.spec import ExperimentSpec
    from repro.fabric.config import FabricConfig
    from repro.workloads.registry import WorkloadRef

    overrides, name, params = WORKLOADS[workload]
    return ExperimentSpec(
        config=replace(FabricConfig(), **overrides),
        workload=WorkloadRef(name, params, seed=seed),
        duration=DURATION,
        drain=DRAIN,
        seed=seed,
    )


def source_digest(root: Path = SRC / "repro") -> str:
    """SHA-256 over every ``.py`` file under ``root``, path and bytes."""
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        hasher.update(path.relative_to(root).as_posix().encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))
