"""Golden hashes for every concurrency-control strategy.

``tests/integration/test_fault_determinism.py`` pins the default serial
loop. The CC oracles pin committed ledgers and outcomes, but not timing,
so a refactor of the shared commit path could shift a non-default
strategy's latencies without any of them failing. These cases pin each
opt-in strategy's full timeline under both systems, healthy and with a
peer crash window, through two hashes:

- ``metrics_hash`` over the golden outcome/latency/commit-time fields;
- a SHA-256 of the whole ``metrics_to_dict`` snapshot, so
  ``ValidationStats`` (waves, lane busy times, queue delay) is pinned
  as well.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.bench.harness import run_experiment
from repro.bench.results import metrics_to_dict
from repro.faults import CrashWindow, FaultSchedule
from tests.integration.test_fault_determinism import golden_spec, metrics_hash

#: The strategy configurations under test, by case name.
STRATEGIES = {
    "pipeline": {"validation_workers": 2, "pipeline_depth": 2},
    "dependency": {"cc_strategy": "dependency", "validation_workers": 4},
    "lockless": {"cc_strategy": "lockless"},
    "depaware": {"cc_strategy": "depaware", "validation_workers": 2},
}

#: (metrics_hash, full-snapshot hash) per (strategy, system, fault mode),
#: captured before the strategies shared one commit path.
GOLDEN = {
    ("depaware", "fabric++", "crash"): (
        "0104525cd3c10a23f3924a0b01d0b654ec54538db770fde4e9176e69024e1d3d",
        "9e159bfc4b236beae1532586da75959f2315020561eb803ca40b19d0232ea9d2",
    ),
    ("depaware", "fabric++", "healthy"): (
        "4d4796ae99ea7883f65154facc69da2d78f03790aae6d48eb71bdeb3fd9db1db",
        "f4197bd3178af1901fe870e3b6495b3981c4e07b453e8a5e7b45e82181914332",
    ),
    ("depaware", "vanilla", "crash"): (
        "43546ab59cec2db6dc648a6fd5a504eab156fcc7775500867bfb225e988a64d9",
        "290c5b5c50d0fd2d9810eff8a56df0b8aade943154556c0b3a3a30bee5e1c51e",
    ),
    ("depaware", "vanilla", "healthy"): (
        "5ebe692b0908c71a6126152422d3546adcdc9a2d8587b35f78fae01f178cb4d0",
        "b4326309f5c66e0fe026edf58aeccef68cae23674fd7130605879fd089a4b4f7",
    ),
    ("dependency", "fabric++", "crash"): (
        "3fec7e0be0139caaa75828897d25a8bbba6cdbe282001a50582cc4c1ceac7517",
        "f2aaa1e3c815989fce6d835ed25a30ed703132f7675490da8b6af67a6079734f",
    ),
    ("dependency", "fabric++", "healthy"): (
        "e15f3012530ae2cf73f32697f4f9aaf8d9ad40194934aaf7d5e8faf5c845bcf6",
        "8940e0929f442741336be2afddf91f5bd6a8b9e33f074597159e6a2e76f63e02",
    ),
    ("dependency", "vanilla", "crash"): (
        "a2c7a9dfe01e9a2280b1a3916268b26277fbafe4c9501d493aecc8d01e188f0b",
        "d70d46b650e1ab0e40cfe1eb9632882381824fadf2bc422cdfc093137473556a",
    ),
    ("dependency", "vanilla", "healthy"): (
        "5be6a8de78ee38bbd0a4bba5e6d0ec83e39d4d4e44e02f5b77aa698b4d7fd167",
        "d0a17c16aaee998da07d7af63eba5ca0af8109f522766d3cf0f8aa40c042761e",
    ),
    ("lockless", "fabric++", "crash"): (
        "f2cfece78173d3da62f936f1bb5411147218fa61375c95417945ff0e4ec8c50c",
        "34257458947592e4299d706906eab649125029262b38ef990aef564d2e46f392",
    ),
    ("lockless", "fabric++", "healthy"): (
        "af5aa4819a3fbb0356b040d63f2b48d9e476a17bacc3a6e0351881b44fbc42d2",
        "153848a32dd280d4a6ee4a77382cd5781950fc7b114fb8dce89eb390b60050c9",
    ),
    ("lockless", "vanilla", "crash"): (
        "63b863b917a65289c78306c277896025bc16d55dbfb880c56db4b778e13815a1",
        "cad24e57637f79541e2fb1657fd8196ffde542d48dc014a39fea89e3d73b4516",
    ),
    ("lockless", "vanilla", "healthy"): (
        "b2bc72b28e871d5937178937f6e4c68bcbacc8aea3a7d329421900f18e49b28d",
        "99006282b5412b7f8b40c3fdd0e71be9e2b90b063e6fc6e8353cc34e0ba70c86",
    ),
    ("pipeline", "fabric++", "crash"): (
        "d0bb1bb2d3c2fe7baeb9bb1696ac86bf51e20f2ef6ecc0ce9d2cb05819de4747",
        "71697016c859005eb277af4b6568cef9bed0e4b68db0f93054cc84638add586d",
    ),
    ("pipeline", "fabric++", "healthy"): (
        "9409fb335ac88a1de994c35c03f35e696a8b42aead95c75e08f318851e1ba3a3",
        "97aaca538965b84f177d4350bdd0b48480c40860db518052acb11f7fd6e888d9",
    ),
    ("pipeline", "vanilla", "crash"): (
        "22a261e9f86aa9bbf73bbeacb4b256117f6a4c8dd51991549de3d6f80dcee933",
        "986cf14322cbfd529d082b0c82accb6b91c0d0f8b0aefb53bc2a87445e517744",
    ),
    ("pipeline", "vanilla", "healthy"): (
        "3e831bae0cae2075c273a27fa3b8b77aad45a2123ee02782c1261beb32fed670",
        "09b7cb24ae6ce4772e85eda1e3158ded7d37db10bd1990b733cdc8bb86885f8a",
    ),
}


def strategy_spec(strategy: str, system: str, mode: str):
    spec = golden_spec(system)
    changes = dict(STRATEGIES[strategy])
    if mode == "crash":
        changes["endorsement_policy"] = "outof:1"
        changes["faults"] = FaultSchedule(
            crashes=(CrashWindow(peer="peer1.OrgA", at=0.4, duration=0.6),),
            endorsement_timeout=0.05,
        )
    config = dataclasses.replace(spec.config, **changes)
    return dataclasses.replace(spec, config=config, drain=3.0)


def snapshot_hash(metrics) -> str:
    return hashlib.sha256(
        json.dumps(metrics_to_dict(metrics), sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("strategy, system, mode", sorted(GOLDEN))
def test_strategy_matches_golden(strategy, system, mode):
    spec = strategy_spec(strategy, system, mode)
    spec.config.validate()
    metrics = run_experiment(spec).metrics
    assert metrics.validation is not None
    if mode == "crash":
        assert metrics.fault_counters.get("crashes") == 1
    assert (metrics_hash(metrics), snapshot_hash(metrics)) == GOLDEN[
        (strategy, system, mode)
    ]
