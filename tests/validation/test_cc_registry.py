"""The CC-strategy registry and its plumbing: registration API, config
threading (``cc_strategy``), CLI flag, sweep
axis, cache fingerprint, and ValidationStats serialisation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.cache import spec_fingerprint
from repro.bench.spec import ExperimentSpec
from repro.cli import build_parser, config_from_args
from repro.codec import from_dict, to_dict
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import ConfigError
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import ValidationStats
from repro.validation.registry import (
    StrategyInfo,
    get_strategy,
    register_strategy,
    strategy_names,
)
from repro.workloads.registry import WorkloadRef


def parse(argv):
    return build_parser().parse_args(argv)


# -- registry API ----------------------------------------------------------


def test_builtin_strategies_are_registered():
    assert strategy_names() == ("depaware", "dependency", "lockless", "serial")


def test_get_strategy_returns_info_with_description():
    info = get_strategy("lockless")
    assert isinstance(info, StrategyInfo)
    assert info.name == "lockless"
    assert info.description
    assert info.divergence  # lockless documents its abort-set divergence


def test_equivalent_strategies_declare_no_divergence():
    for name in ("serial", "dependency", "depaware"):
        assert get_strategy(name).divergence == ""


def test_get_strategy_rejects_unknown_name():
    with pytest.raises(ConfigError, match="optimistic"):
        get_strategy("optimistic")


def test_register_strategy_rejects_duplicates():
    with pytest.raises(ConfigError, match="serial"):
        register_strategy(
            "serial", lambda peer, channel: iter(()), description="imposter"
        )


# -- config threading ------------------------------------------------------


def test_default_config_resolves_to_serial():
    config = FabricConfig()
    config.validate()
    assert config.cc_strategy == "serial"
    assert not config.uses_validation_pipeline


def test_cc_strategy_overrides_resolution():
    for name in ("dependency", "lockless", "depaware"):
        config = replace(FabricConfig(), cc_strategy=name)
        config.validate()
        assert config.cc_strategy == name
        # The worker/depth knobs alone decide the serial strategy's
        # pipeline; naming a strategy never flips it.
        assert not config.uses_validation_pipeline


def test_config_rejects_unknown_cc_strategy():
    config = replace(FabricConfig(), cc_strategy="optimistic")
    with pytest.raises(ConfigError, match="cc_strategy"):
        config.validate()


# -- CLI -------------------------------------------------------------------


def test_cli_forwards_cc_strategy():
    config = config_from_args(parse(["run", "--cc-strategy", "lockless"]))
    assert config.cc_strategy == "lockless"


def test_cli_default_cc_strategy_keeps_legacy_validator():
    config = config_from_args(parse(["run"]))
    assert config.cc_strategy == "serial"
    assert not config.uses_validation_pipeline


def test_cli_rejects_unknown_cc_strategy():
    with pytest.raises(SystemExit):
        parse(["run", "--cc-strategy", "optimistic"])


def test_cc_strategy_is_sweepable():
    axis = parse(["sweep"]).sweep_axes["cc-strategy"]
    assert axis.dest == "cc_strategy"
    assert tuple(axis.choices) == strategy_names()


# -- cache fingerprint -----------------------------------------------------


def small_spec(config):
    return ExperimentSpec(
        config=config, workload=WorkloadRef("blank"), duration=1.0
    )


def test_fingerprint_distinguishes_cc_strategies():
    base = replace(
        FabricConfig(),
        clients_per_channel=1,
        client_rate=100.0,
        batch=BatchCutConfig(max_transactions=32),
    )
    variants = [base] + [
        replace(base, cc_strategy=name)
        for name in ("lockless", "depaware", "dependency")
    ]
    fingerprints = [spec_fingerprint(small_spec(c)) for c in variants]
    assert len(set(fingerprints)) == len(fingerprints)


# -- ValidationStats serialisation -----------------------------------------


def test_validation_stats_strategy_round_trip():
    stats = ValidationStats(workers=2, pipeline_depth=1, strategy="lockless")
    data = to_dict(stats)
    assert data["strategy"] == "lockless"
    assert from_dict(ValidationStats, data) == stats


def test_pre_registry_validation_snapshot_is_rejected_by_name():
    data = to_dict(ValidationStats(workers=4, pipeline_depth=2, strategy="dependency"))
    data["scheduler"] = data.pop("strategy")  # the retired field
    with pytest.raises(ConfigError, match="scheduler"):
        from_dict(ValidationStats, data)
