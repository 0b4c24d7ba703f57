"""Unit and property tests for the open-loop arrival processes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.distributions import Rng, mix_seed
from repro.traffic import (
    ARRIVAL_KINDS,
    TRAFFIC_SEED_SALT,
    ArrivalProcess,
    ArrivalSampler,
)

OPEN_KINDS = tuple(kind for kind in ARRIVAL_KINDS if kind != "closed")


def sampler(kind: str, seed: int = 0, rate: float = 200.0) -> ArrivalSampler:
    return ArrivalSampler(
        ArrivalProcess(kind=kind), rate, Rng(mix_seed(seed, TRAFFIC_SEED_SALT))
    )


def intervals(sampler: ArrivalSampler, count: int):
    now, out = 0.0, []
    for _ in range(count):
        gap = sampler.next_interval(now)
        out.append(gap)
        now += gap
    return out


# -- validation -----------------------------------------------------------------


def test_default_process_is_closed_and_valid():
    process = ArrivalProcess()
    assert process.is_closed
    process.validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "bursty"},
        {"kind": "poisson", "rate": 0.0},
        {"kind": "poisson", "rate": -5.0},
        {"kind": "diurnal", "period": 0.0},
        {"kind": "diurnal", "amplitude": 1.0},
        {"kind": "diurnal", "amplitude": -0.1},
        {"kind": "flash", "flash_at": -1.0},
        {"kind": "flash", "flash_duration": 0.0},
        {"kind": "flash", "flash_factor": 0.5},
        {"kind": "heavy_tail", "pareto_shape": 1.0},
        {"rate": 100.0},
    ],
)
def test_invalid_processes_rejected(kwargs):
    with pytest.raises(ConfigError):
        ArrivalProcess(**kwargs).validate()


def test_sampler_rejects_closed_process():
    with pytest.raises(ConfigError):
        ArrivalSampler(ArrivalProcess(), 100.0, Rng(0))


def test_effective_rate_prefers_explicit_rate():
    assert ArrivalProcess(kind="poisson").effective_rate(250.0) == 250.0
    assert ArrivalProcess(kind="poisson", rate=80.0).effective_rate(250.0) == 80.0


# -- determinism ----------------------------------------------------------------


@pytest.mark.parametrize("kind", OPEN_KINDS)
def test_same_seed_same_stream(kind):
    first = intervals(sampler(kind, seed=7), 200)
    second = intervals(sampler(kind, seed=7), 200)
    assert first == second


@pytest.mark.parametrize("kind", OPEN_KINDS)
def test_different_seeds_differ(kind):
    assert intervals(sampler(kind, seed=1), 50) != intervals(
        sampler(kind, seed=2), 50
    )


@pytest.mark.parametrize("kind", OPEN_KINDS)
def test_intervals_are_positive(kind):
    assert all(gap > 0.0 for gap in intervals(sampler(kind, seed=3), 500))


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_identical_seeds_yield_identical_streams(seed):
    """The satellite property: one seed, one stream, every time."""
    for kind in OPEN_KINDS:
        assert intervals(sampler(kind, seed=seed), 64) == intervals(
            sampler(kind, seed=seed), 64
        )


# -- statistical shape ----------------------------------------------------------


@given(
    rate=st.floats(min_value=20.0, max_value=800.0),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=20, deadline=None)
def test_poisson_interarrival_mean_matches_rate(rate, seed):
    process = ArrivalProcess(kind="poisson", rate=rate)
    rng = Rng(mix_seed(seed, TRAFFIC_SEED_SALT))
    draws = intervals(ArrivalSampler(process, 100.0, rng), 4000)
    mean = sum(draws) / len(draws)
    # Standard error of the mean is (1/rate)/sqrt(n) ~ 1.6% here; a 10%
    # band keeps the property sharp without flaking.
    assert abs(mean - 1.0 / rate) < 0.10 / rate


def test_heavy_tail_mean_matches_rate():
    # Shape 3.0 has finite variance, so the sample mean converges fast
    # enough to pin; the default shape 1.5 (infinite variance) is only
    # checked for positivity above.
    process = ArrivalProcess(kind="heavy_tail", rate=100.0, pareto_shape=3.0)
    draws = intervals(ArrivalSampler(process, 100.0, Rng(5)), 30_000)
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.01) < 0.0015


def test_flash_concentrates_arrivals_in_the_window():
    process = ArrivalProcess(
        kind="flash", rate=100.0, flash_at=0.5, flash_duration=0.5, flash_factor=8.0
    )
    arrival_sampler = ArrivalSampler(process, 100.0, Rng(9))
    now, inside, outside = 0.0, 0, 0
    while now < 2.0:
        now += arrival_sampler.next_interval(now)
        if 0.5 <= now < 1.0:
            inside += 1
        else:
            outside += 1
    # The flash window is a quarter of the horizon but carries an 8x
    # rate: it must dominate the arrival count outright.
    assert inside > outside


def test_diurnal_rate_tracks_the_sinusoid():
    process = ArrivalProcess(kind="diurnal", rate=400.0, period=1.0, amplitude=0.8)
    arrival_sampler = ArrivalSampler(process, 400.0, Rng(4))
    counts = [0, 0, 0, 0]
    now = 0.0
    while now < 8.0:
        now += arrival_sampler.next_interval(now)
        counts[int((now % 1.0) * 4) % 4] += 1
    # lambda(t) = 400 * (1 + 0.8 sin(2 pi t)): the first quarter-period
    # peaks, the third troughs.
    assert counts[0] > counts[2] * 2
