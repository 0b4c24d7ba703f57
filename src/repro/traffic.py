"""Open-loop arrival processes for client traffic shaping.

The paper's Caliper-style evaluation fires transactions *closed-loop*: each
client sleeps a fixed ``1 / client_rate`` between proposals and caps its own
in-flight window, so offered load can never exceed what the system absorbs.
Real deployments are open-loop — arrivals keep coming whether or not earlier
requests finished — which is the regime where queues grow and overload
behavior matters (Wang & Chu, arXiv:2008.05946).

:class:`ArrivalProcess` is the picklable, declarative description that lives
on :class:`~repro.fabric.config.FabricConfig`. The default ``kind="closed"``
leaves the client's original pacing loop untouched (bit-identical golden
hashes); any other kind switches that client to an open-loop
:class:`ArrivalSampler` drawing interarrival gaps from a dedicated seeded
stream:

``poisson``
    Homogeneous Poisson process: exponential interarrivals at ``rate``.
``diurnal``
    Non-homogeneous Poisson with a sinusoidal day curve,
    ``lambda(t) = rate * (1 + amplitude * sin(2*pi*t / period))``.
``flash``
    Non-homogeneous Poisson with a rectangular flash-crowd spike:
    ``rate * flash_factor`` inside ``[flash_at, flash_at + flash_duration)``
    and ``rate`` everywhere else.
``heavy_tail``
    Pareto interarrivals (shape ``pareto_shape`` > 1) scaled so the *mean*
    interarrival stays ``1 / rate`` — bursty think times with rare long
    silences.

Non-homogeneous kinds are sampled by thinning (Lewis & Shedler): draw
candidate gaps at the peak rate ``lambda_max`` and accept each candidate
with probability ``lambda(t) / lambda_max``. Thinning consumes a data-
dependent but fully deterministic number of draws from the sampler's
private :class:`~repro.sim.distributions.Rng`, so identical seeds yield
identical arrival streams regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .sim.distributions import Rng

#: Salt mixed into per-client arrival RNG seeds so traffic streams are
#: decorrelated from workload, fault, and backoff streams.
TRAFFIC_SEED_SALT = 0x7AFF

#: The arrival kinds :class:`ArrivalProcess` accepts.
ARRIVAL_KINDS = ("closed", "poisson", "diurnal", "flash", "heavy_tail")


@dataclass(frozen=True)
class ArrivalProcess:
    """Declarative, picklable description of one client's arrival process.

    ``rate`` is the mean arrivals per simulated second; when ``None`` the
    client's ``client_rate`` is used, so a traffic shape can be swept
    independently of the base load. Closed-loop traffic takes no rate.
    """

    kind: str = "closed"
    rate: Optional[float] = None
    #: Diurnal: sinusoid period in simulated seconds and relative amplitude.
    period: float = 1.0
    amplitude: float = 0.8
    #: Flash crowd: spike start, width, and rate multiplier.
    flash_at: float = 0.5
    flash_duration: float = 0.5
    flash_factor: float = 8.0
    #: Heavy tail: Pareto shape; must exceed 1 so the mean exists.
    pareto_shape: float = 1.5

    @property
    def is_closed(self) -> bool:
        """True when the original closed-loop pacing applies."""
        return self.kind == "closed"

    def effective_rate(self, default: float) -> float:
        """The base arrival rate, falling back to the client rate."""
        return default if self.rate is None else self.rate

    def validate(self) -> None:
        """Raise :class:`ConfigError` for out-of-range parameters."""
        if self.kind not in ARRIVAL_KINDS:
            raise ConfigError(
                f"unknown arrival kind {self.kind!r}; "
                f"expected one of {', '.join(ARRIVAL_KINDS)}"
            )
        if self.is_closed and self.rate is not None:
            raise ConfigError(
                "closed-loop traffic is paced by client_rate and takes no "
                "arrival rate; pick an open-loop kind"
            )
        if self.rate is not None and self.rate <= 0:
            raise ConfigError(f"arrival rate must be positive, got {self.rate}")
        if self.period <= 0:
            raise ConfigError(f"diurnal period must be positive, got {self.period}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError(
                f"diurnal amplitude must be in [0, 1), got {self.amplitude}"
            )
        if self.flash_at < 0:
            raise ConfigError(f"flash_at must be >= 0, got {self.flash_at}")
        if self.flash_duration <= 0:
            raise ConfigError(
                f"flash_duration must be positive, got {self.flash_duration}"
            )
        if self.flash_factor < 1.0:
            raise ConfigError(
                f"flash_factor must be >= 1, got {self.flash_factor}"
            )
        if self.pareto_shape <= 1.0:
            raise ConfigError(
                "pareto_shape must exceed 1 so the mean interarrival is "
                f"finite, got {self.pareto_shape}"
            )


class ArrivalSampler:
    """Draws interarrival gaps for one client from a private seeded stream.

    The sampler owns its :class:`Rng`: every draw — including rejected
    thinning candidates — comes from this stream and nowhere else, which is
    what makes arrival sequences reproducible across repeats and worker
    processes.
    """

    def __init__(self, process: ArrivalProcess, base_rate: float, rng: Rng) -> None:
        if process.is_closed:
            raise ConfigError("closed-loop traffic does not use an ArrivalSampler")
        self.process = process
        self.rate = process.effective_rate(base_rate)
        self.rng = rng

    def _intensity(self, at: float) -> float:
        """Instantaneous arrival rate ``lambda(at)``."""
        process = self.process
        if process.kind == "diurnal":
            phase = math.sin(2.0 * math.pi * at / process.period)
            return self.rate * (1.0 + process.amplitude * phase)
        if process.kind == "flash":
            start = process.flash_at
            if start <= at < start + process.flash_duration:
                return self.rate * process.flash_factor
            return self.rate
        return self.rate

    def _peak_rate(self) -> float:
        """Upper bound ``lambda_max`` used by the thinning sampler."""
        process = self.process
        if process.kind == "diurnal":
            return self.rate * (1.0 + process.amplitude)
        if process.kind == "flash":
            return self.rate * max(1.0, process.flash_factor)
        return self.rate

    def next_interval(self, now: float) -> float:
        """The gap until this client's next arrival after time ``now``."""
        kind = self.process.kind
        if kind == "poisson":
            return self.rng.exponential(1.0 / self.rate)
        if kind == "heavy_tail":
            # Pareto(shape, xm) with xm chosen so the mean is 1 / rate.
            shape = self.process.pareto_shape
            scale = (shape - 1.0) / (shape * self.rate)
            draw = max(self.rng.random(), 1e-12)
            return scale / draw ** (1.0 / shape)
        # Non-homogeneous kinds: thinning against the peak rate.
        peak = self._peak_rate()
        elapsed = 0.0
        while True:
            elapsed += self.rng.exponential(1.0 / peak)
            accept = self._intensity(now + elapsed) / peak
            if self.rng.random() < accept:
                return elapsed
