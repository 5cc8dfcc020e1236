"""Lazy client-population workload model (ROADMAP: millions of users).

The paper's §5.1 workload is symmetric — n processes, one constant-rate
sender each. Real deployments front N ≫ n logical clients whose traffic
is skewed (a few hot clients dominate) and bursty (correlated on/off
phases, diurnal cycles). This module models such a population *lazily*:

* The simulator never schedules per-client events. Each process samples
  the **aggregate** arrival process of the ``clients / n`` clients it
  fronts (one kernel event per arrival), then attributes the arrival to
  a logical client drawn from a Zipf(s) rank distribution. Kernel event
  counts therefore scale with the offered load, not the population size
  — 10⁶ clients cost the same as 10².
* Every aggregate law is **mean-preserving**: burstiness and diurnal
  cycles reshape *when* arrivals happen, never how many per second on
  average, so sweeps against ``offered_load`` stay comparable across
  arrival laws.

Three aggregate laws (:class:`~repro.config.ClientArrival`):

POISSON
    Superposition of independent per-client Poisson streams is itself
    Poisson at the aggregate rate — sampled directly.
BURSTY
    An interrupted Poisson process (two-state Markov-modulated on/off
    source). ON periods send at ``rate / duty_cycle`` so the mean stays
    ``rate``; the index of dispersion of counts exceeds 1 (the property
    wall in ``tests/unit/workload/test_population.py`` pins this).
DIURNAL
    Non-homogeneous Poisson with a raised-cosine intensity over
    ``diurnal_period`` seconds, sampled by thinning; the peak is
    normalized so the cycle-average intensity equals ``rate``.

Zipf attribution uses rejection inversion (Hörmann & Derflinger 1996),
O(1) per sample with no per-client weight table — the other half of
keeping 10⁶⁺ clients free.
"""

from __future__ import annotations

import math
import random

from repro.config import ClientArrival, ClientPopulationConfig
from repro.errors import ConfigurationError
from repro.types import SimTime


class ZipfSampler:
    """Zipf(s) ranks in ``1..size`` by rejection inversion, O(1)/draw.

    For exponent ``s = 0`` every rank is equally likely (plain uniform
    draw). For ``s > 0``, P(rank = r) ∝ r^-s; the implementation follows
    Hörmann & Derflinger's rejection-inversion scheme (the same one
    Apache Commons Math ships), which needs no precomputed weight array
    and so costs O(1) memory regardless of the population size.
    """

    def __init__(self, size: int, s: float, rng: random.Random) -> None:
        if size < 1:
            raise ConfigurationError(f"zipf support must be >= 1: {size}")
        if s < 0:
            raise ConfigurationError(f"zipf exponent must be >= 0: {s}")
        self._size = size
        self._s = s
        self._rng = rng
        if s > 0:
            self._h_integral_x1 = self._h_integral(1.5) - 1.0
            self._h_integral_max = self._h_integral(size + 0.5)
            # Acceptance shortcut: k - x <= threshold always accepts
            # (Hörmann & Derflinger's s constant).
            self._threshold = 2.0 - self._h_integral_inverse(
                self._h_integral(2.5) - self._h(2.0)
            )

    def _h(self, x: float) -> float:
        """The density envelope h(x) = x^-s."""
        return math.exp(-self._s * math.log(x))

    def _h_integral(self, x: float) -> float:
        """H(x) = ∫ h, with the s = 1 logarithm handled exactly."""
        log_x = math.log(x)
        return self._helper2((1.0 - self._s) * log_x) * log_x

    def _h_integral_inverse(self, x: float) -> float:
        t = x * (1.0 - self._s)
        if t < -1.0:
            t = -1.0  # clamp numerical noise at the left edge
        return math.exp(self._helper1(t) * x)

    @staticmethod
    def _helper1(x: float) -> float:
        """log1p(x)/x, continuous at 0."""
        if abs(x) > 1e-8:
            return math.log1p(x) / x
        return 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))

    @staticmethod
    def _helper2(x: float) -> float:
        """expm1(x)/x, continuous at 0."""
        if abs(x) > 1e-8:
            return math.expm1(x) / x
        return 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x))

    def sample(self) -> int:
        """One rank in ``1..size`` (1 is the most active client)."""
        if self._s == 0.0:
            return self._rng.randrange(self._size) + 1
        while True:
            u = self._h_integral_max + self._rng.random() * (
                self._h_integral_x1 - self._h_integral_max
            )
            x = self._h_integral_inverse(u)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self._size:
                k = self._size
            if k - x <= self._threshold or u >= (
                self._h_integral(k + 0.5) - self._h(k)
            ):
                return k


class PopulationPoissonGaps:
    """Aggregate POISSON law: superposed client streams, rate = *rate*."""

    def __init__(self, rate: float, rng: random.Random) -> None:
        self._rate = rate
        self._rng = rng

    def first_delay(self) -> float:
        # Memoryless: the time to the first arrival is itself Exp(rate),
        # which doubles as the random phase.
        return self._rng.expovariate(self._rate)

    def gap(self, at: SimTime) -> float:
        return self._rng.expovariate(self._rate)


class BurstyGaps:
    """Interrupted Poisson process: Markov-modulated on/off aggregate.

    The source alternates exponentially-distributed ON periods (mean
    ``burst_on``) and OFF periods (mean ``burst_off``). While ON it
    emits Poisson arrivals at ``rate / duty_cycle``, so the long-run
    mean rate is exactly ``rate``; while OFF it is silent. Gaps that
    straddle one or more OFF periods are lengthened by the silent time,
    which is what makes the count process overdispersed (burstiness
    index > 1) relative to plain Poisson.
    """

    def __init__(
        self, rate: float, config: ClientPopulationConfig, rng: random.Random
    ) -> None:
        self._on_rate = rate / config.duty_cycle
        self._mean_on = config.burst_on
        self._mean_off = config.burst_off
        self._rng = rng
        #: Seconds of ON time left in the current ON period.
        self._on_left = rng.expovariate(1.0 / self._mean_on)

    def _next_gap(self) -> float:
        # Draw the gap in "ON time", then stretch it by every OFF period
        # the ON clock runs through before covering it.
        gap = self._rng.expovariate(self._on_rate)
        elapsed = 0.0
        while gap > self._on_left:
            gap -= self._on_left
            elapsed += self._on_left
            if self._mean_off > 0:
                elapsed += self._rng.expovariate(1.0 / self._mean_off)
            self._on_left = self._rng.expovariate(1.0 / self._mean_on)
        self._on_left -= gap
        return elapsed + gap

    def first_delay(self) -> float:
        return self._next_gap()

    def gap(self, at: SimTime) -> float:
        return self._next_gap()


class DiurnalGaps:
    """Non-homogeneous Poisson with a raised-cosine day/night cycle.

    The intensity is ``λ(t) = peak * (trough + (1 - trough) *
    (1 - cos(2πt/period)) / 2)`` — lowest at t = 0 (mod period), highest
    half a period later — with ``peak`` normalized so the cycle-average
    intensity is exactly *rate*. Sampling is Lewis–Shedler thinning
    against the constant envelope ``peak``: candidate gaps are
    Exp(peak), each accepted with probability ``λ(t)/peak``.
    """

    def __init__(
        self, rate: float, config: ClientPopulationConfig, rng: random.Random
    ) -> None:
        self._period = config.diurnal_period
        self._trough = config.diurnal_trough
        # Cycle average of the modulation term is (trough + 1) / 2.
        self._peak = 2.0 * rate / (1.0 + config.diurnal_trough)
        self._rng = rng

    def _intensity(self, at: float) -> float:
        phase = 2.0 * math.pi * (at / self._period)
        modulation = self._trough + (1.0 - self._trough) * 0.5 * (
            1.0 - math.cos(phase)
        )
        return self._peak * modulation

    def _thin_from(self, at: float) -> float:
        clock = at
        while True:
            clock += self._rng.expovariate(self._peak)
            if self._rng.random() * self._peak <= self._intensity(clock):
                return clock - at

    def first_delay(self) -> float:
        return self._thin_from(0.0)

    def gap(self, at: SimTime) -> float:
        return self._thin_from(at)


def population_gap_sampler(
    config: ClientPopulationConfig, rate: float, rng: random.Random
):
    """The aggregate gap sampler for one process's client pool."""
    if config.arrival is ClientArrival.POISSON:
        return PopulationPoissonGaps(rate, rng)
    if config.arrival is ClientArrival.BURSTY:
        return BurstyGaps(rate, config, rng)
    if config.arrival is ClientArrival.DIURNAL:
        return DiurnalGaps(rate, config, rng)
    raise ConfigurationError(
        f"no aggregate gap sampler for client arrival {config.arrival!r}"
    )


class ClientPool:
    """The logical clients fronted by one process, attributed lazily.

    Ranks are per-pool (1 = the pool's hottest client); the global
    client id of rank r at process pid in a group of n is
    ``pid + n * (r - 1)``, which keeps ids disjoint across pools and
    stable under the deal-around-the-table split of
    :meth:`ClientPopulationConfig.clients_of`.
    """

    def __init__(
        self,
        config: ClientPopulationConfig,
        pid: int,
        n: int,
        rng: random.Random,
    ) -> None:
        self.pid = pid
        self._n = n
        self.size = config.clients_of(pid, n)
        self._zipf = ZipfSampler(self.size, config.zipf_s, rng)
        #: Arrivals per local rank; sparse — hot ranks dominate.
        self._arrivals_by_rank: dict[int, int] = {}

    def on_arrival(self) -> int:
        """Attribute one arrival; returns the global client id."""
        rank = self._zipf.sample()
        self._arrivals_by_rank[rank] = self._arrivals_by_rank.get(rank, 0) + 1
        return self.pid + self._n * (rank - 1)

    @property
    def arrivals(self) -> int:
        """Total arrivals attributed to this pool."""
        return sum(self._arrivals_by_rank.values())

    @property
    def active_clients(self) -> int:
        """Distinct clients of this pool that sent at least once."""
        return len(self._arrivals_by_rank)


class ClientPopulation:
    """All client pools of one run, one per process.

    Attribution draws come from dedicated RNG streams
    (``workload.p{pid}.clients``), disjoint from the gap-sampler
    streams, so adding a population never perturbs the arrival-time
    draws of the underlying schedule — and vice versa.
    """

    def __init__(
        self,
        config: ClientPopulationConfig,
        n: int,
        stream_of,
    ) -> None:
        self.config = config
        self._pools = [
            ClientPool(config, pid, n, stream_of(f"workload.p{pid}.clients"))
            for pid in range(n)
        ]

    def pool(self, pid: int) -> ClientPool:
        return self._pools[pid]

    def arrival_hook(self, pid: int):
        """An :data:`~repro.workload.generator.ArrivalListener` for *pid*."""
        pool = self._pools[pid]

        def hook() -> None:
            pool.on_arrival()

        return hook

    @property
    def active_clients(self) -> int:
        """Distinct clients across all pools that sent at least once."""
        return sum(pool.active_clients for pool in self._pools)

    @property
    def arrivals(self) -> int:
        return sum(pool.arrivals for pool in self._pools)
