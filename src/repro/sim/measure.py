"""Benchmarking protocol (paper §III-C3).

"Benchmarking is done in terms of measurements and samples.  Each sample is
a single invocation of P, and each measurement corresponds to a single
estimate of the time taken to execute P.  A measurement is generated by
starting a timer and repeating n_samples samples until a time t_measure of
0.01 s has elapsed.  The time for P is estimated as the maximum
t_measure / n_samples across all ranks."

We reproduce the protocol on the simulated clock.  Because a simulated
sample is deterministic given its sample index, ``max_samples`` bounds the
work per measurement (the paper's wall-clock loop would take hundreds of
samples per schedule); with noise disabled a single sample is exact and the
loop short-circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.schedule.schedule import Schedule
from repro.sim.executor import ScheduleExecutor


@dataclass(frozen=True)
class MeasurementConfig:
    """Knobs of the measurement loop."""

    #: Keep sampling until each rank's accumulated time reaches this.
    target_time_s: float = 0.01
    #: Hard cap on samples per measurement (keeps simulation affordable).
    max_samples: int = 5
    #: Minimum samples per measurement.
    min_samples: int = 1

    def __post_init__(self) -> None:
        if self.min_samples < 1 or self.max_samples < self.min_samples:
            raise ValueError("need 1 <= min_samples <= max_samples")
        if self.target_time_s <= 0:
            raise ValueError("target_time_s must be positive")


@dataclass(frozen=True)
class Measurement:
    """One benchmark estimate for one schedule."""

    time: float
    n_samples: int
    per_rank_time: tuple


class Benchmarker:
    """Benchmarks schedules with the paper's measurement protocol.

    Results are memoized by the schedule's canonical fingerprint
    (:meth:`repro.schedule.schedule.Schedule.fingerprint`): the design
    space is explored with many repeated visits (MCTS rollouts revisit
    schedules), and the paper's empirical data is likewise one number per
    implementation.  Fingerprint keying makes the memo stable across
    processes and shareable with the persistent cache in
    :mod:`repro.exec.cache`.
    """

    def __init__(
        self,
        executor: ScheduleExecutor,
        config: MeasurementConfig = MeasurementConfig(),
    ) -> None:
        self.executor = executor
        self.config = config
        self._cache: Dict[str, Measurement] = {}
        self.n_simulations = 0

    # ------------------------------------------------------------------
    def cached(self, schedule: Schedule) -> Optional[Measurement]:
        """Memoized measurement for ``schedule``, or ``None``."""
        return self._cache.get(schedule.fingerprint())

    def seed_cache(self, schedule: Schedule, measurement: Measurement) -> None:
        """Install an externally obtained measurement into the memo.

        Used by the exec layer to share results between the on-disk cache,
        batch replay, and this in-memory memo without re-simulating.
        """
        self._cache[schedule.fingerprint()] = measurement

    def measure(self, schedule: Schedule) -> Measurement:
        """Measure on the reference engine, memoized by fingerprint."""
        key = schedule.fingerprint()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        noise_on = self.executor.machine.noise.enabled
        n_ranks = self.executor.machine.n_ranks
        acc: List[float] = [0.0] * n_ranks
        n = 0
        while True:
            result = self.executor.run(schedule, sample=n)
            self.n_simulations += 1
            for r in range(n_ranks):
                acc[r] += result.per_rank[r]
            n += 1
            if n >= self.config.max_samples:
                break
            if not noise_on and n >= self.config.min_samples:
                break  # deterministic: more samples add no information
            if (
                n >= self.config.min_samples
                and max(acc) >= self.config.target_time_s
            ):
                break
        per_rank = tuple(a / n for a in acc)
        m = Measurement(time=max(per_rank), n_samples=n, per_rank_time=per_rank)
        self._cache[key] = m
        return m

    def time_of(self, schedule: Schedule) -> float:
        return self.measure(schedule).time

    @property
    def n_unique_schedules(self) -> int:
        return len(self._cache)
