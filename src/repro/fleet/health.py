"""Seeded replica-fault process: health timelines for fleet replicas.

This escalates the PR 8 device-fault taxonomy one level: instead of
drawing bit flips per read, the process draws *per-health-window*
device-fault pressure for each replica -- DUE and SDC counts (Poisson),
bank-offline events (Bernoulli) -- and runs a small state machine over
the windows:

* sustained pressure (a window's DUE count, SDC count, or the cumulative
  offlined-bank count crossing its threshold) emits
  :attr:`~repro.reliability.taxonomy.ReplicaFaultKind.DEGRADED`;
* a hard-failure draw (its rate escalated while degraded) emits
  :attr:`~repro.reliability.taxonomy.ReplicaFaultKind.DOWN`;
* a timed repair emits
  :attr:`~repro.reliability.taxonomy.ReplicaFaultKind.RECOVERED` and
  resets the fault counters.

Determinism discipline is identical to
:class:`repro.reliability.faults.DeviceFaultModel`: every draw is a pure
function of ``(seed, kind, replica, window)`` hashed through BLAKE2b --
no mutable RNG state -- so a replica's whole timeline is a pure function
of ``(config, replica, horizon)`` and is bit-identical in any process,
under any start method, and across checkpoint cuts.
"""

from __future__ import annotations

import enum
import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.reliability.taxonomy import ReplicaFaultKind

__all__ = [
    "HealthEvent",
    "ReplicaFaultConfig",
    "ReplicaFaultProcess",
    "ReplicaHealth",
    "ReplicaTimeline",
]

#: Cap on the Poisson inversion loop (matches the device-fault model);
#: window counts past every threshold classify identically, so the
#: truncation never changes a transition.
_MAX_POISSON = 64


class ReplicaHealth(str, enum.Enum):
    """The *state* a replica is in (what a router's health check reads).

    States are what :class:`ReplicaTimeline.health_at` answers;
    :class:`~repro.reliability.taxonomy.ReplicaFaultKind` members are the
    *transitions* between them (``RECOVERED`` lands back in ``HEALTHY``).
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DOWN = "down"

    def __str__(self) -> str:
        return self.value


#: State each transition kind lands in.
_STATE_AFTER = {
    ReplicaFaultKind.DEGRADED: ReplicaHealth.DEGRADED,
    ReplicaFaultKind.DOWN: ReplicaHealth.DOWN,
    ReplicaFaultKind.RECOVERED: ReplicaHealth.HEALTHY,
}


@dataclass(frozen=True)
class ReplicaFaultConfig:
    """Frozen, picklable knob block for the replica-fault process.

    Rates are *per health window* (``window_ns``): ``due_rate`` and
    ``sdc_rate`` are Poisson means for the window's detected-uncorrectable
    and silent-corruption counts, ``bank_offline_rate`` and
    ``hard_failure_rate`` are per-window probabilities.  Thresholds of 0
    disable their trigger (mirroring ``offline_after_row_failures`` in
    :class:`~repro.reliability.faults.ReliabilityConfig`).  ``active`` is
    False when every rate is zero; inactive configs draw nothing, so
    zero-rate fleets take the exact no-fault routing path.
    """

    seed: int = 0
    #: Health-window length; all pressure is accounted per window.
    window_ns: int = 100_000
    #: Poisson mean of detected-uncorrectable errors per window.
    due_rate: float = 0.0
    #: A window with at least this many DUEs degrades the replica (0 = never).
    due_threshold: int = 3
    #: Poisson mean of silent corruptions per window.
    sdc_rate: float = 0.0
    #: A window with at least this many SDCs degrades the replica (0 = never).
    sdc_threshold: int = 1
    #: Per-window probability that one more bank goes offline.
    bank_offline_rate: float = 0.0
    #: Cumulative offlined banks that degrade the replica (0 = never).
    offline_bank_threshold: int = 2
    #: Per-window probability of a hard replica failure (node loss).
    hard_failure_rate: float = 0.0
    #: Multiplier on ``hard_failure_rate`` while the replica is degraded
    #: -- a sickening replica dies more readily than a healthy one.
    degraded_escalation: float = 4.0
    #: Repair time after a hard failure; 0 means a down replica stays
    #: down for the rest of the episode.
    recovery_ns: int = 0

    def __post_init__(self) -> None:
        if self.window_ns < 1:
            raise ValueError("window_ns must be at least 1 ns")
        if self.due_rate < 0.0 or self.sdc_rate < 0.0:
            raise ValueError("Poisson rates must be non-negative")
        for name in ("bank_offline_rate", "hard_failure_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if (self.due_threshold < 0 or self.sdc_threshold < 0
                or self.offline_bank_threshold < 0):
            raise ValueError("thresholds must be non-negative")
        if self.degraded_escalation < 1.0:
            raise ValueError("degraded_escalation must be at least 1")
        if self.recovery_ns < 0:
            raise ValueError("recovery_ns must be non-negative")

    @property
    def active(self) -> bool:
        """Whether any replica fault can ever be drawn."""
        return (self.due_rate > 0.0 or self.sdc_rate > 0.0
                or self.bank_offline_rate > 0.0
                or self.hard_failure_rate > 0.0)


@dataclass(frozen=True)
class HealthEvent:
    """One health transition of one replica, at an absolute instant."""

    at_ns: int
    kind: ReplicaFaultKind


@dataclass(frozen=True)
class ReplicaTimeline:
    """One replica's full health history over ``[0, horizon_ns]``.

    A pure value: frozen, picklable, and comparable, so timelines ride
    inside results and equality checks like every other outcome object.
    Events must be in non-decreasing ``at_ns`` order: the router's
    queries bisect an instant index derived from them, which takes no
    part in equality or repr.
    """

    replica: int
    horizon_ns: int
    events: Tuple[HealthEvent, ...] = ()
    _instants: List[int] = field(init=False, repr=False, compare=False)
    _downs: List[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        instants = [event.at_ns for event in self.events]
        if instants != sorted(instants):
            raise ValueError("health events must be in time order")
        object.__setattr__(self, "_instants", instants)
        object.__setattr__(self, "_downs", [
            event.at_ns for event in self.events
            if event.kind is ReplicaFaultKind.DOWN])

    @property
    def kinds(self) -> Tuple[ReplicaFaultKind, ...]:
        """Transition kinds in order (what the bench gate asserts on)."""
        return tuple(event.kind for event in self.events)

    def health_at(self, at_ns: int) -> ReplicaHealth:
        """State after the last transition at or before ``at_ns``."""
        index = bisect_right(self._instants, at_ns)
        if index == 0:
            return ReplicaHealth.HEALTHY
        return _STATE_AFTER[self.events[index - 1].kind]

    def goes_down_within(self, start_ns: int, end_ns: int) -> bool:
        """Whether a ``DOWN`` transition lands in ``(start_ns, end_ns]``
        -- the router's "request was in flight on a dying replica" test."""
        downs = self._downs
        index = bisect_right(downs, start_ns)
        return index < len(downs) and downs[index] <= end_ns

    def down_ns(self, up_to_ns: Optional[int] = None) -> int:
        """Total time spent ``DOWN`` within ``[0, min(horizon, up_to)]``."""
        bound = self.horizon_ns if up_to_ns is None \
            else min(self.horizon_ns, up_to_ns)
        total = 0
        down_since: Optional[int] = None
        for event in self.events:
            if event.kind is ReplicaFaultKind.DOWN and down_since is None:
                down_since = event.at_ns
            elif event.kind is ReplicaFaultKind.RECOVERED \
                    and down_since is not None:
                total += max(0, min(event.at_ns, bound)
                             - min(down_since, bound))
                down_since = None
        if down_since is not None:
            total += max(0, bound - min(down_since, bound))
        return total

    def up_fraction(self, up_to_ns: Optional[int] = None) -> float:
        """Fraction of ``[0, min(horizon, up_to)]`` not spent ``DOWN``."""
        bound = self.horizon_ns if up_to_ns is None \
            else min(self.horizon_ns, up_to_ns)
        if bound <= 0:
            return 1.0
        return 1.0 - self.down_ns(bound) / bound


class ReplicaFaultProcess:
    """Stateless timeline source; all state lives in the frozen config."""

    def __init__(self, config: ReplicaFaultConfig) -> None:
        self.config = config

    # ------------------------------------------------------------- PRNG
    def _uniform(self, kind: str, *key: object) -> float:
        """Deterministic uniform in [0, 1) from ``(seed, kind, key)``."""
        payload = repr((self.config.seed, kind, key)).encode("ascii")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def _poisson(self, mean: float, kind: str, *key: object) -> int:
        """Inverse-CDF Poisson draw from a single uniform."""
        if mean <= 0.0:
            return 0
        u = self._uniform(kind, *key)
        pmf = math.exp(-mean)
        cdf = pmf
        k = 0
        while u >= cdf and k < _MAX_POISSON:
            k += 1
            pmf *= mean / k
            cdf += pmf
        return k

    # --------------------------------------------------------- timeline
    def timeline(self, replica: int, horizon_ns: int) -> ReplicaTimeline:
        """Walk the health windows of one replica up to ``horizon_ns``.

        Transitions are emitted at window *ends* (detection needs the
        window's counters); windows overlapped by downtime draw nothing
        -- a dead replica generates no device-fault pressure -- and
        recovery resets both state and the cumulative bank count.
        """
        cfg = self.config
        if not cfg.active or horizon_ns <= 0:
            return ReplicaTimeline(replica=replica, horizon_ns=horizon_ns)
        events: List[HealthEvent] = []
        state = ReplicaHealth.HEALTHY
        recover_at: Optional[int] = None
        offline_banks = 0
        window = 0
        while window * cfg.window_ns < horizon_ns:
            end_ns = (window + 1) * cfg.window_ns
            if state is ReplicaHealth.DOWN:
                if recover_at is None:
                    break  # permanent loss: nothing more can happen
                if recover_at <= end_ns:
                    events.append(HealthEvent(recover_at,
                                              ReplicaFaultKind.RECOVERED))
                    state = ReplicaHealth.HEALTHY
                    offline_banks = 0
                    recover_at = None
                window += 1
                continue
            due = self._poisson(cfg.due_rate, "replica-due", replica, window)
            sdc = self._poisson(cfg.sdc_rate, "replica-sdc", replica, window)
            if cfg.bank_offline_rate > 0.0 and self._uniform(
                    "replica-bank", replica, window) < cfg.bank_offline_rate:
                offline_banks += 1
            degrades = state is ReplicaHealth.HEALTHY and (
                (cfg.due_threshold > 0 and due >= cfg.due_threshold)
                or (cfg.sdc_threshold > 0 and sdc >= cfg.sdc_threshold)
                or (cfg.offline_bank_threshold > 0
                    and offline_banks >= cfg.offline_bank_threshold))
            hard_rate = cfg.hard_failure_rate
            if state is ReplicaHealth.DEGRADED or degrades:
                hard_rate = min(1.0, hard_rate * cfg.degraded_escalation)
            if hard_rate > 0.0 and self._uniform(
                    "replica-hard", replica, window) < hard_rate:
                events.append(HealthEvent(end_ns, ReplicaFaultKind.DOWN))
                state = ReplicaHealth.DOWN
                if cfg.recovery_ns > 0:
                    recover_at = end_ns + cfg.recovery_ns
            elif degrades:
                events.append(HealthEvent(end_ns, ReplicaFaultKind.DEGRADED))
                state = ReplicaHealth.DEGRADED
            window += 1
        return ReplicaTimeline(replica=replica, horizon_ns=horizon_ns,
                               events=tuple(events))
