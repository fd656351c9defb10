"""Seeded, counter-based device-fault model (Section VII, exercised).

Every draw is a pure function of ``(seed, fault kind, address, time)``
hashed through BLAKE2b -- there is *no mutable RNG state*.  That is the
same determinism discipline as the arrival processes and the sweep
runner: the model hands out bit-identical faults whether a workload runs
in-process, under ``workers=2``, or under the ``spawn`` start method,
and a checkpointed run resumed mid-campaign re-draws exactly the faults
it would have seen uninterrupted (the model itself pickles trivially --
it is just its config, plus hashers derived from it).

Three fault populations are drawn, one per
:class:`~repro.reliability.taxonomy.DeviceFaultKind` family:

* **transient** -- soft bit flips, Poisson over the codeword with mean
  ``transient_ber * codeword_bits`` per read;
* **retention** -- leaked cells, same shape but with the mean scaled by
  *time since the owning bank was refreshed or the row scrubbed*,
  saturating at one retention window (this is what makes scrubbing and
  refresh matter to reliability, not just to timing);
* **hard** -- sticky row/bank defects drawn from ``(seed, address)``
  only, so a bad row is bad on *every* read at *every* time until the
  RAS layer spares it.  A hard read is modeled as producing exactly the
  code's detection capability in faulty bits, i.e. a deterministic DUE:
  the optimistic-detection assumption that makes the retry -> spare ->
  offline ladder exercisable.  Silent corruption (SDC) instead comes
  from the soft-error tail exceeding the detection guarantee.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.reliability.taxonomy import DeviceFaultKind

__all__ = ["ReliabilityConfig", "FaultDraw", "DeviceFaultModel"]

#: Cap on the Poisson inversion loop; a mean large enough to hit this is
#: far beyond anything ECC distinguishes (everything above detect_bits
#: classifies identically), so truncation never changes an outcome class.
_MAX_POISSON = 64


@dataclass(frozen=True)
class ReliabilityConfig:
    """Frozen, picklable knob block for the fault model and RAS engine.

    Rates are per-bit-per-read probabilities (bit error rates); the
    model multiplies by the codeword size, so the same rate stresses a
    4 KB RoMe codeword ~128x harder than a 32 B baseline codeword --
    which is the point: the larger codeword must carry a stronger code.
    ``active`` is False when every rate is zero; inactive configs take
    the exact pre-reliability code paths, so zero-rate runs stay
    bit-identical to runs with no config at all (bench-smoke gates it).
    """

    seed: int = 0
    #: Soft-error bit flip probability per bit per read.
    transient_ber: float = 0.0
    #: Retention bit-error probability per bit per read *at a full
    #: retention window since refresh*; scales down linearly with the
    #: actual time since refresh/scrub.
    retention_ber: float = 0.0
    #: Time over which retention errors saturate (one tREFW, roughly).
    retention_window_ns: int = 32_000_000
    #: Probability that any given row is a sticky hard fault.
    hard_row_rate: float = 0.0
    #: Probability that a whole bank is weak (every row acts hard).
    hard_bank_rate: float = 0.0
    #: ECC scheme name from :data:`repro.core.ecc.ECC_SCHEMES`; the
    #: codeword size comes from the controller's access granularity.
    ecc_scheme: str = "secded"
    #: Retry-on-DUE budget per read (command replay in simulated time).
    max_retries: int = 2
    #: Linear backoff between replays: attempt ``n`` waits ``n * backoff``.
    retry_backoff_ns: int = 50
    #: Patrol-scrub period; 0 disables scrubbing.
    scrub_interval_ns: int = 0
    #: PPR-style spare-row budget per bank.
    spare_rows_per_bank: int = 4
    #: Rows needing a spare in one bank before it is offlined (0 = never).
    offline_after_row_failures: int = 0

    def __post_init__(self) -> None:
        for name in ("transient_ber", "retention_ber",
                     "hard_row_rate", "hard_bank_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.retention_window_ns <= 0:
            raise ValueError("retention_window_ns must be positive")
        if self.max_retries < 0 or self.retry_backoff_ns < 0:
            raise ValueError("retry budget and backoff must be non-negative")
        if (self.scrub_interval_ns < 0 or self.spare_rows_per_bank < 0
                or self.offline_after_row_failures < 0):
            raise ValueError("scrub/spare/offline knobs must be non-negative")
        # Fail fast on a typoed scheme name instead of at first read.
        from repro.core import ecc

        if self.ecc_scheme not in ecc.ECC_SCHEMES:
            raise ValueError(
                f"unknown ECC scheme {self.ecc_scheme!r}; "
                f"expected one of {sorted(ecc.ECC_SCHEMES)}"
            )

    @property
    def active(self) -> bool:
        """Whether any fault can ever be drawn.

        Inactive configs short-circuit every hook, keeping zero-rate
        runs on the exact baseline code path (fast paths included).
        """
        return (self.transient_ber > 0.0 or self.retention_ber > 0.0
                or self.hard_row_rate > 0.0 or self.hard_bank_rate > 0.0)


@dataclass(frozen=True)
class FaultDraw:
    """The faults one read (or scrub) of one row observed."""

    transient_bits: int = 0
    retention_bits: int = 0
    hard: bool = False

    @property
    def soft_bits(self) -> int:
        return self.transient_bits + self.retention_bits


class DeviceFaultModel:
    """Stateless fault source; all state lives in the frozen config (the
    per-kind hashers and the memos of the time-independent draws derive
    from it, and a pickle carries the config alone)."""

    def __init__(self, config: ReliabilityConfig) -> None:
        self.config = config
        self._hashers: Dict[str, "hashlib._Hash"] = {}
        # The sticky draws depend on their key alone, so each key is drawn
        # once: a drain rereads the same few rows thousands of times.
        self._weak_banks: Dict[Tuple[object, ...], bool] = {}
        self._hard_rows: Dict[Tuple[Tuple[object, ...], int], bool] = {}

    def __getstate__(self) -> Dict[str, ReliabilityConfig]:
        return {"config": self.config}

    def __setstate__(self, state: Dict[str, ReliabilityConfig]) -> None:
        self.__init__(state["config"])

    # ------------------------------------------------------------- PRNG
    def _uniform(self, kind: str, *key: object) -> float:
        """Deterministic uniform in [0, 1) from ``(seed, kind, key)``.

        The BLAKE2b digest of ``repr((seed, kind, key))``: ``repr`` of
        small int/str tuples is platform- and version-stable, and BLAKE2b
        is part of hashlib everywhere this runs, so equal keys give equal
        draws on any worker.  The payload's prefix up to ``key`` is
        hashed once per kind, and each draw hashes only the rest on a
        copy of that hasher.
        """
        hasher = self._hashers.get(kind)
        if hasher is None:
            prefix = repr((self.config.seed, kind))[:-1] + ", "
            hasher = self._hashers[kind] = hashlib.blake2b(
                prefix.encode("ascii"), digest_size=8)
        hasher = hasher.copy()
        hasher.update((repr(key) + ")").encode("ascii"))
        return int.from_bytes(hasher.digest(), "big") / 2.0 ** 64

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

    # ----------------------------------------------------- fault draws
    def bank_is_weak(self, bank: Tuple[object, ...]) -> bool:
        """Sticky whole-bank defect: time-independent draw per bank."""
        weak = self._weak_banks.get(bank)
        if weak is None:
            rate = self.config.hard_bank_rate
            weak = self._weak_banks[bank] = rate > 0.0 and self._uniform(
                DeviceFaultKind.HARD_BANK.value, *bank) < rate
        return weak

    def row_is_hard(self, bank: Tuple[object, ...], row: int) -> bool:
        """Sticky row defect (true also for every row of a weak bank)."""
        key = (bank, row)
        hard = self._hard_rows.get(key)
        if hard is None:
            rate = self.config.hard_row_rate
            hard = self._hard_rows[key] = (rate > 0.0 and self._uniform(
                DeviceFaultKind.HARD_ROW.value, *bank, row) < rate) \
                or self.bank_is_weak(bank)
        return hard

    def draw(self, bank: Tuple[object, ...], row: int, now_ns: int,
             since_refresh_ns: int, codeword_bits: int,
             skip_hard: bool = False) -> FaultDraw:
        """Faults observed reading ``row`` of ``bank`` at ``now_ns``.

        ``since_refresh_ns`` is the owning bank's time since refresh (or
        the row's time since scrub, whichever is more recent);
        ``skip_hard`` models a spared row -- the replacement row is
        healthy, but soft errors still strike it like any other row.
        """
        cfg = self.config
        transient = self._poisson(
            cfg.transient_ber * codeword_bits,
            DeviceFaultKind.TRANSIENT.value, *bank, row, now_ns)
        window = cfg.retention_window_ns
        fraction = min(max(since_refresh_ns, 0), window) / window
        retention = self._poisson(
            cfg.retention_ber * codeword_bits * fraction,
            DeviceFaultKind.RETENTION.value, *bank, row, now_ns)
        hard = False if skip_hard else self.row_is_hard(bank, row)
        return FaultDraw(transient_bits=transient,
                         retention_bits=retention, hard=hard)
