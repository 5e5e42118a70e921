"""Durability tuning knobs."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning for the server's journal, admission control and breaker.

    The defaults are sized for the simulation scenarios: the intake
    queue is far above steady-state depth (a handful of records per
    drain tick), the checkpoint interval keeps replay short without
    snapshotting constantly, and the breaker trips fast enough that a
    dying medium stops eating records within one drain burst.
    """

    #: Journal entries accumulated before a snapshot+truncate checkpoint.
    checkpoint_interval: int = 1024
    #: Keep checkpointed frames on the medium as replayable history
    #: (journal-as-history): backs ``repro replay``, backfill, and the
    #: full-history fallback when the snapshot frame rots.  Turning it
    #: off restores the physical-truncation behaviour (smaller medium,
    #: no fallback).
    retain_history: bool = True
    #: Hard bound on the ingest intake queue.
    intake_capacity: int = 256
    #: Queue fraction at which watermark shedding starts.
    high_watermark: float = 0.75
    #: Queue fraction shedding drains down to.
    low_watermark: float = 0.5
    #: Seconds between intake-queue drain steps (plus storage latency).
    drain_interval_s: float = 0.02
    #: Consecutive storage write failures that trip the circuit breaker.
    breaker_trip_after: int = 5
    #: Seconds an open breaker waits before half-opening for a probe.
    breaker_reset_s: float = 30.0
    #: Apply attempts before a record is quarantined as poison.
    max_apply_attempts: int = 8
    #: Bound on the dead-letter quarantine (oldest evicted past it).
    quarantine_capacity: int = 256
    #: Use per-source weighted-fair intake queues instead of the single
    #: global FIFO (see :class:`repro.durability.fair.
    #: FairAdmissionController`).  Off by default — the global FIFO is
    #: the paper's baseline behaviour.
    fair_admission: bool = False
    #: ``((source, weight), ...)`` drain weights for fair admission;
    #: unlisted sources weigh 1.  Tuple-of-pairs keeps the config
    #: hashable/frozen.
    fair_weights: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.intake_capacity <= 0:
            raise ValueError("intake_capacity must be > 0")
        if not 0.0 < self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError("need 0 < low_watermark <= high_watermark <= 1")
        # ``not x > 0`` rejects NaN too: a NaN or infinite interval
        # never checkpoints, a NaN reset never half-opens the breaker.
        if not (self.checkpoint_interval > 0
                and math.isfinite(self.checkpoint_interval)):
            raise ValueError(f"checkpoint_interval must be finite and > 0, "
                             f"got {self.checkpoint_interval}")
        for name in ("drain_interval_s", "breaker_reset_s"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}")
        if self.breaker_trip_after <= 0:
            raise ValueError("breaker_trip_after must be > 0")
        if self.max_apply_attempts <= 0:
            raise ValueError("max_apply_attempts must be > 0")
        for source, weight in self.fair_weights:
            if weight <= 0:
                raise ValueError(
                    f"fair weight for {source!r} must be > 0, got {weight}")
