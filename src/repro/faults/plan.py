"""Fault plans: declarative, reproducible failure schedules.

A :class:`FaultPlan` is a list of timed fault events built with a
fluent API::

    plan = (FaultPlan("rough-day")
            .broker_restart(at=600.0, downtime=60.0)
            .partition("device:alice", start=900.0, duration=120.0)
            .packet_loss("devices", rate=0.05, start=0.0))

Plans carry no references to live objects — targets are symbolic
("broker", "server", "device:<user>", "devices", or a raw network
address) — so the same plan can be applied to any scenario, and a run
with the same seed and the same plan is bit-for-bit reproducible.
:class:`repro.faults.ChaosController` resolves the symbols and drives
the events through the world scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.net.latency import LatencyModel


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action."""

    at: float
    kind: str
    target: str | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        detail = f" {self.target}" if self.target else ""
        extras = ", ".join(f"{key}={value}" for key, value
                           in sorted(self.params.items()))
        if extras:
            detail += f" ({extras})"
        return f"{self.kind}{detail}"


class FaultPlan:
    """An ordered schedule of fault injections."""

    def __init__(self, name: str = "custom"):
        self.name = name
        self._events: list[FaultEvent] = []
        #: SLO alert names this plan expects to fire during the run
        #: (asserted by the chaos CLI when an SLO plane is deployed).
        self._expected_alerts: list[str] = []
        #: Explicit recovery-counter expectations layered over the
        #: event-derived defaults (see :meth:`expected_recovery`).
        self._expected_recovery: dict[str, int] = {}

    # -- building -----------------------------------------------------

    def add(self, kind: str, at: float, target: str | None = None,
            **params: Any) -> "FaultPlan":
        if at < 0:
            raise ValueError(f"fault time must be >= 0, got {at}")
        self._events.append(FaultEvent(at=float(at), kind=kind,
                                       target=target, params=params))
        return self

    def partition(self, target: str, start: float,
                  duration: float) -> "FaultPlan":
        """Cut ``target`` off the network for ``duration`` seconds."""
        self.add("link_down", start, target)
        self.add("link_up", start + duration, target)
        return self

    def flap(self, target: str, start: float, cycles: int,
             down_for: float, up_for: float) -> "FaultPlan":
        """Repeated short partitions: patchy-coverage radio."""
        at = start
        for _ in range(cycles):
            self.partition(target, at, down_for)
            at += down_for + up_for
        return self

    def packet_loss(self, target: str, rate: float, start: float = 0.0,
                    duration: float | None = None) -> "FaultPlan":
        """Probabilistic loss on every link touching ``target``."""
        self.add("loss", start, target, rate=rate)
        if duration is not None:
            self.add("loss", start + duration, target, rate=0.0)
        return self

    def jitter(self, target: str, model: LatencyModel, start: float = 0.0,
               duration: float | None = None) -> "FaultPlan":
        """Extra random delay on messages towards ``target``."""
        self.add("jitter", start, target, model=model)
        if duration is not None:
            self.add("jitter", start + duration, target, model=None)
        return self

    def broker_restart(self, at: float, downtime: float,
                       preserve_sessions: bool = True) -> "FaultPlan":
        """Crash the broker at ``at``; bring it back after ``downtime``.

        ``preserve_sessions=False`` models a broker with no persistence
        store: it restarts amnesiac and clients must re-subscribe.
        """
        self.add("broker_crash", at, "broker",
                 preserve_sessions=preserve_sessions)
        self.add("broker_restart", at + downtime, "broker")
        return self

    def server_crash(self, at: float, downtime: float) -> "FaultPlan":
        """Kill the server process at ``at``; restart after ``downtime``.

        Both server endpoints partition (in-flight messages drop, QoS
        layers retry) and the volatile intake queue is wiped.  On
        restart a durable server recovers its database and dedup
        window from snapshot + journal replay; a non-durable one comes
        back amnesiac — the contrast the durability tests pin.
        """
        self.add("server_crash", at, "server")
        self.add("server_restart", at + downtime, "server")
        return self

    def shard_crash(self, at: float, shard: int,
                    rebalance_after: float | None = None) -> "FaultPlan":
        """Kill shard ``shard`` of a server cluster at ``at``.

        When ``rebalance_after`` is given, a ``shard_rebalance``
        follows that many seconds later: the dead shard is failed out
        of the ring, survivors inherit its devices via the broker's
        retained-registration replay, and its journal is replayed so
        acknowledged records migrate instead of dying with it.
        """
        self.add("shard_crash", at, "server", shard=shard)
        if rebalance_after is not None:
            self.shard_rebalance(at + rebalance_after)
        return self

    def shard_restart(self, at: float, shard: int) -> "FaultPlan":
        """Restart a crashed (not yet rebalanced-away) shard."""
        self.add("shard_restart", at, "server", shard=shard)
        return self

    def shard_rebalance(self, at: float) -> "FaultPlan":
        """Fail every crashed shard out of the ring and migrate its
        devices, documents and live streams to the survivors."""
        self.add("shard_rebalance", at, "server")
        return self

    def shard_add(self, at: float) -> "FaultPlan":
        """Scale the cluster out by one shard mid-run; a durable joining
        shard bulk-imports its migrated documents under one
        checkpoint."""
        self.add("shard_add", at, "server")
        return self

    def shard_drain(self, at: float, shard: int) -> "FaultPlan":
        """Scale in: drain healthy shard ``shard`` and retire it from
        the ring, handing its state off to the survivors."""
        self.add("shard_drain", at, "server", shard=shard)
        return self

    def rolling_upgrade(self, at: float,
                        stagger: float = 0.0) -> "FaultPlan":
        """Drain → restart → rejoin every shard in sequence.

        ``stagger=0`` upgrades the whole fleet at one instant (each
        shard still one at a time); a positive stagger spaces the
        per-shard upgrades that many seconds apart, so live traffic
        lands on a cluster that is mid-upgrade.
        """
        self.add("rolling_upgrade", at, "server", stagger=stagger)
        return self

    def storage_write_errors(self, at: float, count: int) -> "FaultPlan":
        """Make the next ``count`` journal appends fail (bad sectors,
        full disk).  The circuit breaker trips on consecutive failures
        and poison-retried records end up quarantined."""
        self.add("storage_write_error", at, "server", count=count)
        return self

    def storage_latency(self, at: float, seconds: float,
                        duration: float | None = None) -> "FaultPlan":
        """Slow every durable write by ``seconds`` (degraded disk).
        The drain pump paces itself by this, so intake backs up and
        the admission controller starts shedding."""
        self.add("storage_latency", at, "server", seconds=seconds)
        if duration is not None:
            self.add("storage_latency", at + duration, "server", seconds=0.0)
        return self

    def device_reboot(self, user_id: str, at: float,
                      downtime: float) -> "FaultPlan":
        """Reboot a phone: radio silent for ``downtime`` seconds."""
        self.add("device_down", at, f"device:{user_id}")
        self.add("device_up", at + downtime, f"device:{user_id}")
        return self

    def plugin_outage(self, platform: str, start: float,
                      duration: float) -> "FaultPlan":
        """An OSN plug-in stops capturing actions for a while."""
        self.add("plugin_stop", start, platform)
        self.add("plugin_start", start + duration, platform)
        return self

    def torn_write(self, at: float, downtime: float) -> "FaultPlan":
        """Tear the journal tail mid-append and crash the server in the
        same instant (the two are one physical event); restart after
        ``downtime``.  Recovery must truncate the torn frame with zero
        acknowledged loss."""
        self.add("journal_torn_write", at, "server")
        self.add("server_restart", at + downtime, "server")
        return self

    def corrupt_frame(self, at: float) -> "FaultPlan":
        """Bit rot in a mid-tail journal frame.  The next recovery must
        quarantine it, keep the longest valid prefix, and degrade
        health (acked data may be gone) — pair with a ``server_crash``
        so a recovery actually runs."""
        self.add("journal_corrupt_frame", at, "server")
        return self

    def corrupt_snapshot(self, at: float) -> "FaultPlan":
        """Bit rot in the checkpoint snapshot frame.  The next recovery
        must fall back to full-history replay (journal-as-history) or
        report the state unrecoverable."""
        self.add("snapshot_corrupt", at, "server")
        return self

    def expect_alert(self, name: str) -> "FaultPlan":
        """Declare that SLO alert ``name`` must fire during this plan."""
        if name not in self._expected_alerts:
            self._expected_alerts.append(name)
        return self

    @property
    def expected_alerts(self) -> tuple[str, ...]:
        return tuple(self._expected_alerts)

    def expect_recovery(self, **counters: int) -> "FaultPlan":
        """Override an expected recovery counter (``journal_frames_torn``,
        ``journal_frames_quarantined``, ``journal_snapshot_fallbacks``)
        when the defaults derived from the plan's events don't apply."""
        self._expected_recovery.update(counters)
        return self

    def expected_recovery(self) -> dict[str, int]:
        """Recovery counters a durable run of this plan must produce.

        Derived from the injected events — one torn frame per
        ``journal_torn_write``, one quarantined frame per
        ``journal_corrupt_frame``, one full-history fallback per
        ``snapshot_corrupt`` — with :meth:`expect_recovery` overrides
        on top.  The chaos CLI asserts actuals == expected on every
        durable run, so *undeclared* corruption (all-zero expectations)
        fails the run loudly.
        """
        expected = {
            "journal_frames_torn": sum(
                1 for event in self._events
                if event.kind == "journal_torn_write"),
            "journal_frames_quarantined": sum(
                1 for event in self._events
                if event.kind == "journal_corrupt_frame"),
            "journal_snapshot_fallbacks": sum(
                1 for event in self._events
                if event.kind == "snapshot_corrupt"),
        }
        expected.update(self._expected_recovery)
        return expected

    # -- reading ------------------------------------------------------

    @property
    def needs_durable_journal(self) -> bool:
        """True when the plan injects faults into the journal medium
        itself, so a run of it must deploy a durable server."""
        return any(event.kind in ("journal_torn_write",
                                  "journal_corrupt_frame",
                                  "snapshot_corrupt")
                   for event in self._events)

    def events(self) -> list[FaultEvent]:
        """Events sorted by time (stable: insertion order breaks ties)."""
        return sorted(self._events, key=lambda event: event.at)

    @property
    def is_empty(self) -> bool:
        return not self._events

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {self.name!r} events={len(self._events)}>"
