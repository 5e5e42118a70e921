"""The SLO control plane: evaluation loop + closed-loop actuation.

This is the layer that makes observability *act*.  It registers the
stock SLOs (delivery-delay, acked-loss ratio, shed ratio, journal lag,
and — on a cluster — per-shard work skew) against an
:class:`~repro.obs.slo.SloEvaluator`, ticks the evaluator on the
virtual clock, and reacts to alert transitions:

* when the **delivery-delay** SLO fires, every registered device is
  pushed a sensing-rate backoff over the existing MQTT trigger path
  (the paper's adaptive-sensing knob, server-steered the way MOSDEN
  drives its opportunistic duty cycles) — and the rate is restored
  when the alert resolves;
* when the **work-skew** SLO fires on a cluster with ``autoscale``
  enabled, the coordinator's ``maybe_autoscale()`` is invoked.

Nothing here runs unless a deployment constructs and starts the plane:
the evaluation tick is the only scheduled task, the device-side rate
subscription is opt-in (``MqttService.enable_rate_control``), and the
tracer's terminal listener is registered at construction — so a world
without a control plane is bit-identical to one on a build without
this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.obs.alerts import FIRING, RESOLVED, alerts_to_prometheus
from repro.obs.hub import Observability
from repro.obs.slo import SloEvaluator, SloSpec
from repro.obs.trace import DELIVERED, DROPPED


@dataclass(frozen=True)
class SloControlPlaneConfig:
    """Objectives, burn windows and actuation knobs."""

    #: Seconds between evaluation ticks (virtual clock).
    eval_period_s: float = 15.0
    fast_window_s: float = 60.0
    slow_window_s: float = 300.0
    page_burn: float = 4.0
    ticket_burn: float = 1.0
    #: Seconds a breach must persist in pending before firing.
    for_s: float = 30.0
    #: A delivered record counts against the budget past this delay.
    delivery_delay_threshold_s: float = 30.0
    delivery_delay_objective: float = 0.05
    acked_loss_objective: float = 0.01
    shed_ratio_objective: float = 0.02
    #: Journal entries past which lag is an error (well above the
    #: checkpoint interval: a healthy journal never gets here).
    journal_lag_threshold: int = 1536
    journal_lag_objective: float = 0.10
    #: Cluster work skew (hottest shard / mean) past which the SLO
    #: burns; a crashed-but-not-rebalanced shard always burns.
    work_skew_threshold: float = 2.0
    work_skew_objective: float = 0.10
    #: Duty-cycle multiplier pushed to devices while delivery-delay
    #: fires (2.0 = sample half as often).
    backoff_factor: float = 2.0
    #: Let a firing work-skew SLO invoke the coordinator's autoscaler.
    autoscale: bool = False

    def __post_init__(self) -> None:
        if self.eval_period_s <= 0:
            raise ValueError("eval_period_s must be > 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")


#: Stock SLO names (the chaos plans reference these).
SLO_DELIVERY_DELAY = "delivery-delay-p95"
SLO_ACKED_LOSS = "acked-loss-ratio"
SLO_SHED_RATIO = "shed-ratio"
SLO_JOURNAL_LAG = "journal-lag"
SLO_WORK_SKEW = "work-skew"


class _TerminalWindow:
    """Interval accumulator fed by the tracer's terminal listener.

    Folds delivered/dropped terminals between evaluation ticks so the
    probes never rescan the trace table: O(1) per record, O(1) per
    tick.
    """

    def __init__(self, delay_threshold_s: float):
        self.delay_threshold_s = delay_threshold_s
        self.delivered = 0
        self.delayed = 0
        self.dropped = 0
        self.shed = 0

    def on_terminal(self, state) -> None:
        kind, stage, _reason, at = state.terminal
        if kind == DELIVERED:
            self.delivered += 1
            if at - state.started_at > self.delay_threshold_s:
                self.delayed += 1
        elif kind == DROPPED:
            self.dropped += 1
            if stage == "admission":
                self.shed += 1

    def take(self) -> dict[str, int]:
        doc = {"delivered": self.delivered, "delayed": self.delayed,
               "dropped": self.dropped, "shed": self.shed}
        self.delivered = self.delayed = self.dropped = self.shed = 0
        return doc


class SloControlPlane:
    """Ticks the SLO evaluator and closes the loop on its alerts."""

    def __init__(self, world, server, *,
                 config: SloControlPlaneConfig | None = None,
                 durabilities=None, obs: Observability | None = None):
        self.world = world
        self.server = server
        self.config = config if config is not None else SloControlPlaneConfig()
        self.obs = obs if obs is not None else Observability.of(world)
        if self.obs is None:
            raise ValueError("the SLO control plane needs the observability "
                             "hub installed (testbed observability=True)")
        self.evaluator = SloEvaluator()
        self.log = self.evaluator.log
        self._durabilities = durabilities
        self._window = _TerminalWindow(self.config.delivery_delay_threshold_s)
        self.obs.tracer.on_terminal(self._window.on_terminal)
        self._interval: dict[str, int] = {}
        self._task = None
        self.backoff_factor_current = 1.0
        self.backoffs_pushed = 0
        self.restores_pushed = 0
        self.rate_pushes = 0
        self.autoscales = 0
        self._register_slos()
        # Surface for ``cluster_report()`` / report builders.
        server.slo_control = self

    # -- SLO registration ---------------------------------------------

    def _spec(self, name: str, description: str, objective: float,
              **overrides) -> SloSpec:
        cfg = self.config
        return SloSpec(name=name, description=description,
                       objective=objective,
                       fast_window_s=cfg.fast_window_s,
                       slow_window_s=cfg.slow_window_s,
                       page_burn=cfg.page_burn,
                       ticket_burn=cfg.ticket_burn,
                       for_s=cfg.for_s, **overrides)

    def _register_slos(self) -> None:
        cfg = self.config
        self.evaluator.register(
            self._spec(SLO_DELIVERY_DELAY,
                       f"records delivered within "
                       f"{cfg.delivery_delay_threshold_s:.0f}s sense→server",
                       cfg.delivery_delay_objective),
            self._probe_delivery_delay)
        self.evaluator.register(
            self._spec(SLO_ACKED_LOSS,
                       "records reaching a terminal without being dropped",
                       cfg.acked_loss_objective),
            self._probe_acked_loss)
        self.evaluator.register(
            self._spec(SLO_SHED_RATIO,
                       "records surviving admission control",
                       cfg.shed_ratio_objective),
            self._probe_shed_ratio)
        if self._controllers():
            self.evaluator.register(
                self._spec(SLO_JOURNAL_LAG,
                           f"journal lag below "
                           f"{cfg.journal_lag_threshold} entries",
                           cfg.journal_lag_objective),
                self._probe_journal_lag)
        if hasattr(self.server, "slo_rollup"):
            self.evaluator.register(
                self._spec(SLO_WORK_SKEW,
                           f"per-shard work skew below "
                           f"{cfg.work_skew_threshold:.1f}x, every shard up",
                           cfg.work_skew_objective),
                self._probe_work_skew)

    def _controllers(self) -> list:
        if self._durabilities is not None:
            return [controller for controller in self._durabilities
                    if controller is not None]
        workers = getattr(self.server, "all_shard_workers", None)
        if workers is not None:
            return [worker.durability for worker in workers()
                    if worker.durability is not None]
        controller = getattr(self.server, "durability", None)
        return [controller] if controller is not None else []

    # -- probes (error fraction since the last tick) -------------------

    def _probe_delivery_delay(self) -> float:
        interval = self._interval
        delivered = interval.get("delivered", 0)
        if delivered == 0:
            return 0.0  # no deliveries this window: no delay evidence
        return interval.get("delayed", 0) / delivered

    def _probe_acked_loss(self) -> float:
        interval = self._interval
        total = interval.get("delivered", 0) + interval.get("dropped", 0)
        if total == 0:
            return 0.0
        return interval.get("dropped", 0) / total

    def _probe_shed_ratio(self) -> float:
        interval = self._interval
        total = interval.get("delivered", 0) + interval.get("dropped", 0)
        if total == 0:
            return 0.0
        return interval.get("shed", 0) / total

    def _probe_journal_lag(self) -> float:
        lags = [controller.journal.lag
                for controller in self._controllers()
                if controller.journal is not None]
        if not lags:
            return 0.0
        return 1.0 if max(lags) > self.config.journal_lag_threshold else 0.0

    def _probe_work_skew(self) -> float | None:
        rollup = self.server.slo_rollup()
        if rollup["missing"]:
            return None  # a shard is down/unreported: burning, not healthy
        return 1.0 if rollup["skew"] >= self.config.work_skew_threshold \
            else 0.0

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "SloControlPlane":
        """Begin periodic evaluation on the world scheduler."""
        if self._task is None:
            self._task = self.world.scheduler.every(
                self.config.eval_period_s, self._tick,
                delay=self.config.eval_period_s)
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # -- the loop ------------------------------------------------------

    def _tick(self) -> None:
        self._interval = self._window.take()
        transitions = self.evaluator.evaluate(self.world.now)
        telemetry = self.obs.telemetry
        telemetry.counter("slo_evaluations").inc()
        for name, new_state in transitions:
            telemetry.counter("slo_alert_transitions", slo=name,
                              to=new_state).inc()
            if name == SLO_DELIVERY_DELAY:
                if new_state == FIRING:
                    self._push_rate(self.config.backoff_factor)
                elif new_state == RESOLVED:
                    self._push_rate(1.0)
            if (name == SLO_WORK_SKEW and new_state == FIRING
                    and self.config.autoscale
                    and hasattr(self.server, "maybe_autoscale")):
                advice = self.server.maybe_autoscale()
                if advice.get("scaled"):
                    self.autoscales += 1
        telemetry.gauge("slo_backoff_factor").set(
            self.backoff_factor_current)

    # -- actuation ----------------------------------------------------

    def _push_rate(self, factor: float) -> None:
        """Push a duty-cycle multiplier to every registered device."""
        if factor == self.backoff_factor_current:
            return
        pushed = 0
        seen: set[str] = set()
        for user_id in sorted(self.server.registered_users()):
            device_id = self.server.device_of(user_id)
            if device_id is None or device_id in seen:
                continue
            seen.add(device_id)
            triggers = self._triggers_for(device_id)
            if triggers is None:
                continue
            triggers.push_rate(device_id, factor,
                               reason=SLO_DELIVERY_DELAY)
            pushed += 1
        self.backoff_factor_current = factor
        self.rate_pushes += pushed
        if factor > 1.0:
            self.backoffs_pushed += 1
        else:
            self.restores_pushed += 1
        self.obs.telemetry.counter(
            "slo_rate_pushes",
            direction="backoff" if factor > 1.0 else "restore").inc(pushed)

    def _triggers_for(self, device_id: str):
        """The trigger manager that owns ``device_id``'s MQTT path."""
        manager = self.server.shard_for_device(device_id)
        if getattr(manager, "crashed", False) or not manager.mqtt.connected:
            return None  # the owning path is down; retry next episode
        return manager.triggers

    # -- surfaces -----------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Full SLO/alert snapshot for ObsReport / ChaosReport."""
        return {
            "slos": self.evaluator.state(),
            "alerts": {name: alert.to_dict()
                       for name, alert in self.evaluator.alerts.items()},
            "alert_log": [dict(entry) for entry in self.log.entries],
            "accounting_problems": self.log.verify(self.evaluator.alerts),
            "actions": {
                "backoff_factor": self.backoff_factor_current,
                "backoffs_pushed": self.backoffs_pushed,
                "restores_pushed": self.restores_pushed,
                "rate_pushes": self.rate_pushes,
                "autoscales": self.autoscales,
            },
            "evaluations": self.evaluator.evaluations,
        }

    def summary(self) -> dict[str, Any]:
        """Compact rollup for ``cluster_report()``."""
        state = self.evaluator.state()
        return {
            "slos": {name: {"state": doc["state"],
                            "burn_fast": doc["burn_fast"],
                            "burn_slow": doc["burn_slow"]}
                     for name, doc in state.items()},
            "firing": sorted(name for name, alert
                             in self.evaluator.alerts.items()
                             if alert.state == FIRING),
            "backoff_factor": self.backoff_factor_current,
            "transitions": len(self.log),
        }

    def to_prometheus(self) -> str:
        """Alert states + transition totals, exposition format."""
        return alerts_to_prometheus(self.evaluator.alerts, self.log)

    def to_jsonl(self) -> str:
        """Alert transition log plus a per-SLO state line each."""
        lines = list(self.log.to_jsonl_lines())
        for name, doc in self.evaluator.state().items():
            lines.append(json.dumps({"kind": "slo_state", "slo": name, **doc},
                                    sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")
