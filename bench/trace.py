"""Per-layer wall-time trace, built entirely from the benchmark's side.

Nothing under ``src/`` knows it is being traced.  Three mechanisms:

1. **Class-level wrappers** (:data:`HOOKS`) around the methods where a
   layer's work starts.  They are installed before the deployment is
   built, so every callback captured during set-up is a wrapper too,
   and restored afterwards.
2. **Event attribution**: a wrapper on ``Scheduler.schedule_at`` times
   every event callback as ``<layer>.event``, the layer taken from the
   callback's ``__module__`` (:func:`layer_of`).
3. **A span stack** on an injectable nanosecond clock: a span's self
   time is its duration minus the durations of the wrapped spans it
   encloses.  Self times therefore add up to the traced wall time; the
   part no span covers is the event loop itself (``simkit.loop``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

import repro
from repro.simkit.scheduler import PeriodicTask, Scheduler

#: Module prefix -> layer; the longest matching prefix wins.  Every
#: module under ``src/repro`` must match an entry or
#: :data:`API_PACKAGES` (``bench/tests/test_layers.py`` checks).
LAYER_PREFIXES = {
    "repro.simkit": "simkit",
    "repro.device": "device",
    "repro.sensing": "device",
    "repro.classify": "classify",
    "repro.core.mobile": "mobile",
    "repro.net": "net",
    "repro.mqtt": "mqtt",
    "repro.core.server": "server",
    "repro.durability": "durability",
    "repro.docstore": "docstore",
    "repro.cluster": "cluster",
    "repro.core.common": "common",
    "repro.osn": "osn",
    "repro.plugins": "osn",
    "repro.scenarios": "scenarios",
    "repro.obs": "obs",
    "repro.faults": "faults",
    "repro.metrics": "metrics",
    "repro.apps": "apps",
    "repro.analysis": "analysis",
    "repro.perf": "perf",
    "repro.cli": "cli",
    "repro.__main__": "cli",
}

#: Packages whose own ``__init__`` only re-exports the public API.
API_PACKAGES = {"repro": "api", "repro.core": "api"}

#: The layers the workloads exercise, in pipeline order.
LAYERS = ("simkit", "device", "classify", "mobile", "net", "mqtt", "server",
          "durability", "docstore", "cluster", "common", "osn", "scenarios")

#: ``(metric key, module, class, methods)``; ``None`` means every public
#: method the class defines.  A hook also covers each subclass that
#: overrides a hooked method.  A class or method a later change removes
#: is skipped, which zeroes its metric instead of breaking the run.
#: Three hooks time private methods, because the public surface leaves
#: that work inside another layer's span: the mobile record path runs in
#: the sensing event, acks arrive through the phone's network endpoint,
#: and the durable apply step runs in the durability drain pump.
HOOKS = (
    ("simkit.queue", "repro.simkit.scheduler", "EventQueue",
     ("push", "pop")),
    ("device.sample", "repro.device.sensors.base", "Sensor", ("sample",)),
    ("classify.classify", "repro.classify.base", "Classifier",
     ("classify",)),
    ("mobile.record", "repro.core.mobile.manager", "MobileSenSocialManager",
     ("_on_reading", "handle_trigger")),
    ("mobile.outbox", "repro.core.mobile.manager", "MobileSenSocialManager",
     ("_on_stream_ack", "_on_stream_batch_ack")),
    ("mobile.outbox", "repro.core.mobile.outbox", "Outbox",
     ("put", "get", "ack", "mark_sent", "due")),
    ("net.send", "repro.net.network", "Network", ("send",)),
    ("mqtt.broker", "repro.mqtt.broker", "MqttBroker", ("deliver", "route")),
    ("mqtt.client", "repro.mqtt.client", "MqttClient",
     ("deliver", "connect", "publish", "publish_batch", "subscribe",
      "unsubscribe")),
    ("server.deliver", "repro.core.server.manager", "ServerSenSocialManager",
     ("deliver",)),
    ("server.ingest", "repro.core.server.manager", "ServerSenSocialManager",
     ("_apply_intake",)),
    ("server.select_users", "repro.core.server.manager",
     "ServerSenSocialManager", ("select_users",)),
    ("server.select_users", "repro.cluster.coordinator",
     "ClusterCoordinator", ("select_users",)),
    ("server.filter", "repro.core.server.filter_manager",
     "ServerFilterManager",
     ("observe_record", "observe_batch", "observe_location",
      "mark_osn_active", "stream_allows")),
    ("server.dedup", "repro.core.server.dedup", "RecordDeduper",
     ("seen", "check_batch", "remember", "merge_replicated",
      "__contains__")),
    ("server.storage", "repro.core.server.storage", "ServerDatabase", None),
    ("server.storage", "repro.cluster.database", "ClusterDatabase", None),
    ("server.trigger", "repro.core.server.trigger", "TriggerManager", None),
    ("durability.submit", "repro.durability.controller", "ServerDurability",
     ("submit", "submit_batch")),
    ("durability.admission", "repro.durability.admission",
     "AdmissionController", ("admit", "pop", "requeue", "pending")),
    ("durability.admission", "repro.durability.fair",
     "FairAdmissionController", ("admit", "pop", "requeue", "pending")),
    ("durability.append", "repro.durability.journal", "StorageMedium",
     ("append",)),
    ("durability.snapshot_encode", "repro.durability.journal",
     "StorageMedium", ("store_snapshot",)),
    ("durability.checkpoint", "repro.durability.journal", "WriteAheadJournal",
     ("checkpoint",)),
    ("docstore.insert", "repro.docstore.collection", "Collection",
     ("insert_one", "insert_many")),
    ("docstore.update", "repro.docstore.collection", "Collection",
     ("update_one", "update_many", "replace_one", "delete_one",
      "delete_many")),
    ("docstore.find", "repro.docstore.collection", "Collection",
     ("find", "find_one", "count", "distinct")),
    ("docstore.snapshot", "repro.docstore.store", "DocumentStore",
     ("snapshot",)),
    ("cluster.deliver", "repro.cluster.coordinator", "ClusterCoordinator",
     ("deliver",)),
    ("common.record", "repro.core.common.records", "StreamRecord",
     ("to_dict", "from_dict")),
    ("common.batch", "repro.core.common.batch", "RecordBatch",
     ("from_records", "from_documents", "select", "iter_records",
      "store_documents", "to_payload", "from_payload")),
    ("osn.perform_action", "repro.osn.service", "OsnService",
     ("perform_action",)),
    ("scenarios.store", "repro.scenarios.population", "HibernationStore",
     ("hibernate", "rehydrate")),
    ("scenarios.report", "repro.scenarios.engine", "ScenarioEngine",
     ("report",)),
)


def layer_of(module: str) -> str | None:
    """The layer owning ``module``; None for code outside ``repro``."""
    if module in API_PACKAGES:
        return API_PACKAGES[module]
    parts = module.split(".")
    for end in range(len(parts), 1, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


def import_all() -> None:
    """Import every ``repro`` module up front, so lazy imports never
    land inside a timed phase and every subclass exists before the
    hooks look for it.  ``repro.__main__`` stays out: importing it runs
    the CLI."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _with_subclasses(root: type) -> list[type]:
    classes = [root]
    for cls in classes:
        classes.extend(sub for sub in cls.__subclasses__()
                       if sub not in classes)
    return classes


class Tracer:
    """Span stack plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._stack: list[list] = []
        #: Self time in nanoseconds and completed spans, per metric key.
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self._patches: list[tuple[type, str, object]] = []
        self._event_keys: dict[object, str] = {}

    # -- spans --------------------------------------------------------

    def timed(self, key: str, fn):
        """``fn`` wrapped in a span named ``key``."""
        stack, clock = self._stack, self._clock
        self_ns, calls = self.self_ns, self.calls

        def span(*args, **kwargs):
            if stack and stack[-1][0] == key:
                # An override calling super(), or one facade calling
                # another on the same layer: one span, counted once.
                return fn(*args, **kwargs)
            frame = [key, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[key] = self_ns.get(key, 0) + elapsed - frame[1]
                calls[key] = calls.get(key, 0) + 1
                if stack:
                    stack[-1][1] += elapsed

        return functools.update_wrapper(span, fn)

    def reset(self) -> None:
        """Forget what set-up accumulated; the measured phase starts."""
        self.self_ns.clear()
        self.calls.clear()

    # -- patches ------------------------------------------------------

    @property
    def patched(self) -> list[tuple[type, str, object]]:
        """``(class, attribute, original)`` for every live patch."""
        return list(self._patches)

    def install(self) -> None:
        import_all()
        for key, module, name, methods in HOOKS:
            root = getattr(importlib.import_module(module), name, None)
            if root is None:
                continue
            for cls in _with_subclasses(root):
                names = methods if methods is not None else [
                    attr for attr in vars(cls) if not attr.startswith("_")]
                for attr in names:
                    self._patch(cls, attr, key)

        original = Scheduler.__dict__["schedule_at"]
        timed, event_key = self.timed, self._event_key

        def schedule_at(scheduler, at, fn, *args):
            return original(scheduler, at, timed(event_key(fn), fn), *args)

        self._replace(Scheduler, "schedule_at",
                      functools.update_wrapper(schedule_at, original))

    def uninstall(self) -> None:
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    def _patch(self, cls: type, attr: str, key: str) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None or any(patched is cls and name == attr
                              for patched, name, _ in self._patches):
            return  # inherited (the owner's patch covers it) or done
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.timed(key, raw.__func__))
        elif inspect.isfunction(raw):
            wrapped = self.timed(key, raw)
        else:
            return  # properties and data stay untouched
        self._replace(cls, attr, wrapped)

    def _replace(self, cls: type, attr: str, value) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def _event_key(self, fn) -> str:
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, PeriodicTask):
            # Attribute a periodic task to its callback, not to the
            # simkit shim that re-arms it.
            fn = getattr(owner, "_fn", fn)
        while isinstance(fn, functools.partial):
            fn = fn.func
        func = getattr(fn, "__func__", fn)
        func = getattr(func, "__wrapped__", func)
        token = getattr(func, "__code__", func)
        key = self._event_keys.get(token)
        if key is None:
            layer = layer_of(getattr(func, "__module__", None) or "")
            key = f"{layer or 'unmapped'}.event"
            self._event_keys[token] = key
        return key


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced measured phase of ``wall_s``."""
    seconds = {key: ns / 1e9 for key, ns in tracer.self_ns.items()}
    metrics: dict[str, float] = {}
    for key in dict.fromkeys(hook[0] for hook in HOOKS):
        metrics[f"{key}.self_s"] = seconds.get(key, 0.0)
        metrics[f"{key}.calls"] = tracer.calls.get(key, 0)
    event_keys = sorted({f"{layer}.event" for layer in LAYERS}
                        | {key for key in seconds if key.endswith(".event")})
    for key in event_keys:
        metrics[f"{key}.self_s"] = seconds.get(key, 0.0)
    metrics["simkit.events"] = sum(tracer.calls.get(key, 0)
                                   for key in event_keys)
    attributed = sum(seconds.values())
    loop = max(0.0, wall_s - attributed)
    metrics["simkit.loop.self_s"] = loop
    for layer in LAYERS:
        busy = sum(value for key, value in seconds.items()
                   if key.startswith(layer + "."))
        if layer == "simkit":
            busy += loop
        metrics[f"{layer}.share"] = busy / wall_s
    metrics["trace.attributed_share"] = attributed / wall_s
    return metrics
