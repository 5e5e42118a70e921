"""The SenSocial testbed: a fully wired simulation world.

Builds everything a deployment needs — network, MQTT broker, server
middleware, OSN platforms with plug-ins, and per-user phones running
the mobile middleware — so examples, tests and benchmarks only say
*what* they deploy, not *how* to wire it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classify import ClassifierRegistry
from repro.core.mobile.manager import MobileSenSocialManager
from repro.core.server.manager import ServerSenSocialManager
from repro.device import calibration
from repro.device.environment import EnvironmentRegistry
from repro.device.mobility import CityMobility, CityRegistry
from repro.device.phone import Smartphone
from repro.mqtt.broker import MqttBroker
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.network import Network
from repro.obs import Observability
from repro.osn.generator import ActionWorkloadGenerator
from repro.osn.service import OsnService
from repro.plugins.facebook import FacebookPlugin
from repro.plugins.twitter import TwitterPlugin
from repro.simkit.world import World


@dataclass
class MobileNode:
    """One deployed user: phone + mobile middleware + mobility."""

    user_id: str
    phone: Smartphone
    manager: MobileSenSocialManager
    mobility: CityMobility


class SenSocialTestbed:
    """A complete SenSocial deployment in one object."""

    def __init__(self, seed: int = 0, *,
                 facebook_delay: LatencyModel | None = None,
                 location_update_period_s: float | None = 300.0,
                 observability: bool = False,
                 durability=False, shards: int | None = None,
                 slo=False, batching=False):
        MobileSenSocialManager.reset_instances()
        #: Uplink envelope cap threaded to every deployed mobile
        #: manager: ``False``/``None`` = 1 (every record leaves alone);
        #: ``True`` = 64; an int = that cap.
        if batching is True:
            self.batch_max = 64
        elif batching:
            self.batch_max = int(batching)
        else:
            self.batch_max = 1
        self.world = World(seed=seed)
        #: The SLO control plane needs the tracer's terminal stream.
        observability = observability or bool(slo)
        #: ``None`` deploys the classic monolithic server; an integer
        #: deploys a :class:`repro.cluster.ClusterCoordinator` over
        #: that many shard workers.  Every shard count runs the same
        #: cluster code; at ``shards=1`` its runs match the monolith's
        #: (pinned by ``tests/test_cluster.py``).
        self.shards = shards
        #: Observability hub, or ``None`` when tracing is off.  Installed
        #: before any component is built so every constructor-time
        #: ``Observability.of`` / ``component_or_none("obs")`` sees it.
        self.obs = Observability.install(self.world) if observability else None
        self.network = Network(
            self.world,
            default_latency=UniformLatency(
                calibration.WIFI_LATENCY_MEAN_S - calibration.WIFI_LATENCY_JITTER_S,
                calibration.WIFI_LATENCY_MEAN_S + calibration.WIFI_LATENCY_JITTER_S))
        self.environments = EnvironmentRegistry()
        self.cities = CityRegistry.europe()
        self.classifiers = ClassifierRegistry(self.cities)
        self.broker = MqttBroker(self.world, self.network)
        #: Server durability controller (write-ahead journal + overload
        #: protection), or ``None`` — pass ``durability=True`` for the
        #: defaults or a :class:`repro.durability.DurabilityConfig`.
        #: On a cluster every shard gets its own controller (see
        #: ``durabilities``); this attribute then points at shard 0's.
        self.durability = None
        #: Per-shard durability controllers (cluster deployments only).
        self.durabilities = None
        if durability:
            from repro.durability import DurabilityConfig, ServerDurability
            durability_config = (
                durability if isinstance(durability, DurabilityConfig)
                else None)
        if shards is None:
            if durability:
                self.durability = ServerDurability(self.world,
                                                   durability_config)
            self.server = ServerSenSocialManager(self.world, self.network,
                                                 durability=self.durability)
        else:
            from repro.cluster import ClusterCoordinator
            durability_factory = None
            if durability:
                self.durabilities = []

                def durability_factory():
                    # Every shard, initial or joining via add_shard(),
                    # gets its own controller, tracked here.
                    controller = ServerDurability(self.world,
                                                  durability_config)
                    self.durabilities.append(controller)
                    return controller
            self.server = ClusterCoordinator(
                self.world, self.network, shards=shards,
                durability_factory=durability_factory)
            if durability:
                self.durability = self.durabilities[0]
        self.server.start()
        # Let the server's broker session settle before devices deploy:
        # a registration published before the server's subscription
        # lands would be dropped (deployments start the server first).
        self.world.run_for(1.0)

        #: SLO control plane, or ``None`` — pass ``slo=True`` for the
        #: stock objectives or a
        #: :class:`repro.obs.SloControlPlaneConfig` to tune them.
        self.slo = None
        if slo:
            from repro.obs import SloControlPlane, SloControlPlaneConfig
            slo_config = slo if isinstance(slo, SloControlPlaneConfig) \
                else None
            self.slo = SloControlPlane(
                self.world, self.server, config=slo_config,
                durabilities=self.durabilities).start()

        self.facebook = OsnService(self.world, "facebook")
        self.twitter = OsnService(self.world, "twitter")
        self.facebook_plugin = FacebookPlugin(
            self.world, self.facebook, notify_delay=facebook_delay)
        self.twitter_plugin = TwitterPlugin(self.world, self.twitter)
        self.server.attach_plugin(self.facebook_plugin)
        self.server.attach_plugin(self.twitter_plugin)
        self.facebook_plugin.start()
        self.twitter_plugin.start()

        self.workload = ActionWorkloadGenerator(self.world, self.facebook)
        self.nodes: dict[str, MobileNode] = {}
        self._location_update_period_s = location_update_period_s

        # A couple of access points per city so WiFi scans see something.
        for name in self.cities.names():
            city = self.cities.get(name)
            self.environments.add_access_point(f"ap-{name.lower()}-1", city.center)
            self.environments.add_access_point(
                f"ap-{name.lower()}-2", [city.lon + 0.001, city.lat + 0.001])

    # -- deployment -------------------------------------------------------

    def add_user(self, user_id: str, home_city: str = "Paris",
                 platforms: tuple[str, ...] = ("facebook",)) -> MobileNode:
        """Deploy a user: OSN accounts, phone, middleware, mobility."""
        phone = Smartphone(self.world, self.network, self.environments, user_id)
        mobility = CityMobility(self.world, phone.environment,
                                self.environments, self.cities,
                                home_city).start()
        manager = MobileSenSocialManager.get_sensocial_manager(
            self.world, phone, self.network, classifiers=self.classifiers,
            batch_max=self.batch_max)
        manager.start(location_update_period_s=self._location_update_period_s)
        if self.slo is not None:
            # Only SLO-managed deployments listen for rate pushes, so
            # plain runs exchange exactly the same MQTT packets.
            manager.mqtt.enable_rate_control()
        if "facebook" in platforms:
            self.facebook.register_user(user_id)
            self.facebook_plugin.register_user(user_id)
        if "twitter" in platforms:
            self.twitter.register_user(user_id)
            self.twitter_plugin.register_user(user_id)
        node = MobileNode(user_id=user_id, phone=phone, manager=manager,
                          mobility=mobility)
        self.nodes[user_id] = node
        # Let the registration round-trip settle.
        self.world.run_for(1.0)
        return node

    def befriend(self, a: str, b: str, platform: str = "facebook") -> None:
        """Create a friendship on the platform and mirror it server-side."""
        service = self.facebook if platform == "facebook" else self.twitter
        service.graph.add_friendship(a, b)
        self.server.database.add_friend(a, b)

    def node(self, user_id: str) -> MobileNode:
        return self.nodes[user_id]

    def run(self, seconds: float) -> None:
        """Advance the whole deployment by ``seconds``."""
        self.world.run_for(seconds)
