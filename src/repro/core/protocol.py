"""Experiment wiring: configuration, context, gateway, and simulation.

:class:`ViFiSimulation` assembles a complete packet-level experiment:
the shared wireless medium (with per-link loss processes supplied by a
testbed or a beacon trace), the inter-BS backplane, one vehicle, the
basestations, and an Internet gateway that routes downstream traffic to
the vehicle's current anchor.

The same machinery runs all protocol variants:

* **ViFi** — the default configuration;
* **BRR** — the paper's hard-handoff comparator, "implemented within
  the same framework as ViFi but with the auxiliary BS functionality
  switched off" (``relay_enabled=False, salvage_enabled=False``);
* **diversity-only ViFi** — salvaging disabled (the middle bar of
  Figure 9a);
* the **ablation formulations** of Section 5.5.1 via
  ``relay_strategy``.
"""

import itertools
from dataclasses import dataclass, field

from repro.core.node import BasestationNode, BeaconSlotter, VehicleNode
from repro.core.probabilities import EstimatorBank
from repro.core.relaying import make_strategy
from repro.core.retransmit import AdaptiveRetxTimer
from repro.core.stats import ViFiStats
from repro.net.backplane import Backplane
from repro.net.medium import WirelessMedium
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["InternetGateway", "ViFiConfig", "ViFiSimulation"]


@dataclass
class ViFiConfig:
    """All protocol and environment knobs in one place.

    The defaults correspond to the paper's deployed configuration where
    stated (beacon rate, averaging factor, salvage threshold, 99th
    percentile retransmission timer) and to sensible engineering
    choices elsewhere.
    """

    # Beaconing and estimation (Section 4.6).  Every node's reception
    # estimator is a view onto one simulation-wide EstimatorBank, and
    # beacons are emitted through one slot-aligned BeaconSlotter (see
    # repro.core.node).
    beacon_interval: float = 0.1
    prob_alpha: float = 0.5
    prob_stale_s: float = 5.0

    # Anchor / auxiliary designation (Section 4.3).
    anchor_hysteresis: float = 0.15
    min_anchor_quality: float = 0.05
    aux_recent_s: float = 2.0
    anchor_belief_timeout: float = 3.0

    # Relaying (Sections 4.3-4.4).  The ack-wait window is adaptive:
    # observed data-to-ack gaps at each BS form a mixture of direct
    # acks (milliseconds) and acks to later retransmissions (tens of
    # milliseconds; waiting cannot recover those, the direct ack was
    # lost).  The window therefore tracks the *median* gap times a
    # safety multiplier, clamped to [relay_min_age, relay_max_window].
    relay_enabled: bool = True
    relay_strategy: str = "vifi"
    relay_min_age: float = 0.008
    relay_initial_window: float = 0.012
    relay_window_percentile: float = 50.0
    relay_window_multiplier: float = 2.0
    relay_max_window: float = 0.05
    relay_max_age: float = 0.25
    relay_timer_interval: float = 0.010

    # Source behaviour (Section 4.7).
    max_retx: int = 3
    retx_initial: float = 0.08
    retx_floor: float = 0.012
    retx_percentile: float = 99.0
    retx_window: int = 500

    # Section 5.1 ablation: send data frames 802.11-unicast style
    # (MAC retries + exponential backoff) instead of the broadcast
    # transmissions ViFi's framework uses.  The paper reports BRR
    # performs worse this way ("the length of disruption-free calls
    # were 25% shorter") because backoff responds to losses that are
    # not collisions.
    unicast_data: bool = False

    # Salvaging (Section 4.5).
    salvage_enabled: bool = True
    salvage_age_s: float = 1.0

    # Media.
    bitrate_bps: float = 1_000_000.0
    backplane_bandwidth_bps: float = 1_000_000.0
    backplane_latency_s: float = 0.01
    wired_latency_s: float = 0.01
    gateway_update_delay_s: float = 0.15

    def brr_variant(self):
        """The paper's BRR comparator: auxiliary functionality off."""
        return self.replace(relay_enabled=False, salvage_enabled=False)

    def brr_unicast_variant(self):
        """BRR over standard 802.11 unicast (the Section 5.1 aside)."""
        return self.replace(relay_enabled=False, salvage_enabled=False,
                            unicast_data=True)

    def diversity_only_variant(self):
        """ViFi with salvaging disabled (Figure 9a, middle bar)."""
        return self.replace(salvage_enabled=False)

    def replace(self, **overrides):
        """A copy of this config with the given fields replaced."""
        values = dict(self.__dict__)
        values.update(overrides)
        return ViFiConfig(**values)

    @property
    def beacons_per_second(self):
        return int(round(1.0 / self.beacon_interval))


class InternetGateway:
    """The wired side: routes downstream packets to the current anchor.

    The gateway's belief about the anchor lags reality by
    ``gateway_update_delay_s`` (routing convergence); packets sent while
    no anchor is known are buffered and flushed on the first update.
    Upstream packets forwarded by the anchor arrive at the gateway
    after the wired latency.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.anchor_belief = None
        self._waiting = []
        self.upstream_sink = None
        self.delivered_upstream = []

    def on_anchor_change(self, new_anchor):
        delay = self.ctx.config.gateway_update_delay_s
        # Gateway events never cancel; the fire-and-forget variant
        # skips a handle allocation per routing update / packet.
        self.ctx.sim.schedule_fire(delay, self._update_belief, new_anchor)

    def _update_belief(self, new_anchor):
        self.anchor_belief = new_anchor
        if self._waiting:
            waiting, self._waiting = self._waiting, []
            for args in waiting:
                self.send_downstream(*args)

    def send_downstream(self, payload, size_bytes, flow_id=0, seq=0):
        """Inject one downstream packet from the Internet."""
        if self.anchor_belief is None:
            self._waiting.append((payload, size_bytes, flow_id, seq))
            return
        bs_node = self.ctx.bs_node(self.anchor_belief)
        if bs_node is None:
            return
        self.ctx.sim.schedule_fire(
            self.ctx.config.wired_latency_s,
            bs_node.on_internet_packet, payload, size_bytes, flow_id, seq,
        )

    def deliver_upstream(self, packet):
        """Anchor-forwarded upstream packet reaches the wired host."""
        def arrive():
            self.delivered_upstream.append(
                (packet.seq, packet.created_at, self.ctx.sim.now)
            )
            if self.upstream_sink is not None:
                self.upstream_sink(packet, self.ctx.sim.now)
        self.ctx.sim.schedule_fire(self.ctx.config.wired_latency_s, arrive)


class _Context:
    """Shared wiring handed to every node."""

    def __init__(self, sim, medium, backplane, config, stats, rngs, bs_ids,
                 vehicle_id):
        self.sim = sim
        self.medium = medium
        self.backplane = backplane
        self.config = config
        self.stats = stats
        self.rngs = rngs
        self.bs_ids = tuple(bs_ids)
        self.vehicle_id = vehicle_id
        self.relay_strategy = make_strategy(config.relay_strategy)
        self._tx_ids = itertools.count(1)
        self._nodes = {}
        self.gateway = None
        self.beacon_slotter = BeaconSlotter(sim, medium)
        # One bank serves every node; its row universe is the full
        # participant set, known here up front.
        self.estimator_bank = EstimatorBank(
            (vehicle_id,) + self.bs_ids,
            beacons_per_second=config.beacons_per_second,
            alpha=config.prob_alpha,
            stale_s=config.prob_stale_s,
            sim=sim,
        )

    def register(self, node):
        self._nodes[node.node_id] = node

    def bs_node(self, bs_id):
        return self._nodes.get(bs_id)

    def next_tx_id(self):
        return next(self._tx_ids)

    def make_retx_timer(self):
        return AdaptiveRetxTimer(
            initial_s=self.config.retx_initial,
            floor_s=self.config.retx_floor,
            percentile=self.config.retx_percentile,
            window=self.config.retx_window,
        )

    def make_relay_window_timer(self):
        """The adaptive ack-wait window used by auxiliary BSes."""
        return AdaptiveRetxTimer(
            initial_s=self.config.relay_initial_window,
            floor_s=self.config.relay_min_age,
            percentile=self.config.relay_window_percentile,
            window=200,
        )

    def on_anchor_change(self, new_anchor):
        if self.gateway is not None:
            self.gateway.on_anchor_change(new_anchor)

    def gateway_deliver_upstream(self, packet):
        if self.gateway is not None:
            self.gateway.deliver_upstream(packet)


class ViFiSimulation:
    """A complete packet-level protocol run.

    Args:
        bs_ids: the participating basestations.
        link_table: per-link loss processes (from a testbed model or
            :func:`repro.testbeds.lossmap.build_link_table_from_log`).
        config: a :class:`ViFiConfig`; defaults to stock ViFi.
        seed: seed for protocol-level randomness (backoff, relay coins,
            beacon phases) — independent of the channel randomness
            baked into *link_table*.
        vehicle_id: the vehicle's node id.
        faults: an optional :class:`~repro.sim.faults.FaultSchedule`
            of infrastructure faults (BS radio outages, backplane
            partitions/latency spikes, beacon bursts, vehicle radio
            resets) to inject into the run.  Faults draw only from
            their own RNG namespace and inject only flag flips, so
            ``faults=None`` (the default) is bitwise-identical to a
            build without the fault plane.

    Typical use::

        vifi = ViFiSimulation(bs_ids, table, config=ViFiConfig(), seed=1)
        vifi.start()
        vifi.send_upstream("hello", 500)
        vifi.run(until=60.0)
    """

    def __init__(self, bs_ids, link_table, config=None, seed=0,
                 vehicle_id=0, faults=None):
        self.config = config or ViFiConfig()
        self.sim = Simulator()
        self.rngs = RngRegistry(seed).spawn("protocol")
        self.stats = ViFiStats()
        self.medium = WirelessMedium(
            self.sim, link_table, self.rngs.stream("medium"),
            bitrate_bps=self.config.bitrate_bps,
            outcome_rng=self.rngs.stream("medium-outcomes"),
        )
        self.backplane = Backplane(
            self.sim,
            bandwidth_bps=self.config.backplane_bandwidth_bps,
            latency_s=self.config.backplane_latency_s,
        )
        self.ctx = _Context(
            sim=self.sim,
            medium=self.medium,
            backplane=self.backplane,
            config=self.config,
            stats=self.stats,
            rngs=self.rngs,
            bs_ids=bs_ids,
            vehicle_id=vehicle_id,
        )
        if not self.config.relay_enabled:
            # Hard-handoff comparator: auxiliaries never relay.  The
            # cleanest switch-off point is a strategy that always says
            # "do not relay"; designations and beacons stay identical.
            class _NeverRelay:
                name = "never"

                def relay_probability(self, ctx):
                    return 0.0

            self.ctx.relay_strategy = _NeverRelay()

        self.vehicle = VehicleNode(vehicle_id, self.ctx)
        self.ctx.register(self.vehicle)
        self.medium.attach(self.vehicle)
        self.bs_nodes = {}
        for bs in bs_ids:
            node = BasestationNode(bs, self.ctx)
            self.ctx.register(node)
            self.medium.attach(node)
            self.backplane.connect(bs)
            self.bs_nodes[bs] = node
        self.gateway = InternetGateway(self.ctx)
        self.ctx.gateway = self.gateway
        self.fault_plane = (
            faults.install(self) if faults is not None else None
        )
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Arm all node timers.  Idempotent."""
        if self._started:
            return
        self.vehicle.start()
        for node in self.bs_nodes.values():
            node.start()
        self._started = True

    def run(self, until):
        """Advance the simulation to absolute time *until* (seconds)."""
        self.start()
        self.sim.run(until=until)

    # -- application API -------------------------------------------------------

    def send_upstream(self, payload, size_bytes, flow_id=0, seq=0):
        """Vehicle-originated packet toward the Internet."""
        return self.vehicle.send_upstream(payload, size_bytes,
                                          flow_id=flow_id, seq=seq)

    def send_downstream(self, payload, size_bytes, flow_id=0, seq=0):
        """Internet-originated packet toward the vehicle."""
        return self.gateway.send_downstream(payload, size_bytes,
                                            flow_id=flow_id, seq=seq)

    def set_downstream_sink(self, callback):
        """``callback(packet, delivered_at)`` on vehicle app delivery."""
        self.vehicle.downstream_sink = callback

    def set_upstream_sink(self, callback):
        """``callback(packet, delivered_at)`` on wired-side delivery."""
        self.gateway.upstream_sink = callback

    # -- accounting ------------------------------------------------------------

    def wireless_data_tx(self, direction):
        """Data transmissions on the vehicle-BS channel per direction."""
        from repro.net.packet import Direction
        if direction is Direction.UPSTREAM:
            return self.medium.transmissions(
                kind="data", node_id=self.ctx.vehicle_id
            )
        total = 0
        for bs in self.bs_nodes:
            total += self.medium.transmissions(kind="data", node_id=bs)
        return total

    def efficiency(self, direction):
        """Figure 12's metric: packets delivered per data transmission."""
        return self.stats.efficiency(
            direction, self.wireless_data_tx(direction)
        )
