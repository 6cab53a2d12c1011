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
  switched off" (``relay_enabled=False, salvage_enabled=False``).  A
  basestation still records what it overhears and the acks it hears,
  so BRR's packet and transmission records are kept exactly as ViFi's
  are, but it stores no relay candidate and schedules no relay
  decision;
* **diversity-only ViFi** — salvaging disabled (the middle bar of
  Figure 9a);
* the **ablation formulations** of Section 5.5.1 via
  ``relay_strategy``;
* **no link-layer retransmissions** (``max_retx=0``, Figures 7-8);
* the Section 5.1 **unicast** aside (``unicast_data``).

Those five switches are :class:`ViFiConfig`'s only fields; every other
protocol parameter is defined once, next to the code that reads it.
"""

import itertools
from dataclasses import dataclass, replace

from repro.core.node import BasestationNode, BeaconSlotter, VehicleNode
from repro.core.probabilities import EstimatorBank
from repro.core.relaying import make_strategy
from repro.core.stats import ViFiStats
from repro.net.backplane import Backplane
from repro.net.medium import WirelessMedium
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["InternetGateway", "ViFiConfig", "ViFiSimulation"]

#: The gateway's one-way wired latency to a BS and its routing
#: convergence delay (s): engineering choices.
WIRED_LATENCY_S = 0.01
GATEWAY_UPDATE_DELAY_S = 0.15


@dataclass
class ViFiConfig:
    """The switches that the paper's protocol variants flip; the
    defaults are stock ViFi."""

    # Relaying (Sections 4.3-4.4): BRR switches it off, and Table 2's
    # formulations swap the strategy.
    relay_enabled: bool = True
    relay_strategy: str = "vifi"

    # Source retransmissions (Section 4.7); Figures 7-8 run with none
    # (Section 5.2).
    max_retx: int = 3

    # Section 5.1 ablation: send data frames 802.11-unicast style
    # (MAC retries + exponential backoff) instead of the broadcast
    # transmissions ViFi's framework uses.  The paper reports BRR
    # performs worse this way ("the length of disruption-free calls
    # were 25% shorter") because backoff responds to losses that are
    # not collisions.
    unicast_data: bool = False

    # Salvaging (Section 4.5).
    salvage_enabled: bool = True

    def brr_variant(self):
        """The paper's BRR comparator: auxiliary functionality off."""
        return replace(self, relay_enabled=False, salvage_enabled=False)

    def brr_unicast_variant(self):
        """BRR over standard 802.11 unicast (the Section 5.1 aside)."""
        return replace(self, relay_enabled=False, salvage_enabled=False,
                       unicast_data=True)

    def diversity_only_variant(self):
        """ViFi with salvaging disabled (Figure 9a, middle bar)."""
        return replace(self, salvage_enabled=False)


class InternetGateway:
    """The wired side: routes downstream packets to the current anchor.

    The gateway's belief about the anchor lags reality by
    :data:`GATEWAY_UPDATE_DELAY_S` (routing convergence); packets sent
    while no anchor is known are buffered and flushed on the first
    update.  Upstream packets forwarded by the anchor arrive at the
    gateway after :data:`WIRED_LATENCY_S`.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.anchor_belief = None
        self._waiting = []
        self.upstream_sink = None

    def on_anchor_change(self, new_anchor):
        # Gateway events never cancel; the fire-and-forget variant
        # skips a handle allocation per routing update / packet.
        self.ctx.sim.schedule_fire(GATEWAY_UPDATE_DELAY_S,
                                   self._update_belief, new_anchor)

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
            WIRED_LATENCY_S,
            bs_node.on_internet_packet, payload, size_bytes, flow_id, seq,
        )

    def deliver_upstream(self, packet):
        """Anchor-forwarded upstream packet reaches the wired host.

        The arrival is one wired-latency event whether or not a sink is
        set, so a run's event count does not depend on its sinks.
        """
        def arrive():
            if self.upstream_sink is not None:
                self.upstream_sink(packet, self.ctx.sim.now)
        self.ctx.sim.schedule_fire(WIRED_LATENCY_S, arrive)


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
        self.estimator_bank = EstimatorBank((vehicle_id,) + self.bs_ids,
                                            sim=sim)

    def register(self, node):
        self._nodes[node.node_id] = node

    def bs_node(self, bs_id):
        return self._nodes.get(bs_id)

    def next_tx_id(self):
        return next(self._tx_ids)

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
            outcome_rng=self.rngs.stream("medium-outcomes"),
        )
        self.backplane = Backplane(self.sim)
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
