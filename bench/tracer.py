"""Outside-in layer tracer for the benchmark's traced runs.

The tracer attributes wall time to the repository's layers without
touching their code: it replaces public entry points on the classes
(and module-level names) with span-recording wrappers, and wraps every
callback handed to the event engine so each dispatched event becomes a
span charged to the layer of the callback's owner.

Spans are aggregated in memory, never logged: per entry point and per
caller layer the tracer keeps a call count, the total time and the self
time (total minus the time of child spans).  Nothing here draws from a
random stream or schedules an event, so a traced run executes the same
events in the same order as an untraced one; the benchmark checks that
by comparing run digests.

Install the tracer before any simulation is built: the medium and the
nodes bind methods such as ``on_receive`` and ``on_beacon`` when they
are constructed, and only class attributes patched before that point
are seen by them.
"""

import functools
import importlib
import time

__all__ = ["ROOT", "Tracer", "layer_of_module"]

#: Layer charged with time spent outside every traced entry point.
ROOT = "bench"

# Modules whose work belongs to another module's layer: the protocol
# wiring and the retransmission timers run as part of node protocol
# logic.
_FOLDED = {
    "repro.core.protocol": "core.node",
    "repro.core.retransmit": "core.node",
}

# Layers that span several modules.
_PREFIXES = (
    ("repro.apps.", "apps"),
    ("repro.testbeds.", "testbeds"),
    ("repro.experiments.", "experiments.common"),
    ("repro.sim.", "sim.engine"),
)


def layer_of_module(module):
    """The benchmark layer name for a Python module name."""
    if module in _FOLDED:
        return _FOLDED[module]
    for prefix, layer in _PREFIXES:
        if module.startswith(prefix):
            return layer
    if module.startswith("repro."):
        return module[len("repro."):]
    return "other"


# (module, class or None, attribute names, layer).  Class attributes are
# patched only where the class itself defines them, so an inherited
# method is never wrapped twice.
_ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator", ("run",), "sim.engine"),
    ("repro.net.medium", "WirelessMedium", ("send", "send_slot_batch"),
     "net.medium"),
    ("repro.net.channel", "LossProcess",
     ("loss_eps", "loss_eps_window", "loss_eps_span"), "net.channel"),
    ("repro.net.channel", "BernoulliLoss",
     ("loss_eps", "loss_eps_window", "loss_eps_span"), "net.channel"),
    ("repro.net.channel", "GilbertElliottLoss",
     ("loss_eps", "loss_eps_window", "loss_eps_span"), "net.channel"),
    ("repro.net.channel", "SteeredGilbertElliott",
     ("loss_eps", "loss_eps_window", "loss_eps_span"), "net.channel"),
    ("repro.net.channel", "TraceDrivenLoss",
     ("loss_eps", "loss_eps_window", "loss_eps_span"), "net.channel"),
    ("repro.net.propagation", "LinkBank",
     ("prefill", "prob_at", "prob_span"), "net.propagation"),
    ("repro.net.backplane", "Backplane", ("send",), "net.backplane"),
    ("repro.core.node", "_NodeBase", ("on_receive", "on_second"),
     "core.node"),
    ("repro.core.node", "VehicleNode", ("on_receive", "on_second"),
     "core.node"),
    ("repro.core.node", "BasestationNode",
     ("on_receive", "on_backplane_data", "on_second"), "core.node"),
    ("repro.core.node", "LinkSender", ("pump", "on_ack"), "core.node"),
    ("repro.core.protocol", "ViFiSimulation",
     ("__init__", "send_upstream", "send_downstream"), "core.node"),
    ("repro.core.probabilities", "ReceptionEstimator",
     ("on_beacon", "tick_second", "relay_table"), "core.probabilities"),
    ("repro.core.probabilities", "BankedReceptionEstimator",
     ("on_beacon", "tick_second", "relay_table"), "core.probabilities"),
    ("repro.core.probabilities", "EstimatorBank", ("tick_second",),
     "core.probabilities"),
    ("repro.core.relaying", "ViFiRelayStrategy", ("relay_probability",),
     "core.relaying"),
    ("repro.core.relaying", "IgnoreOthersStrategy",
     ("relay_probability",), "core.relaying"),
    ("repro.core.relaying", "IgnoreDestConnectivityStrategy",
     ("relay_probability",), "core.relaying"),
    ("repro.core.relaying", "ExpectedDeliveryStrategy",
     ("relay_probability",), "core.relaying"),
    ("repro.core.stats", "ViFiStats",
     ("on_source_tx", "on_dst_receive", "on_aux_overhear",
      "on_aux_heard_ack", "on_relay_decision", "on_src_ack",
      "on_give_up", "on_salvage", "on_anchor_change"), "core.stats"),
    ("repro.apps.workload", "FlowRouter",
     ("_on_vehicle_delivery", "_on_wired_delivery"), "apps"),
    ("repro.testbeds.vanlan", "VanLanTestbed",
     ("__init__", "vehicle_motion", "build_link_bank",
      "build_link_table"), "testbeds"),
    ("repro.testbeds.dieselnet", "DieselNetTestbed",
     ("__init__", "generate_beacon_log"), "testbeds"),
    # Module-level functions are patched in every module that imported
    # them by name, since those modules hold their own reference.
    ("repro.testbeds.lossmap", None, ("build_link_table_from_log",),
     "testbeds"),
    ("repro.experiments.common", None, ("build_link_table_from_log",),
     "testbeds"),
    ("repro.experiments.common", None, ("run_trips",),
     "experiments.common"),
    ("repro.experiments.tcpbench", None, ("run_trips",),
     "experiments.common"),
    ("repro.experiments.voipbench", None, ("run_trips",),
     "experiments.common"),
)

_SCHEDULERS = ("schedule", "schedule_at", "schedule_fire",
               "schedule_fire_at")


class Tracer:
    """Aggregating span recorder patched onto the repository's layers.

    Use as a context manager, or call :meth:`install` and
    :meth:`uninstall`; the patches are process-wide while installed.

    Attributes:
        records: ``{entry: {caller_layer: [count, total_s, self_s]}}``.
            An entry is ``"Class.method"`` for a patched entry point, or
            ``"@Class.method"`` / ``"@function"`` for an event callback.
    """

    def __init__(self):
        self.records = {}
        # Open spans, innermost last: [layer, child_time_s].  The root
        # frame collects the time of every top-level span.
        self._stack = [[ROOT, 0.0]]
        self._entry_layer = {}
        self._event_info = {}
        self._saved = []

    # -- installation ----------------------------------------------------

    def install(self):
        """Patch every entry point and the event schedulers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, names, layer in _ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None \
                else getattr(module, class_name)
            for name in names:
                if class_name is not None and name not in vars(owner):
                    continue
                original = getattr(owner, name)
                entry = name if class_name is None \
                    else f"{class_name}.{name}"
                self._patch(owner, name,
                            self.wrap(original, layer, entry))
        from repro.sim.engine import Simulator
        for name in _SCHEDULERS:
            self._patch(Simulator, name,
                        self._wrap_scheduler(getattr(Simulator, name)))
        return self

    def uninstall(self):
        """Restore every patched attribute."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, name, replacement):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- spans -----------------------------------------------------------

    def wrap(self, fn, layer, entry):
        """*fn* wrapped in a span charged to *layer* under *entry*."""
        return functools.wraps(fn)(
            self._span(fn, layer, self._table(entry, layer))
        )

    def _table(self, entry, layer):
        self._entry_layer[entry] = layer
        return self.records.setdefault(entry, {})

    def _span(self, fn, layer, table):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                record = table.get(parent[0])
                if record is None:
                    record = table[parent[0]] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]

        return traced

    def event(self, callback):
        """*callback* as an event span charged to its owner's layer."""
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            key = (type(owner), getattr(callback, "__func__", callback))
        else:
            key = getattr(callback, "__code__", callback)
        info = self._event_info.get(key)
        if info is None:
            if owner is not None:
                module = type(owner).__module__
                name = f"@{type(owner).__name__}.{callback.__name__}"
            else:
                module = getattr(callback, "__module__", None) or ""
                name = "@" + getattr(callback, "__qualname__",
                                     type(callback).__name__)
            layer = layer_of_module(module)
            info = self._event_info[key] = (layer,
                                            self._table(name, layer))
        return self._span(callback, *info)

    def _wrap_scheduler(self, schedule):
        event = self.event

        @functools.wraps(schedule)
        def traced_schedule(sim, when, callback, *args):
            return schedule(sim, when, event(callback), *args)

        return traced_schedule

    # -- results ---------------------------------------------------------

    @property
    def attributed_s(self):
        """Total time of every top-level span so far."""
        return self._stack[0][1]

    def layers(self):
        """``{layer: {"self_s", "total_s", "calls"}}`` over all spans.

        ``total_s`` counts only spans entered from another layer, so a
        layer calling back into itself is not counted twice.
        """
        out = {}
        for entry, callers in self.records.items():
            layer = self._entry_layer[entry]
            row = out.setdefault(layer, {"self_s": 0.0, "total_s": 0.0,
                                         "calls": 0})
            for caller, (count, total, self_s) in callers.items():
                row["self_s"] += self_s
                row["calls"] += count
                if caller != layer:
                    row["total_s"] += total
        return out

    def edges(self):
        """Per (caller layer, callee layer) edge: count, total, self."""
        out = {}
        for entry, callers in self.records.items():
            callee = self._entry_layer[entry]
            for caller, (count, total, self_s) in callers.items():
                row = out.setdefault((caller, callee), [0, 0.0, 0.0])
                row[0] += count
                row[1] += total
                row[2] += self_s
        return [
            {"caller": caller, "callee": callee, "count": count,
             "total_s": total, "self_s": self_s}
            for (caller, callee), (count, total, self_s)
            in sorted(out.items())
        ]

    def entries(self):
        """Per entry point: layer, count, total and self time."""
        out = []
        for entry, callers in sorted(self.records.items()):
            if not callers:
                continue
            out.append({
                "entry": entry,
                "layer": self._entry_layer[entry],
                "count": sum(r[0] for r in callers.values()),
                "total_s": sum(r[1] for r in callers.values()),
                "self_s": sum(r[2] for r in callers.values()),
            })
        return out
