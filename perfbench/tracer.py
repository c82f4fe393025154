"""Outside-in tracing for the benchmark's traced iterations.

The tracer wraps the layers' public functions from this file only —
nothing under ``src/`` knows it exists — and is installed only in a
traced workload process, never in one whose wall time is reported.

* Every event callback is wrapped where it is scheduled
  (``Simulator.schedule``/``schedule_at``) and attributed to the module
  that owns the callback: the owning class's module for a bound method,
  the same rule as ``repro.netsim.profiling.component_of``.
* Calls that cross a layer boundary are wrapped at class or module
  level (``Link.send``, ``Host.receive``, queue ``enqueue``/``dequeue``,
  ``CebinaeFlowCache.update``, ``SyntheticTrace``, the fluid functions,
  ...).
* A span's self time is its duration minus its children's.  A call into
  the layer already on top of the stack opens no new span, so its time
  stays with that layer.
* Spans are aggregated in memory per (caller layer, callee layer) edge
  and written once, by the caller of :meth:`Tracer.write`, after the
  traced iteration ends.

Deterministic counts come from the same wrappers and from the public
counters ``TcpSender.retransmits``/``timeouts``/``sent_segments`` and
``CebinaeControlPlane.recomputations``.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.control_plane import CebinaeControlPlane
from repro.core.queue_disc import CebinaeQueueDisc
from repro.experiments import runner
from repro.heavyhitter import hashpipe
from repro.heavyhitter.hashpipe import CebinaeFlowCache
from repro.heavyhitter.traces import SyntheticTrace
from repro.netsim.engine import Event, Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host, Router
from repro.netsim.packet import PacketType
from repro.netsim.queues import DropTailQueue, QueueDisc
from repro.netsim.tracing import FlowMonitor
from repro.tcp.socket import TcpSender

#: Module prefix -> layer, most specific prefix first.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.netsim.engine", "engine"),
    ("repro.netsim.link", "link"),
    ("repro.netsim.node", "node"),
    ("repro.netsim.queues", "queue"),
    ("repro.netsim.fluid", "fluid"),
    ("repro.netsim.tracing", "tracing"),
    ("repro.core.control_plane", "core.cp"),
    ("repro.core", "core"),
    ("repro.heavyhitter.traces", "heavyhitter.trace"),
    ("repro.heavyhitter.hashpipe", "heavyhitter.cache"),
    ("repro.heavyhitter", "heavyhitter.eval"),
    ("repro.tcp", "tcp"),
    ("repro.experiments.runner", "runner"),
)

#: The fluid tier's functions, as the runner calls them.
FLUID_FUNCTIONS = ("measured_rates_bps", "rate_divergence", "pool_rates",
                   "rate_pool_key", "equilibrium_schedule",
                   "advance_fluid", "wire_overhead_ratio")

#: Caller name of a span opened with an empty stack.
ROOT = "-"


def module_layer(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Tracer:
    """Span accounting plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.self_s: Dict[str, float] = {}
        #: (caller layer, callee layer) -> [spans, total seconds].
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        #: Seconds from a scenario call's start to its first engine run.
        self.build_s = 0.0
        self.senders: List[TcpSender] = []
        self.agents: List[CebinaeControlPlane] = []
        self.trace_keys: Set[Tuple[Any, ...]] = set()
        self._stack: List[List[Any]] = []
        self._layer_by_owner: Dict[Any, str] = {}
        self._build_from: Optional[float] = None

    # -- span accounting ---------------------------------------------------
    def call(self, layer: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a span of ``layer``."""
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self_s = self.self_s
            self_s[layer] = self_s.get(layer, 0.0) + elapsed - frame[1]
            if stack:
                caller = stack[-1]
                caller[1] += elapsed
                key = (caller[0], layer)
            else:
                key = (ROOT, layer)
            edge = self.edges.get(key)
            if edge is None:
                self.edges[key] = [1, elapsed]
            else:
                edge[0] += 1
                edge[1] += elapsed

    def root(self, layer: str, fn: Callable[[], Any]) -> Any:
        """Run one of the workload's entry-point calls."""
        self._build_from = perf_counter() if layer == "runner" else None
        try:
            return self.call(layer, fn)
        finally:
            self._build_from = None

    def layer_of(self, callback: Callable[..., Any]) -> str:
        """The layer owning a callback (its class's module, if bound)."""
        owner = getattr(callback, "__self__", None)
        key = type(owner) if owner is not None else \
            getattr(callback, "__module__", None) or ""
        layer = self._layer_by_owner.get(key)
        if layer is None:
            module = key.__module__ if isinstance(key, type) else key
            layer = self._layer_by_owner[key] = module_layer(module)
        return layer

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the aggregated spans (once, after the traced run)."""
        payload = {
            **meta,
            "self_s": dict(sorted(self.self_s.items())),
            "edges": [{"caller": caller, "callee": callee,
                       "spans": int(spans), "total_s": total}
                      for (caller, callee), (spans, total)
                      in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")

    # -- wrappers ------------------------------------------------------------
    def _span(self, owner: Any, name: str, layer: str,
              count: Optional[str] = None) -> None:
        original = getattr(owner, name)
        call, counts = self.call, self.counts
        if count is None:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return call(layer, original, *args, **kwargs)
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts[count] += 1
                return call(layer, original, *args, **kwargs)
        setattr(owner, name, wrapper)

    def _enqueue(self, cls: type, layer: str) -> None:
        original = cls.enqueue
        call, counts = self.call, self.counts
        enqueues, drops = layer + ".enqueues", layer + ".drops"

        def enqueue(qdisc: Any, packet: Any) -> bool:
            counts[enqueues] += 1
            admitted = call(layer, original, qdisc, packet)
            if not admitted:
                counts[drops] += 1
            return admitted
        cls.enqueue = enqueue

    def _event(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        layer = self.layer_of(callback)
        call, counts = self.call, self.counts
        key = layer + ".events"

        def fire(*args: Any) -> Any:
            counts["engine.events"] += 1
            counts[key] += 1
            return call(layer, callback, *args)
        return fire

    def install(self) -> None:
        """Wrap every layer boundary.  Irreversible: traced processes
        run one traced iteration and exit."""
        call, counts, event = self.call, self.counts, self._event

        # Engine: scheduling, dispatch, cancellation.
        schedule, schedule_at = Simulator.schedule, Simulator.schedule_at
        run = Simulator.run
        cancel = Event.cancel

        def traced_schedule(sim: Simulator, delay_ns: int,
                            callback: Callable[..., None],
                            *args: Any) -> Event:
            counts["engine.schedules"] += 1
            return call("engine", schedule, sim, delay_ns,
                        event(callback), *args)

        def traced_schedule_at(sim: Simulator, time_ns: int,
                               callback: Callable[..., None],
                               *args: Any) -> Event:
            counts["engine.schedules"] += 1
            return call("engine", schedule_at, sim, time_ns,
                        event(callback), *args)

        def traced_run(sim: Simulator, *args: Any, **kwargs: Any) -> None:
            if self._build_from is not None:
                self.build_s += perf_counter() - self._build_from
                self._build_from = None
            return call("engine", run, sim, *args, **kwargs)

        def traced_cancel(ev: Event) -> None:
            if not ev.cancelled:
                counts["engine.cancels"] += 1
            cancel(ev)

        Simulator.schedule = traced_schedule
        Simulator.schedule_at = traced_schedule_at
        Simulator.run = traced_run
        Event.cancel = traced_cancel

        # Link: offers from nodes, and the transmitter restart a queue
        # disc triggers through its waker.
        self._span(Link, "send", "link", count="link.sends")
        self._span(QueueDisc, "notify_waker", "link")

        # Node: forwarding and host delivery.
        self._span(Router, "receive", "node", count="node.receives")
        self._span(Host, "send", "node")
        host_receive = Host.receive
        register_handler = Host.register_handler

        def traced_receive(host: Host, packet: Any, link: Link) -> None:
            counts["node.receives"] += 1
            if packet.ptype is PacketType.ACK:
                counts["tcp.acks"] += 1
            return call("node", host_receive, host, packet, link)

        def traced_register(host: Host, flow: Any,
                            handler: Callable[[Any], None]) -> None:
            layer = self.layer_of(handler)
            register_handler(host, flow,
                             lambda packet: call(layer, handler, packet))

        Host.receive = traced_receive
        Host.register_handler = traced_register

        # Queue discs: drop-tail on every port but a Cebinae bottleneck.
        self._enqueue(DropTailQueue, "queue")
        self._span(DropTailQueue, "dequeue", "queue")

        # Cebinae data plane and control plane.
        self._enqueue(CebinaeQueueDisc, "core")
        self._span(CebinaeQueueDisc, "dequeue", "core")
        self._span(CebinaeQueueDisc, "on_transmit", "core")
        self._span(CebinaeQueueDisc, "rotate", "core",
                   count="core.rotations")
        agent_init = CebinaeControlPlane.__init__

        def traced_agent_init(agent: CebinaeControlPlane, *args: Any,
                              **kwargs: Any) -> None:
            agent_init(agent, *args, **kwargs)
            self.agents.append(agent)
        CebinaeControlPlane.__init__ = traced_agent_init

        # Heavy hitters: the flow cache, its hash, and trace generation.
        self._span(CebinaeFlowCache, "update", "heavyhitter.cache",
                   count="heavyhitter.updates")
        stage_hash = hashpipe.stage_hash

        def traced_stage_hash(key: Any, salt: int) -> int:
            counts["heavyhitter.hash_calls"] += 1
            return stage_hash(key, salt)
        hashpipe.stage_hash = traced_stage_hash

        trace_init, trace_packets = SyntheticTrace.__init__, \
            SyntheticTrace.packets

        def traced_trace_init(trace: SyntheticTrace, *args: Any,
                              **kwargs: Any) -> None:
            counts["heavyhitter.trace_builds"] += 1
            call("heavyhitter.trace", trace_init, trace, *args, **kwargs)
            self.trace_keys.add((trace.duration_s, trace.flows_per_minute,
                                 trace.zipf_alpha, trace.link_rate_bps,
                                 trace.mean_packet_bytes, trace.seed))

        def traced_trace_packets(trace: SyntheticTrace) -> Any:
            packets = trace_packets(trace)
            while True:
                try:
                    packet = call("heavyhitter.trace", next, packets)
                except StopIteration:
                    return
                counts["heavyhitter.trace_pkts"] += 1
                yield packet

        SyntheticTrace.__init__ = traced_trace_init
        SyntheticTrace.packets = traced_trace_packets

        # TCP endpoints (their handlers are wrapped at registration).
        sender_init = TcpSender.__init__

        def traced_sender_init(sender: TcpSender, *args: Any,
                               **kwargs: Any) -> None:
            sender_init(sender, *args, **kwargs)
            self.senders.append(sender)
        TcpSender.__init__ = traced_sender_init

        # Goodput accounting.
        self._span(FlowMonitor, "on_delivered", "tracing")

        # The fluid tier, at the names the runner calls.
        for name in FLUID_FUNCTIONS:
            self._span(runner, name, "fluid")
