"""The inter-worker message bridge: cross-group RPC over barriers.

Each worker process rebuilds the *entire* deployment identically (same
seed, same construction order), then installs a :class:`WorkerBridge`
that masks it by ownership:

* an outgoing RPC whose **source host is foreign** parks forever on a
  pending event — the replicated "shadow" copies of background loops
  (TSM heartbeats, monitors) freeze at their first send and consume no
  further CPU, while the owning worker runs the real copy;
* an outgoing RPC whose **destination host is foreign** runs its
  sender-side half locally — reachability check, egress-link
  serialization, network accounting (the egress accounting handoff: the
  sender owns the source host's egress link, so bandwidth queueing is
  computed exactly once, on the worker that owns it) — then ships
  ``(arrival_time, message)`` to the destination's worker at the next
  barrier and parks until the reply entry fires its pending event.

On the receiving side, entries are injected with
:meth:`~repro.sim.kernel.Simulator.call_at` in deterministic
``(arrival_time, origin_worker, sequence)`` order; a served call runs
the destination handler at its exact single-process arrival time, then
transmits the reply bytes through the (locally owned) destination
host's egress link and ships the reply arrival back.  All latency
arithmetic happens on whichever worker owns the transmitting host, so a
bridged round trip reproduces the single-process timeline exactly —
divergence is limited to error-return timing under faults (documented
in DESIGN.md).

Wire entries are plain picklable tuples batched per destination worker
per barrier — the multiprocessing analog of the RPC ``call_batch``
framing: one pickled list per (worker, window), never one IPC message
per call.
"""

from __future__ import annotations

import pickle
from typing import Generator

from repro.sim.rpc import Message, RpcError, RpcNode, _payload_size


class WorkerBridge:
    """Ownership mask + cross-worker mailbox of one worker process."""

    def __init__(self, dep, plan, worker_id: int):
        self.dep = dep
        self.sim = dep.sim
        self.network = dep.network
        self.plan = plan
        self.worker_id = worker_id
        self._my_regions = frozenset(plan.regions_of(worker_id))
        self._outbox: dict[int, list] = {
            w: [] for w in range(plan.workers) if w != worker_id}
        self._pending: dict[int, object] = {}  # seq -> waiting Event
        self._seq = 0
        # Cheap liveness counters surfaced in the merged report.
        self.calls_bridged = 0
        self.oneways_bridged = 0
        self.served = 0

    def install(self) -> None:
        """Activate the mask.  Requires the restrictions the equivalence
        contract is proven under: no tracing (span trees can't span
        processes) and no autoscaler (live topology changes would need
        map-epoch coordination across workers)."""
        if self.network.bridge is not None:
            raise RuntimeError("a bridge is already installed")
        obs = self.dep.obs
        if obs is not None and obs.tracer.enabled:
            raise RuntimeError("parallel mode requires tracing disabled")
        if self.dep.autoscalers:
            raise RuntimeError("parallel mode does not support autoscalers")
        self.network.bridge = self

    # -- ownership ---------------------------------------------------------
    def owns(self, host) -> bool:
        return host.region in self._my_regions

    def local(self, src_host, dst_host) -> bool:
        """True when the call never leaves this worker (the unmodified
        single-process path in rpc.py)."""
        return (src_host.region in self._my_regions
                and dst_host.region in self._my_regions)

    # -- outbound (called from RpcNode._call/_oneway) ----------------------
    def outbound_call(self, src_node: RpcNode, dst_node: RpcNode,
                      msg: Message, reply_size) -> Generator:
        if not self.owns(src_node.host):
            # Foreign-origin shadow process: park forever, zero CPU.
            yield self.sim.event()
            raise AssertionError("parked event fired")  # pragma: no cover
        self.calls_bridged += 1
        latency = yield from self.network.send_to_wire(
            src_node.host, dst_node.host, msg.size)
        seq = self._seq
        self._seq += 1
        waiter = self.sim.event()
        self._pending[seq] = waiter
        dest = self.plan.owner_of_region(dst_node.host.region)
        self._outbox[dest].append(
            ("call", seq, self.worker_id, self.sim.now + latency,
             msg.src, msg.dst, msg.method, msg.args, msg.size,
             msg.sent_at, reply_size))
        ok, value = yield waiter
        if not ok:
            raise value
        return value

    def outbound_oneway(self, src_node: RpcNode, dst_node: RpcNode,
                        msg: Message) -> Generator:
        if not self.owns(src_node.host):
            yield self.sim.event()
            raise AssertionError("parked event fired")  # pragma: no cover
        self.oneways_bridged += 1
        try:
            latency = yield from self.network.send_to_wire(
                src_node.host, dst_node.host, msg.size)
        except Exception:
            # Mirror RpcNode._oneway: network failure is the sender's to
            # swallow and count.
            src_node._dropped.inc()
            return
        seq = self._seq
        self._seq += 1
        dest = self.plan.owner_of_region(dst_node.host.region)
        self._outbox[dest].append(
            ("oneway", seq, self.worker_id, self.sim.now + latency,
             msg.src, msg.dst, msg.method, msg.args, msg.size,
             msg.sent_at, None))

    # -- barrier exchange (called by the runner) ---------------------------
    def take_outboxes(self) -> dict[int, list]:
        """Drain and return this window's per-destination entry lists."""
        out = {w: box for w, box in self._outbox.items() if box}
        for w in out:
            self._outbox[w] = []
        return out

    def inject(self, entries: list) -> None:
        """Schedule inbound entries (from every peer, one barrier's worth)
        in deterministic (arrival, origin worker, sequence) order."""
        now = self.sim.now
        for entry in sorted(entries, key=lambda e: (e[3], e[2], e[1])):
            arrive = entry[3]
            if arrive < now:
                raise RuntimeError(
                    f"lookahead violation: arrival {arrive} < now {now}")
            if entry[0] == "reply":
                self.sim.call_at(arrive, self._fire_reply, entry)
            else:
                self.sim.call_at(arrive, self._spawn_serve, entry)

    def _fire_reply(self, entry) -> None:
        _, seq, _origin, _arrive, ok, value = entry
        waiter = self._pending.pop(seq)
        waiter.succeed((ok, value))

    def _spawn_serve(self, entry) -> None:
        self.sim.process(self._serve(entry),
                         name=f"par:serve:{entry[6]}")

    def _serve(self, entry) -> Generator:
        """Run a bridged request on the owning side, at its exact
        single-process arrival time, and ship the reply back."""
        (kind, seq, origin, _arrive, src_name, dst_name, method, args,
         size, sent_at, reply_size) = entry
        self.served += 1
        nodes = self.network.nodes
        dst_node = nodes[dst_name]
        src_node = nodes[src_name]  # shadow object: host/placement only
        msg = Message(src=src_name, dst=dst_name, method=method,
                      args=args, size=size, sent_at=sent_at)
        try:
            result = yield from dst_node._dispatch(msg)
        except Exception as exc:
            if kind == "call":
                self._reply_error(origin, seq, dst_node, src_node, exc)
            return
        if kind == "oneway":
            return
        wire = reply_size
        if wire is None:
            wire = RpcNode.ENVELOPE + _payload_size(result)
        try:
            latency = yield from self.network.send_to_wire(
                dst_node.host, src_node.host, wire)
        except Exception as exc:
            self._reply_error(origin, seq, dst_node, src_node, exc)
            return
        self._outbox[origin].append(
            ("reply", seq, self.worker_id, self.sim.now + latency,
             True, result))

    def _reply_error(self, origin: int, seq: int, dst_node, src_node,
                     exc: BaseException) -> None:
        """Error replies carry no payload: deliver after one propagation
        latency (single-process raises at the caller as soon as the
        failure surfaces; the barrier protocol can't ship anything faster
        than the lookahead floor, so this is the closest conservative
        timing — fault-path-only, see the DESIGN.md contract)."""
        arrive = self.sim.now + self.network.oneway_latency(
            dst_node.host, src_node.host)
        self._outbox[origin].append(
            ("reply", seq, self.worker_id, arrive, False,
             _portable_exc(exc)))


def _portable_exc(exc: BaseException) -> BaseException:
    """An exception that survives the pickle hop, preserving the type
    when possible (client failover dispatches on exception types)."""
    try:
        clone = pickle.loads(pickle.dumps(exc))
        if isinstance(clone, BaseException):
            return exc
    except Exception:
        pass
    return RpcError(f"{type(exc).__name__}: {exc}")
