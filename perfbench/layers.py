"""Per-layer attribution for the traced run, measured from outside.

Two instruments, both installed only for the traced window:

* a ``cProfile`` profile of the window, whose self time is aggregated by
  ``repro.<package>`` (``sim.rpc`` split out of ``sim``).  Time spent in
  builtins, the standard library and numpy is charged to the repro
  function that called it, in proportion to the calls it made;
* :class:`Probes`, which wrap public functions of single layers (the
  lock service's ``acquire`` handler, storage reads and writes, the
  network's egress step, replication broadcasts) to count their calls
  and time them in simulated seconds.

Call counts of plain functions (processes created, RPCs issued, ring
lookups, codec calls) come from the profile itself.
"""

from __future__ import annotations

import gc
import pstats
import time
from pathlib import PurePath

from repro.coordination.lock_service import LockService
from repro.core.consistency.base import GlobalProtocol
from repro.ec import codec as ec_codec
from repro.ec.codec import Codec
from repro.shard.ring import HashRing
from repro.sim.kernel import Process
from repro.sim.rpc import RpcNode
from repro.storage.backend import StorageBackend

from oplog import quantiles

#: packages reported as layers; everything else is "other"
LAYERS = ("sim", "sim.rpc", "net", "storage", "tiera", "core",
          "coordination", "shard", "load", "workloads", "ec", "obs")


def layer_of(filename: str):
    """The repro layer a source file belongs to, "other" for repro code
    outside the listed layers, None for code that is not repro's."""
    parts = PurePath(filename).parts
    if "repro" not in parts or parts[-1] == "<string>":
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    rest = parts[idx + 1:]
    if len(rest) < 2:
        return "other"
    if rest[0] == "sim" and rest[1] == "rpc.py":
        return "sim.rpc"
    return rest[0] if rest[0] in LAYERS else "other"


def self_time_by_layer(stats: dict) -> dict:
    """Self seconds per layer from a ``pstats`` table.

    Functions outside repro (builtins, stdlib, numpy) pass their self
    time up to their callers, split by the time spent on behalf of each
    caller, until it reaches a repro function or eight hops.
    """
    totals = {name: 0.0 for name in LAYERS + ("other",)}
    pending: dict = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(func[0])
        if "perfbench" in PurePath(func[0]).parts:
            totals["other"] += tt
        elif layer is not None:
            totals[layer] += tt
        else:
            pending[func] = pending.get(func, 0.0) + tt
    for _hop in range(8):
        if not pending:
            break
        nxt: dict = {}
        for func, amount in pending.items():
            callers = stats[func][4]
            weights = {c: v[2] for c, v in callers.items() if v[2] > 0}
            total = sum(weights.values())
            if total <= 0:
                totals["other"] += amount
                continue
            for caller, weight in weights.items():
                share = amount * weight / total
                layer = layer_of(caller[0])
                if "perfbench" in PurePath(caller[0]).parts:
                    totals["other"] += share
                elif layer is not None:
                    totals[layer] += share
                else:
                    nxt[caller] = nxt.get(caller, 0.0) + share
        pending = nxt
    totals["other"] += sum(pending.values())
    return totals


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def ncalls(stats: dict, *fns) -> int:
    return sum(stats.get(_code_key(fn), (0, 0))[1] for fn in fns)


class Probes:
    """Class-level wrappers around single-layer entry points.

    Install before the deployment is built (the lock service registers
    its handler at construction) and remove after the window.
    """

    def __init__(self):
        self.sim = None
        self.lock_waits: list[float] = []
        self.acquires = 0
        self.reentrant = 0
        self.storage_service: list[float] = []
        self.transmit_queue: list[float] = []
        self.peer_updates = 0
        self.recording = False
        self._saved: list = []

    def _patch(self, owner, name, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        probes = self
        acquire = LockService.rpc_acquire

        def rpc_acquire(service, msg):
            started = service.sim.now
            result = yield from acquire(service, msg)
            if probes.recording:
                probes.acquires += 1
                probes.lock_waits.append(service.sim.now - started)
                if result.get("reentrant"):
                    probes.reentrant += 1
            return result
        self._patch(LockService, "rpc_acquire", rpc_acquire)

        for op in ("read", "write"):
            inner = StorageBackend.__dict__[op]

            def timed(backend, key, *args, _inner=inner):
                started = backend.sim.now
                result = yield from _inner(backend, key, *args)
                if probes.recording:
                    probes.storage_service.append(backend.sim.now - started)
                return result
            self._patch(StorageBackend, op, timed)

        for name in ("broadcast_sync", "broadcast_async"):
            inner = GlobalProtocol.__dict__[name]

            def counted(protocol, instance, *args, _inner=inner, **kw):
                if probes.recording:
                    probes.peer_updates += len(instance.peers)
                return _inner(protocol, instance, *args, **kw)
            self._patch(GlobalProtocol, name, counted)

    def attach_network(self, network) -> None:
        """Time each transfer's wait for its sender's egress link."""
        send = network.send_to_wire
        probes = self

        def send_to_wire(src, dst, nbytes):
            started = network.sim.now
            latency = yield from send(src, dst, nbytes)
            if probes.recording and src is not dst:
                busy = src.egress.transmission_time(nbytes)
                probes.transmit_queue.append(
                    max(0.0, network.sim.now - started - busy))
            return latency
        network.send_to_wire = send_to_wire

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class GcTimer:
    """Host seconds spent in the cyclic garbage collector."""

    def __init__(self):
        self.seconds = 0.0
        self._started = None

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def _p(values: list[float], q: int) -> float:
    return quantiles(values, (q,))[q] if values else 0.0


def layer_table(profile, probes: Probes, counters: dict, ops: dict,
                gc_s: float, cache: dict, overhead: float) -> dict:
    """Every per-layer metric of one traced window, as name -> value."""
    stats = pstats.Stats(profile).stats
    self_time = self_time_by_layer(stats)
    total = sum(self_time.values()) or 1.0
    done, puts, gets = ops["done"], ops["puts"], ops["gets"]

    def per(n, d):
        return n / d if d else 0.0

    m = {f"{layer}.host_share": self_time[layer] / total
         for layer in LAYERS + ("other",)}
    m["sim.events_per_op"] = per(counters["events"], done)
    m["sim.processes_per_op"] = per(ncalls(stats, Process.__init__), done)
    m["sim.rpc.calls_per_op"] = per(
        ncalls(stats, RpcNode.call, RpcNode.call_batch, RpcNode.send_oneway,
               RpcNode.send_oneway_batch), done)
    m["net.messages_per_op"] = per(counters["net.messages"], done)
    m["net.bytes_per_op"] = per(counters["net.bytes"], done)
    m["net.transmit_queue_ms_p99"] = _p(probes.transmit_queue, 99) * 1e3
    m["storage.ops_per_op"] = per(counters["storage.ops"], done)
    m["storage.service_ms_p50"] = _p(probes.storage_service, 50) * 1e3
    m["core.peer_updates_per_put"] = per(probes.peer_updates, puts)
    m["core.failovers"] = counters["client.failovers"]
    m["coordination.lock_wait_ms_p99"] = _p(probes.lock_waits, 99) * 1e3
    m["coordination.acquires_per_put"] = per(probes.acquires, puts)
    m["coordination.reentrant_grants"] = probes.reentrant
    m["shard.lookups_per_op"] = per(ncalls(stats, HashRing.owner), done)
    m["shard.redirects"] = counters["router.wrong_shard"]
    m["load.queue_wait_ms_p99"] = _p(ops["queue_waits"], 99) * 1e3
    m["load.shed_frac"] = per(ops["shed"], ops["offered"])
    m["ec.encode_calls_per_put"] = per(ncalls(stats, Codec.encode), puts)
    m["ec.decode_calls_per_get"] = per(ncalls(stats, Codec.decode), gets)
    looked_up = cache["hits"] + cache["misses"]
    m["ec.inv_cache_hit_rate"] = per(cache["hits"], looked_up)
    m["ec.degraded_read_frac"] = per(counters["ec.degraded_reads"],
                                     counters["ec.gets"])
    m["ec.fragments_rebuilt"] = counters["ec.fragments_rebuilt"]
    m["ec.repair_bytes_per_fragment"] = per(
        counters["ec.repair_bytes_moved"], counters["ec.fragments_rebuilt"])
    m["ec.repair_superseded"] = counters["ec.repair_superseded"]
    m["py.gc_s"] = gc_s
    m["trace.overhead"] = overhead
    return m


#: registry counters whose window deltas feed the table
COUNTERS = ("net.messages", "net.bytes", "storage.ops", "client.failovers",
            "router.wrong_shard", "ec.gets", "ec.degraded_reads",
            "ec.fragments_rebuilt", "ec.repair_bytes_moved",
            "ec.repair_superseded")


def counter_totals(dep) -> dict:
    totals = {name: dep.metric_total(name) for name in COUNTERS}
    totals["events"] = dep.sim.events_processed
    return totals


def cache_stats() -> dict:
    return dict(ec_codec._inv_cache_stats)
