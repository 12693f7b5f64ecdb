"""Batched data plane: batch RPCs, per-peer queue batching, and the
batching-off bit-identical contract.

The batch plane is strictly opt-in (``batch_bytes=0`` keeps every code
path bit-identical to the unbatched plane — pinned by the kernel golden
fixture in ``test_kernel_golden.py``); these tests exercise the opt-in
paths, including their behavior under faults.
"""

import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.core.consistency import ProtocolError, ReplicationQueue
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.net.network import HostDownError
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST)


@pytest.fixture
def world():
    dep = build_deployment(REGIONS, seed=29)
    spec = GlobalPolicySpec(
        name="q",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="eventual", queue_interval=1000.0)  # manual flushing
    instances = dep.start_wiera_instance("q", spec)
    return dep, instances


def make_update(instance, dep, key, payload):
    def put():
        version = yield from instance.local_put(key, payload)
        meta = instance.meta.get_record(key).versions[version]
        return {"key": key, "version": version,
                "last_modified": meta.last_modified,
                "origin": instance.instance_id, "data": payload}
    return dep.drive(put())


def poison_key(instance, key):
    """Make ``instance`` reject replica updates for ``key``."""
    orig = instance.node._handlers["replica_update"]

    def poisoned(msg):
        if msg.args["key"] == key:
            raise RuntimeError(f"poisoned entry {key!r}")
        result = yield from orig(msg)
        return result
    instance.node._handlers["replica_update"] = poisoned


class TestBatchRpc:
    def test_per_entry_results_in_order(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        u1 = make_update(east, dep, "k", b"v1")
        u2 = make_update(east, dep, "k", b"v2")
        entries = [("replica_update", u1, len(u1["data"]) + 512),
                   ("no_such_method", {}, 16),
                   ("replica_update", u2, len(u2["data"]) + 512)]

        def go():
            results = yield east.node.call_batch(west.node, entries)
            return results
        results = dep.drive(go())
        assert [r["ok"] for r in results] == [True, False, True]
        assert "NoSuchMethodError" in results[1]["error"]
        # Entries applied in order: the newest version wins at the peer.
        assert west.meta.get_record("k").latest_version == u2["version"]

    def test_batch_is_one_message_pair(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        entries = [("replica_update",
                    make_update(east, dep, f"k{i}", b"v"), 514)
                   for i in range(3)]
        before = dep.network.messages_sent

        def go():
            yield east.node.call_batch(west.node, entries)
        dep.drive(go())
        # One request + one reply, regardless of entry count.
        assert dep.network.messages_sent - before == 2

    def test_transport_failure_raises_whole_call(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        u = make_update(east, dep, "k", b"v")
        west.host.down = True

        def go():
            yield east.node.call_batch(
                west.node, [("replica_update", u, 513)])
        with pytest.raises(HostDownError):
            dep.drive(go())


class TestBatchedQueue:
    def _queue(self, instance, **kwargs):
        kwargs.setdefault("interval", 1000.0)
        kwargs.setdefault("batch_bytes", 1.0)
        return ReplicationQueue(instance, **kwargs)

    def test_flush_ships_one_batch_per_peer(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = self._queue(east)
        for i in range(3):
            queue.enqueue(make_update(east, dep, f"k{i}", b"payload"))

        def flush():
            yield from queue.flush()
        dep.drive(flush())
        assert queue.batches == 2           # one per peer
        assert queue.updates_sent == 6      # 3 entries x 2 peers
        for region in (US_WEST, EU_WEST):
            peer = dep.instance("q", region)
            for i in range(3):
                assert peer.meta.get_record(f"k{i}") is not None

    def test_poisoned_entry_requeues_alone(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        eu = dep.instance("q", EU_WEST)
        poison_key(eu, "bad")
        queue = self._queue(east)
        queue.enqueue(make_update(east, dep, "good", b"g"))
        queue.enqueue(make_update(east, dep, "bad", b"b"))

        def flush():
            yield from queue.flush()
        dep.drive(flush())
        # The batch landed; only the rejected entry is requeued for EU.
        assert eu.meta.get_record("good") is not None
        assert eu.meta.get_record("bad") is None
        assert queue.backlog_size() == 1
        assert queue.send_failures == 1
        assert queue._outstanding == {(eu.instance_id, "bad")}
        # The healthy peer got both; nothing requeued for it.
        west = dep.instance("q", US_WEST)
        assert west.meta.get_record("bad") is not None

    def test_peer_crash_marks_every_entry_outstanding(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        eu = dep.instance("q", EU_WEST)
        eu.host.down = True
        queue = self._queue(east)
        for i in range(3):
            queue.enqueue(make_update(east, dep, f"k{i}", b"v"))

        def flush():
            yield from queue.flush()
        dep.drive(flush())
        # Transport failure: nothing was acked, all entries outstanding.
        assert queue.backlog_size() == 3
        assert queue.outstanding_failures == 3
        assert queue._outstanding == {(eu.instance_id, f"k{i}")
                                      for i in range(3)}
        # ...and the healthy peer is unaffected.
        west = dep.instance("q", US_WEST)
        for i in range(3):
            assert west.meta.get_record(f"k{i}") is not None
        # Recovery: the backlog retries as one batch and converges.
        eu.host.down = False
        dep.sim.run(until=dep.sim.now + 10.0)
        dep.drive(flush())
        assert queue.backlog_size() == 0
        assert queue.outstanding_failures == 0
        assert queue.retries == 3
        for i in range(3):
            assert eu.meta.get_record(f"k{i}") is not None

    def test_size_trigger_flushes_early(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = self._queue(east, interval=1000.0, batch_bytes=256.0)
        queue.start()
        dep.sim.run(until=dep.sim.now + 0.01)   # let the loop arm the kick
        queue.enqueue(make_update(east, dep, "k", b"x" * 512))
        dep.sim.run(until=dep.sim.now + 5.0)    # far short of the interval
        queue.stop()
        assert queue.flushes >= 1
        assert dep.instance("q", US_WEST).meta.get_record("k") is not None

    def test_below_threshold_waits_for_timer(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        queue = self._queue(east, interval=1000.0, batch_bytes=1e9)
        queue.start()
        dep.sim.run(until=dep.sim.now + 0.01)
        queue.enqueue(make_update(east, dep, "k", b"small"))
        dep.sim.run(until=dep.sim.now + 5.0)
        queue.stop()
        assert queue.flushes == 0
        assert len(queue.pending) == 1

    def test_reap_forgets_departed_peer_retry_state(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west_id = dep.instance("q", US_WEST).instance_id
        queue = self._queue(east)
        queue._attempts["ghost"] = 3
        queue._retry_at["ghost"] = 99.0
        queue._attempts[west_id] = 1
        queue._retry_at[west_id] = dep.sim.now + 60.0

        def flush():
            yield from queue.flush()
        dep.drive(flush())
        # The departed peer's bookkeeping is gone; a live peer's remains.
        assert "ghost" not in queue._attempts
        assert "ghost" not in queue._retry_at
        assert queue._attempts[west_id] == 1


class TestBatchedBroadcast:
    def _world(self, batch_bytes):
        dep = build_deployment(REGIONS, seed=7)
        spec = GlobalPolicySpec(
            name="mp",
            placements=tuple(RegionPlacement(r, memory_only_policy())
                             for r in REGIONS),
            consistency="multi_primaries", batch_bytes=batch_bytes)
        instances = dep.start_wiera_instance("mp", spec)
        return dep, instances

    def test_sync_broadcast_converges_all_replicas(self):
        dep, instances = self._world(batch_bytes=1.0)
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            yield from client.put("k", b"strong")
        dep.drive(app())
        for region in REGIONS:
            record = dep.instance("mp", region).meta.get_record("k")
            assert record is not None and record.latest_version >= 1

    def test_sync_broadcast_raises_on_rejected_entry(self):
        dep, _ = self._world(batch_bytes=1.0)
        east = dep.instance("mp", US_EAST)
        poison_key(dep.instance("mp", EU_WEST), "k")
        u = {"key": "k", "version": 1, "last_modified": 0.0,
             "origin": east.instance_id, "data": b"v"}

        def go():
            yield from east.protocol.broadcast_sync(
                east, "replica_update", u, size=513)
        with pytest.raises(ProtocolError):
            dep.drive(go())


class TestBatchedMigration:
    def test_migrate_keys_ships_size_bounded_batches(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        for i in range(5):
            make_update(east, dep, f"k{i}", b"x" * 100)
        before = dep.network.messages_sent

        def go():
            result = yield east.node.call(
                east.node, "ctl_migrate_keys",
                {"keys": [f"k{i}" for i in range(5)],
                 "dest": (west.node,),
                 # two entries (~612 B each) per batch -> 3 batches
                 "batch_bytes": 1300.0})
            return result
        result = dep.drive(go())
        assert sorted(result["moved"]) == [f"k{i}" for i in range(5)]
        assert result["failed"] == []
        for i in range(5):
            assert west.meta.get_record(f"k{i}") is not None
        # loopback ctl call (free) + 3 batch request/reply pairs
        assert dep.network.messages_sent - before <= 8

    def test_migrate_batch_transport_failure_fails_those_keys(self, world):
        dep, _ = world
        east = dep.instance("q", US_EAST)
        west = dep.instance("q", US_WEST)
        for i in range(3):
            make_update(east, dep, f"k{i}", b"x")
        west.host.down = True

        def go():
            result = yield east.node.call(
                east.node, "ctl_migrate_keys",
                {"keys": [f"k{i}" for i in range(3)],
                 "dest": (west.node,), "batch_bytes": 1e6})
            return result
        result = dep.drive(go())
        assert result["moved"] == []
        assert sorted(result["failed"]) == [f"k{i}" for i in range(3)]

    def test_rebalance_bulk_copy_uses_batches_and_loses_nothing(self):
        from repro.shard.rebalance import Rebalancer
        from repro.tiera.policy import write_back_policy
        dep = build_deployment((US_EAST, US_WEST), seed=7, shards=3)
        spec = GlobalPolicySpec(
            name="sh",
            placements=(RegionPlacement(US_EAST, write_back_policy()),
                        RegionPlacement(US_WEST, write_back_policy())),
            consistency="multi_primaries", batch_bytes=4096.0)
        handle = dep.start_sharded_instance("sh", spec)
        client = dep.add_client(US_WEST, sharded=handle)

        def load():
            for i in range(40):
                yield from client.put(f"user{i}", b"x" * 64)
        dep.drive(load())
        mgr = dep.wiera.shard_manager("sh")
        rebalancer = Rebalancer(mgr)
        result = dep.drive(rebalancer.add_shard(), name="rebalance")
        assert result["shard"] == "sh-s3"
        assert rebalancer.moved_keys

        def verify():
            for i in range(40):
                got = yield from client.get(f"user{i}")
                assert got["data"]
        dep.drive(verify())


class TestBatchingOffIsSeedPath:
    """``batch_bytes=0`` must take exactly the unbatched code paths.

    The heavyweight pin is the kernel golden fixture (sharded YCSB-A under
    faults, ``test_kernel_golden.py``), which fails on any default-path
    behavior change.  Here we additionally pin that an explicit 0 equals
    the default, and that the batched plane itself is deterministic.
    """

    def _run(self, batch_bytes):
        dep = build_deployment((US_EAST, US_WEST), seed=33)
        spec = GlobalPolicySpec(
            name="det",
            placements=tuple(RegionPlacement(r, memory_only_policy())
                             for r in (US_EAST, US_WEST)),
            consistency="eventual", queue_interval=0.5,
            batch_bytes=batch_bytes)
        instances = dep.start_wiera_instance("det", spec)
        client = dep.add_client(US_WEST, instances=instances)

        def app():
            out = []
            for i in range(6):
                result = yield from client.put(f"k{i % 3}", b"v" * 64)
                out.append(result["latency"])
            return out
        latencies = dep.drive(app())
        dep.sim.run(until=dep.sim.now + 5.0)  # let the queues flush
        digest = {
            (region, record.key): record.latest_version
            for region in (US_EAST, US_WEST)
            for record in dep.instance("det", region).meta.records()}
        return latencies, digest, dep.sim.now, dep.sim.events_processed

    def test_explicit_zero_is_bit_identical_to_default(self):
        assert self._run(batch_bytes=0.0) == self._run(batch_bytes=0)

    def test_batched_plane_is_deterministic(self):
        assert self._run(batch_bytes=1.0) == self._run(batch_bytes=1.0)

    def test_batched_and_unbatched_converge_to_same_store(self):
        _, off_digest, _, _ = self._run(batch_bytes=0.0)
        _, on_digest, _, _ = self._run(batch_bytes=1.0)
        assert on_digest == off_digest


class TestNetworkDynamicsPruning:
    def test_expired_host_injection_is_pruned(self):
        dep = build_deployment((US_EAST,), seed=1)
        net = dep.network
        name = f"tsrv-host-{US_EAST}-aws"
        host = net.host(name)
        net.inject_host_delay(name, 0.1, duration=5.0)
        assert net.injected_extra(host, host) > 0
        dep.sim.run(until=dep.sim.now + 6.0)
        assert net.injected_extra(host, host) == 0.0
        assert name not in net._host_injections

    def test_expired_pair_injection_is_pruned(self):
        dep = build_deployment((US_EAST, US_WEST), seed=1)
        net = dep.network
        src = net.host(f"tsrv-host-{US_EAST}-aws")
        dst = net.host(f"tsrv-host-{US_WEST}-aws")
        net.inject_pair_delay(US_EAST, US_WEST, 0.2, duration=5.0)
        assert net.injected_extra(src, dst) == pytest.approx(0.2)
        dep.sim.run(until=dep.sim.now + 6.0)
        assert net.injected_extra(src, dst) == 0.0
        assert frozenset((US_EAST, US_WEST)) not in net._pair_injections

    def test_elapsed_partition_is_reaped(self):
        dep = build_deployment((US_EAST, US_WEST), seed=1)
        net = dep.network
        net.partition(US_EAST, US_WEST, duration=2.0)
        assert net.is_partitioned(US_EAST, US_WEST)
        dep.sim.run(until=dep.sim.now + 3.0)
        assert not net.is_partitioned(US_EAST, US_WEST)
        assert frozenset((US_EAST, US_WEST)) not in net._partitions
