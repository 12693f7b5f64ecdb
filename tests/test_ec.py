"""Integration tests for the erasure-coded redundancy plane (repro.ec)."""

import pytest

from repro import (GlobalPolicySpec, RedundancySpec, RegionPlacement,
                   build_deployment)
from repro.ec.optimizer import RedundancyOptimizer
from repro.ec.protocol import decode_manifest, fragment_key
from repro.net import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy
from repro.workloads.ycsb import YcsbClient, YcsbWorkload

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)


def deploy(redundancy, regions=REGIONS, seed=7, **build_kwargs):
    dep = build_deployment(list(regions), seed=seed, **build_kwargs)
    spec = GlobalPolicySpec(
        name="ec",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in regions),
        consistency="eventual",
        redundancy=redundancy)
    instances = dep.start_wiera_instance("ec", spec)
    return dep, instances


class TestSpecValidation:
    def test_defaults_are_replication(self):
        spec = RedundancySpec()
        assert (spec.k, spec.m) == (1, 2)

    def test_invalid_schemes_rejected(self):
        with pytest.raises(ValueError):
            RedundancySpec(k=0)
        with pytest.raises(ValueError):
            RedundancySpec(m=-1)
        with pytest.raises(ValueError):
            RedundancySpec(k=200, m=100)
        with pytest.raises(ValueError):
            RedundancySpec(overrides=(("hot/", 0, 2),))
        with pytest.raises(ValueError):
            RedundancySpec(repair_interval=0.0)

    def test_needs_enough_placements(self):
        with pytest.raises(ValueError, match="needs 4 placements"):
            GlobalPolicySpec(
                name="x",
                placements=(RegionPlacement(US_EAST, memory_only_policy()),),
                redundancy=RedundancySpec(k=2, m=2))

    def test_incompatible_combinations(self):
        placements = tuple(RegionPlacement(r, memory_only_policy(),
                                           primary=(r == US_EAST))
                           for r in REGIONS)
        with pytest.raises(ValueError, match="primary_backup"):
            GlobalPolicySpec(name="x", placements=placements,
                             consistency="primary_backup",
                             redundancy=RedundancySpec())


class TestRedundancyNoneBitIdentical:
    def test_none_matches_default_run(self):
        """redundancy=None must construct nothing: a run with the explicit
        None and a run without the kwarg are event-for-event identical."""
        def one(explicit_none):
            regions = REGIONS[:2]
            spec_kwargs = {"redundancy": None} if explicit_none else {}
            dep = build_deployment(list(regions), seed=7)
            spec = GlobalPolicySpec(
                name="ec",
                placements=tuple(RegionPlacement(r, memory_only_policy())
                                 for r in regions),
                consistency="eventual", **spec_kwargs)
            instances = dep.start_wiera_instance("ec", spec)
            client = dep.add_client(US_EAST, instances=instances)

            def app():
                for i in range(10):
                    yield from client.put(f"k{i}", bytes([i]) * 64)
                    yield from client.get(f"k{i}")
            dep.drive(app())
            dep.sim.run(until=dep.sim.now + 5)
            return (dep.sim.now, dep.sim.events_processed,
                    dep.metric_total("net.messages"),
                    dep.metric_total("net.bytes"))

        assert one(False) == one(True)

    def test_no_ec_metrics_without_spec(self):
        dep, instances = deploy(None, regions=REGIONS[:2])
        client = dep.add_client(US_EAST, instances=instances)
        dep.drive(client.put("k", b"v"))
        assert dep.metric_total("ec.puts") == 0
        assert dep.metric_total("ec.fragments_written") == 0


class TestECDataPath:
    def test_round_trip_all_regions(self):
        dep, instances = deploy(RedundancySpec(k=2, m=2))
        payloads = {f"obj{i}": bytes([i]) * (50 + 31 * i) for i in range(6)}
        writer = dep.add_client(US_EAST, instances=instances)
        reader = dep.add_client(EU_WEST, instances=instances)

        def app():
            for key, value in payloads.items():
                yield from writer.put(key, value)
            for key, value in payloads.items():
                res = yield from reader.get(key)
                assert res["data"] == value
                assert not res["degraded"]
        dep.drive(app())
        assert dep.metric_total("ec.puts") == 6
        assert dep.metric_total("ec.fragments_written") == 24
        assert dep.metric_total("ec.degraded_reads") == 0

    def test_fragments_on_distinct_instances(self):
        dep, instances = deploy(RedundancySpec(k=2, m=2))
        client = dep.add_client(US_EAST, instances=instances)
        dep.drive(client.put("obj", b"z" * 400))
        tim = dep.tim("ec")
        inst = dep.instance("ec", US_EAST, "aws")
        data = dep.drive(inst.read_version("obj", run_rules=False))[0]
        manifest = decode_manifest(data)
        assert manifest["k"] == 2 and manifest["m"] == 2
        holders = list(manifest["frags"].values())
        assert len(holders) == 4 and len(set(holders)) == 4
        # each holder actually stores its fragment bytes
        for idx, iid in manifest["frags"].items():
            holder = tim.instances[iid].instance
            frag, _, _ = dep.drive(holder.read_version(
                fragment_key("obj", idx), run_rules=False))
            assert len(frag) == 200  # ceil(400 / k=2)

    def test_stored_bytes_shrink_vs_replication(self):
        """EC(2,2) stores n/k = 2x the payload; EC(1,2) (3x replication)
        stores 3x — the whole point of the plane."""
        def stored(spec):
            dep, instances = deploy(spec, seed=3)
            client = dep.add_client(US_EAST, instances=instances)

            def app():
                for i in range(8):
                    yield from client.put(f"k{i}", b"x" * 4096)
            dep.drive(app())
            tim = dep.tim("ec")
            total = 0
            for rec in tim.instances.values():
                for backend in rec.instance.tiers.values():
                    total += backend.used_bytes
            return total

        rep = stored(RedundancySpec(k=1, m=2))
        ec = stored(RedundancySpec(k=2, m=2))
        # manifests add a small constant per object; fragment payloads
        # dominate: 3x vs 2x within a 10% manifest allowance
        assert ec < rep * 0.75

    def test_scheme_override_per_prefix(self):
        dep, instances = deploy(
            RedundancySpec(k=2, m=2, overrides=(("hot/", 1, 2),)))
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            r1 = yield from client.put("hot/a", b"h" * 300)
            r2 = yield from client.put("cold/a", b"c" * 300)
            assert tuple(r1["scheme"]) == (1, 2)
            assert tuple(r2["scheme"]) == (2, 2)
            res = yield from client.get("hot/a")
            assert res["data"] == b"h" * 300
        dep.drive(app())

    def test_remove_cleans_fragments(self):
        dep, instances = deploy(RedundancySpec(k=2, m=2))
        client = dep.add_client(US_EAST, instances=instances)

        def app():
            yield from client.put("victim", b"v" * 256)
            yield from client.remove("victim")
        dep.drive(app())
        dep.sim.run(until=dep.sim.now + 2)  # let oneway removes land
        tim = dep.tim("ec")
        for rec in tim.instances.values():
            meta = rec.instance.meta
            assert meta.get_record("victim") is None
            for idx in range(4):
                assert meta.get_record(fragment_key("victim", idx)) is None

    def test_manifest_replicated_to_all_instances(self):
        """Every instance gets a manifest copy, so any of them can
        coordinate a read even if it holds no fragment itself."""
        dep, instances = deploy(RedundancySpec(k=2, m=2))
        client = dep.add_client(US_EAST, instances=instances)
        dep.drive(client.put("obj", b"q" * 128))
        # every instance got the manifest
        tim = dep.tim("ec")
        for rec in tim.instances.values():
            data = dep.drive(rec.instance.read_version(
                "obj", run_rules=False))[0]
            assert decode_manifest(data) is not None


class TestChaos:
    def test_single_host_crash_zero_acked_loss(self):
        """Acceptance: crash any single fragment host mid-run — every
        acked write stays readable (degraded), and repair re-establishes
        all n fragments afterwards."""
        dep, instances = deploy(
            RedundancySpec(k=2, m=2, repair_interval=2.0), seed=13)
        tim = dep.tim("ec")
        writer = dep.add_client(US_EAST, instances=instances)
        reader = dep.add_client(US_WEST, instances=instances)

        # background YCSB noise so the crash lands mid-traffic
        workload = YcsbWorkload.workload_a(record_count=20, value_size=128)
        noise = YcsbClient(dep.sim, dep.add_client(EU_WEST,
                                                   instances=instances),
                           workload, dep.rng.stream("noise"),
                           think_time=0.05)
        dep.drive(noise.load())
        noise.start()

        acked = {}

        def write(tag, count):
            def app():
                for i in range(count):
                    key, value = f"{tag}-{i}", bytes([i % 256]) * 200
                    yield from writer.put(key, value)
                    acked[key] = value
            dep.drive(app())

        write("pre", 5)

        # crash the holder of fragment 1 of the first object
        inst = dep.instance("ec", US_EAST, "aws")
        manifest = decode_manifest(dep.drive(
            inst.read_version("pre-0", run_rules=False))[0])
        victim_id = manifest["frags"][1]
        victim_host = tim.instances[victim_id].instance.host
        faults = dep.fault_schedule("chaos")
        faults.crash(at=dep.sim.now + 0.5, host=victim_host.name,
                     duration=6.0)
        faults.start()
        dep.sim.run(until=dep.sim.now + 1.0)  # inside the crash window

        # degraded writes succeed and degraded reads return correct bytes
        write("during", 3)

        def read_all(expect_clean=False):
            def app():
                for key, value in sorted(acked.items()):
                    res = yield from reader.get(key)
                    assert res["data"] == value, key
                    if expect_clean:
                        assert not res["degraded"], key
            dep.drive(app())

        read_all()
        assert dep.metric_total("ec.degraded_reads") > 0

        # restart + repair: converge, then verify full redundancy is back
        dep.sim.run(until=dep.sim.now + 20.0)
        noise.stop()
        assert dep.metric_total("ec.fragments_rebuilt") > 0
        read_all(expect_clean=True)
        for key in acked:
            data = dep.drive(inst.read_version(key, run_rules=False))[0]
            manifest = decode_manifest(data)
            n = manifest["k"] + manifest["m"]
            assert len(manifest["frags"]) == n, key
            for idx, iid in manifest["frags"].items():
                holder = tim.instances[iid].instance
                frag, _, _ = dep.drive(holder.read_version(
                    fragment_key(key, idx), run_rules=False))
                assert frag is not None


class TestOptimizer:
    RTT = {
        frozenset((US_EAST, US_WEST)): 0.08,
        frozenset((US_EAST, EU_WEST)): 0.09,
        frozenset((US_EAST, ASIA_EAST)): 0.23,
        frozenset((US_WEST, EU_WEST)): 0.15,
        frozenset((US_WEST, ASIA_EAST)): 0.12,
        frozenset((EU_WEST, ASIA_EAST)): 0.28,
    }

    def rtt(self, a, b):
        if a == b:
            return 0.0
        return self.RTT[frozenset((a, b))]

    def optimizer(self, **spec_kwargs):
        spec = RedundancySpec(**spec_kwargs)
        return RedundancyOptimizer(spec, REGIONS, self.rtt, tier="s3")

    def test_ec_beats_replication_on_storage(self):
        opt = self.optimizer()
        rep = opt.evaluate(1, 2, 1 << 20, 1000, 100, US_EAST)
        ec = opt.evaluate(2, 2, 1 << 20, 1000, 100, US_EAST)
        assert ec.durability == rep.durability == 2
        assert ec.storage_dollars < rep.storage_dollars
        assert ec.storage_dollars == pytest.approx(
            rep.storage_dollars * (4 / 2) / 3)

    def test_choose_prefers_cheap_ec_for_cold_data(self):
        """Rarely-read data: storage dominates, so EC's lower overhead
        beats replication despite remote fragment reads."""
        opt = self.optimizer(durability_floor=2, read_budget=0.5)
        plan = opt.choose(size=1 << 20, reads_per_month=1,
                          writes_per_month=1, reader_region=US_EAST)
        assert not plan.is_replication
        assert plan.chosen.durability >= 2

    def test_tight_read_budget_forces_replication(self):
        """With a budget below every inter-region RTT, only schemes whose
        k fragments sit in the reader region fit — i.e. k=1 replication
        with the data shard local."""
        opt = self.optimizer(durability_floor=1, read_budget=0.01)
        plan = opt.choose(size=4096, reads_per_month=1e6,
                          writes_per_month=10, reader_region=US_EAST)
        assert plan.is_replication
        assert plan.chosen.read_latency <= 0.01

    def test_durability_floor_filters(self):
        opt = self.optimizer(durability_floor=2)
        plan = opt.choose(size=4096, reads_per_month=100,
                          writes_per_month=10, reader_region=US_EAST)
        assert plan.chosen.durability >= 2
        assert all(e.durability >= 2 or e in plan.rejected
                   for e in (plan.chosen,) + plan.rejected)

    def test_plan_for_monitor(self):
        class FakeMonitor:
            def demand_by_region(self):
                return {US_WEST: 90, US_EAST: 10}

            def read_fraction(self):
                return 0.9

        plan = self.optimizer().plan_for_monitor(FakeMonitor(), 1 << 16,
                                                 elapsed=3600.0)
        assert plan.chosen.sites[0] == US_WEST  # reader-local first
