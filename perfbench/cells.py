"""The benchmark's workloads, built only through the public API.

Each :class:`Cell` stands up one deployment (``build_deployment``,
``start_*_instance``, ``add_cohort``), loads its records, and drives one
open-loop window through the deployment's ``LoadEngine``.  Every cohort is
tapped by :mod:`oplog`, so each arrival is recorded from arrival to
completion.

``scaleout_b8``  the canonical cell of ``repro.bench.openloop``: 8 shards on
                 8 hosts per region, US-E + US-W, eventual, memory tier,
                 YCSB-B uniform over 200 x 64 KB, 8000 ops/s offered.
``strong_a``     multi_primaries in US-E, US-W and EU-W (lock service in
                 US-E), write-through memcached -> EBS-SSD, YCSB-A uniform
                 over 1000 x 1 KB, 300 ops/s offered.
``ec_degraded``  EC(2,2) over the six sites of ``bench_ec_repair``, memory
                 tiers, 400 x 16 KB zipfian records written through a
                 client by 8 concurrent writers, 80/20 read/update at
                 120 ops/s from US-E and 80 from EU-W; the holder of
                 fragment 1 crashes a third of the way into the window
                 and stays down.
"""

from __future__ import annotations

import time

from repro import GlobalPolicySpec, RedundancySpec, RegionPlacement, build_deployment
from repro.bench.harness import preload_object
from repro.bench.openloop import preload_records, scaleout_workload
from repro.ec.protocol import decode_manifest, is_fragment_key
from repro.load.arrivals import constant_rate
from repro.load.cohort import CohortSpec
from repro.net.topology import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy, write_through_policy
from repro.workloads.ycsb import YcsbWorkload

import reference
from oplog import CohortTap, quantiles


class CheckFailed(AssertionError):
    """A correctness check on the run's outputs did not hold."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Cell:
    """One deployment plus one measured open-loop window."""

    #: simulated seconds of offered load per window
    duration = 5.0
    #: simulated seconds to drain stragglers and replication after it
    grace = 3.0
    #: equal parts of the window timed separately on the host
    slices = 10
    keep_payloads = False
    #: keys a known defect left diverged or torn, set by :meth:`check`
    defective = ()

    def __init__(self, seed: int, calibrate: bool = False):
        self.seed = seed
        self.calibrate = calibrate
        self.taps: list[CohortTap] = []
        #: wall seconds of a reference chunk run just before set-up
        self.setup_reference_s = reference.chunk() if calibrate else None
        started = time.perf_counter()
        self.dep = self.build()
        self.setup_s = time.perf_counter() - started
        self.window = None

    # -- construction -------------------------------------------------------
    def build(self):
        raise NotImplementedError

    def add_cohort(self, dep, name: str, region: str, rate: float,
                   workload: YcsbWorkload, **target):
        tap = CohortTap(dep.sim, name, workload, self.keep_payloads)
        rate_fn, peak = constant_rate(rate)
        spec = CohortSpec(name=name, region=region,
                          users=max(1, round(rate * 10)), rate_per_user=0.1,
                          workload=workload, rate_fn=rate_fn, peak_rate=peak,
                          chooser_factory=tap.chooser_factory,
                          **self.cohort_limits())
        tap.bind(dep.add_cohort(spec, **target))
        self.taps.append(tap)

    def cohort_limits(self) -> dict:
        return {}

    def before_window(self) -> None:
        """Hook: schedule faults relative to the window start."""

    # -- the measured window --------------------------------------------------
    def run(self) -> dict:
        self.before_window()
        self.run_window_only()
        self.finish_window()
        return self.window

    def run_window_only(self) -> dict:
        """Drive the open-loop window, host-timed, as ``LoadEngine.run``
        does (start, advance ``duration``, stop), in ``slices`` equal
        steps.  Each slice records its completed ops and wall time and,
        when calibrating, the wall time of a reference chunk run right
        after it (outside the slice's own timing)."""
        dep = self.dep
        sim = dep.sim
        engine = dep.load
        self._usd0 = dep.ledger.network_dollars()
        events0 = sim.events_processed
        started_sim = sim.now
        slices = []
        completed = 0
        wall = 0.0
        engine.start()
        end = sim.now + self.duration
        for k in range(1, self.slices + 1):
            started = time.perf_counter()
            sim.run(until=end if k == self.slices
                    else started_sim + self.duration * k / self.slices)
            spent = time.perf_counter() - started
            done = sum(c.stats.achieved for c in engine)
            slices.append((done - completed, spent,
                           reference.chunk() if self.calibrate else None))
            completed = done
            wall += spent
        engine.stop()
        self.window_end = sim.now
        self.window = {"wall_s": wall,
                       "sim_s": sim.now - started_sim,
                       "events": sim.events_processed - events0,
                       "slices": slices}
        return self.window

    def finish_window(self) -> None:
        """Close the per-op record and drain stragglers and replication."""
        for tap in self.taps:
            tap.close()
        sim = self.dep.sim
        sim.run(until=sim.now + self.grace)
        self.window["egress_usd"] = (self.dep.ledger.network_dollars()
                                     - self._usd0)

    def records(self):
        for tap in self.taps:
            yield from tap.records

    # -- correctness ----------------------------------------------------------
    def check(self) -> None:
        """Every check on the run's outputs; raises CheckFailed."""
        self.check_ledger()
        self.check_latency_stamps()
        self.check_percentile_agreement()
        self.check_replicas()
        self.check_acked_versions()

    def lost_records(self) -> list:
        """Acknowledged puts whose write the final state does not hold;
        counted as failed ops.  Only a cell with a known defect of that
        kind reports any; elsewhere a lost write fails a check."""
        return []

    def check_ledger(self) -> None:
        for tap in self.taps:
            stats = tap.cohort.stats
            require(stats.reconciles(),
                    f"{tap.name}: offered {stats.offered} != dispatched "
                    f"{stats.dispatched} + shed {stats.shed} + discarded "
                    f"{stats.discarded}")
            recs = tap.records
            require(len(recs) == stats.offered,
                    f"{tap.name}: {len(recs)} arrivals recorded, cohort "
                    f"offered {stats.offered}")
            shed = sum(1 for r in recs if r.error == "shed")
            discarded = sum(1 for r in recs if r.error == "discarded")
            require(shed == stats.shed and discarded == stats.discarded,
                    f"{tap.name}: recorded shed/discarded {shed}/{discarded}"
                    f" vs cohort {stats.shed}/{stats.discarded}")

    def check_latency_stamps(self) -> None:
        """The arrival-to-done latency behind the ``sim_*`` percentiles is
        stamped consistently: every completed op was dispatched no
        earlier than it arrived, its dispatch-to-done time equals the
        latency the client measured itself, and an op dispatched on
        arrival has exactly the client's latency."""
        on_arrival = 0
        for rec in self.records():
            if not rec.ok:
                continue
            require(rec.arrived <= rec.dispatched <= rec.done,
                    f"{rec.cohort}/{rec.key}: arrived {rec.arrived}, "
                    f"dispatched {rec.dispatched}, done {rec.done}")
            require(rec.done - rec.dispatched == rec.client_latency,
                    f"{rec.cohort}/{rec.key}: dispatch-to-done "
                    f"{rec.done - rec.dispatched} != client latency "
                    f"{rec.client_latency}")
            if rec.dispatched == rec.arrived:
                require(rec.latency == rec.client_latency,
                        f"{rec.cohort}/{rec.key}: dispatched on arrival, "
                        f"latency {rec.latency} != {rec.client_latency}")
                on_arrival += 1
        require(on_arrival > 0, "no op was dispatched on arrival")

    def check_percentile_agreement(self) -> None:
        """The per-op record agrees with the cohort's own latency
        histogram: the same number of samples per series, and the same
        p50 and p99 wherever the histogram still holds every sample."""
        compared = 0
        for tap in self.taps:
            for op in ("get", "put"):
                hist = self.dep.obs.metrics.histogram(
                    "load.latency", cohort=tap.name, op=op)
                mine = [r.client_latency for r in tap.records
                        if r.kind == op and r.ok]
                require(hist.count == len(mine),
                        f"{tap.name}/{op}: histogram counted {hist.count} "
                        f"ops, per-op record {len(mine)}")
                if not mine or hist.count != len(hist):
                    continue
                snap = hist.snapshot()
                ours = quantiles(mine)
                require(snap["p50"] == ours[50] and snap["p99"] == ours[99],
                        f"{tap.name}/{op}: histogram p50/p99 "
                        f"{snap['p50']}/{snap['p99']} over {hist.count} vs "
                        f"per-op record {ours[50]}/{ours[99]} over "
                        f"{len(mine)}")
                compared += 1
        require(compared > 0, "no latency series short enough to compare")

    def namespaces(self):
        return sorted(self.dep.wiera.tims)

    def live_rows(self, ns: str) -> dict:
        """instance id -> {key: (version, last_modified, size)} of the
        latest version of every key on each live replica (EC fragment keys
        excluded: each holder keeps different fragments)."""
        tim = self.dep.wiera.tim(ns)
        rows = {}
        for iid, rec in sorted(tim.instances.items()):
            inst = rec.instance
            if rec.down or inst.host.down:
                continue
            rows[iid] = {}
            for record in inst.meta.records():
                meta = record.latest()
                if meta is None or is_fragment_key(record.key):
                    continue
                rows[iid][record.key] = (meta.version, meta.last_modified,
                                         meta.size)
        return rows

    def diverged_keys(self) -> dict:
        """key -> namespace, for every key on which the live replicas of
        its namespace (shard) disagree after the drain."""
        diverged = {}
        for ns in self.namespaces():
            rows = self.live_rows(ns)
            require(len(rows) >= 2, f"{ns}: fewer than two live replicas")
            first = next(iter(rows.values()))
            for other in rows.values():
                for key in set(first) | set(other):
                    if first.get(key) != other.get(key):
                        diverged[key] = ns
        return diverged

    def check_replicas(self) -> None:
        """After the drain every live replica of each namespace (each
        shard) holds identical rows."""
        diverged = sorted(self.diverged_keys().items())
        require(not diverged, f"live replicas differ on {len(diverged)} "
                f"keys, e.g. {diverged[:3]}")

    def owner_namespace(self, key: str) -> str:
        return self.namespaces()[0]

    def check_acked_versions(self, skip=frozenset()) -> None:
        """Every acknowledged put version is present or superseded on
        every live replica (keys in ``skip`` aside)."""
        rows = {ns: self.live_rows(ns) for ns in self.namespaces()}
        for rec in self.records():
            if rec.kind != "put" or not rec.ok or rec.key in skip:
                continue
            for iid, keys in rows[self.owner_namespace(rec.key)].items():
                latest = keys.get(rec.key, (None,))[0]
                require(latest is not None and latest >= rec.version,
                        f"acked put {rec.key}=v{rec.version} lost on {iid} "
                        f"(latest {latest})")


class ScaleoutB8(Cell):
    duration = 5.0
    grace = 3.0

    def build(self):
        workload = scaleout_workload()
        regions = (US_EAST, US_WEST)
        dep = build_deployment(list(regions), seed=self.seed, shards=8,
                               servers_per_region=8, with_ledger=True)
        spec = GlobalPolicySpec(
            name="scale",
            placements=tuple(RegionPlacement(r, memory_only_policy())
                             for r in regions),
            consistency="eventual")
        self.handle = dep.start_sharded_instance("scale", spec)
        preload_records(dep, self.handle, workload)
        for region in regions:
            self.add_cohort(dep, f"ol-{region}", region, 4000.0, workload,
                            sharded=self.handle)
        return dep

    def cohort_limits(self) -> dict:
        return {"max_in_flight": 128, "queue_limit": 512}

    def namespaces(self):
        return sorted(self.handle.map.shards)

    def owner_namespace(self, key: str) -> str:
        return self.handle.map.owner(key)


class StrongA(Cell):
    duration = 25.0
    grace = 5.0
    REGIONS = (US_EAST, US_WEST, EU_WEST)

    def build(self):
        workload = YcsbWorkload.workload_a(record_count=1000, value_size=1024,
                                           distribution="uniform")
        dep = build_deployment(list(self.REGIONS), seed=self.seed,
                               with_ledger=True)
        spec = GlobalPolicySpec(
            name="strong",
            placements=tuple(RegionPlacement(r, write_through_policy())
                             for r in self.REGIONS),
            consistency="multi_primaries")
        instances = dep.start_wiera_instance("strong", spec)
        handles = [rec.instance
                   for rec in dep.tim("strong").instances.values()]
        data = bytes(workload.value_size)
        for i in range(workload.record_count):
            preload_object(handles, workload.key(i), data)
        for region in self.REGIONS:
            self.add_cohort(dep, f"a-{region}", region, 100.0, workload,
                            instances=instances)
        return dep


#: the six (region, provider) sites of benchmarks/bench_ec_repair.py
EC_SITES = ((US_EAST, "aws"), (US_WEST, "aws"), (EU_WEST, "aws"),
            (ASIA_EAST, "aws"), (US_EAST, "gcp"), (US_WEST, "gcp"))
EC_PROVIDERS = {US_EAST: ("aws", "gcp"), US_WEST: ("aws", "gcp"),
                EU_WEST: ("aws",), ASIA_EAST: ("aws",)}


class EcDegraded(Cell):
    """EC(2,2) with a holder crash mid-window.

    Two defects of the EC plane (NOTES.md, "Known defects" 2 and 3) can
    leave a key whose live replicas disagree, or whose last acknowledged
    version decodes to bytes no put wrote.  Such a key does not stop the
    run: the acknowledged puts of its last acked version are counted as
    failed ops (lost writes), as the lock defect's errors are on
    ``strong_a``.  Every other check stays strict.
    """

    duration = 15.0
    grace = 5.0
    keep_payloads = True
    #: concurrent writers of the load phase, all through one client
    loaders = 8

    def build(self):
        self.workload = YcsbWorkload(name="ec-80-20", record_count=400,
                                     value_size=16384, read_prop=0.8,
                                     update_prop=0.2,
                                     distribution="zipfian")
        dep = build_deployment([US_EAST, US_WEST, EU_WEST, ASIA_EAST],
                               providers=EC_PROVIDERS, seed=self.seed,
                               with_ledger=True)
        spec = GlobalPolicySpec(
            name="ec",
            placements=tuple(
                RegionPlacement(r, memory_only_policy(), provider=p)
                for r, p in EC_SITES),
            consistency="eventual",
            redundancy=RedundancySpec(k=2, m=2, repair_interval=5.0,
                                      repair_concurrency=8))
        self.instances = dep.start_wiera_instance("ec", spec)
        loader = dep.add_client(US_EAST, instances=self.instances,
                                name="loader")
        rng = dep.rng.stream("perfbench.load")
        self.loaded = {self.workload.key(i): self.workload.value(rng)
                       for i in range(self.workload.record_count)}

        def writer(keys):
            for key in keys:
                yield from loader.put(key, self.loaded[key])

        def load_phase():
            keys = list(self.loaded)
            yield dep.sim.all_of([
                dep.sim.process(writer(keys[i::self.loaders]),
                                name=f"load-{i}")
                for i in range(self.loaders)])
        dep.drive(load_phase(), name="load-phase")
        # Unequal rates keep the put median off the boundary between the
        # two coordinators' latency modes (NOTES.md, "Workloads").
        for region, rate in ((US_EAST, 120.0), (EU_WEST, 80.0)):
            self.add_cohort(dep, f"ec-{region}", region, rate,
                            self.workload, instances=self.instances)
        return dep

    def before_window(self) -> None:
        dep = self.dep
        coordinator = dep.instance("ec", US_EAST)
        manifest = decode_manifest(dep.drive(
            coordinator.read_version(self.workload.key(0),
                                     run_rules=False))[0])
        self.victim = dep.tim("ec").instances[manifest["frags"][1]]
        faults = dep.fault_schedule("perfbench")
        faults.crash(at=dep.sim.now + self.duration / 3,
                     host=self.victim.instance.host.name, duration=1e9)
        faults.start()

    def check(self) -> None:
        self.check_ledger()
        self.check_latency_stamps()
        self.check_percentile_agreement()
        diverged = self.diverged_keys()
        self.check_acked_versions(skip=diverged)
        self.check_final_repair()
        torn = self.check_decodes(skip=diverged)
        self.defective = sorted(set(diverged) | torn)

    def lost_records(self) -> list:
        """The acknowledged puts of the last acked version of every key
        left diverged or torn."""
        last = {}
        for rec in self.records():
            if rec.kind == "put" and rec.ok and rec.key in self.defective:
                version, recs = last.get(rec.key, (0, []))
                if rec.version > version:
                    last[rec.key] = (rec.version, [rec])
                elif rec.version == version:
                    recs.append(rec)
        return [rec for _, recs in last.values() for rec in recs]

    def check_final_repair(self) -> None:
        """A final repair round on every live instance leaves nothing
        unrepairable."""
        dep = self.dep
        tim = dep.tim("ec")
        live = [iid for iid, rec in sorted(tim.instances.items())
                if not (rec.down or rec.instance.host.down)]

        def unrepairable() -> float:
            return sum(dep.metric_total("ec.repair_unrepairable",
                                        instance=iid) for iid in live)
        before = unrepairable()
        for iid in live:
            repairer = tim.instances[iid].instance.protocol.repairer(iid)
            dep.drive(repairer.repair_round(), name=f"final-repair:{iid}")
        left = unrepairable() - before
        require(left == 0, f"final repair round left {left:g} objects "
                f"unrepairable")

    def check_decodes(self, skip) -> set:
        """Every key outside ``skip`` reads back at its last acknowledged
        version or later; returns the keys whose last acked version
        decodes to bytes no acknowledged put of that version wrote."""
        # Two coordinators can ack the same version of one key for
        # different writes; last-writer-wins must then keep one of them
        # whole.
        expected = {key: (1, [value]) for key, value in self.loaded.items()}
        for rec in self.records():
            if rec.kind != "put" or not rec.ok:
                continue
            version, payloads = expected[rec.key]
            if rec.version > version:
                expected[rec.key] = (rec.version, [rec.data])
            elif rec.version == version:
                payloads.append(rec.data)
        checker = self.dep.add_client(US_WEST, instances=self.instances,
                                      name="checker")
        torn = set()

        def read_back():
            for key in sorted(set(expected) - set(skip)):
                version, payloads = expected[key]
                result = yield from checker.get(key)
                require(result["version"] >= version,
                        f"{key}: read v{result['version']}, acked v{version}")
                if (result["version"] == version
                        and result["data"] not in payloads):
                    torn.add(key)
        self.dep.drive(read_back(), name="read-back")
        return torn


CELLS = {
    "scaleout_b8": ScaleoutB8,
    "strong_a": StrongA,
    "ec_degraded": EcDegraded,
}
