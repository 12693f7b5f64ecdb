"""EC repair pipeline: outcome pin, window equivalence, races.

``repair_round`` runs one strategy: batched probing/checking, an
AnyOf-driven window of ``repair_concurrency`` in-flight object repairs,
holder-local ``reconstruct_fragment``, and batched ``manifest_remap``
deltas.  Every window width must land the stores in the state the
retired serial repairer reached; a wider window must get there in less
simulated time; and no width may resurrect a stale version when a write
races the repair.  The seed repairer's fingerprint is kept as constants:
a window of one must reach its outcome with no more time or traffic.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_deployment
from repro.core.global_policy import (GlobalPolicySpec, RedundancySpec,
                                      RegionPlacement)
from repro.ec.protocol import decode_manifest, fragment_key
from repro.net.topology import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)
#: six (region, provider) sites: n=4 fragment holders + two spares
SITES = ((US_EAST, "aws"), (US_WEST, "aws"), (EU_WEST, "aws"),
         (ASIA_EAST, "aws"), (US_EAST, "gcp"), (US_WEST, "gcp"))
PROVIDERS = {US_EAST: ("aws", "gcp"), US_WEST: ("aws", "gcp"),
             EU_WEST: ("aws",), ASIA_EAST: ("aws",)}

OBJECTS = 8
VALUE_SIZE = 4096

#: timing-free ``store_digest(detail=False)`` after one repair round of
#: ``_scenario`` (one fragment holder down).  Recorded from the serial
#: object-by-object repairer that preceded the pipeline, run on
#: ``_scenario(1)``; every window width must still land here.  The seed
#: fingerprint's two-round scenario (below) lands on the same digest.
SERIAL_STORE_DIGEST = ("fbfa8978c32a9959286541f7bceb14d7"
                       "1b2f40d19a45f13936100db2b8954c22")

#: the seed repairer's fingerprint of ``_scenario(1)`` followed by a
#: second (no-op) round and a read-back of every object, formerly kept
#: as a golden JSON file.  Its timing-free entries stay exact pins; the
#: simulated time and traffic are upper bounds the pipeline must meet.
SEED_FINGERPRINT = {
    "final_clock": 12.106394976333318,
    "events_processed": 2229,
    "rebuilt_after_round1": OBJECTS,
    "metric_totals": {"net.messages": 434, "net.bytes": 354672,
                      "ec.fragments_rebuilt": OBJECTS,
                      "ec.repair_rounds": 2},
}


def _spec(repair_concurrency: int = 1,
          repair_interval: float = 1000.0) -> GlobalPolicySpec:
    return GlobalPolicySpec(
        name="ec",
        placements=tuple(
            RegionPlacement(region, memory_only_policy(), provider=provider)
            for region, provider in SITES),
        consistency="eventual",
        redundancy=RedundancySpec(k=2, m=2, repair_interval=repair_interval,
                                  repair_concurrency=repair_concurrency))


def _written(repair_concurrency: int = 1, objects: int = OBJECTS,
             repair_interval: float = 1000.0):
    """Deploy the six sites, write ``objects`` payloads through a US-East
    client, and return the deployment with obj0's manifest."""
    dep = build_deployment(list(REGIONS), providers=PROVIDERS, seed=17)
    instances = dep.start_wiera_instance(
        "ec", _spec(repair_concurrency, repair_interval))
    client = dep.add_client(US_EAST, instances=instances)
    payloads = {f"obj{i}": bytes([i + 1]) * VALUE_SIZE
                for i in range(objects)}

    def write_phase():
        for key, value in payloads.items():
            yield from client.put(key, value)
    dep.drive(write_phase())

    coordinator = dep.instance("ec", US_EAST)
    manifest = decode_manifest(dep.drive(
        coordinator.read_version("obj0", run_rules=False))[0])
    return dep, dep.tim("ec"), client, payloads, manifest


# -- shared scenario --------------------------------------------------------

def _scenario(repair_concurrency: int, crash_slots=(1,), objects=OBJECTS):
    """Six sites with ``crash_slots`` fragment holders downed (left
    down), one driven repair round, and full state returned."""
    dep, tim, client, payloads, manifest = _written(repair_concurrency,
                                                    objects)
    faults = dep.fault_schedule("scenario")
    holders = set(manifest["frags"].values())
    victims = set()
    for slot in crash_slots:
        if slot == "spares":  # every instance not holding a fragment
            victims.update(iid for iid in tim.instances
                           if iid not in holders)
        else:
            victims.add(manifest["frags"][slot])
    for iid in sorted(victims):
        faults.crash(at=dep.sim.now + 0.25,
                     host=tim.instances[iid].instance.host.name,
                     duration=5000.0)
    faults.start()
    dep.sim.run(until=dep.sim.now + 0.5)

    leader_id = manifest["frags"][0]
    leader = tim.instances[leader_id].instance
    repairer = leader.protocol.repairer(leader_id)

    before = {"bytes": dep.metric_total("net.bytes"),
              "msgs": dep.metric_total("net.messages"),
              "clock": dep.sim.now}
    dep.drive(repairer.repair_round(), name="repair-round")
    repair = {"bytes": dep.metric_total("net.bytes") - before["bytes"],
              "msgs": dep.metric_total("net.messages") - before["msgs"],
              "seconds": dep.sim.now - before["clock"]}
    return dep, tim, client, repairer, payloads, manifest, repair


def _counters(dep) -> dict:
    return {name: dep.metric_total(f"ec.repair_{name}")
            for name in ("unrepairable", "push_failed", "errors",
                         "superseded")}


# -- seed fingerprint --------------------------------------------------------

def _seed_fingerprint_run() -> dict:
    """The seed fingerprint's scenario at ``repair_concurrency=1``: one
    holder down, two repair rounds, then every object read back."""
    dep, _, client, repairer, payloads, _, _ = _scenario(1)
    rebuilt_after_round1 = repairer.fragments_rebuilt
    dep.drive(repairer.repair_round(), name="repair-round-2")

    def read_phase():
        for key, value in payloads.items():
            res = yield from client.get(key)
            assert res["data"] == value, key
    dep.drive(read_phase())
    return {
        "final_clock": dep.sim.now,
        "events_processed": dep.sim.events_processed,
        "rebuilt_after_round1": rebuilt_after_round1,
        "metric_totals": {name: dep.metric_total(name)
                          for name in SEED_FINGERPRINT["metric_totals"]},
        "store_digest": dep.store_digest(detail=False),
    }


def test_serial_path_matches_seed_fingerprint():
    """``repair_concurrency=1`` reaches the seed repairer's outcome
    (rebuilt counts, round count, store state) on the seed scenario, in
    no more simulated time and with no more traffic than it took."""
    want = SEED_FINGERPRINT
    got = _seed_fingerprint_run()
    assert got["rebuilt_after_round1"] == want["rebuilt_after_round1"]
    for name in ("ec.fragments_rebuilt", "ec.repair_rounds"):
        assert got["metric_totals"][name] == want["metric_totals"][name], name
    assert got["store_digest"] == SERIAL_STORE_DIGEST
    assert got["final_clock"] <= want["final_clock"]
    for name in ("net.messages", "net.bytes"):
        assert got["metric_totals"][name] <= want["metric_totals"][name], name


def test_fixture_is_nontrivial():
    """The pinned scenario does real repair work: the seed run was
    substantial, and the pinned digest is not the as-written store."""
    want = SEED_FINGERPRINT
    assert want["rebuilt_after_round1"] == OBJECTS
    assert want["events_processed"] > 1000
    assert want["metric_totals"]["net.messages"] > 100
    assert want["metric_totals"]["ec.fragments_rebuilt"] == OBJECTS

    got = _seed_fingerprint_run()
    assert got["events_processed"] > 1000
    assert got["metric_totals"]["net.messages"] > 100
    dep_unrepaired = _written(1)[0]
    assert dep_unrepaired.store_digest(detail=False) != SERIAL_STORE_DIGEST


# -- window equivalence -----------------------------------------------------

@pytest.mark.parametrize("window", [1, 4, 8])
def test_window_reaches_serial_store(window):
    """Every window width rebuilds every lost fragment and lands the
    stores in the serial repairer's (timing-free) state."""
    dep, _, _, repairer, _, _, _ = _scenario(window)
    assert repairer.fragments_rebuilt == OBJECTS
    assert dep.store_digest(detail=False) == SERIAL_STORE_DIGEST


def test_pipelined_converges_to_serial_state():
    """Same crash, same objects: a window of 8 repairs strictly faster
    than a window of 1 with no more egress (both reach the serial state,
    see above), and every object reads back."""
    dep_s, _, client_s, _, payloads, _, repair_s = _scenario(1)
    dep_p, _, client_p, rep_p, _, _, repair_p = _scenario(8)

    for dep, client in ((dep_s, client_s), (dep_p, client_p)):
        def read_all(client=client):
            for key, value in payloads.items():
                res = yield from client.get(key)
                assert res["data"] == value, key
        dep.drive(read_all())

    assert repair_p["seconds"] < repair_s["seconds"]
    assert repair_p["bytes"] <= repair_s["bytes"]

    # A second round is a no-op (nothing left to fix).
    dep_p.drive(rep_p.repair_round(), name="verify-round")
    assert rep_p.fragments_rebuilt == OBJECTS


def test_pipelined_uses_holder_local_reconstruction_and_remap_deltas():
    """The repaired spare rebuilds fragments itself (bytes pulled by the
    target, not pushed by the leader) and every live peer's manifest
    copy learns the new holder via the remap delta."""
    dep, tim, _, repairer, _, manifest, _ = _scenario(8)
    crashed = manifest["frags"][1]
    for key in (f"obj{i}" for i in range(OBJECTS)):
        new_holders = set()
        for iid, rec in tim.instances.items():
            inst = rec.instance
            if inst.host.down:
                continue
            record = inst.meta.get_record(key)
            assert record is not None, (key, iid)
            raw = dep.drive(inst.read_version(key, run_rules=False))[0]
            doc = decode_manifest(raw)
            assert doc is not None, (key, iid)
            assert doc["frags"][1] != crashed, (
                f"{iid} still maps slot 1 of {key} to the crashed holder")
            new_holders.add(doc["frags"][1])
        # All live peers agree on the (single) new holder.
        assert len(new_holders) == 1, (key, new_holders)
        new_holder = new_holders.pop()
        # ...and that holder actually has readable rebuilt bytes.
        target = tim.instances[new_holder].instance
        frag = dep.drive(target.read_version(
            fragment_key(key, 1), run_rules=False))[0]
        assert len(frag) == VALUE_SIZE // 2
    # Holder-local reconstruction moved bytes INTO the target: the
    # leader's bytes-moved counter saw the target's pulls reported back.
    assert dep.metric_total("ec.repair_bytes_moved") > 0


# -- attributable failure counters (satellite) ------------------------------

@pytest.mark.parametrize("concurrency", [1, 8])
def test_unrepairable_counted_distinctly(concurrency):
    """Losing m+1 fragments is unrepairable: counted as such, not as a
    generic skip, and nothing is rebuilt."""
    dep, _, _, repairer, _, _, _ = _scenario(
        concurrency, crash_slots=(1, 2, 3))
    counters = _counters(dep)
    assert counters["unrepairable"] == OBJECTS
    assert counters["push_failed"] == 0
    assert counters["errors"] == 0
    assert repairer.fragments_rebuilt == 0
    assert dep.metric_total("ec.fragments_rebuilt") == 0


@pytest.mark.parametrize("concurrency", [1, 8])
def test_push_failed_counted_distinctly(concurrency):
    """A lost fragment with no live re-home target is a push failure,
    distinct from unrepairable (the data itself is recoverable)."""
    dep, _, _, repairer, _, manifest, _ = _scenario(
        concurrency, crash_slots=(1, "spares"))
    counters = _counters(dep)
    assert counters["push_failed"] == OBJECTS
    assert counters["unrepairable"] == 0
    assert counters["errors"] == 0
    assert repairer.fragments_rebuilt == 0


# -- repair racing a concurrent write (satellite) ---------------------------

@pytest.mark.parametrize("concurrency", [1, 8])
def test_version_bump_mid_repair_is_not_resurrected(concurrency):
    """A write racing the repair round must win: the acked new version
    survives, and the repairer abandons the stale version instead of
    reinstalling its fragments."""
    dep, tim, client, _, manifest = _written(concurrency)
    victim = tim.instances[manifest["frags"][1]].instance.host
    faults = dep.fault_schedule("race")
    faults.crash(at=dep.sim.now + 0.25, host=victim.name, duration=5000.0)
    faults.start()
    dep.sim.run(until=dep.sim.now + 0.5)

    leader_id = manifest["frags"][0]
    leader = tim.instances[leader_id].instance
    repairer = leader.protocol.repairer(leader_id)

    # Fire the overwrite at the exact moment the repairer starts on the
    # raced object — the tightest possible interleaving, deterministic
    # at every window width.
    raced_key = f"obj{OBJECTS - 1}"
    new_value = b"\xEE" * VALUE_SIZE
    put_done: dict = {}

    def racing_put():
        res = yield from client.put(raced_key, new_value)
        put_done["version"] = res["version"]
        put_done["at"] = dep.sim.now

    original = repairer._repair_object_pipelined

    def hooked(key, *args, **kwargs):
        if key == raced_key and "proc" not in put_done:
            put_done["proc"] = dep.sim.process(racing_put(),
                                               name="racing-put")
        result = yield from original(key, *args, **kwargs)
        return result
    repairer._repair_object_pipelined = hooked

    round_proc = dep.sim.process(repairer.repair_round(), name="race-round")
    while round_proc.is_alive or ("proc" in put_done
                                  and put_done["proc"].is_alive):
        dep.sim.run(until=dep.sim.now + 0.5)
    assert put_done.get("version") == 2, "racing write was never acked"
    t_put_done = put_done["at"]

    # The acked write survives end-to-end.
    res = dep.drive(client.get(raced_key))
    assert res["data"] == new_value
    assert res["version"] == 2

    # The repairer noticed the bump and walked away from v1.
    assert dep.metric_total("ec.repair_superseded") > 0

    # No stale reinstall: nowhere did a v1 fragment of the raced key get
    # (re)installed after the new version was acknowledged.
    for iid, rec in tim.instances.items():
        inst = rec.instance
        for idx in range(4):
            frecord = inst.meta.get_record(fragment_key(raced_key, idx))
            if frecord is None or not frecord.has_version(1):
                continue
            meta = frecord.versions[1]
            assert meta.last_modified <= t_put_done, (
                f"{iid} resurrected {raced_key}#ecf{idx} v1 at "
                f"{meta.last_modified} (write acked at {t_put_done})")
        # The manifest's latest version is the new write everywhere the
        # record exists on a live host.
        if not inst.host.down:
            record = inst.meta.get_record(raced_key)
            if record is not None:
                assert record.latest_version == 2, iid


# -- a crashed host runs no repair rounds -----------------------------------

def test_downed_holder_runs_no_repair_rounds():
    """While its host is down, an instance's repair loop neither runs a
    round nor counts one; the live instances keep repairing, and the
    downed one resumes after recovery."""
    dep, tim, _, _, manifest = _written(repair_interval=5.0)
    victim_id = manifest["frags"][1]
    leader_id = manifest["frags"][0]
    faults = dep.fault_schedule("down-holder")
    crash_at = dep.sim.now + 0.25
    faults.crash(at=crash_at,
                 host=tim.instances[victim_id].instance.host.name,
                 duration=40.0)
    faults.start()
    dep.sim.run(until=crash_at + 39.0)

    assert dep.metric_total("ec.repair_rounds", instance=victim_id) == 0
    assert dep.metric_total("ec.repair_unrepairable",
                            instance=victim_id) == 0
    assert dep.metric_total("ec.repair_rounds", instance=leader_id) > 0

    dep.sim.run(until=crash_at + 55.0)
    assert dep.metric_total("ec.repair_rounds", instance=victim_id) > 0
