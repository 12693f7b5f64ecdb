"""EC crash-recovery repair: pipeline window vs frozen serial reference.

Writes N EC(2,2) objects across a 6-site deployment, crashes the holder
of fragment 1 (wiping its memory tier) and leaves it down, then drives
exactly one repair round on the repair leader with a pipeline window of
1 and of 8 (``repair_concurrency``): per-round batched probes and
``check_readable`` envelopes, an AnyOf-driven window of in-flight
objects, holder-local ``reconstruct_fragment`` (the target pulls only
what it needs and rebuilds via the codec's target-row fast path), and
per-round batched ``manifest_remap`` deltas.

Each cell reports repair completion time (simulated seconds for the
round), repair egress (``net.bytes`` delta across the round), message
count, fragments rebuilt, and the codec's decode-matrix cache hit rate.
Correctness is asserted inside the cell: every fragment slot readable
after the round, every object decodes to its original payload, and the
second (verify) round is a no-op.  Both cells must land on the store
digest in ``SERIAL_REFERENCE``: the figures of the serial
object-by-object repairer this pipeline replaced, measured on this
scenario before it was retired (simulated, so host-independent).

Output goes to ``results/BENCH_ec_repair.json``; the checked-in file
carries a ``baseline`` block.  ``--check`` fails the run when window 8
stops being >= MIN_SPEEDUP faster or >= MIN_EGRESS_REDUCTION cheaper on
repair egress than the serial reference; ``--rebaseline`` re-pins the
baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.harness import build_deployment
from repro.core.global_policy import (GlobalPolicySpec, RedundancySpec,
                                      RegionPlacement)
from repro.ec import codec
from repro.ec.protocol import decode_manifest
from repro.net.topology import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

RESULTS = Path(__file__).resolve().parent.parent / "results"
OUT_PATH = RESULTS / "BENCH_ec_repair.json"

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)
#: six (region, provider) sites: n=4 fragment holders + two spares the
#: lost fragments are re-homed onto
SITES = ((US_EAST, "aws"), (US_WEST, "aws"), (EU_WEST, "aws"),
         (ASIA_EAST, "aws"), (US_EAST, "gcp"), (US_WEST, "gcp"))
PROVIDERS = {US_EAST: ("aws", "gcp"), US_WEST: ("aws", "gcp"),
             EU_WEST: ("aws",), ASIA_EAST: ("aws",)}

K, M = 2, 2
VALUE_SIZE = 4096
PIPELINE_WIDTH = 8

#: --check fails unless the window-8 round completes at least this many
#: times faster (simulated seconds) than the serial reference
MIN_SPEEDUP = 3.0
#: --check fails unless the window-8 round moves at least this fraction
#: fewer bytes than the serial reference
MIN_EGRESS_REDUCTION = 0.40

#: the retired serial repairer's round on this scenario, keyed by quick
#: mode (16 objects) and full mode (48 objects), seed 17
SERIAL_REFERENCE = {
    True: {
        "objects": 16,
        "repair_seconds": 11.428732,
        "repair_egress_bytes": 200576,
        "repair_messages": 287,
        "store_digest": ("c9bd8740aecdaade7a14ce52f32b7138"
                         "bdb438e329b9640afe8243041a7c837e"),
    },
    False: {
        "objects": 48,
        "repair_seconds": 33.500815,
        "repair_egress_bytes": 594432,
        "repair_messages": 836,
        "store_digest": ("6f341611f185f07c62fc8d0dc35ab92b"
                         "ff39954e8be2242731926ab0945f25ff"),
    },
}


def _cell(repair_concurrency: int, objects: int, seed: int) -> dict:
    dep = build_deployment(list(REGIONS), providers=PROVIDERS, seed=seed)
    spec = GlobalPolicySpec(
        name="ec",
        placements=tuple(
            RegionPlacement(region, memory_only_policy(), provider=provider)
            for region, provider in SITES),
        consistency="eventual",
        redundancy=RedundancySpec(k=K, m=M, repair_interval=100000.0,
                                  repair_concurrency=repair_concurrency))
    instances = dep.start_wiera_instance("ec", spec)
    tim = dep.tim("ec")
    client = dep.add_client(US_EAST, instances=instances)
    payloads = {f"obj{i}": bytes([(i % 255) + 1]) * VALUE_SIZE
                for i in range(objects)}

    def write_phase():
        for key, value in payloads.items():
            yield from client.put(key, value)
    dep.drive(write_phase())

    # Crash the holder of fragment 1 (never the put coordinator, which
    # holds fragment 0 and will lead the repair) and leave it down.
    coordinator = dep.instance("ec", US_EAST)
    manifest = decode_manifest(dep.drive(
        coordinator.read_version("obj0", run_rules=False))[0])
    victim = tim.instances[manifest["frags"][1]].instance.host
    faults = dep.fault_schedule("repair-bench")
    faults.crash(at=dep.sim.now + 0.25, host=victim.name, duration=1e9)
    faults.start()
    dep.sim.run(until=dep.sim.now + 0.5)

    leader_id = manifest["frags"][0]
    leader = tim.instances[leader_id].instance
    repairer = leader.protocol.repairer(leader_id)

    cache_before = dict(codec._inv_cache_stats)
    bytes_before = dep.metric_total("net.bytes")
    msgs_before = dep.metric_total("net.messages")
    clock_before = dep.sim.now
    wall_started = time.perf_counter()
    dep.drive(repairer.repair_round(), name="repair-round")
    wall = time.perf_counter() - wall_started
    repair_seconds = dep.sim.now - clock_before
    repair_bytes = dep.metric_total("net.bytes") - bytes_before
    repair_msgs = dep.metric_total("net.messages") - msgs_before

    # Correctness: the round rebuilt every lost fragment, a second round
    # finds nothing left to do, and every object decodes cleanly.
    assert repairer.fragments_rebuilt == objects, (
        f"rebuilt {repairer.fragments_rebuilt}/{objects}")
    dep.drive(repairer.repair_round(), name="verify-round")
    assert repairer.fragments_rebuilt == objects, "verify round re-repaired"

    def read_phase():
        for key, value in payloads.items():
            res = yield from client.get(key)
            assert res["data"] == value, key
            assert not res.get("degraded"), key
    dep.drive(read_phase())

    cache = {name: codec._inv_cache_stats[name] - cache_before[name]
             for name in ("hits", "misses")}
    looked_up = cache["hits"] + cache["misses"]
    return {
        "repair_concurrency": repair_concurrency,
        "objects": objects,
        "fragments_rebuilt": int(dep.metric_total("ec.fragments_rebuilt")),
        "repair_seconds": round(repair_seconds, 6),
        "repair_egress_bytes": int(repair_bytes),
        "repair_messages": int(repair_msgs),
        "repair_bytes_moved": int(dep.metric_total("ec.repair_bytes_moved")),
        "unrepairable": int(dep.metric_total("ec.repair_unrepairable")),
        "push_failed": int(dep.metric_total("ec.repair_push_failed")),
        "errors": int(dep.metric_total("ec.repair_errors")),
        "superseded": int(dep.metric_total("ec.repair_superseded")),
        "decode_matrix_cache": dict(
            cache, hit_rate=round(cache["hits"] / looked_up, 3)
            if looked_up else None),
        "store_digest": dep.store_digest(detail=False),
        "wall_seconds": round(wall, 4),
    }


def run(quick: bool = False) -> dict:
    serial = SERIAL_REFERENCE[quick]
    objects = serial["objects"]
    window_1 = _cell(1, objects, seed=17)
    window_8 = _cell(PIPELINE_WIDTH, objects, seed=17)
    return {
        "benchmark": "ec_repair",
        "quick": quick,
        "scheme": f"EC({K},{M})",
        "value_size": VALUE_SIZE,
        "sites": [f"{r}/{p}" for r, p in SITES],
        "serial_reference": serial,
        "window_1": window_1,
        "window_8": window_8,
        "speedup": round(serial["repair_seconds"]
                         / max(window_8["repair_seconds"], 1e-9), 2),
        "egress_reduction": round(
            1.0 - window_8["repair_egress_bytes"]
            / serial["repair_egress_bytes"], 3),
        "stores_converge": all(
            cell["store_digest"] == serial["store_digest"]
            for cell in (window_1, window_8)),
    }


# -- baseline plumbing ------------------------------------------------------

def _load_existing() -> dict:
    if OUT_PATH.exists():
        try:
            return json.loads(OUT_PATH.read_text())
        except json.JSONDecodeError:
            return {}
    return {}


def emit(result: dict, rebaseline: bool = False) -> Path:
    existing = _load_existing()
    carried = {}
    if "baseline" in existing:
        carried["baseline"] = existing["baseline"]
    if rebaseline or "baseline" not in carried:
        carried["baseline"] = {
            "quick": result["quick"],
            "speedup": result["speedup"],
            "egress_reduction": result["egress_reduction"],
            "serial_repair_seconds":
                result["serial_reference"]["repair_seconds"],
            "pipelined_repair_seconds":
                result["window_8"]["repair_seconds"],
        }
    result.update(carried)
    RESULTS.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return OUT_PATH


def check_gate(result: dict) -> bool:
    ok = True
    if result["speedup"] < MIN_SPEEDUP:
        print(f"gate: repair speedup {result['speedup']}x "
              f"< required {MIN_SPEEDUP}x -> REGRESSION")
        ok = False
    else:
        print(f"gate: repair speedup {result['speedup']}x "
              f">= {MIN_SPEEDUP}x -> ok")
    if result["egress_reduction"] < MIN_EGRESS_REDUCTION:
        print(f"gate: egress reduction {result['egress_reduction']} "
              f"< required {MIN_EGRESS_REDUCTION} -> REGRESSION")
        ok = False
    else:
        print(f"gate: egress reduction {result['egress_reduction']} "
              f">= {MIN_EGRESS_REDUCTION} -> ok")
    for cell in ("window_1", "window_8"):
        rebuilt = result[cell]["fragments_rebuilt"]
        if rebuilt != result[cell]["objects"]:
            print(f"gate: {cell} rebuilt {rebuilt}/"
                  f"{result[cell]['objects']} fragments -> REGRESSION")
            ok = False
    if not result.get("stores_converge"):
        print("gate: store digest differs from the serial reference "
              "-> REGRESSION")
        ok = False
    baseline = result.get("baseline")
    if not baseline:
        print("no baseline recorded; drift floor passes vacuously")
        return ok
    if baseline.get("quick") != result.get("quick"):
        print("baseline was recorded in a different mode "
              f"(quick={baseline.get('quick')}); drift floor skipped — "
              "re-pin with --rebaseline in the mode you gate on")
        return ok
    ceiling = 1.25 * baseline["pipelined_repair_seconds"]
    got = result["window_8"]["repair_seconds"]
    if got > ceiling:
        print(f"gate: window-8 repair {got}s drifted past baseline "
              f"{baseline['pipelined_repair_seconds']}s (+25%) "
              "-> REGRESSION")
        ok = False
    else:
        print(f"gate: window-8 repair {got}s within baseline drift -> ok")
    return ok


def test_ec_repair(benchmark):
    result = benchmark.pedantic(run, kwargs={"quick": True},
                                rounds=1, iterations=1)
    emit(result)
    assert result["speedup"] >= MIN_SPEEDUP
    assert result["egress_reduction"] >= MIN_EGRESS_REDUCTION
    assert result["stores_converge"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short CI-smoke run")
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 unless window 8 stays "
                             f">= {MIN_SPEEDUP}x faster and moves "
                             f">= {MIN_EGRESS_REDUCTION:.0%} fewer bytes")
    parser.add_argument("--rebaseline", action="store_true",
                        help="pin the baseline to this run")
    args = parser.parse_args()
    result = run(quick=args.quick)
    out = emit(result, rebaseline=args.rebaseline)
    s, w1, p = (result["serial_reference"], result["window_1"],
                result["window_8"])
    print(f"repair : serial reference {s['repair_seconds']}s -> window 1 "
          f"{w1['repair_seconds']}s -> window 8 {p['repair_seconds']}s "
          f"({result['speedup']}x faster, {s['objects']} objects, one "
          f"fragment holder down)")
    print(f"egress : serial reference {s['repair_egress_bytes']}B "
          f"({s['repair_messages']} msgs) -> window 8 "
          f"{p['repair_egress_bytes']}B ({p['repair_messages']} msgs, "
          f"{result['egress_reduction']:.0%} less)")
    print(f"codec  : decode-matrix cache {p['decode_matrix_cache']}")
    print(f"wrote {out}")
    if args.check and not check_gate(result):
        sys.exit(1)


if __name__ == "__main__":
    main()
