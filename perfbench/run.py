"""Repository benchmark: host cost per simulated op, plus modelled latency,
cost and failures, on open-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload scaleout_b8 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
window untraced and the same window again under the layer profiler and
prints the per-layer table.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it is the full record, stamped with the host and commit.
See ``perfbench/NOTES.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: distinct windows (sub-seeds) whose simulated results make up a run of
#: NOMINAL_SECONDS; sized so such a run measures about that long on the
#: 2-core reference host.  Window 0 then runs once more.
WINDOWS = {"scaleout_b8": 5, "strong_a": 4, "ec_degraded": 5}
NOMINAL_SECONDS = 30
#: set-ups timed per run: one per window executed, the rest set-up only
#: (an ``ec_degraded`` set-up includes its in-sim load phase)
SETUPS = {"scaleout_b8": 15, "strong_a": 15, "ec_degraded": 8}


def host_stamp() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": commit_id(),
    }


def commit_id() -> str:
    """The git commit, or a digest of ``src/`` outside a git checkout of
    this repository."""
    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip()
    try:
        top_and_head = git("rev-parse", "--show-toplevel", "HEAD").split()
        if (len(top_and_head) == 2
                and Path(top_and_head[0]).resolve() == ROOT):
            dirty = git("status", "--porcelain", "src")
            return top_and_head[1] + ("+dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


class WindowResult:
    """What one executed window contributes to the run."""

    def __init__(self, cell):
        recs = list(cell.records())
        end = cell.window_end
        lost = set(cell.lost_records())
        self.offered = len(recs)
        self.completed = sum(1 for r in recs if r.ok and r.done <= end
                             and r not in lost)
        self.lost = len(lost)
        self.defective = list(cell.defective)
        self.errors = sum(1 for r in recs if r.ok is False
                          and r.error not in ("shed", "discarded"))
        self.shed = sum(1 for r in recs if r.error == "shed")
        self.discarded = sum(1 for r in recs if r.error == "discarded")
        self.latencies = {
            op: [r.latency for r in recs if r.kind == op and r.ok]
            for op in ("get", "put")}
        self.sim_s = cell.window["sim_s"]
        self.events = cell.window["events"]
        self.egress_usd = cell.window["egress_usd"]
        self.slice_rates = [done / wall
                            for done, wall, _ in cell.window["slices"]]
        self.slice_refs = [ref for _, _, ref in cell.window["slices"]]
        self.setup_s = cell.setup_s
        self.setup_ref = cell.setup_reference_s
        digest = hashlib.sha256()
        for r in recs:
            digest.update(repr((r.cohort, r.key, r.kind, r.arrived, r.done,
                                r.ok, r.error, r.version)).encode())
        digest.update(cell.dep.store_digest().encode())
        self.digest = digest.hexdigest()

    @property
    def failed(self) -> int:
        """Arrivals not completed inside the measured window, plus
        acknowledged writes the final state lost."""
        return self.offered - self.completed


def run_window(cell_cls, seed: int, calibrate: bool = True):
    cell = cell_cls(seed, calibrate)
    cell.run()
    cell.check()
    return cell


def distinct_windows(workload: str, seconds: float) -> int:
    return max(1, round(WINDOWS[workload] * seconds / NOMINAL_SECONDS))


def measure(workload: str, seed: int, seconds: float) -> dict:
    """A fixed schedule: the distinct windows once each, then window 0
    again, which must reproduce its first execution bit for bit; then
    set-ups alone until SETUPS of them are timed."""
    from cells import CELLS
    cell_cls = CELLS[workload]
    n = distinct_windows(workload, seconds)
    results = []
    slice_rates, slice_refs, setups, setup_refs = [], [], [], []
    for i in [*range(n), 0]:
        cell = run_window(cell_cls, sub_seed(seed, i))
        result = WindowResult(cell)
        del cell
        gc.collect()
        if i < len(results):
            if result.digest != results[i].digest:
                raise AssertionError(
                    f"window seed {sub_seed(seed, i)} is not "
                    f"deterministic: repeat digest {result.digest[:12]} "
                    f"!= {results[i].digest[:12]}")
        else:
            results.append(result)
        slice_rates.extend(result.slice_rates)
        slice_refs.extend(result.slice_refs)
        setups.append(result.setup_s)
        setup_refs.append(result.setup_ref)
    while len(setups) < SETUPS[workload]:
        cell = cell_cls(sub_seed(seed, len(setups) % n), calibrate=True)
        setups.append(cell.setup_s)
        setup_refs.append(cell.setup_reference_s)
        del cell
        gc.collect()

    offered = sum(r.offered for r in results)
    completed = sum(r.completed for r in results)
    failed = sum(r.failed for r in results)
    sim_s = sum(r.sim_s for r in results)
    lat = {op: sorted(v for r in results for v in r.latencies[op])
           for op in ("get", "put")}
    from oplog import quantiles
    q = {op: quantiles(lat[op]) for op in lat}
    metrics = {
        # Host medians are scaled by the median reference chunk measured
        # next to them (reference.py).
        "ops_per_wall_s": statistics.median(slice_rates)
            * statistics.median(slice_refs) / reference.NOMINAL_S,
        "setup_s": reference.scale(statistics.median(setups),
                                   statistics.median(setup_refs)),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_get_p50_ms": q["get"][50] * 1e3,
        "sim_get_p99_ms": q["get"][99] * 1e3,
        "sim_put_p50_ms": q["put"][50] * 1e3,
        "sim_put_p99_ms": q["put"][99] * 1e3,
        "sim_goodput_ops_s": completed / sim_s,
        "failed_frac": failed / offered,
        "egress_usd_per_kop":
            sum(r.egress_usd for r in results) / completed * 1e3,
    }
    detail = {
        "windows": len(results),
        "windows_run": len(results) + 1,
        "uncalibrated_ops_per_wall_s": statistics.median(slice_rates),
        "uncalibrated_setup_s": statistics.median(setups),
        "reference_chunk_s": statistics.median(slice_refs + setup_refs),
        "setups": len(setups),
        "offered": offered,
        "completed_in_window": completed,
        "errors": sum(r.errors for r in results),
        "shed": sum(r.shed for r in results),
        "discarded": sum(r.discarded for r in results),
        "lost_writes": sum(r.lost for r in results),
        "defective_keys": [k for r in results for k in r.defective],
        "in_flight_at_close": failed - sum(r.errors + r.shed + r.discarded
                                           + r.lost for r in results),
        "samples": {op: len(v) for op, v in lat.items()},
        "events_per_op": sum(r.events for r in results) / completed,
        "window_digests": [r.digest[:16] for r in results],
    }
    return {"attempted": offered, "failed": failed, "metrics": metrics,
            "detail": detail}


def measure_layers(workload: str, seed: int) -> dict:
    """One window untraced, then the same window under the profiler."""
    import layers
    from cells import CELLS
    cell_cls = CELLS[workload]
    sub = sub_seed(seed, 0)
    untraced = run_window(cell_cls, sub, calibrate=False)
    untraced_wall = untraced.window["wall_s"]
    untraced_digest = WindowResult(untraced).digest
    del untraced
    gc.collect()

    probes = layers.Probes()
    probes.install()
    try:
        cell = cell_cls(sub)
        probes.attach_network(cell.dep.network)
        dep = cell.dep
        before = layers.counter_totals(dep)
        cache_before = layers.cache_stats()
        profile = cProfile.Profile()
        cell.before_window()
        probes.recording = True
        with layers.GcTimer() as gc_timer:
            profile.enable()
            window = cell.run_window_only()
            profile.disable()
        probes.recording = False
        after = layers.counter_totals(dep)
        cache_after = layers.cache_stats()
        cell.finish_window()
        cell.check()
    finally:
        probes.remove()
    result = WindowResult(cell)
    if result.digest != untraced_digest:
        raise AssertionError("the traced window diverged from the "
                             "untraced one")
    recs = list(cell.records())
    end = cell.window_end
    done = [r for r in recs if r.ok and r.done <= end]
    ops = {
        "done": len(done),
        "puts": sum(1 for r in done if r.kind == "put"),
        "gets": sum(1 for r in done if r.kind == "get"),
        "offered": len(recs),
        "shed": sum(1 for r in recs if r.error == "shed"),
        "queue_waits": [r.dispatched - r.arrived for r in recs
                        if r.dispatched is not None and r.dispatched <= end],
    }
    counters = {k: after[k] - before[k] for k in after}
    cache = {k: cache_after[k] - cache_before[k] for k in cache_after}
    metrics = layers.layer_table(profile, probes, counters, ops,
                                 gc_timer.seconds, cache,
                                 window["wall_s"] / untraced_wall)
    return {"attempted": result.offered, "failed": result.failed,
            "metrics": metrics,
            "detail": {"untraced_wall_s": untraced_wall,
                       "traced_wall_s": window["wall_s"]}}


def declared_units(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from cells import CELLS
    if args.workload not in CELLS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {sorted(CELLS)})", file=sys.stderr)
        return 2

    started = time.perf_counter()
    if args.trace:
        out = measure_layers(args.workload, args.seed)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    units = declared_units(args.trace)
    if set(out["metrics"]) != set(units):
        raise AssertionError(
            f"measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(out['metrics']) ^ set(units))}")
    metrics = {name: {"value": out["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host_stamp(),
              "elapsed_s": time.perf_counter() - started,
              "detail": out["detail"], "metrics": metrics}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
