"""Per-operation record of every open-loop cohort, taken from outside.

The record is built purely from the public cohort surface:

* ``CohortSpec.chooser_factory`` wraps the workload's own key chooser,
  so every arrival is stamped with its sim-time and key at the moment
  the cohort draws it (the draw sequence is unchanged, so the simulation
  is bit-identical to an untapped run);
* the cohort's shared ``client`` is replaced by :class:`TappedClient`,
  which times each ``get``/``put`` and keeps its outcome.

Arrivals reach the client in arrival order, minus the ones the cohort
sheds (it counts them in ``stats.shed`` the moment they arrive), so the
k-th client call is the k-th arrival that was not shed.  Every call
checks that its key matches the arrival it is paired with.
"""

from __future__ import annotations

from collections import deque

from repro.util.stats import percentile_sorted


class OpRecord:
    """One arrival: when it came, when it was dispatched and how it ended."""

    __slots__ = ("cohort", "key", "kind", "arrived", "dispatched", "done",
                 "ok", "error", "client_latency", "version", "data")

    def __init__(self, cohort: str, key: str, arrived: float):
        self.cohort = cohort
        self.key = key
        self.kind = None
        self.arrived = arrived
        self.dispatched = None
        self.done = None
        self.ok = None            # None: never completed
        self.error = None
        self.client_latency = None
        self.version = None
        self.data = None

    @property
    def latency(self) -> float:
        """Sim seconds from arrival to completion (queue wait included)."""
        return self.done - self.arrived


class PairingError(AssertionError):
    """A client call could not be matched to the arrival that caused it."""


class _TappedChooser:
    def __init__(self, tap: "CohortTap", inner):
        self._tap = tap
        self._inner = inner

    def next(self) -> int:
        index = self._inner.next()
        self._tap.arrive(index)
        return index


class CohortTap:
    """The arrival/outcome record of one cohort."""

    def __init__(self, sim, name: str, workload, keep_payloads: bool):
        self.sim = sim
        self.name = name
        self.workload = workload
        self.keep_payloads = keep_payloads
        self.records: list[OpRecord] = []
        self.cohort = None
        self._waiting: deque[OpRecord] = deque()
        self._last_shed = 0
        self._unsettled = None

    def chooser_factory(self, rng, sim):
        return _TappedChooser(self, self.workload.chooser(rng))

    def bind(self, cohort) -> None:
        """Attach to the cohort built from a spec using this tap."""
        self.cohort = cohort
        cohort.client = TappedClient(cohort.client, self)

    def _settle(self) -> None:
        """Decide the previous arrival: dispatched/queued, or shed."""
        rec = self._unsettled
        if rec is None:
            return
        shed = self.cohort.stats.shed
        if shed != self._last_shed:
            self._last_shed = shed
            rec.ok = False
            rec.error = "shed"
        else:
            self._waiting.append(rec)
        self._unsettled = None

    def arrive(self, index: int) -> None:
        self._settle()
        rec = OpRecord(self.name, self.workload.key(index), self.sim.now)
        self.records.append(rec)
        self._unsettled = rec

    def dispatch(self, kind: str, key: str) -> OpRecord:
        self._settle()
        if not self._waiting:
            raise PairingError(f"{self.name}: {kind} {key!r} has no arrival")
        rec = self._waiting.popleft()
        if rec.key != key:
            raise PairingError(f"{self.name}: {kind} {key!r} paired with "
                               f"arrival of {rec.key!r}")
        rec.kind = kind
        rec.dispatched = self.sim.now
        return rec

    def close(self) -> None:
        """After the cohort stopped: queued arrivals it threw away are
        marked discarded."""
        self._settle()
        while self._waiting:
            rec = self._waiting.popleft()
            rec.ok = False
            rec.error = "discarded"


class TappedClient:
    """Stands in for a cohort's WieraClient; times and records each op."""

    def __init__(self, client, tap: CohortTap):
        self._client = client
        self._tap = tap

    def __getattr__(self, name):
        return getattr(self._client, name)

    def get(self, key: str):
        rec = self._tap.dispatch("get", key)
        try:
            result = yield from self._client.get(key)
        except Exception as exc:
            rec.done = self._tap.sim.now
            rec.ok = False
            rec.error = type(exc).__name__
            raise
        rec.done = self._tap.sim.now
        rec.ok = True
        rec.client_latency = result["latency"]
        rec.version = result.get("version")
        return result

    def put(self, key: str, data: bytes, tags=()):
        rec = self._tap.dispatch("put", key)
        try:
            result = yield from self._client.put(key, data, tags=tags)
        except Exception as exc:
            rec.done = self._tap.sim.now
            rec.ok = False
            rec.error = type(exc).__name__
            raise
        rec.done = self._tap.sim.now
        rec.ok = True
        rec.client_latency = result["latency"]
        rec.version = result.get("version")
        if self._tap.keep_payloads:
            rec.data = data
        return result


def quantiles(values: list[float], qs=(50, 99)) -> dict:
    """Exact linear-interpolation percentiles over every sample."""
    ordered = sorted(values)
    return {q: percentile_sorted(ordered, q) for q in qs}
