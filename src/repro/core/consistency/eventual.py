"""Eventual consistency (Figure 4).

A put stores to the local replica and queues the update for background
distribution to all other regions; the application sees only the local
store latency (<10 ms in Fig. 7).  There is no global order of puts, so
each instance resolves write-write conflicts on incoming updates with
last-write-wins (§4.2).

Failed distributions are retried with backoff by the queue itself; when
``repair_interval`` is set, every instance additionally runs an
anti-entropy repairer so replicas that diverged through a long outage
still converge (see :mod:`repro.core.consistency.repair`).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.consistency.base import GlobalProtocol, ReplicationQueue
from repro.core.consistency.repair import AntiEntropyRepairer
from repro.faults.retry import RetryPolicy


class EventualConsistencyProtocol(GlobalProtocol):
    """Local commit + lazy replication + LWW conflict resolution."""

    name = "eventual"

    def __init__(self, queue_interval: float = 1.0,
                 repair_interval: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        self.queue_interval = queue_interval
        self.repair_interval = repair_interval
        self.retry_policy = retry_policy or RetryPolicy()
        self._queues: dict[str, ReplicationQueue] = {}
        self._repairers: dict[str, AntiEntropyRepairer] = {}

    def attach(self, instance) -> None:
        self.queue_for(instance)
        if self.repair_interval is not None:
            repairer = AntiEntropyRepairer(
                instance, self.repair_interval,
                queue_for=lambda inst: self._queues.get(inst.instance_id))
            self._repairers[instance.instance_id] = repairer
            repairer.start()

    def detach(self, instance) -> None:
        repairer = self._repairers.pop(instance.instance_id, None)
        if repairer is not None:
            repairer.stop()
        queue = self._queues.pop(instance.instance_id, None)
        if queue is not None:
            queue.stop()  # anything still queued is counted pending_dropped

    def queue_for(self, instance) -> ReplicationQueue:
        queue = self._queues.get(instance.instance_id)
        if queue is None:
            queue = ReplicationQueue(instance, self.queue_interval,
                                     retry_policy=self.retry_policy)
            self._queues[instance.instance_id] = queue
            queue.start()
        return queue

    def on_put(self, instance, key: str, data: bytes, tags=(),
               src: str = "app") -> Generator:
        version = yield from instance.local_put(key, data, tags=tags)
        args = self.update_args(instance, key, version, data)
        self.queue_for(instance).enqueue(args)
        return {"version": version, "region": instance.region,
                "consistency": self.name}

    def on_get(self, instance, key: str,
               version: Optional[int] = None) -> Generator:
        # Eventual consistency returns the local version (§3.2.1 default).
        data, meta, record = yield from instance.read_version(key, version)
        return {"data": data, "version": meta.version,
                "latest_local": record.latest_version, "strong": False}

    def on_remove(self, instance, key: str,
                  version: Optional[int] = None,
                  src: str = "app") -> Generator:
        """Remove locally, propagate lazily through the replication queue
        so remove propagation gets the same retry/repair guarantees."""
        removed = yield from instance.local_remove(key, version)
        self.queue_for(instance).enqueue(self.remove_args(instance, key,
                                                          version))
        return {"removed": removed}

    def drain(self, instance) -> Generator:
        queue = self._queues.get(instance.instance_id)
        if queue is not None:
            yield from queue.drain()

    def pending_count(self, instance) -> int:
        queue = self._queues.get(instance.instance_id)
        if queue is None:
            return 0
        return len(queue.pending) + queue.backlog_size()
