"""Shared bandwidth links with FIFO transmission serialization.

Every host has an egress link; concurrent transfers through one link queue
behind each other, so large replication transfers genuinely contend with
foreground traffic — this is what makes bandwidth-capped ``copy`` responses
(e.g. ``bandwidth: 40KB/s`` in Figure 1(b)) and Azure's VM-size network
throttles (Figs. 11-12) behave realistically.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.kernel import Simulator
from repro.sim.primitives import Resource


class BandwidthLink:
    """A serialized transmission pipe with a byte/second rate.

    ``transmit(nbytes)`` is a generator (intended for ``yield from`` inside
    a process) that completes once the payload has been clocked onto the
    wire.  An infinite-rate link completes instantly and never queues.
    """

    def __init__(self, sim: Simulator, rate: float = float("inf"), name: str = ""):
        if rate <= 0:
            raise ValueError(f"link rate must be positive, got {rate}")
        self.sim = sim
        self.rate = rate
        self.name = name
        self._channel = Resource(sim, capacity=1)
        self.bytes_sent = 0

    @property
    def queued(self) -> int:
        return self._channel.queued

    def transmission_time(self, nbytes: int) -> float:
        if self.rate == float("inf"):
            return 0.0
        return nbytes / self.rate

    def transmit(self, nbytes: int) -> Generator:
        if nbytes < 0:
            raise ValueError("cannot transmit a negative payload")
        self.bytes_sent += nbytes
        if self.rate == float("inf"):
            return
        yield self._channel.request()
        try:
            yield self.sim.timeout(nbytes / self.rate)
        finally:
            self._channel.release()
