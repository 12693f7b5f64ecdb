"""Tests for the RPC layer (the Thrift substitute)."""

import pytest

from repro.net import HostDownError, Network, US_EAST, US_WEST
from repro.sim import Simulator
from repro.sim.rpc import (
    NoSuchMethodError,
    RpcNode,
    call_with_timeout,
)
from repro.util.units import MS


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim)
    a = RpcNode(sim, net, net.add_host("a", US_EAST), name="a")
    b = RpcNode(sim, net, net.add_host("b", US_WEST), name="b")
    return sim, net, a, b


def test_round_trip_latency_and_result(world):
    sim, net, a, b = world

    def echo(msg):
        yield sim.timeout(0.001)
        return {"echo": msg.args["x"]}

    b.register("echo", echo)

    def main():
        t0 = sim.now
        result = yield a.call(b, "echo", {"x": 5})
        return result, sim.now - t0

    p = sim.process(main())
    result, elapsed = sim.run(until=p)
    assert result == {"echo": 5}
    assert elapsed == pytest.approx(2 * 35 * MS + 0.001)


def test_handler_must_be_generator(world):
    _, _, _, b = world
    with pytest.raises(TypeError):
        b.register("bad", lambda msg: 42)


def test_no_such_method(world):
    sim, net, a, b = world

    def main():
        yield a.call(b, "missing")

    p = sim.process(main())
    with pytest.raises(NoSuchMethodError):
        sim.run(until=p)


def test_remote_exception_propagates(world):
    sim, net, a, b = world

    def boom(msg):
        yield sim.timeout(0.0)
        raise ValueError("remote failure")

    b.register("boom", boom)

    def main():
        try:
            yield a.call(b, "boom")
        except ValueError as exc:
            return str(exc)

    p = sim.process(main())
    assert sim.run(until=p) == "remote failure"


def test_down_destination_raises(world):
    sim, net, a, b = world
    def noop(msg):
        yield sim.timeout(0.0)

    b.register("noop", noop)
    b.host.crash()

    def main():
        yield a.call(b, "noop")

    p = sim.process(main())
    with pytest.raises(HostDownError):
        sim.run(until=p)


def test_oneway_swallows_errors(world):
    sim, net, a, b = world
    b.host.crash()
    a.send_oneway(b, "anything")
    sim.run()  # must not raise
    assert a.dropped_oneways == 1


def test_oneway_executes_handler(world):
    sim, net, a, b = world
    seen = []

    def note(msg):
        yield sim.timeout(0.0)
        seen.append(msg.args["v"])

    b.register("note", note)
    a.send_oneway(b, "note", {"v": 9})
    sim.run()
    assert seen == [9]


def test_register_service_prefix(world):
    sim, net, a, b = world

    class Service:
        def rpc_ping(self, msg):
            yield sim.timeout(0.0)
            return "pong"

        def not_rpc(self):
            pass

    b.register_service(Service())

    def main():
        result = yield a.call(b, "ping")
        return result

    p = sim.process(main())
    assert sim.run(until=p) == "pong"


def test_payload_size_affects_latency(world):
    sim, net, a, b = world
    a.host.egress.rate = 1024 * 1024  # 1 MB/s

    def sink(msg):
        yield sim.timeout(0.0)
        return None

    b.register("sink", sink)

    def timed(size):
        def main():
            t0 = sim.now
            yield a.call(b, "sink", {"data": b"x"}, size=size)
            return sim.now - t0
        return main

    p1 = sim.process(timed(1024)())
    small = sim.run(until=p1)
    p2 = sim.process(timed(1024 * 512)())
    large = sim.run(until=p2)
    assert large > small + 0.4  # 512 KB at 1 MB/s adds ~0.5 s


def test_call_with_timeout_success(world):
    sim, net, a, b = world

    def quick(msg):
        yield sim.timeout(0.001)
        return "fast"

    b.register("quick", quick)

    def main():
        result = yield from call_with_timeout(sim, a.call(b, "quick"), 10.0)
        return result

    p = sim.process(main())
    assert sim.run(until=p) == "fast"


def test_call_with_timeout_expires(world):
    sim, net, a, b = world

    def slow(msg):
        yield sim.timeout(60.0)
        return "late"

    b.register("slow", slow)

    def main():
        try:
            yield from call_with_timeout(sim, a.call(b, "slow"), 1.0)
        except TimeoutError:
            return "timed out"

    p = sim.process(main())
    assert sim.run(until=p) == "timed out"
    sim.run()  # the late reply must not crash the simulation


def test_requests_served_counter(world):
    sim, net, a, b = world
    def noop(msg):
        yield sim.timeout(0.0)

    b.register("noop", noop)

    def main():
        for _ in range(3):
            yield a.call(b, "noop")

    p = sim.process(main())
    sim.run(until=p)
    assert b.requests_served == 3


class TestBatchRpc:
    """``call_batch``: the one-message wire format the EC plane uses."""

    @staticmethod
    def _recorder(sim, node):
        applied = []

        def apply(msg):
            yield sim.timeout(0.0)
            applied.append(msg.args["i"])
            return {"i": msg.args["i"]}

        node.register("apply", apply)
        return applied

    def test_per_entry_results_in_order(self, world):
        sim, net, a, b = world
        applied = self._recorder(sim, b)
        entries = [("apply", {"i": 1}, 16),
                   ("no_such_method", {}, 16),
                   ("apply", {"i": 2}, 16)]

        def main():
            results = yield a.call_batch(b, entries)
            return results

        results = sim.run(until=sim.process(main()))
        assert [r["ok"] for r in results] == [True, False, True]
        assert "NoSuchMethodError" in results[1]["error"]
        assert [r["result"]["i"] for r in results if r["ok"]] == [1, 2]
        # Entries are applied in order; a failed one does not abort the rest.
        assert applied == [1, 2]

    def test_batch_is_one_message_pair(self, world):
        sim, net, a, b = world
        self._recorder(sim, b)
        entries = [("apply", {"i": i}, 514) for i in range(3)]
        before = net.messages_sent

        def main():
            yield a.call_batch(b, entries)

        sim.run(until=sim.process(main()))
        # One request + one reply, regardless of entry count.
        assert net.messages_sent - before == 2

    def test_transport_failure_raises_whole_call(self, world):
        sim, net, a, b = world
        applied = self._recorder(sim, b)
        b.host.down = True

        def main():
            yield a.call_batch(b, [("apply", {"i": 1}, 16)])

        with pytest.raises(HostDownError):
            sim.run(until=sim.process(main()))
        assert applied == []
