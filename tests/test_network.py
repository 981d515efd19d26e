"""Channels, endpoints, and the three in-path adversaries."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.core import Observability
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.network import (
    Channel,
    DelayAdversary,
    DropAdversary,
    Endpoint,
    FilterVerdict,
    ReplayAdversary,
)

from tests.conftest import tap


def rig(latency=0.01):
    sim = Simulator()
    channel = Channel(sim, latency=latency)
    a = channel.make_endpoint("a")
    b = channel.make_endpoint("b")
    return sim, channel, a, b


class TestDelivery:
    def test_basic_latency(self):
        sim, channel, a, b = rig(latency=0.25)
        a.send("b", "ping", {"n": 1})
        sim.run()
        assert b.received_count == 1
        message = b.receive()
        assert message.kind == "ping"
        assert message.payload == {"n": 1}
        assert sim.now == pytest.approx(0.25)

    def test_rx_signal_fires_on_delivery(self):
        sim, channel, a, b = rig()
        got = []
        b.rx_signal.wait(lambda msg: got.append(msg.kind))
        a.send("b", "hello", None)
        sim.run()
        assert got == ["hello"]

    def test_receive_empty_returns_none(self):
        _, _, a, _ = rig()
        assert a.receive() is None

    def test_drain(self):
        sim, channel, a, b = rig()
        a.send("b", "x", 1)
        a.send("b", "y", 2)
        sim.run()
        assert [m.kind for m in b.drain()] == ["x", "y"]
        assert b.inbox == []

    def test_unknown_destination_rejected(self):
        _, channel, a, _ = rig()
        with pytest.raises(ConfigurationError):
            a.send("ghost", "x", None)

    def test_unattached_endpoint_rejected(self):
        sim = Simulator()
        lonely = Endpoint(sim, "lonely")
        with pytest.raises(ConfigurationError):
            lonely.send("a", "x", None)

    def test_duplicate_endpoint_name_rejected(self):
        sim = Simulator()
        channel = Channel(sim)
        channel.make_endpoint("a")
        with pytest.raises(ConfigurationError):
            channel.make_endpoint("a")

    def test_callable_latency(self):
        sim = Simulator()
        channel = Channel(sim, latency=lambda msg: 0.5 if msg.kind == "slow" else 0.1)
        a = channel.make_endpoint("a")
        b = channel.make_endpoint("b")
        arrivals = []
        b.rx_signal.wait(lambda m: arrivals.append((m.kind, sim.now)))
        a.send("b", "slow", None)
        sim.run()
        assert arrivals == [("slow", pytest.approx(0.5))]

    def test_log_records_all_sends(self):
        sim, channel, a, b = rig()
        sent = tap(channel)
        a.send("b", "x", None)
        b.send("a", "y", None)
        assert [m.kind for m in sent] == ["x", "y"]
        assert channel.sent_count == 2


    @pytest.mark.parametrize("verdict_of, arrivals", [
        (lambda msg: None, []),
        (lambda msg: 0.4, [0.4]),
        (lambda msg: [(0.1, msg), (0.3, msg)], [0.1, 0.3]),
        (lambda msg: FilterVerdict.deliver(extra=0.2), [0.45]),
    ], ids=["none-drops", "number-sets-delay", "list-replaces",
            "verdict-passes-through"])
    def test_plain_callable_filter(self, verdict_of, arrivals):
        sim, channel, a, b = rig(latency=0.25)
        channel.add_filter(verdict_of)
        seen = []

        def on_rx(msg):
            b.rx_signal.wait(on_rx)
            seen.append(sim.now)

        b.rx_signal.wait(on_rx)
        a.send("b", "x", None)
        sim.run()
        assert seen == [pytest.approx(t) for t in arrivals]
        assert channel.dropped_count == (0 if arrivals else 1)


class TestDropAdversary:
    def test_drops_matching_kind(self):
        sim, channel, a, b = rig()
        adversary = DropAdversary(probability=1.0, kind="report")
        channel.add_filter(adversary)
        a.send("b", "report", None)
        a.send("b", "other", None)
        sim.run()
        assert [m.kind for m in b.drain()] == ["other"]
        assert adversary.dropped_count == 1
        assert channel.dropped_count == 1

    def test_zero_probability_drops_nothing(self):
        sim, channel, a, b = rig()
        channel.add_filter(DropAdversary(probability=0.0))
        for _ in range(5):
            a.send("b", "x", None)
        sim.run()
        assert b.received_count == 5

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            DropAdversary(probability=1.5)

    def test_counts_match_sends_and_drops(self):
        sim = Simulator(obs=Observability(metrics=MetricsRegistry()))
        channel = Channel(sim, latency=0.01)
        a = channel.make_endpoint("a")
        b = channel.make_endpoint("b")
        sent = tap(channel)
        channel.add_filter(DropAdversary(probability=1.0, kind="report"))
        kinds = ["report", "other", "report", "other", "other"]
        for kind in kinds:
            a.send("b", kind, None)
        b.send("a", "report", None)
        sim.run()
        assert [m.kind for m in sent] == kinds + ["report"]
        assert channel.sent_count == len(sent) == 6
        assert channel.dropped_count == 3
        assert b.received_count + a.received_count == 3
        flat = sim.obs.metrics.snapshot_flat()
        assert flat["net.messages.sent"] == 6
        assert flat["net.messages.dropped"] == 3


class TestDelayAdversary:
    def test_adds_delay_to_matching(self):
        sim, channel, a, b = rig(latency=0.01)
        channel.add_filter(
            DelayAdversary(0.5, kind="att_request", base_latency=0.01)
        )
        arrivals = []
        b.rx_signal.wait(lambda m: arrivals.append(sim.now))
        a.send("b", "att_request", None)
        sim.run()
        assert arrivals == [pytest.approx(0.51)]

    def test_other_kinds_unaffected(self):
        sim, channel, a, b = rig(latency=0.01)
        channel.add_filter(
            DelayAdversary(0.5, kind="att_request", base_latency=0.01)
        )
        arrivals = []
        b.rx_signal.wait(lambda m: arrivals.append(sim.now))
        a.send("b", "other", None)
        sim.run()
        assert arrivals == [pytest.approx(0.01)]

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayAdversary(-0.1)


class TestReplayAdversary:
    def test_reinjects_copies(self):
        sim, channel, a, b = rig()
        adversary = ReplayAdversary(
            "report", replay_delay=1.0, copies=2, base_latency=0.01
        )
        channel.add_filter(adversary)
        a.send("b", "report", {"c": 9})
        sim.run()
        assert b.received_count == 3  # original + 2 replays
        assert len(adversary.captured) == 1

    def test_replay_timing(self):
        sim, channel, a, b = rig()
        channel.add_filter(
            ReplayAdversary("report", replay_delay=2.0, copies=1,
                            base_latency=0.01)
        )
        arrivals = []

        def on_rx(msg):
            b.rx_signal.wait(on_rx)
            arrivals.append(sim.now)

        b.rx_signal.wait(on_rx)
        a.send("b", "report", None)
        sim.run()
        assert arrivals == [pytest.approx(0.01), pytest.approx(2.01)]

    def test_non_matching_passes_once(self):
        sim, channel, a, b = rig()
        channel.add_filter(ReplayAdversary("report", copies=3))
        a.send("b", "other", None)
        sim.run()
        assert b.received_count == 1
