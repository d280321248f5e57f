"""Network delivery, tracing, and adversary hooks."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import DeliveryError, NetworkError
from repro.net.adversary import Adversary, PassiveEavesdropper
from repro.net.channel import ChannelSpec
from repro.net.events import Simulator
from repro.net.network import Network, wire_size
from repro.net.node import Node


class Recorder(Node):
    def __init__(self, name):
        super().__init__(name)
        self.inbox = []

    def on_message(self, envelope):
        self.inbox.append(envelope)


def make_net(channel=ChannelSpec(base_latency=0.01)):
    sim = Simulator()
    net = Network(sim, HmacDrbg(b"net-tests"), channel)
    a, b = Recorder("a"), Recorder("b")
    net.add_node(a)
    net.add_node(b)
    return sim, net, a, b


class TestWireSize:
    def test_bytes_exact(self):
        assert wire_size(b"12345") == 5

    def test_object_with_wire_size(self):
        class Sized:
            def wire_size(self):
                return 42

        assert wire_size(Sized()) == 42

    def test_fallback_repr(self):
        assert wire_size(123) == len(repr(123))


class TestDelivery:
    def test_basic_delivery(self):
        sim, net, a, b = make_net()
        net.send("a", "b", "test", b"hello")
        sim.run()
        assert len(b.inbox) == 1
        assert b.inbox[0].payload == b"hello"
        assert b.inbox[0].src == "a"

    def test_delivery_delayed_by_channel(self):
        sim, net, a, b = make_net(ChannelSpec(base_latency=0.25))
        net.send("a", "b", "test", b"x")
        sim.run()
        assert sim.now == pytest.approx(0.25)

    def test_unknown_destination(self):
        _, net, a, _ = make_net()
        with pytest.raises(DeliveryError):
            net.send("a", "nobody", "test", b"x")

    def test_duplicate_node_name(self):
        _, net, _, _ = make_net()
        with pytest.raises(DeliveryError):
            net.add_node(Recorder("a"))

    def test_node_lookup(self):
        _, net, a, _ = make_net()
        assert net.node("a") is a
        with pytest.raises(DeliveryError):
            net.node("ghost")
        assert net.node_names() == ["a", "b"]

    def test_drop_channel(self):
        sim, net, a, b = make_net(ChannelSpec(drop_prob=1.0))
        net.send("a", "b", "test", b"x")
        sim.run()
        assert b.inbox == []
        assert len(net.trace.drops()) == 1

    def test_duplicate_channel(self):
        sim, net, a, b = make_net(ChannelSpec(duplicate_prob=1.0))
        net.send("a", "b", "test", b"x")
        sim.run()
        assert len(b.inbox) == 2

    def test_corruption_flag_set(self):
        sim, net, a, b = make_net(ChannelSpec(corrupt_prob=1.0))
        net.send("a", "b", "test", b"x")
        sim.run()
        assert b.inbox[0].corrupted

    def test_msg_ids_unique_and_increasing(self):
        sim, net, a, b = make_net()
        e1 = net.send("a", "b", "k", b"1")
        e2 = net.send("a", "b", "k", b"2")
        assert e2.msg_id > e1.msg_id


class TestTrace:
    def test_send_and_deliver_recorded(self):
        sim, net, a, b = make_net()
        net.send("a", "b", "proto.ping", b"hello")
        sim.run()
        assert net.trace.message_count("proto.") == 1
        assert len(net.trace.deliveries("proto.")) == 1
        assert net.trace.bytes_sent() == 5

    def test_sequence(self):
        sim, net, a, b = make_net()
        net.send("a", "b", "one", b"1")
        net.send("b", "a", "two", b"2")
        sim.run()
        assert net.trace.sequence() == [("a", "b", "one"), ("b", "a", "two")]

    def test_span(self):
        sim, net, a, b = make_net(ChannelSpec(base_latency=0.5))
        net.send("a", "b", "k", b"x")
        sim.run()
        assert net.trace.span() == pytest.approx(0.5)

    def test_participants(self):
        sim, net, a, b = make_net()
        net.send("a", "b", "k", b"x")
        sim.run()
        assert net.trace.participants() == {"a", "b"}

    def test_clear(self):
        sim, net, a, b = make_net()
        net.send("a", "b", "k", b"x")
        net.trace.clear()
        assert net.trace.events == []


class TestAdversary:
    def test_passive_eavesdropper_forwards(self):
        sim, net, a, b = make_net()
        eve = PassiveEavesdropper()
        net.install_adversary(eve)
        net.send("a", "b", "secret", b"payload")
        sim.run()
        assert len(b.inbox) == 1
        assert eve.observed_kinds() == ["secret"]

    def test_dropping_adversary(self):
        class BlackHole(Adversary):
            def on_intercept(self, envelope):
                self.seen.append(envelope)
                self.drop(envelope)

        sim, net, a, b = make_net()
        net.install_adversary(BlackHole())
        net.send("a", "b", "k", b"x")
        sim.run()
        assert b.inbox == []

    def test_positions_scope_interception(self):
        sim, net, a, b = make_net()
        eve = PassiveEavesdropper(positions={("a", "b")})
        net.install_adversary(eve)
        net.send("a", "b", "forward", b"1")
        net.send("b", "a", "reverse", b"2")
        sim.run()
        assert eve.observed_kinds() == ["forward"]
        assert len(a.inbox) == 1 and len(b.inbox) == 1

    def test_modifying_adversary(self):
        class Corruptor(Adversary):
            def on_intercept(self, envelope):
                self.seen.append(envelope)
                self.forward_modified(envelope, payload=b"altered")

        sim, net, a, b = make_net()
        net.install_adversary(Corruptor())
        net.send("a", "b", "k", b"original")
        sim.run()
        assert b.inbox[0].payload == b"altered"

    def test_replay_later(self):
        class Replayer(Adversary):
            def on_intercept(self, envelope):
                self.seen.append(envelope)
                self.forward(envelope)
                self.replay_later(envelope, 5.0)

        sim, net, a, b = make_net()
        net.install_adversary(Replayer())
        net.send("a", "b", "k", b"x")
        sim.run()
        assert len(b.inbox) == 2

    def test_remove_adversary(self):
        sim, net, a, b = make_net()
        eve = PassiveEavesdropper()
        net.install_adversary(eve)
        net.remove_adversary()
        net.send("a", "b", "k", b"x")
        sim.run()
        assert eve.seen == []

    def test_unattached_adversary_errors(self):
        eve = PassiveEavesdropper()
        with pytest.raises(NetworkError):
            _ = eve.network


class TestNode:
    def test_double_attach_rejected(self):
        _, net, a, _ = make_net()
        with pytest.raises(NetworkError):
            a.attach(net)

    def test_unattached_node_has_no_network(self):
        with pytest.raises(NetworkError):
            _ = Recorder("lonely").network

    def test_base_on_message_is_abstract(self):
        sim, net, a, b = make_net()
        plain = Node("plain")
        net.add_node(plain)
        net.send("a", "plain", "k", b"x")
        with pytest.raises(NotImplementedError):
            sim.run()

    def test_node_timeout_helper(self):
        sim, net, a, b = make_net()
        hits = []
        a.set_timeout(1.5, lambda: hits.append(a.now))
        sim.run()
        assert hits == [1.5]
