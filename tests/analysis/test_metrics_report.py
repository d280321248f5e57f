"""Metrics extraction and report rendering."""

import pytest

from repro.analysis.metrics import ProtocolCost, compare, measure
from repro.analysis.report import render_kv, render_table
from repro.crypto.drbg import HmacDrbg
from repro.net.events import Simulator
from repro.net.network import Network
from repro.net.node import Node
from repro.net.trace import TraceEvent, TraceRecorder


class Ttp(Node):
    is_ttp = True


def network_of(*names):
    """A network whose node named ``ttp`` declares the TTP role."""
    network = Network(Simulator(), HmacDrbg(b"metrics-network"))
    for name in names:
        network.add_node(Ttp(name) if name == "ttp" else Node(name))
    return network


def trace_with(events):
    recorder = TraceRecorder()
    for event in events:
        recorder.record(event)
    return recorder


def send(t, src, dst, kind, size=100, msg_id=1):
    return TraceEvent(t, "send", src, dst, kind, size, msg_id)


class TestMeasure:
    def test_counts_and_bytes(self):
        trace = trace_with([
            send(0.0, "alice", "bob", "tpnr.upload", 500),
            send(0.1, "bob", "alice", "tpnr.upload.receipt", 200),
            TraceEvent(0.2, "deliver", "bob", "alice", "tpnr.upload.receipt", 200, 2),
        ])
        cost = measure(trace, "tpnr", "tpnr.", network=network_of("alice", "bob"))
        assert cost.steps == 2
        assert cost.bytes_on_wire == 700
        assert cost.latency == pytest.approx(0.2)
        assert cost.participants == 2
        assert not cost.uses_ttp

    def test_ttp_detection(self):
        trace = trace_with([send(0.0, "alice", "ttp", "tpnr.resolve.request")])
        assert measure(trace, "x", "tpnr.", network=network_of("alice", "ttp")).uses_ttp

    def test_prefix_filters(self):
        trace = trace_with([
            send(0.0, "a", "b", "tpnr.upload"),
            send(0.1, "a", "b", "zg.commit"),
        ])
        network = network_of("a", "b")
        assert measure(trace, "x", "tpnr.", network=network).steps == 1
        assert measure(trace, "x", "zg.", network=network).steps == 1
        assert measure(trace, "x", "", network=network).steps == 2


class TestCompare:
    def test_ratios(self):
        a = ProtocolCost("a", steps=2, bytes_on_wire=100, latency=0.1,
                         participants=2, ttp_messages=0)
        b = ProtocolCost("b", steps=5, bytes_on_wire=300, latency=0.2,
                         participants=3, ttp_messages=3)
        ratios = compare(a, b)
        assert ratios["steps"] == pytest.approx(2.5)
        assert ratios["bytes"] == pytest.approx(3.0)
        assert ratios["latency"] == pytest.approx(2.0)

    def test_zero_guard(self):
        a = ProtocolCost("a", 0, 0, 0.0, 0, 0)
        b = ProtocolCost("b", 5, 1, 1.0, 2, 0)
        assert compare(a, b)["steps"] == float("inf")


class TestReport:
    def test_table_renders_all_cells(self):
        text = render_table(["name", "value"], [["x", 1], ["longer-name", 2.5]],
                            title="My Table")
        assert "My Table" in text
        assert "longer-name" in text
        assert "2.5" in text

    def test_bool_formatting(self):
        text = render_table(["flag"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_float_formatting(self):
        text = render_table(["v"], [[0.000001], [12345678.0], [1.5]])
        assert "e-06" in text or "1.000e-06" in text
        assert "1.5" in text

    def test_kv_alignment(self):
        text = render_kv([("short", 1), ("much-longer-key", 2)], title="KV")
        lines = text.split("\n")
        assert lines[0] == "KV"
        assert lines[1].index(":") == lines[2].index(":")
