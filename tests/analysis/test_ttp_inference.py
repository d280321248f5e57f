"""TTP role derivation for trace metrics.

``measure`` attributes TTP traffic from the network it ran on — any
node whose class declares ``is_ttp = True`` — never from role names.
"""

import pytest

from repro.analysis.metrics import infer_ttp_names, measure
from repro.core.protocol import make_deployment, run_session
from repro.crypto.drbg import HmacDrbg
from repro.net.events import Simulator
from repro.net.network import Network
from repro.net.node import Node
from repro.net.trace import TraceEvent, TraceRecorder


class DeclaredTtp(Node):
    is_ttp = True


def network_of(*nodes):
    network = Network(Simulator(), HmacDrbg(b"ttp-network"))
    for node in nodes:
        network.add_node(node)
    return network


def trace_to(dst):
    recorder = TraceRecorder()
    recorder.record(TraceEvent(0.0, "send", "alice", dst, "tpnr.x", 64, 1))
    return recorder


class TestInferTtpNames:
    def test_tpnr_deployment_declares_its_ttp(self):
        dep = make_deployment(seed=b"ttp-infer")
        names = infer_ttp_names(dep.network)
        assert names == ("ttp",)
        assert getattr(dep.network.node("ttp"), "is_ttp", False) is True
        assert not getattr(dep.network.node("alice"), "is_ttp", False)

    def test_ttp_classes_declare_the_role(self):
        from repro.baselines.zhou_gollmann import ZgClient, ZgOnlineTtp, ZgProvider
        from repro.core.ttp import TrustedThirdParty

        assert TrustedThirdParty.is_ttp is True
        assert ZgOnlineTtp.is_ttp is True
        assert not getattr(ZgClient, "is_ttp", False)
        assert not getattr(ZgProvider, "is_ttp", False)


class TestMeasureAttribution:
    def test_network_derivation_beats_name_guessing(self):
        dep = make_deployment(seed=b"ttp-measure")
        outcome = run_session(dep, b"payload")
        assert outcome is not None
        cost = measure(dep.network.trace, "tpnr", "tpnr.", network=dep.network)
        # Happy-path TPNR never touches the TTP — derived, not guessed.
        assert not cost.uses_ttp

    def test_explicit_names_take_priority_over_network(self):
        # The network's explicit is_ttp declaration decides, under any name.
        trace = trace_to("arbiter")
        declared = network_of(Node("alice"), DeclaredTtp("arbiter"))
        undeclared = network_of(Node("alice"), Node("arbiter"))
        assert measure(trace, "x", network=declared).uses_ttp
        assert not measure(trace, "x", network=undeclared).uses_ttp

    def test_roles_are_never_guessed_from_names(self):
        plain = network_of(Node("alice"), Node("ttp"), Node("zg-ttp"))
        assert not measure(trace_to("ttp"), "x", network=plain).uses_ttp
        assert not measure(trace_to("zg-ttp"), "x", network=plain).uses_ttp
        with pytest.raises(TypeError):
            measure(trace_to("ttp"), "x")  # no network, no roles
