"""Channel model: delays, loss, duplication, corruption, draw accounting."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import NetworkError
from repro.net.channel import LOSSY, PERFECT, WAN, ChannelSpec
from repro.net.events import Simulator
from repro.net.network import Network
from repro.net.node import Node


class CountingDrbg(HmacDrbg):
    """An HmacDrbg that counts its ``generate`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def generate(self, n_bytes):
        self.calls += 1
        return super().generate(n_bytes)


class Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.inbox = []

    def on_message(self, envelope):
        self.inbox.append(envelope)


class TestValidation:
    def test_negative_latency(self):
        with pytest.raises(NetworkError):
            ChannelSpec(base_latency=-1.0)

    def test_zero_bandwidth(self):
        with pytest.raises(NetworkError):
            ChannelSpec(bandwidth_bps=0)

    @pytest.mark.parametrize("field", ["base_latency", "jitter"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_latency_rejected(self, field, value):
        with pytest.raises(NetworkError):
            ChannelSpec(**{field: value})

    def test_nan_bandwidth_rejected(self):
        with pytest.raises(NetworkError):
            ChannelSpec(bandwidth_bps=float("nan"))

    @pytest.mark.parametrize("field", ["drop_prob", "duplicate_prob", "corrupt_prob"])
    def test_probability_bounds(self, field):
        with pytest.raises(NetworkError):
            ChannelSpec(**{field: 1.5})
        with pytest.raises(NetworkError):
            ChannelSpec(**{field: -0.1})


class TestDelay:
    def test_perfect_channel_zero_delay(self):
        assert PERFECT.one_way_delay(10_000) == 0.0

    def test_base_latency_only(self):
        spec = ChannelSpec(base_latency=0.05)
        assert spec.one_way_delay(10_000, 0.9) == 0.05

    def test_serialization_delay_scales_with_size(self):
        spec = ChannelSpec(base_latency=0.0, bandwidth_bps=1000.0)
        assert spec.one_way_delay(500) == pytest.approx(0.5)
        assert spec.one_way_delay(2000) == pytest.approx(2.0)

    def test_jitter_scales_with_the_lane(self):
        spec = ChannelSpec(base_latency=0.1, jitter=0.02)
        assert spec.one_way_delay(0, 0.0) == 0.1
        assert spec.one_way_delay(0, 0.5) == pytest.approx(0.11)

    def test_jitter_bounded(self):
        rng = HmacDrbg(b"chan-jitter")
        spec = ChannelSpec(base_latency=0.1, jitter=0.02)
        delays = [spec.sample(0, rng)[0].delay for _ in range(200)]
        assert all(0.1 <= d <= 0.12 for d in delays)
        assert len(set(delays)) > 1  # jitter actually varies


class TestSampling:
    def test_perfect_delivers_exactly_once(self):
        rng = HmacDrbg(b"sample")
        for _ in range(50):
            deliveries = PERFECT.sample(100, rng)
            assert len(deliveries) == 1
            assert not deliveries[0].corrupted

    def test_always_drop(self):
        rng = HmacDrbg(b"sample-drop")
        spec = ChannelSpec(drop_prob=1.0)
        assert spec.sample(100, rng) == []

    def test_drop_rate_statistics(self):
        rng = HmacDrbg(b"sample-stats")
        spec = ChannelSpec(drop_prob=0.3)
        n = 2000
        dropped = sum(1 for _ in range(n) if not spec.sample(100, rng))
        assert 0.25 < dropped / n < 0.35

    def test_duplicate_rate_statistics(self):
        rng = HmacDrbg(b"sample-dup-stats")
        spec = ChannelSpec(duplicate_prob=0.3)
        n = 2000
        duplicated = sum(1 for _ in range(n) if len(spec.sample(100, rng)) == 2)
        assert 0.25 < duplicated / n < 0.35

    def test_corrupt_rate_statistics(self):
        rng = HmacDrbg(b"sample-corrupt-stats")
        spec = ChannelSpec(corrupt_prob=0.3)
        n = 2000
        corrupted = sum(1 for _ in range(n) if spec.sample(100, rng)[0].corrupted)
        assert 0.25 < corrupted / n < 0.35

    def test_lanes_are_independent(self):
        # Drop, corrupt and duplicate read different lanes of one
        # block: a kept message is corrupted at the corrupt rate, not
        # conditioned on having survived the drop roll.
        rng = HmacDrbg(b"sample-lanes")
        spec = ChannelSpec(drop_prob=0.5, corrupt_prob=0.5)
        kept = [d for _ in range(2000) for d in spec.sample(100, rng)]
        assert 0.45 < sum(d.corrupted for d in kept) / len(kept) < 0.55

    def test_always_duplicate(self):
        rng = HmacDrbg(b"sample-dup")
        spec = ChannelSpec(duplicate_prob=1.0)
        assert len(spec.sample(100, rng)) == 2

    def test_always_corrupt(self):
        rng = HmacDrbg(b"sample-corrupt")
        spec = ChannelSpec(corrupt_prob=1.0)
        assert all(d.corrupted for d in spec.sample(100, rng))

    def test_presets_are_valid(self):
        for preset in (PERFECT, WAN, LOSSY):
            assert isinstance(preset, ChannelSpec)


class TestDrawAccounting:
    """One DRBG block per send, none for a spec without dice."""

    @pytest.mark.parametrize("spec", [
        WAN, LOSSY, ChannelSpec(jitter=0.01), ChannelSpec(corrupt_prob=0.5),
        ChannelSpec(drop_prob=1.0),
    ], ids=["wan", "lossy", "jitter", "corrupt", "always-drop"])
    def test_one_generate_per_send(self, spec):
        rng = CountingDrbg(b"count")
        for _ in range(50):
            deliveries = spec.sample(100, rng)
            # Only a duplicated send takes a second block.
            expected = 2 if len(deliveries) == 2 else 1
            assert rng.calls == expected
            rng.calls = 0

    def test_duplicate_takes_a_second_block(self):
        rng = CountingDrbg(b"count-dup")
        deliveries = ChannelSpec(jitter=0.01, duplicate_prob=1.0).sample(100, rng)
        assert len(deliveries) == 2
        assert rng.calls == 2
        # The copy rolls its own jitter from its own block.
        assert deliveries[0].delay != deliveries[1].delay

    @pytest.mark.parametrize("spec", [
        PERFECT, ChannelSpec(base_latency=0.04),
        ChannelSpec(base_latency=0.01, bandwidth_bps=1e6),
    ], ids=["perfect", "fixed-delay", "bandwidth-only"])
    def test_no_dice_spec_draws_nothing(self, spec):
        assert not spec.draws
        rng = CountingDrbg(b"count-none")
        for _ in range(20):
            assert len(spec.sample(100, rng)) == 1
        assert rng.calls == 0
        # Nothing to draw from, nothing needed.
        assert spec.sample(100, None) == spec.sample(100, rng)

    def test_no_dice_network_creates_no_link_stream(self):
        sim = Simulator()
        net = Network(sim, HmacDrbg(b"net"), ChannelSpec(base_latency=0.01))
        for name in ("a", "b"):
            net.add_node(Sink(name))
        for _ in range(5):
            net.send("a", "b", "m", b"x")
        sim.run()
        assert net._link_rngs == {}


class TestPerLinkStreams:
    """PT-002 rule 5: draws on one link never perturb another link's."""

    def _b_to_a_draws(self, noise):
        sim = Simulator()
        net = Network(sim, HmacDrbg(b"per-link"), LOSSY)
        for name in ("a", "b", "c"):
            net.add_node(Sink(name))
        noise(sim, net)
        sim.run()
        net.trace.clear()
        start = sim.now
        for i in range(40):
            sim.schedule(float(i), lambda: net.send("b", "a", "m", b"payload"))
        sim.run()
        return [
            (event.action, round(event.time - start, 9))
            for event in net.trace.events
            if event.src == "b" and event.dst == "a"
        ]

    def test_sends_on_other_links_leave_a_link_alone(self):
        quiet = self._b_to_a_draws(lambda sim, net: None)

        def a_to_b(sim, net):
            for _ in range(25):
                net.send("a", "b", "m", b"noise")

        def c_to_b(sim, net):
            for _ in range(7):
                net.send("c", "b", "m", b"noise")

        assert self._b_to_a_draws(a_to_b) == quiet
        assert self._b_to_a_draws(c_to_b) == quiet
        # The draws are real: a lossy link drops some of its 40 sends.
        assert any(action == "drop" for action, _ in quiet)
