"""Crypto hot-path instrumentation: the observer seat and accounting."""

import pytest

from repro.crypto import aead, instrument as seat, rsa
from repro.crypto.drbg import HmacDrbg
from repro.obs.instrument import CRYPTO_OPS, CryptoObserver, observe_crypto
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def key():
    return rsa.generate_keypair(512, HmacDrbg(b"obs-crypto-tests"))


class TestSeat:
    def test_default_seat_is_empty(self):
        assert seat.observer is None

    def test_observe_crypto_installs_and_restores(self):
        reg = MetricsRegistry()
        with observe_crypto(reg) as obs:
            assert seat.observer is obs
        assert seat.observer is None

    def test_nested_observers_restore_the_outer_one(self):
        outer_reg, inner_reg = MetricsRegistry(), MetricsRegistry()
        with observe_crypto(outer_reg) as outer:
            with observe_crypto(inner_reg) as inner:
                assert seat.observer is inner
            assert seat.observer is outer
        assert seat.observer is None


    @pytest.mark.parametrize("handed_a_live_bundle", [False, True])
    def test_unobserved_session_records_nothing(self, handed_a_live_bundle):
        # OB1's disabled-path fact, and the mutation it must catch: a
        # live registry and tracer handed to an observe=False deployment.
        from repro.core.protocol import make_deployment, run_session
        from repro.obs import Observability

        dep = make_deployment(seed=b"obs-dark", observe=False)
        if handed_a_live_bundle:
            dep.network.obs = Observability(clock=lambda: dep.sim.now)
        run_session(dep, b"unobserved payload")
        bundle = dep.network.obs
        silent = (seat.observer is None and not bundle.metrics.snapshot()
                  and not bundle.tracer.spans)
        assert silent is not handed_a_live_bundle


class TestAccounting:
    def test_rsa_sign_verify_counted_with_wall_time(self, key):
        reg = MetricsRegistry()
        with observe_crypto(reg) as obs:
            sig = rsa.sign(key, b"observed message")
            assert rsa.verify(key.public_key(), b"observed message", sig)
        assert obs.calls("rsa.sign") == 1
        assert obs.calls("rsa.verify") == 1
        assert obs.wall_seconds("rsa.sign") > 0
        assert obs.wall_seconds("rsa.verify") > 0

    def test_aead_seal_open_counted(self):
        reg = MetricsRegistry()
        with observe_crypto(reg) as obs:
            sealed = aead.seal(b"k" * 32, b"n" * 12, b"payload", b"aad")
            assert aead.open_(b"k" * 32, sealed, b"aad") == b"payload"
        assert obs.calls("aead.seal") == 1
        assert obs.calls("aead.open") == 1

    def test_unobserved_crypto_still_works(self, key):
        assert seat.observer is None
        sig = rsa.sign(key, b"bare")
        assert rsa.verify(key.public_key(), b"bare", sig)

    def test_wall_time_series_is_nondeterministic(self, key):
        reg = MetricsRegistry()
        with observe_crypto(reg):
            rsa.sign(key, b"x")
        names = {m["name"] for m in reg.deterministic_snapshot()}
        assert "crypto.calls" in names
        assert "crypto.op_wall_seconds" not in names
        assert "crypto.op_wall_seconds" in {m["name"] for m in reg.snapshot()}

    def test_crypto_ops_enumerates_the_instrumented_surface(self):
        assert set(CRYPTO_OPS) == {
            "rsa.sign", "rsa.verify", "aead.seal", "aead.open",
            "merkle.build", "merkle.prove", "merkle.verify", "batch.seal",
        }

    def test_observer_records_arbitrary_op(self):
        reg = MetricsRegistry()
        obs = CryptoObserver(reg)
        obs.crypto_call("rsa.sign", 0.25)
        obs.crypto_call("rsa.sign", 0.25)
        assert obs.calls("rsa.sign") == 2
        assert obs.wall_seconds("rsa.sign") == pytest.approx(0.5)
        assert obs.wall_seconds("rsa.sign") == obs.wall_sketch("rsa.sign").sum
