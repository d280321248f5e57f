"""The opt-in crypto cache bundle: LRU semantics and — the property
everything else rests on — *transparency*: with a bundle installed the
crypto functions return byte-identical outputs, and whole campaign
signatures do not move.
"""

import struct

import pytest

from repro.crypto import cache as crypto_cache
from repro.crypto import kem, rsa
from repro.crypto.cache import LruCache, crypto_caches
from repro.crypto.drbg import HmacDrbg
from repro.net.faults import CampaignRunner, generate_plans


class TestLruCache:
    def test_eviction_order_and_counters(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a" — "b" is now LRU
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 1
        assert stats["size"] == 2 == stats["capacity"]
        assert stats["hit_rate"] == 0.75

    def test_false_is_a_cacheable_value(self):
        # verify() stores bool verdicts; a stored False must come back
        # as False (a hit), not be mistaken for a miss.
        cache = LruCache(4)
        cache.put("bad-sig", False)
        assert cache.get("bad-sig") is False
        assert cache.hits == 1 and cache.misses == 0

    def test_put_existing_key_refreshes_without_growth(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, no eviction
        assert cache.stats()["size"] == 2 and cache.evictions == 0
        cache.put("c", 3)  # now "b" is LRU
        assert cache.get("b") is None and cache.get("a") == 10

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LruCache(0)


class TestScopedInstall:
    def test_context_manager_restores_previous_seat(self):
        previous = crypto_cache.caches
        with crypto_caches() as outer:
            assert crypto_cache.caches is outer
            with crypto_caches() as inner:
                assert inner is not outer
                assert crypto_cache.caches is inner
            assert crypto_cache.caches is outer
        assert crypto_cache.caches is previous

    def test_restores_even_on_error(self):
        previous = crypto_cache.caches
        with pytest.raises(RuntimeError):
            with crypto_caches():
                raise RuntimeError("boom")
        assert crypto_cache.caches is previous


class TestSignVerifyTransparency:
    def test_cached_signature_is_byte_identical(self, rsa_key):
        message = b"cache transparency"
        plain = rsa.sign(rsa_key, message)
        with crypto_caches() as bundle:
            first = rsa.sign(rsa_key, message)
            second = rsa.sign(rsa_key, message)
        assert first == second == plain
        assert bundle.sign.misses == 1 and bundle.sign.hits == 1

    def test_verify_verdicts_cached_both_ways(self, rsa_key):
        message = b"verify me"
        good = rsa.sign(rsa_key, message)
        bad = good[:-1] + bytes([good[-1] ^ 1])
        public = rsa_key.public_key()
        with crypto_caches() as bundle:
            assert rsa.verify(public, message, good) is True
            assert rsa.verify(public, message, good) is True
            assert rsa.verify(public, message, bad) is False
            assert rsa.verify(public, message, bad) is False  # cached False
        assert bundle.verify.misses == 2 and bundle.verify.hits == 2


class TestKemTransparency:
    def test_first_sealing_matches_uncached_byte_for_byte(self, rsa_key):
        public = rsa_key.public_key()
        plain = kem.hybrid_encrypt(public, b"hello", HmacDrbg(b"kem-det"))
        with crypto_caches():
            cached = kem.hybrid_encrypt(
                public, b"hello", HmacDrbg(b"kem-det"), cache_scope="alice"
            )
        assert cached == plain  # miss path draws rng in the original order

    def test_wrap_reuses_session_key_but_stays_decryptable_uncached(self, rsa_key):
        public = rsa_key.public_key()
        rng = HmacDrbg(b"kem-cache/wrap")
        with crypto_caches() as bundle:
            blob1 = kem.hybrid_encrypt(public, b"one", rng, cache_scope="alice")
            blob2 = kem.hybrid_encrypt(public, b"two", rng, cache_scope="alice")
        assert bundle.kem_wrap.misses == 1 and bundle.kem_wrap.hits == 1
        # Same RSA-wrapped session key on the wire, distinct ciphertexts.
        n1 = struct.unpack(">H", blob1[:2])[0]
        n2 = struct.unpack(">H", blob2[:2])[0]
        assert blob1[2 : 2 + n1] == blob2[2 : 2 + n2]
        assert blob1 != blob2
        # A recipient with no cache installed decrypts both.
        assert kem.hybrid_decrypt(rsa_key, blob1) == b"one"
        assert kem.hybrid_decrypt(rsa_key, blob2) == b"two"

    def test_scopes_do_not_share_session_keys(self, rsa_key):
        public = rsa_key.public_key()
        rng = HmacDrbg(b"kem-cache/scopes")
        with crypto_caches() as bundle:
            kem.hybrid_encrypt(public, b"x", rng, cache_scope="alice")
            kem.hybrid_encrypt(public, b"x", rng, cache_scope="bob")
            assert bundle.kem_wrap.misses == 2 and bundle.kem_wrap.hits == 0
            # No scope given -> never cached.
            kem.hybrid_encrypt(public, b"x", rng)
            assert bundle.kem_wrap.misses == 2 and bundle.kem_wrap.hits == 0

    def test_unwrap_cached_after_own_first_decryption(self, rsa_key):
        public = rsa_key.public_key()
        rng = HmacDrbg(b"kem-cache/unwrap")
        with crypto_caches() as bundle:
            blob1 = kem.hybrid_encrypt(public, b"m1", rng, cache_scope="alice")
            blob2 = kem.hybrid_encrypt(public, b"m2", rng, cache_scope="alice")
            assert kem.hybrid_decrypt(rsa_key, blob1) == b"m1"
            assert kem.hybrid_decrypt(rsa_key, blob2) == b"m2"
        # blob2 carries the same wrapped key -> served from the unwrap cache.
        assert bundle.kem_unwrap.misses == 1 and bundle.kem_unwrap.hits == 1


class TestCampaignInvariance:
    def test_campaign_signature_identical_with_caches_installed(self):
        """The PR's acceptance bar: caches change CPU time, never the
        simulated run — a fault campaign's signature must not move."""
        plans = generate_plans(b"cache-invariance", 4)
        baseline = CampaignRunner(seed=b"cache-invariance").run(plans).signature()
        with crypto_caches() as bundle:
            cached = CampaignRunner(seed=b"cache-invariance").run(
                generate_plans(b"cache-invariance", 4)
            ).signature()
        assert cached == baseline
        # And the caches actually participated — this was not a no-op.
        assert bundle.verify.hits + bundle.sign.hits > 0
