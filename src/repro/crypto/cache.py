"""Opt-in LRU caches for the crypto hot paths.

Like :mod:`repro.crypto.instrument`, this is a deliberately tiny leaf
module (stdlib only, no repro imports) exposing one process-wide seat:
``caches`` is ``None`` — the default, costing the hot paths one
attribute load and one ``is None`` test — or a :class:`CryptoCaches`
installed by the throughput engine through :func:`crypto_caches`.

What is safe to cache, and why:

* **Signature verification** is a pure function of ``(public key, hash
  algorithm, message digest, signature)``; the multi-tenant engine
  re-verifies the same NRO/NRR data-hash signature on the upload, the
  download response, and the arbitration path, so repeats are common.
* **Signing** is deterministic in this PKCS#1 v1.5 shape (no salt), so
  ``(private key, hash algorithm, message digest)`` fully determines
  the signature blob.
* **KEM wrap**: a sender re-sealing evidence to the same recipient may
  reuse its cached ``(session_key, wrapped_key)`` pair — the expensive
  RSA encryption — drawing only a fresh AEAD nonce per message.  The
  cache key includes a ``scope`` (the sender's name) so two senders
  never share a session key, mirroring real per-peer session keys.
* **KEM unwrap**: the recipient caches ``wrapped_key -> session_key``
  after its *own* first private-key decryption; nothing crosses the
  simulated wire except bytes that were already there.

None of this changes any observable protocol output: signatures are
byte-identical, wire sizes are unchanged (the AEAD nonce has a fixed
length), and channel randomness comes from the network's own DRBG
stream — campaign and experiment signatures stay byte-identical with
caches on or off, which ``tests/engine`` asserts.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Hashable

__all__ = ["LruCache", "CryptoCaches", "caches", "crypto_caches"]

_MISSING = object()


class LruCache:
    """A bounded mapping with least-recently-used eviction and counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Any:
        """Return the cached value or ``None``; counts a hit or a miss."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }


#: Capacities sized for the 1000-tenant TP1 sweep: each tenant
#: contributes a handful of distinct (digest, signature) pairs and one
#: KEM peer relationship, so 4096 entries hold the whole working set
#: without eviction churn.
VERIFY_CAPACITY = 4096
SIGN_CAPACITY = 2048
KEM_CAPACITY = 4096


class CryptoCaches:
    """The cache bundle the hot paths consult when installed."""

    def __init__(self) -> None:
        self.verify = LruCache(VERIFY_CAPACITY)
        self.sign = LruCache(SIGN_CAPACITY)
        self.kem_wrap = LruCache(KEM_CAPACITY)
        self.kem_unwrap = LruCache(KEM_CAPACITY)

    def stats(self) -> dict[str, dict[str, float]]:
        return {
            "verify": self.verify.stats(),
            "sign": self.sign.stats(),
            "kem_wrap": self.kem_wrap.stats(),
            "kem_unwrap": self.kem_unwrap.stats(),
        }


caches: CryptoCaches | None = None


@contextmanager
def crypto_caches():
    """Install a fresh :class:`CryptoCaches` for the scope; restores
    whatever was installed before.

    Yields the bundle so callers can read ``bundle.stats()`` afterwards.
    """
    global caches
    active = CryptoCaches()
    previous = caches
    caches = active
    try:
        yield active
    finally:
        caches = previous
