"""Shipping carrier, tamper behaviours, and the account directory."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import digest
from repro.errors import AuthenticationError, ShippingError, StorageError
from repro.net.events import Simulator
from repro.storage.account import Account, AccountDirectory
from repro.storage.blobstore import BlobStore
from repro.storage.shipping import (
    DAY_SECONDS,
    EXPRESS,
    GROUND,
    OVERNIGHT,
    CarrierSpec,
    ShippingCarrier,
    StorageDevice,
)
from repro.storage.tamper import TamperMode, apply_tamper


class TestCarrierSpec:
    def test_bad_day_range(self):
        with pytest.raises(ShippingError):
            CarrierSpec(min_days=5, max_days=2)
        with pytest.raises(ShippingError):
            CarrierSpec(min_days=-1, max_days=2)

    def test_bad_loss_prob(self):
        with pytest.raises(ShippingError):
            CarrierSpec(loss_prob=2.0)

    def test_transit_within_bounds(self):
        rng = HmacDrbg(b"transit")
        spec = CarrierSpec(min_days=2, max_days=5)
        for _ in range(100):
            t = spec.sample_transit_seconds(rng)
            assert 2 * DAY_SECONDS <= t <= 5 * DAY_SECONDS

    def test_presets_ordering(self):
        assert OVERNIGHT.max_days < EXPRESS.max_days <= GROUND.min_days + 2


class TestShipping:
    def test_arrival_scheduled(self):
        sim = Simulator()
        carrier = ShippingCarrier(sim, HmacDrbg(b"ship"), GROUND)
        arrived = []
        device = StorageDevice("D", 100)
        transit = carrier.ship(device, "a", "b", arrived.append)
        sim.run()
        assert arrived == [device]
        assert sim.now == pytest.approx(transit)

    def test_lost_shipment(self):
        sim = Simulator()
        spec = CarrierSpec(min_days=1, max_days=1, loss_prob=1.0)
        carrier = ShippingCarrier(sim, HmacDrbg(b"lost"), spec)
        arrived, lost = [], []
        carrier.ship(StorageDevice("D", 100), "a", "b", arrived.append, lost.append)
        sim.run()
        assert arrived == [] and len(lost) == 1
        assert carrier.shipments_lost == 1

    def test_counters(self):
        sim = Simulator()
        carrier = ShippingCarrier(sim, HmacDrbg(b"count"), EXPRESS)
        for i in range(3):
            carrier.ship(StorageDevice(f"D{i}", 10), "a", "b", lambda d: None)
        assert carrier.shipments_sent == 3


class TestTamper:
    def _store(self):
        store = BlobStore("t")
        store.put("c", "k", b"original data of reasonable length")
        return store

    def test_none_is_identity(self):
        store = self._store()
        obj = apply_tamper(store, "c", "k", TamperMode.NONE, HmacDrbg(b"t"))
        assert obj.data == b"original data of reasonable length"

    def test_bit_flip_changes_one_bit(self):
        store = self._store()
        original = store.get("c", "k").data
        tampered = apply_tamper(store, "c", "k", TamperMode.BIT_FLIP, HmacDrbg(b"t"))
        diff = [i for i, (a, b) in enumerate(zip(original, tampered.data)) if a != b]
        assert len(diff) == 1
        assert bin(original[diff[0]] ^ tampered.data[diff[0]]).count("1") == 1
        assert tampered.content_md5 != tampered.actual_md5()

    def test_replace_same_length(self):
        store = self._store()
        original_len = store.get("c", "k").size
        tampered = apply_tamper(store, "c", "k", TamperMode.REPLACE, HmacDrbg(b"t"))
        assert tampered.size == original_len
        assert tampered.content_md5 != tampered.actual_md5()

    @pytest.mark.parametrize("mode", [TamperMode.REPLACE, TamperMode.FIXUP_MD5])
    def test_redraw_never_stores_the_original(self, mode):
        # A one-byte object equal to the generator's next byte: a plain
        # redraw would write the same data back.
        original = HmacDrbg(b"t").generate(1)
        store = BlobStore("t")
        store.put("c", "k", original)
        tampered = apply_tamper(store, "c", "k", mode, HmacDrbg(b"t"))
        assert tampered.data != original

    def test_truncate_halves(self):
        store = self._store()
        original_len = store.get("c", "k").size
        tampered = apply_tamper(store, "c", "k", TamperMode.TRUNCATE, HmacDrbg(b"t"))
        assert tampered.size == original_len // 2

    def test_fixup_md5_is_consistent(self):
        store = self._store()
        tampered = apply_tamper(store, "c", "k", TamperMode.FIXUP_MD5, HmacDrbg(b"t"))
        assert tampered.content_md5 == tampered.actual_md5()  # metadata covers the tracks
        assert tampered.content_md5 == digest("md5", tampered.data)

    def test_empty_object_rejected(self):
        store = BlobStore("t")
        store.put("c", "k", b"x")
        store.overwrite_raw("c", "k", data=b"")
        with pytest.raises(StorageError):
            apply_tamper(store, "c", "k", TamperMode.BIT_FLIP, HmacDrbg(b"t"))

    def test_mode_properties(self):
        """Every mode but NONE alters the bytes; only FIXUP_MD5 also
        fixes the stored MD5 up to match them."""
        for mode in TamperMode:
            store = self._store()
            original = store.get("c", "k").data
            tampered = apply_tamper(store, "c", "k", mode, HmacDrbg(b"t"))
            assert (tampered.data != original) == (mode is not TamperMode.NONE)
            covered = tampered.content_md5 == tampered.actual_md5()
            assert covered == (mode in (TamperMode.NONE, TamperMode.FIXUP_MD5))


class TestAccounts:
    def test_create_and_lookup(self):
        directory = AccountDirectory(HmacDrbg(b"acct"))
        account = directory.create("alice")
        assert directory.by_name("alice") is account
        assert directory.by_access_key(account.access_key_id) is account

    def test_unknown_lookups(self):
        directory = AccountDirectory(HmacDrbg(b"acct"))
        with pytest.raises(AuthenticationError):
            directory.by_name("ghost")
        with pytest.raises(AuthenticationError):
            directory.by_access_key("AK00")

    def test_duplicate_rejected(self):
        directory = AccountDirectory(HmacDrbg(b"acct"))
        directory.create("alice")
        with pytest.raises(StorageError):
            directory.create("alice")

    def test_secret_key_length_enforced(self):
        with pytest.raises(StorageError):
            Account(name="x", secret_key=b"short", access_key_id="AK1")

    def test_distinct_keys(self):
        directory = AccountDirectory(HmacDrbg(b"acct"))
        a = directory.create("a")
        b = directory.create("b")
        assert a.secret_key != b.secret_key
        assert a.access_key_id != b.access_key_id
