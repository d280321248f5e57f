"""The blob store engine."""

import pytest

from repro.crypto.hashes import digest
from repro.errors import NoSuchObjectError, StorageError
from repro.storage.blobstore import BlobStore


@pytest.fixture
def store():
    return BlobStore("test")


class TestPutGet:
    def test_roundtrip(self, store):
        store.put("c", "k", b"data")
        assert store.get("c", "k").data == b"data"

    def test_default_md5_is_true_digest(self, store):
        obj = store.put("c", "k", b"data")
        assert obj.content_md5 == digest("md5", b"data")
        assert obj.content_md5 == obj.actual_md5()

    def test_explicit_md5_stored_verbatim(self, store):
        obj = store.put("c", "k", b"data", content_md5=b"\x00" * 16)
        assert obj.content_md5 == b"\x00" * 16
        assert obj.content_md5 != obj.actual_md5()

    def test_missing_object(self, store):
        with pytest.raises(NoSuchObjectError):
            store.get("c", "missing")

    def test_versions_increment(self, store):
        assert store.put("c", "k", b"v1").version == 1
        assert store.put("c", "k", b"v2").version == 2

    def test_empty_names_rejected(self, store):
        with pytest.raises(StorageError):
            store.put("", "k", b"x")
        with pytest.raises(StorageError):
            store.put("c", "", b"x")

    def test_metadata_copied(self, store):
        metadata = {"k": "v"}
        obj = store.put("c", "k", b"x", metadata=metadata)
        metadata["k"] = "changed"
        assert obj.metadata == {"k": "v"}

    def test_data_copied(self, store):
        data = bytearray(b"mutable")
        obj = store.put("c", "k", data)
        data[0] = 0
        assert obj.data == b"mutable"

    def test_counters(self, store):
        store.put("c", "k", b"x")
        store.get("c", "k")
        store.get("c", "k")
        assert store.put_count == 1
        assert store.get_count == 2


class TestDeleteList:
    def test_list_keys_scoped_to_container(self, store):
        store.put("c1", "b", b"x")
        store.put("c1", "a", b"x")
        store.put("c2", "z", b"x")
        assert store.list_keys("c1") == ["a", "b"]

    def test_len_and_total_bytes(self, store):
        store.put("c", "k1", b"xx")
        store.put("c", "k2", b"yyy")
        assert len(store.object_marks()) == 2
        assert store.total_bytes() == 5


class TestOverwriteRaw:
    def test_tamper_data_keeps_md5(self, store):
        store.put("c", "k", b"original")
        tampered = store.overwrite_raw("c", "k", data=b"replaced")
        assert tampered.data == b"replaced"
        assert tampered.content_md5 == digest("md5", b"original")
        assert tampered.content_md5 != tampered.actual_md5()

    def test_fixup_md5(self, store):
        store.put("c", "k", b"original")
        fixed = store.overwrite_raw("c", "k", data=b"evil", content_md5=digest("md5", b"evil"))
        assert fixed.content_md5 == fixed.actual_md5()  # the cover-up

    def test_cannot_create_objects(self, store):
        with pytest.raises(NoSuchObjectError):
            store.overwrite_raw("c", "ghost", data=b"x")

    def test_noop_overwrite(self, store):
        original = store.put("c", "k", b"x")
        same = store.overwrite_raw("c", "k")
        assert same.data == original.data
