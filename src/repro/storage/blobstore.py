"""The storage engine under every simulated platform.

A :class:`BlobStore` maps (container, key) to :class:`StoredObject`
versions.  It deliberately exposes *provider-side* mutation
(:meth:`overwrite_raw`) — the whole point of the paper is that the
service provider "has the capability to play with the data in hand"
(§2.4), so the substrate must let a malicious provider do exactly that
without going through any integrity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..crypto.hashes import digest
from ..errors import NoSuchObjectError, StorageError

__all__ = ["StoredObject", "BlobStore"]


@dataclass(frozen=True)
class StoredObject:
    """One stored blob version plus server-side metadata.

    ``content_md5`` is whatever the *platform* chose to persist at
    upload time (Azure model) — it is metadata, not a recomputation,
    which is exactly the distinction §2.4 turns on.
    """

    container: str
    key: str
    data: bytes
    content_md5: bytes
    metadata: dict[str, str] = field(default_factory=dict)
    created_at: float = 0.0
    version: int = 1

    @property
    def size(self) -> int:
        return len(self.data)

    def actual_md5(self) -> bytes:
        """MD5 of the bytes currently stored (recomputed, AWS model)."""
        return digest("md5", self.data)


class BlobStore:
    """In-memory container/key -> object store with version counters."""

    def __init__(self, name: str = "store") -> None:
        self.name = name
        self._objects: dict[tuple[str, str], StoredObject] = {}
        self.put_count = 0
        self.get_count = 0

    # -- normal data path -------------------------------------------------

    def put(
        self,
        container: str,
        key: str,
        data: bytes,
        content_md5: bytes | None = None,
        metadata: dict[str, str] | None = None,
        at_time: float = 0.0,
        sha256: bytes | None = None,
    ) -> StoredObject:
        """Store a blob.  ``content_md5`` defaults to the true digest.
        *sha256* (the caller's SHA-256 of *data*) is what a
        :class:`~repro.replication.store.ReplicatedStore` records in its
        trusted log; a plain store keeps no SHA-256 and ignores it."""
        if not container or not key:
            raise StorageError("container and key must be non-empty")
        previous = self._objects.get((container, key))
        obj = StoredObject(
            container=container,
            key=key,
            data=bytes(data),
            content_md5=content_md5 if content_md5 is not None else digest("md5", data),
            metadata=dict(metadata or {}),
            created_at=at_time,
            version=(previous.version + 1) if previous else 1,
        )
        self._objects[(container, key)] = obj
        self.put_count += 1
        return obj

    def get(self, container: str, key: str) -> StoredObject:
        """Fetch a blob; raises :class:`NoSuchObjectError` if absent."""
        try:
            obj = self._objects[(container, key)]
        except KeyError as exc:
            raise NoSuchObjectError(f"{container}/{key} does not exist") from exc
        self.get_count += 1
        return obj

    def list_keys(self, container: str) -> list[str]:
        return sorted(k for (c, k) in self._objects if c == container)

    def object_marks(self) -> dict[tuple[str, str], StoredObject]:
        """(container, key) -> a mark that changes whenever the object's
        bytes may have.  Every write replaces the immutable stored
        object, tampering included, so an object is its own mark."""
        return dict(self._objects)

    def total_bytes(self) -> int:
        return sum(o.size for o in self._objects.values())

    # -- provider-side (malicious) path ------------------------------------

    def overwrite_raw(
        self,
        container: str,
        key: str,
        data: bytes | None = None,
        content_md5: bytes | None = None,
    ) -> StoredObject:
        """Mutate a stored object *without* any integrity checks.

        Models the provider (or a compromised disk) changing bytes
        and/or the stored digest behind the user's back.  Raises if the
        object does not exist — tampering cannot create objects.
        """
        if (container, key) not in self._objects:
            raise NoSuchObjectError(f"{container}/{key} does not exist")
        obj = self._objects[(container, key)]
        changes: dict = {}
        if data is not None:
            changes["data"] = bytes(data)
        if content_md5 is not None:
            changes["content_md5"] = content_md5
        tampered = replace(obj, **changes) if changes else obj
        self._objects[(container, key)] = tampered
        return tampered
