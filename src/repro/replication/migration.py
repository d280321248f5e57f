"""Live cross-provider migration with evidence continuity (RP2).

:func:`migrate_backend` moves a :class:`~repro.replication.store.ReplicatedStore`
off one replica (say ``s3like``) and onto a new one (say
``azurelike``) *while reads keep flowing*:

1. the destination joins the replica set (empty);
2. every live object is read through the store's own verified read
   path — hedged, fork-checked — and copied onto the destination via
   its authenticated native path, with the per-object digest recorded;
3. the destination is marked caught-up in the trusted log and the
   source replica is retired.

Evidence continuity is the point: the caller passes the NRO/NRR
bundle (:func:`repro.core.archive.export_store`) exported *before*
the move, the record binds its SHA-256 into the migration chain
digest, and :func:`repro.core.archive.verify_bundle` re-verifies every
item against the key registry *after* the move.  A dispute raised
post-migration is then argued from exactly the evidence minted
pre-migration — the Arbitrator never notices the provider switched
platforms, which is what "the NRO/NRR chain survives the move" means.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..crypto.hashes import digest
from ..errors import ReproError
from .store import ReplicaAdapter, ReplicatedStore, ReplicationError

__all__ = ["MigrationRecord", "migrate_backend", "verify_migration_chain"]


@dataclass(frozen=True)
class MigrationRecord:
    """The signed-off manifest of one completed migration."""

    source: str
    destination: str
    started_at: float
    completed_at: float
    objects: tuple[tuple[str, str, int, str], ...]  # (container, key, version, digest)
    evidence_bundle_sha256: str  # "" when no bundle travelled
    evidence_verified: int  # items re-verified at the destination
    chain: str  # rolling SHA-256 over object lines + bundle hash

    @property
    def object_count(self) -> int:
        return len(self.objects)


def _chain_digest(objects: tuple[tuple[str, str, int, str], ...],
                  bundle_sha256: str) -> str:
    lines = [f"{c}|{k}|{v}|{d}" for c, k, v, d in objects]
    lines.append(f"evidence|{bundle_sha256}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def verify_migration_chain(record: MigrationRecord) -> bool:
    """Recompute the chain digest from the record's own entries."""
    return record.chain == _chain_digest(
        record.objects, record.evidence_bundle_sha256)


def migrate_backend(
    store: ReplicatedStore,
    source: str,
    destination: ReplicaAdapter,
    evidence_blob: str | None = None,
    registry=None,
    at_time: float = 0.0,
) -> MigrationRecord:
    """Migrate *store* off replica *source* and onto *destination*.

    Reads stay live throughout: each object is fetched through the
    store's verified read path (which may be served by any surviving
    replica) and written to the destination before the source retires.
    Raises :class:`ReplicationError` if a copied object's digest does
    not match the trusted log — a migration must never launder
    divergence into the new backend.
    """
    store.handle(source)  # existence check before any copying
    joined = store.add_replica(destination)
    copied: list[tuple[str, str, int, str]] = []
    for container, key in store.verifier.live_keys():
        obj = store.get(container, key)  # live, verified, hedged
        trusted = store.verifier.latest(container, key)
        copy_digest = digest("sha256", obj.data).hex()
        if trusted is None or copy_digest != trusted.digest:
            raise ReplicationError(
                f"migration copy of {container}/{key} diverges from the "
                f"trusted log ({copy_digest[:12]}... != "
                f"{(trusted.digest if trusted else '?')[:12]}...)")
        joined.adapter.put(container, key, obj.data, at_time=at_time)
        joined.versions[(container, key)] = trusted.version
        joined.vectors.setdefault((container, key), {})[joined.name] = trusted.version
        store.verifier.mark_acked(container, key, joined.name, trusted.version)
        store._emit(joined.name, "migrate-copy", container, key,
                    trusted.version, detail=f"from={source}")
        copied.append((container, key, trusted.version, trusted.digest))
    store.remove_replica(source)

    bundle_sha256 = ""
    verified_items = 0
    if evidence_blob is not None:
        bundle_sha256 = hashlib.sha256(evidence_blob.encode()).hexdigest()
        if registry is not None:
            from ..core.archive import verify_bundle

            try:
                verified_items = len(verify_bundle(evidence_blob, registry))
            except ReproError as exc:
                raise ReplicationError(
                    f"evidence bundle failed re-verification at the "
                    f"destination: {exc}") from exc

    objects = tuple(copied)
    return MigrationRecord(
        source=source,
        destination=destination.name,
        started_at=at_time,
        completed_at=at_time,
        objects=objects,
        evidence_bundle_sha256=bundle_sha256,
        evidence_verified=verified_items,
        chain=_chain_digest(objects, bundle_sha256),
    )
