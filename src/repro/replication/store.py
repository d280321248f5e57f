"""A replicated store fanning out to the three platform models.

:class:`ReplicatedStore` presents the same surface as
:class:`~repro.storage.blobstore.BlobStore` — ``put``/``get``/
``exists``/``list_keys``/``overwrite_raw`` and friends — so it can
stand in for a provider's backing store inside a TPNR deployment.
Underneath, every write fans out to the configured replicas (each a
:class:`ReplicaAdapter` over one platform's *authenticated native
path*: S3-style object API, Azure-style signed REST blocks, GAE-style
datastore), commits on a write quorum of acks, and every read is
verified against the :class:`~repro.replication.verify.ForkConsistencyVerifier`
before a byte is returned:

* **deterministic replica selection** — reads probe replicas in an
  HMAC-ranked order per (container, key), so load spreads but replay
  is exact;
* **hedged fallback** — a read that a replica cannot serve verifiably
  (divergent bytes, stale version, forged attestation, unreachable)
  falls through to the next replica in rank order;
* **read-repair** — replicas that failed verification on the way are
  rewritten with the quorum copy once a verified copy is served;
* **graceful degradation** — writes succeed while a quorum of
  replicas acknowledges; a lost quorum *rejects* the write loudly
  (:class:`ReplicationError`) rather than silently under-replicating.

Fault hooks (:meth:`fault_replica`, :meth:`tamper_replica`,
:meth:`minority_write`) let the RP1 campaign inject divergence,
split-brain, lag, and byzantine tamper; :meth:`audit` is the full
Venus-style sweep that cross-checks every replica's view of every
object against the trusted log.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import digest
from ..crypto.hmac_ import hmac_digest
from ..errors import NoSuchObjectError, ReproError, StorageError
from ..obs.metrics import NULL_METRICS
from ..obs.profiler import NULL_PROFILER
from ..storage.azurelike import AzureLikeClient, AzureLikeService
from ..storage.blobstore import BlobStore, ObjectStat, StoredObject
from ..storage.gaelike import GaeLikeService
from ..storage.rest import RestRequest
from ..storage.s3like import S3LikeService
from .verify import ForkConsistencyVerifier, ReplicaAttestation, sign_attestation

__all__ = [
    "ReplicationError",
    "ReplicaEvent",
    "ReplicaAdapter",
    "S3ReplicaAdapter",
    "AzureReplicaAdapter",
    "GaeReplicaAdapter",
    "default_replicas",
    "ReplicaHandle",
    "ReplicatedStore",
    "attach_replication",
]


class ReplicationError(StorageError):
    """A replicated operation could not complete safely."""


@dataclass(frozen=True)
class ReplicaEvent:
    """One entry of the store's replica-level event log.

    These are the "replica" source of forensic timelines: write acks,
    skipped writes, rejected reads, read-repairs, migration steps.
    """

    time: float
    replica: str
    action: str
    container: str
    key: str
    version: int = 0
    detail: str = ""


# ---------------------------------------------------------------------------
# Per-platform adapters (the authenticated native path of each backend)
# ---------------------------------------------------------------------------

class ReplicaAdapter:
    """Uniform surface over one platform service.

    Concrete adapters go through each platform's *front door* — the
    same authenticated path an application would use — never the raw
    blob store (that path is reserved for fault injection).
    """

    name: str
    platform: str

    @property
    def blobs(self) -> BlobStore:  # pragma: no cover - abstract
        raise NotImplementedError

    def put(self, container: str, key: str, data: bytes,
            at_time: float = 0.0) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def get(self, container: str, key: str) -> bytes:  # pragma: no cover
        raise NotImplementedError

    def delete(self, container: str, key: str) -> None:
        self.blobs.delete(container, key)

    def exists(self, container: str, key: str) -> bool:
        return self.blobs.exists(container, key)

    def list_keys(self, container: str) -> list[str]:
        return self.blobs.list_keys(container)

    def stat(self, container: str, key: str) -> ObjectStat:
        return self.blobs.stat(container, key, backend=self.name)


class S3ReplicaAdapter(ReplicaAdapter):
    """AWS-style replica: direct object API under an account."""

    platform = "s3like"

    def __init__(self, rng: HmacDrbg, name: str = "s3like") -> None:
        self.name = name
        self.service = S3LikeService(rng, name=name)
        self.account = self.service.create_account(f"{name}-owner")

    @property
    def blobs(self) -> BlobStore:
        return self.service.blobs

    def put(self, container: str, key: str, data: bytes,
            at_time: float = 0.0) -> None:
        self.service.put_object(self.account, container, key, data,
                                at_time=at_time)

    def get(self, container: str, key: str) -> bytes:
        return self.service.get_object(self.account, container, key)[0]


class AzureReplicaAdapter(ReplicaAdapter):
    """Azure-style replica: SharedKey-signed block blob protocol."""

    platform = "azurelike"

    def __init__(self, rng: HmacDrbg, name: str = "azurelike") -> None:
        self.name = name
        self.service = AzureLikeService(rng, name=name)
        self.account = self.service.create_account(f"{name}-owner")
        self.client = AzureLikeClient(self.service, self.account)

    @property
    def blobs(self) -> BlobStore:
        return self.service.blobs

    def put(self, container: str, key: str, data: bytes,
            at_time: float = 0.0) -> None:
        self.client.put_blob(container, key, data, at_time=at_time)

    def get(self, container: str, key: str) -> bytes:
        # verify=False: the fork-consistency verifier (not the naive
        # returned-MD5 check §2.4 breaks) decides whether to trust this.
        return self.client.get_blob(container, key, verify=False)

    def delete(self, container: str, key: str) -> None:
        request = self.client._signed(RestRequest(
            method="DELETE",
            path=f"/{self.account.name}/{container}/{key}",
        ))
        response = self.service.handle(request)
        if response.status == 404:
            raise NoSuchObjectError(f"{container}/{key} does not exist")
        if not response.ok:
            raise StorageError(
                f"DELETE failed ({response.status}): {response.body.decode()}")


class GaeReplicaAdapter(ReplicaAdapter):
    """GAE-style replica: the datastore GET/PUT lower API."""

    platform = "gaelike"

    def __init__(self, rng: HmacDrbg, name: str = "gaelike") -> None:
        self.name = name
        self.service = GaeLikeService(rng, name=name)

    @property
    def blobs(self) -> BlobStore:
        return self.service.blobs

    def put(self, container: str, key: str, data: bytes,
            at_time: float = 0.0) -> None:
        self.service.datastore_put(container, key, data, at_time=at_time)

    def get(self, container: str, key: str) -> bytes:
        return self.service.datastore_get(container, key)


def default_replicas(seed: bytes | str) -> tuple[ReplicaAdapter, ...]:
    """One adapter per platform model, each on its own DRBG stream."""
    rng = HmacDrbg(seed, personalization=b"replica-backends")
    return (
        S3ReplicaAdapter(rng.fork("s3like")),
        AzureReplicaAdapter(rng.fork("azurelike")),
        GaeReplicaAdapter(rng.fork("gaelike")),
    )


# ---------------------------------------------------------------------------
# The replicated store
# ---------------------------------------------------------------------------

class ReplicaHandle:
    """Coordinator-side state for one replica: adapter + attestations."""

    def __init__(self, adapter: ReplicaAdapter, mac_key: bytes) -> None:
        self.adapter = adapter
        self.name = adapter.name
        self.mac_key = mac_key
        self.status = "up"  # "up" | "partitioned" | "lagging"
        self.versions: dict[tuple[str, str], int] = {}
        self.vectors: dict[tuple[str, str], dict[str, int]] = {}
        self.forged: set[tuple[str, str]] = set()

    def attest(self, container: str, key: str, data: bytes) -> ReplicaAttestation:
        """The attestation this replica returns for *data* it served.

        A byzantine replica marked ``forged`` for this object signs
        with a corrupted key — the verifier's MAC check catches it.
        """
        mac_key = self.mac_key
        if (container, key) in self.forged:
            mac_key = hmac_digest(b"forged-replica-key", self.mac_key)
        vector = tuple(sorted(self.vectors.get((container, key), {}).items()))
        return sign_attestation(
            mac_key, self.name, container, key, data,
            self.versions.get((container, key), 0), vector,
        )


class ReplicatedStore:
    """BlobStore-compatible facade over k quorum-replicated backends."""

    def __init__(
        self,
        seed: bytes | str = b"replicated-store",
        replicas: tuple[ReplicaAdapter, ...] | None = None,
        quorum: int | None = None,
        name: str = "replicated",
        clock=None,
        metrics=None,
    ) -> None:
        self.seed = seed if isinstance(seed, bytes) else seed.encode()
        self.name = name
        self.clock = clock  # callable -> sim time, set by attach_replication
        # A MetricsRegistry or the shared no-op; attach_replication
        # swaps in the deployment's live registry when observed.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # Region-profiler seat, same contract: NULL until a deployment
        # with an enabled profiler is attached.
        self.profiler = NULL_PROFILER
        adapters = tuple(replicas) if replicas is not None else default_replicas(seed)
        if not adapters:
            raise ReplicationError("a replicated store needs at least one replica")
        self._handles: dict[str, ReplicaHandle] = {}
        for adapter in adapters:
            self._handles[adapter.name] = ReplicaHandle(
                adapter, self._derive_mac_key(adapter.name))
        self.quorum = quorum if quorum is not None else len(adapters) // 2 + 1
        if not (1 <= self.quorum <= len(adapters)):
            raise ReplicationError(
                f"quorum {self.quorum} impossible with {len(adapters)} replicas")
        self._rank_key = HmacDrbg(
            self.seed, personalization=b"replica-rank").generate(32)
        self.verifier = ForkConsistencyVerifier(
            {h.name: h.mac_key for h in self._handles.values()})
        self.events: list[ReplicaEvent] = []
        self.put_count = 0
        self.get_count = 0
        self.hedged_reads = 0
        self.read_repairs = 0
        self.rejected_writes = 0
        self._op_seq = 0
        # Injection time per (replica, container, key), so the first
        # finding that exposes the fault yields a detection latency.
        self._fault_marks: dict[tuple[str, str, str], float] = {}

    def _derive_mac_key(self, replica_name: str) -> bytes:
        return HmacDrbg(
            self.seed,
            personalization=b"replica-key/" + replica_name.encode(),
        ).generate(32)

    # -- membership ----------------------------------------------------------

    @property
    def replica_names(self) -> tuple[str, ...]:
        return tuple(self._handles)

    def handle(self, name: str) -> ReplicaHandle:
        try:
            return self._handles[name]
        except KeyError as exc:
            raise ReplicationError(f"unknown replica {name!r}") from exc

    def add_replica(self, adapter: ReplicaAdapter) -> ReplicaHandle:
        """Join a new replica (empty — migration copies data in)."""
        if adapter.name in self._handles:
            raise ReplicationError(f"replica {adapter.name!r} already joined")
        joined = ReplicaHandle(adapter, self._derive_mac_key(adapter.name))
        self._handles[adapter.name] = joined
        self.verifier.register_replica(joined.name, joined.mac_key)
        self._emit(joined.name, "join", "-", "-")
        return joined

    def remove_replica(self, name: str) -> ReplicaHandle:
        """Retire a replica from the fan-out set."""
        retired = self.handle(name)
        if len(self._handles) - 1 < self.quorum:
            raise ReplicationError(
                f"retiring {name!r} would leave fewer replicas than the "
                f"write quorum ({self.quorum})")
        del self._handles[name]
        self._emit(name, "retire", "-", "-")
        return retired

    # -- internals -----------------------------------------------------------

    def _now(self) -> float:
        if callable(self.clock):
            return float(self.clock())
        return self._op_seq * 1e-3

    def _emit(self, replica: str, action: str, container: str, key: str,
              version: int = 0, detail: str = "") -> None:
        self._op_seq += 1
        self.events.append(ReplicaEvent(
            self._now(), replica, action, container, key, version, detail))

    def _observe_finding(self, finding) -> None:
        """Mirror one verifier finding into the metrics seat, and close
        out its fork-detection-latency measurement if this finding is
        the first to expose an injected fault."""
        if finding is None:
            return
        mark = self._fault_marks.pop(
            (finding.replica, finding.container, finding.key), None)
        if self.metrics.enabled:
            self.metrics.counter(
                "replication.findings", category=finding.category).inc()
            if mark is not None:
                self.metrics.sketch(
                    "replication.fork_detection_seconds"
                ).observe(max(0.0, self._now() - mark))

    def read_order(self, container: str, key: str) -> list[str]:
        """Replica preference order for one object: HMAC-ranked, so it
        is deterministic per key but spreads across keys."""
        def rank(name: str) -> str:
            return hmac_digest(
                self._rank_key, f"{name}|{container}|{key}".encode()).hex()

        return sorted(self._handles, key=rank)

    # -- BlobStore-compatible data path --------------------------------------

    def put(
        self,
        container: str,
        key: str,
        data: bytes,
        content_md5: bytes | None = None,
        metadata: dict[str, str] | None = None,
        at_time: float = 0.0,
    ) -> StoredObject:
        """Fan the write out; commit on a quorum of acknowledgements."""
        with self.profiler.region("replication/put"):
            return self._put_inner(container, key, data, content_md5,
                                   metadata, at_time)

    def _put_inner(
        self,
        container: str,
        key: str,
        data: bytes,
        content_md5: bytes | None,
        metadata: dict[str, str] | None,
        at_time: float,
    ) -> StoredObject:
        if not container or not key:
            raise StorageError("container and key must be non-empty")
        data = bytes(data)
        latest = self.verifier.latest(container, key)
        version = latest.version + 1 if latest else 1
        md5 = content_md5 if content_md5 is not None else digest("md5", data)
        up = [h for h in self._handles.values() if h.status == "up"]
        if len(up) < self.quorum:
            # Reject before dirtying any replica: an under-quorum write
            # must never leave a minority holding uncommitted versions.
            self.rejected_writes += 1
            if self.metrics.enabled:
                self.metrics.counter("replication.rejected_writes").inc()
            self._emit("-", "write-rejected", container, key, version,
                       detail=f"{len(up)}/{self.quorum} reachable")
            raise ReplicationError(
                f"write quorum lost for {container}/{key}: "
                f"{len(up)}/{self.quorum} replicas reachable")
        acked: list[str] = []
        for handle in self._handles.values():
            if handle.status != "up":
                self._emit(handle.name, "write-skipped", container, key,
                           version, detail=handle.status)
                continue
            handle.adapter.put(container, key, data, at_time=at_time)
            handle.versions[(container, key)] = version
            handle.forged.discard((container, key))
            acked.append(handle.name)
            self._emit(handle.name, "write-ack", container, key, version)
        for name in acked:
            vector = self._handles[name].vectors.setdefault((container, key), {})
            for other in acked:
                vector[other] = version
        self.verifier.commit(container, key, version,
                             digest("sha256", data).hex(), md5.hex(),
                             len(data), at_time, acked)
        self.put_count += 1
        if self.metrics.enabled:
            self.metrics.counter("replication.writes").inc()
        return StoredObject(
            container=container, key=key, data=data, content_md5=md5,
            metadata=dict(metadata or {}), created_at=at_time, version=version,
        )

    def get(self, container: str, key: str) -> StoredObject:
        """Serve a *verified* copy: probe in rank order, hedge past any
        replica whose attestation the verifier rejects, then repair the
        stragglers with the quorum copy."""
        with self.profiler.region("replication/get"):
            return self._get_inner(container, key)

    def _get_inner(self, container: str, key: str) -> StoredObject:
        latest = self.verifier.latest(container, key)
        if latest is None:
            raise NoSuchObjectError(f"{container}/{key} does not exist")
        repair: list[str] = []
        attempts = 0
        for name in self.read_order(container, key):
            handle = self._handles[name]
            if handle.status == "partitioned":
                self._emit(name, "read-skip", container, key,
                           detail="partitioned")
                continue
            attempts += 1
            try:
                payload = handle.adapter.get(container, key)
            except ReproError as exc:
                self._emit(name, "read-miss", container, key, detail=str(exc))
                self._observe_finding(
                    self.verifier.check_missing(name, container, key))
                repair.append(name)
                continue
            with self.profiler.region("replication/attest-verify"):
                attestation = handle.attest(container, key, payload)
                finding = self.verifier.check_read(attestation)
            if finding is None:
                if attempts > 1:
                    self.hedged_reads += 1
                    if self.metrics.enabled:
                        self.metrics.counter("replication.hedged_reads").inc()
                self._emit(name, "read", container, key, attestation.version)
                self._read_repair(container, key, payload, latest, repair)
                self.get_count += 1
                if self.metrics.enabled:
                    self.metrics.counter(
                        "replication.reads",
                        outcome="repaired" if repair else "clean",
                    ).inc()
                return StoredObject(
                    container=container, key=key, data=payload,
                    content_md5=bytes.fromhex(latest.md5),
                    created_at=latest.created_at, version=latest.version,
                )
            self._emit(name, "read-reject", container, key,
                       attestation.version, detail=finding.category)
            self._observe_finding(finding)
            repair.append(name)
        raise ReplicationError(
            f"no replica served a verified copy of {container}/{key}")

    def _read_repair(self, container: str, key: str, data: bytes,
                     latest, repair: list[str]) -> None:
        for name in repair:
            handle = self._handles[name]
            if handle.status != "up":
                continue  # cannot repair a partitioned/lagging process
            handle.adapter.put(container, key, data,
                               at_time=latest.created_at)
            handle.versions[(container, key)] = latest.version
            handle.vectors.setdefault((container, key), {})[name] = latest.version
            handle.forged.discard((container, key))
            self.verifier.mark_acked(container, key, name, latest.version)
            self.read_repairs += 1
            if self.metrics.enabled:
                self.metrics.counter("replication.read_repairs").inc()
            self._emit(name, "read-repair", container, key, latest.version)

    def delete(self, container: str, key: str) -> None:
        if self.verifier.latest(container, key) is None:
            raise NoSuchObjectError(f"{container}/{key} does not exist")
        for handle in self._handles.values():
            if handle.status != "up":
                continue
            try:
                handle.adapter.delete(container, key)
            except ReproError:
                continue
            handle.versions.pop((container, key), None)
            handle.vectors.pop((container, key), None)
            self._emit(handle.name, "delete", container, key)
        self.verifier.delete(container, key)

    def exists(self, container: str, key: str) -> bool:
        return self.verifier.latest(container, key) is not None

    def list_keys(self, container: str) -> list[str]:
        return sorted(k for (c, k) in self.verifier.live_keys()
                      if c == container)

    def objects(self) -> list[StoredObject]:
        return [self.get(c, k) for c, k in self.verifier.live_keys()]

    def object_marks(self) -> dict[tuple[str, str], tuple[int, str]]:
        """(container, key) -> the trusted log's (version, digest).  A
        committed write and :meth:`overwrite_raw` both change it, and
        reading it touches no replica."""
        marks = {}
        for container, key in self.verifier.live_keys():
            latest = self.verifier.latest(container, key)
            marks[(container, key)] = (latest.version, latest.digest)
        return marks

    def total_bytes(self) -> int:
        total = 0
        for container, key in self.verifier.live_keys():
            latest = self.verifier.latest(container, key)
            total += latest.size if latest else 0
        return total

    def __len__(self) -> int:
        return len(self.verifier.live_keys())

    # -- parity surface ------------------------------------------------------

    def stat(self, container: str, key: str,
             backend: str | None = None) -> ObjectStat:
        latest = self.verifier.latest(container, key)
        if latest is None:
            raise NoSuchObjectError(f"{container}/{key} does not exist")
        return ObjectStat(
            backend=backend if backend is not None else self.name,
            container=container, key=key, size=latest.size,
            version=latest.version, created_at=latest.created_at,
            content_digest=latest.digest, stored_md5=latest.md5,
        )

    def content_digest(self, container: str, key: str) -> str:
        return self.stat(container, key).content_digest

    # -- provider-side (malicious) path --------------------------------------

    def overwrite_raw(
        self,
        container: str,
        key: str,
        data: bytes | None = None,
        content_md5: bytes | None = None,
    ) -> StoredObject:
        """The §2.4 tamper path, replicated: the party *running* this
        store rewrites the bytes on every replica and fixes its own
        trusted log, so replica-level checks cannot object.  Only the
        client-held NRO/NRR evidence still can."""
        latest = self.verifier.latest(container, key)
        if latest is None:
            raise NoSuchObjectError(f"{container}/{key} does not exist")
        current = self.get(container, key)
        new_data = bytes(data) if data is not None else current.data
        new_md5 = content_md5 if content_md5 is not None else current.content_md5
        for handle in self._handles.values():
            try:
                handle.adapter.blobs.overwrite_raw(
                    container, key, data=new_data, content_md5=new_md5)
            except ReproError:
                continue
            self._emit(handle.name, "overwrite-raw", container, key,
                       latest.version)
        self.verifier.rewrite_history(
            container, key, digest("sha256", new_data).hex(),
            new_md5.hex(), len(new_data))
        return StoredObject(
            container=container, key=key, data=new_data, content_md5=new_md5,
            created_at=latest.created_at, version=latest.version,
        )

    # -- fault hooks (RP1 campaign) ------------------------------------------

    def fault_replica(self, name: str, mode: str) -> None:
        """Mark a replica ``partitioned`` or ``lagging``."""
        if mode not in ("partitioned", "lagging"):
            raise ReplicationError(f"unknown replica fault mode {mode!r}")
        self.handle(name).status = mode
        self._emit(name, f"fault-{mode}", "-", "-")

    def heal_replica(self, name: str) -> None:
        self.handle(name).status = "up"
        self._emit(name, "heal", "-", "-")

    def tamper_replica(self, name: str, container: str, key: str,
                       data: bytes, forge_attestation: bool = False) -> None:
        """Byzantine/divergence injection: rewrite one replica's copy
        behind the coordinator's back, with the platform MD5 fixed up
        (so single-backend checks pass); optionally forge the
        attestation key too."""
        handle = self.handle(name)
        handle.adapter.blobs.overwrite_raw(
            container, key, data=bytes(data),
            content_md5=digest("md5", data))
        if forge_attestation:
            handle.forged.add((container, key))
        self._fault_marks[(name, container, key)] = self._now()
        self._emit(name, "tampered", container, key,
                   handle.versions.get((container, key), 0),
                   detail="forged-mac" if forge_attestation else "fixup-md5")

    def minority_write(self, name: str, container: str, key: str,
                       data: bytes, at_time: float = 0.0) -> None:
        """Split-brain injection: a partitioned replica accepts a write
        the quorum never sees, advancing its private history."""
        handle = self.handle(name)
        handle.adapter.put(container, key, bytes(data), at_time=at_time)
        forked_version = handle.versions.get((container, key), 0) + 1
        handle.versions[(container, key)] = forked_version
        handle.vectors.setdefault((container, key), {})[name] = forked_version
        self._fault_marks[(name, container, key)] = self._now()
        self._emit(name, "minority-write", container, key, forked_version)

    # -- the Venus-style audit sweep -----------------------------------------

    def audit(self) -> list:
        """Cross-check every replica's view of every live object against
        the trusted log; returns the findings this sweep produced."""
        before = len(self.verifier.findings)
        for container, key in self.verifier.live_keys():
            for handle in self._handles.values():
                if handle.status == "partitioned":
                    self._emit(handle.name, "audit-unreachable", container, key)
                    continue
                try:
                    payload = handle.adapter.get(container, key)
                except ReproError:
                    self._observe_finding(
                        self.verifier.check_missing(handle.name, container, key))
                    continue
                self._observe_finding(self.verifier.check_read(
                    handle.attest(container, key, payload)))
        self._emit("-", "audit", "-", "-",
                   detail=f"{len(self.verifier.findings) - before} findings")
        return self.verifier.findings[before:]

    def stats(self) -> dict[str, int]:
        return {
            "replicas": len(self._handles),
            "quorum": self.quorum,
            "objects": len(self),
            "puts": self.put_count,
            "gets": self.get_count,
            "hedged_reads": self.hedged_reads,
            "read_repairs": self.read_repairs,
            "rejected_writes": self.rejected_writes,
            "events": len(self.events),
            "findings": len(self.verifier.findings),
        }


def attach_replication(deployment, store: ReplicatedStore) -> ReplicatedStore:
    """Swap a deployment's provider onto *store* and expose it for
    forensics (the ``replica`` timeline source and the auditor's
    replication check read ``deployment.replication``)."""
    store.clock = lambda: deployment.sim.now
    if getattr(deployment.obs, "enabled", False):
        store.metrics = deployment.obs.metrics
        store.profiler = deployment.obs.profiler
    deployment.provider.store = store
    deployment.replication = store
    return store
