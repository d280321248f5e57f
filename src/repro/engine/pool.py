"""Multi-tenant TPNR session pool.

One :class:`SessionPool` drives N concurrent Normal-mode sessions —
one client per tenant, all against one provider, one TTP, one
:class:`~repro.net.network.Network` and one
:class:`~repro.net.events.Simulator`.  This is the paper's open
performance question (§6) made concrete: what does the protocol cost
when a provider serves heavy traffic rather than one Alice at a time?

Determinism under any interleaving is the design constraint.  Every
random stream is a *named* :class:`~repro.crypto.drbg.HmacDrbg`
(Proteus-style: ``HmacDrbg(seed, personalization=...)``), never a
``fork()`` off a shared parent — forking mutates the parent, so the
stream a tenant received would depend on construction order.  With
named streams, tenant 7's nonces are the same whether 10 or 1000
tenants run beside it, and two same-seed runs are byte-identical
(:meth:`PoolResult.signature` is the proof handle; ``tests/engine``
asserts it).

Transaction IDs are likewise explicit (``TXN-E{tenant}-{k}``) instead
of the process-global counter, so a pool's IDs do not depend on how
many transactions ran earlier in the process.

A pool world is not observed: its network keeps
:data:`~repro.obs.NULL_OBS`, so its parties record no metric, span or
root event.  The pool keeps only what it reports: the
``engine.session_latency`` sketch its p50/p99 come from, observed once
per finished session, and, when profiled, the drive phase's crypto
call counts.  Full telemetry (metrics, span trees, SLOs, detectors)
belongs to single deployments (``make_deployment(observe=True)``) and
fault campaigns, which the ``repro obs``/``forensics``/``slo``/``profile
--critical-path`` viewers and the OB1-OB4 experiments read.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from dataclasses import dataclass, field as dataclass_field

from ..core.client import DownloadResult, TpnrClient
from ..core.policy import DEFAULT_POLICY, TpnrPolicy
from ..core.protocol import settle_batches
from ..core.provider import TpnrProvider
from ..core.transaction import TransactionRecord, TxStatus
from ..core.ttp import TrustedThirdParty
from ..crypto import cache as crypto_cache
from ..crypto.batch import BatchLedger, EvidenceBatcher
from ..crypto.drbg import HmacDrbg
from ..crypto.pki import CertificateAuthority, Identity, KeyRegistry
from ..determinism import canon_float
from ..net.channel import PERFECT, ChannelSpec
from ..net.events import Simulator
from ..net.network import Network
from ..obs.instrument import observe_crypto
from ..obs.metrics import MetricsRegistry
from ..obs.sketch import QuantileSketch

__all__ = [
    "EngineConfig",
    "TenantDirectory",
    "SessionRecord",
    "PoolResult",
    "SessionPool",
    "latency_quantiles",
]

#: The per-session latency sketch's name: the one distribution the
#: pool reports p50/p99 from.
LATENCY_SKETCH = "engine.session_latency"


def latency_quantiles(sketch: QuantileSketch) -> tuple[float, float]:
    """``(p50, p99)`` of a pool's latency sketch.

    The one quantile path for pool results: an unsharded pool passes
    its own sketch, :func:`~repro.engine.sharding.merge_pool_results`
    the exact merge of its shards' sketches, so both report the same
    numbers.  ``(0.0, 0.0)`` when nothing was observed.
    """
    return sketch.quantile(0.50), sketch.quantile(0.99)


#: The provider's and TTP's node names in every pool world.
PROVIDER_NAME, TTP_NAME = "bob", "ttp"
#: Upload payload sizes, drawn uniformly from [PAYLOAD_MIN, PAYLOAD_MAX].
PAYLOAD_MIN, PAYLOAD_MAX = 64, 512
#: Uploads start uniformly inside this window (sim s).
ARRIVAL_WINDOW = 5.0
#: The drive loop's slice (sim s).  The loop polls nothing; the slice
#: only puts ``sim_duration``, which ``signature()`` hashes, on this
#: grid, so it must not change.
SAMPLE_INTERVAL = 0.5


def _seed_bytes(seed: bytes | str) -> bytes:
    return seed.encode("utf-8") if isinstance(seed, str) else bytes(seed)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for one pool run.

    Every session uploads a payload and downloads it back.  Payload
    sizes, arrival times and the drive loop's slice are the module
    constants above; keys are ``pki.DEFAULT_KEY_BITS``.
    """

    n_tenants: int = 10
    transactions_per_tenant: int = 1
    use_caches: bool = True
    # Merkle-batched evidence: one RSA signature per batch of this many
    # evidence leaves (None = classic per-message signatures).  Batch
    # layout never reaches the wire accounting (the blob is the fixed
    # 32-byte leaf), so signature() is invariant in batch_size.
    batch_size: int | None = None
    # Call-count profile: the {path: calls} table of
    # repro.obs.profiler lands in PoolResult.profile (telemetry only —
    # the profile never reaches signature()).
    profile: bool = False

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if self.transactions_per_tenant < 1:
            raise ValueError("transactions_per_tenant must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for per-message)")


class TenantDirectory:
    """Memoised identities for pool worlds.

    Key generation dominates world-building cost, so the directory
    caches every :class:`Identity` (tenants, provider, TTP, CA) and a
    sweep reuses them across points — the 100-tenant point pays keygen
    only for the 90 tenants the 10-tenant point did not create.  Each
    identity derives from its own named DRBG stream, so the keys a name
    gets are independent of creation order and of which other names
    exist.

    Safe under concurrent/shard use: memoization is guarded by an
    RLock, so a directory shared across engine shards generates each
    identity exactly once (``keygen_count`` is the proof handle — a
    double-warm or a cross-shard race can only read the cache, never
    regenerate).  Because streams are *named*, two shards asking for
    the same label get equal, independent streams — a label collision
    across shards yields the same keys, not corrupted ones.
    """

    def __init__(self, seed: bytes | str = b"tpnr-engine") -> None:
        self._seed = _seed_bytes(seed)
        self._identities: dict[str, Identity] = {}
        self._ca: CertificateAuthority | None = None
        self._lock = threading.RLock()
        self.keygen_count = 0

    def stream(self, label: str) -> HmacDrbg:
        """A named DRBG stream under this directory's seed.

        Stateless with respect to the directory (a fresh DRBG each
        call), hence safe to call from any shard without the lock.
        """
        return HmacDrbg(self._seed, personalization=label.encode("utf-8"))

    def identity(self, name: str) -> Identity:
        with self._lock:
            found = self._identities.get(name)
            if found is None:
                found = Identity.generate(name, self.stream(f"engine/identity/{name}"))
                self._identities[name] = found
                self.keygen_count += 1
            return found

    def certificate_authority(self) -> CertificateAuthority:
        with self._lock:
            if self._ca is None:
                self._ca = CertificateAuthority("repro-ca", self.stream("engine/ca"))
            return self._ca

    def warm(self, names: list[str]) -> None:
        """Pre-generate identities outside any timed region."""
        for name in names:
            self.identity(name)


@dataclass
class SessionRecord:
    """One tenant transaction's lifecycle, in simulated time."""

    tenant: str
    transaction_id: str
    payload_size: int
    started_at: float
    upload_done_at: float | None = None
    download_done_at: float | None = None
    upload_status: str = "pending"
    download_verified: bool = False
    download_detail: str = ""
    finished: bool = False

    @property
    def latency(self) -> float | None:
        """Sim seconds from upload start to session end, if finished."""
        end = self.download_done_at if self.download_done_at is not None else self.upload_done_at
        return None if end is None else end - self.started_at

    def row(self) -> tuple:
        """Canonical deterministic projection for signatures.

        Every float goes through :func:`repro.determinism.canon_float`
        — the one normalization point for hashed floats, so a row built
        on shard 3 of 8 hashes identically to the same row built
        unsharded.
        """
        return (
            self.tenant,
            self.transaction_id,
            self.payload_size,
            canon_float(self.started_at),
            None if self.upload_done_at is None else canon_float(self.upload_done_at),
            None if self.download_done_at is None else canon_float(self.download_done_at),
            self.upload_status,
            self.download_verified,
            self.download_detail,
        )


@dataclass
class PoolResult:
    """Everything one pool run produced.

    :meth:`signature` hashes only the simulation outputs (session rows,
    wire accounting, party tallies) — telemetry and cache statistics
    are deliberately excluded, so the signature must be byte-identical
    across same-seed runs *and* across runs with the crypto caches on
    or off (the caches change CPU time, never simulated behavior).
    """

    config: EngineConfig
    sessions: list[SessionRecord]
    sim_duration: float
    messages_sent: int
    bytes_on_wire: int
    provider_stats: dict[str, int]
    ttp_stats: dict[str, int]
    p50_latency: float
    p99_latency: float
    # The engine.session_latency sketch p50/p99 come from (merged over
    # shards); telemetry only, excluded from signature() like the cache
    # statistics.
    latency_sketch: QuantileSketch
    cache_stats: dict[str, dict[str, float]] | None = None
    # Batched-evidence telemetry ({"batches": n, "leaves": n,
    # "resolved": n, "failed": n}); excluded from signature() — batch
    # layout is a crypto-amortization choice, not simulated behavior.
    batch_stats: dict | None = None
    # Per-shard summaries when this result was merged from a sharded
    # run ([{"shard": i, "tenants": n, "sessions": n, ...}]); empty for
    # an unsharded run.  Telemetry only, excluded from signature().
    shard_summaries: list = dataclass_field(default_factory=list)
    # The run's {path: calls} table (config.profile); telemetry only,
    # excluded from signature() like cache_stats.
    profile: dict[str, int] | None = None

    @property
    def completed(self) -> int:
        return sum(1 for s in self.sessions if s.upload_status in ("completed", "resolved"))

    @property
    def verified(self) -> int:
        return sum(1 for s in self.sessions if s.download_verified)

    @property
    def rsa_private_ops(self) -> int | None:
        """RSA private-key operations the run paid: signatures plus KEM
        unwraps.  Both go through the crypto caches, and a miss is
        exactly one private-key operation, so the count is deterministic
        per seed.  ``None`` when the run had no cache bundle to count."""
        if self.cache_stats is None:
            return None
        return int(self.cache_stats["sign"]["misses"]
                   + self.cache_stats["kem_unwrap"]["misses"])

    def signature(self) -> str:
        h = hashlib.sha256()
        for session in sorted(self.sessions, key=lambda s: s.transaction_id):
            h.update(repr(session.row()).encode("utf-8"))
            h.update(b"\n")
        h.update(repr((
            self.messages_sent,
            self.bytes_on_wire,
            canon_float(self.sim_duration),
            sorted(self.provider_stats.items()),
            sorted(self.ttp_stats.items()),
        )).encode("utf-8"))
        return h.hexdigest()


class SessionPool:
    """Build one multi-tenant world, drive it to quiescence, report.

    Usage::

        pool = SessionPool(EngineConfig(n_tenants=100), seed=b"tp1")
        result = pool.run()
    """

    def __init__(
        self,
        config: EngineConfig,
        seed: bytes | str = b"tpnr-engine",
        directory: TenantDirectory | None = None,
        channel: ChannelSpec = PERFECT,
        policy: TpnrPolicy = DEFAULT_POLICY,
        roster: "tuple[tuple[int, str], ...] | None" = None,
    ) -> None:
        self.config = config
        self._seed = _seed_bytes(seed)
        # `is None`, not `or`: consumers must never rely on directory
        # truthiness (an empty directory memoizes as the pool builds).
        if directory is None:
            directory = TenantDirectory(self._seed)
        self.directory = directory
        self.channel = channel
        self.policy = policy
        # The roster maps each tenant to its GLOBAL index: transaction
        # IDs, workload streams, and party streams all key off it, so a
        # shard pool running tenants (3, 7, 11) of a 16-tenant world
        # produces exactly the rows the unsharded world would.
        if roster is None:
            roster = tuple(
                (i, f"tenant-{i:04d}") for i in range(config.n_tenants)
            )
        if len(roster) != config.n_tenants:
            raise ValueError(
                f"roster has {len(roster)} tenants, config says {config.n_tenants}"
            )
        self.roster = tuple(roster)
        self.tenant_names = [name for _, name in self.roster]
        # Populated by build()/run():
        self.sim: Simulator | None = None
        self.network: Network | None = None
        self.provider: TpnrProvider | None = None
        self.ttp: TrustedThirdParty | None = None
        self.clients: dict[str, TpnrClient] = {}
        self._sessions: dict[str, SessionRecord] = {}
        self.latency_sketch = QuantileSketch(LATENCY_SKETCH)
        self.ledger: BatchLedger | None = None

    # -- world construction --------------------------------------------------

    def _stream(self, label: str) -> HmacDrbg:
        return HmacDrbg(self._seed, personalization=label.encode("utf-8"))

    def build(self) -> None:
        """Wire the world: PKI, network, provider, TTP, tenant clients."""
        config = self.config
        self.sim = Simulator()
        self.network = Network(self.sim, self._stream("engine/net"), default_channel=self.channel)
        self.latency_sketch = QuantileSketch(LATENCY_SKETCH)
        registry = KeyRegistry(self.directory.certificate_authority())
        provider_id = self.directory.identity(PROVIDER_NAME)
        ttp_id = self.directory.identity(TTP_NAME)
        tenant_ids = [self.directory.identity(name) for name in self.tenant_names]
        for identity in (provider_id, ttp_id, *tenant_ids):
            registry.enroll(identity)
        self.provider = TpnrProvider(
            provider_id, registry, self._stream("engine/party/provider"),
            ttp_name=TTP_NAME, policy=self.policy,
        )
        self.ttp = TrustedThirdParty(
            ttp_id, registry, self._stream("engine/party/ttp"), policy=self.policy
        )
        self.network.add_node(self.provider)
        self.network.add_node(self.ttp)
        self.clients = {}
        for identity in tenant_ids:
            client = TpnrClient(
                identity, registry, self._stream(f"engine/party/{identity.name}"),
                ttp_name=TTP_NAME, policy=self.policy,
            )
            client.on_txn_terminal = self._upload_terminal
            client.on_download_complete = self._download_complete
            self.network.add_node(client)
            self.clients[identity.name] = client
        self.ledger = None
        if config.batch_size is not None:
            self.ledger = BatchLedger()
            for party in self._parties():
                party.configure_batching(
                    self.ledger,
                    EvidenceBatcher(party.identity, config.batch_size, self.ledger),
                )

    def _parties(self):
        assert self.provider is not None and self.ttp is not None
        return (self.provider, self.ttp, *self.clients.values())

    def _schedule_workload(self) -> None:
        """Schedule every tenant's uploads inside the arrival window.

        Payload bytes and arrival offsets come from per-tenant named
        streams, so tenant k's workload is identical no matter which
        other tenants exist.
        """
        config = self.config
        assert self.sim is not None
        for index, name in self.roster:
            workload = self._stream(f"engine/workload/{name}")
            for k in range(config.transactions_per_tenant):
                size = workload.randint(PAYLOAD_MIN, PAYLOAD_MAX)
                payload = workload.generate(size)
                offset = workload.random() * ARRIVAL_WINDOW
                transaction_id = f"TXN-E{index:04d}-{k:03d}"
                self._sessions[transaction_id] = SessionRecord(
                    tenant=name,
                    transaction_id=transaction_id,
                    payload_size=size,
                    started_at=offset,
                )
                self.sim.schedule_at(
                    offset,
                    lambda n=name, d=payload, t=transaction_id: self._start_upload(n, d, t),
                )

    def _start_upload(self, tenant: str, data: bytes, transaction_id: str) -> None:
        self.clients[tenant].upload(
            PROVIDER_NAME, data, transaction_id=transaction_id
        )

    # -- session lifecycle hooks ---------------------------------------------

    def _upload_terminal(self, record: TransactionRecord) -> None:
        session = self._sessions.get(record.transaction_id)
        if session is None or session.finished:
            return
        assert self.sim is not None
        session.upload_status = record.status.value
        session.upload_done_at = self.sim.now
        if record.status in (TxStatus.COMPLETED, TxStatus.RESOLVED):
            self.clients[session.tenant].download(record.transaction_id)
        else:
            self._finish_session(session)

    def _download_complete(self, result: DownloadResult) -> None:
        session = self._sessions.get(result.transaction_id)
        if session is None or session.finished:
            return
        assert self.sim is not None
        session.download_done_at = self.sim.now
        session.download_verified = result.verified
        session.download_detail = result.detail
        self._finish_session(session)

    def _finish_session(self, session: SessionRecord) -> None:
        session.finished = True
        latency = session.latency
        if latency is not None:
            self.latency_sketch.observe(latency)

    # -- driving -------------------------------------------------------------

    def _drive(self) -> None:
        """Run to quiescence in ``SAMPLE_INTERVAL`` slices, so the
        clock stops on that grid."""
        assert self.sim is not None
        sim = self.sim
        while sim.next_event_time() is not None:
            sim.run(until=sim.now + SAMPLE_INTERVAL)

    def run(self) -> PoolResult:
        """Build, schedule, drive, and summarize one pool run.

        With ``config.use_caches`` a fresh scoped
        :class:`~repro.crypto.cache.CryptoCaches` bundle covers the
        whole run (build included — enrollment signatures hit the sign
        cache too) and its statistics land in the result; the previous
        process-wide cache seat is restored afterwards either way.
        """
        if self.config.use_caches:
            with crypto_cache.crypto_caches() as bundle:
                return self._run_inner(bundle)
        return self._run_inner(None)

    def _run_inner(self, bundle) -> PoolResult:
        config = self.config
        self.build()
        self._schedule_workload()
        # Crypto calls are counted over the drive only, and only with
        # per-message evidence: enrollment repeats per shard world and
        # batch seals depend on the shard layout, so neither would sum
        # across shards.  The counts land in a throwaway registry.
        count_crypto = config.profile and config.batch_size is None
        with (observe_crypto(MetricsRegistry()) if count_crypto
              else contextlib.nullcontext()) as crypto:
            self._drive()
        # Strict: a pool run must never report success while holding
        # evidence that cannot be proven.
        batch_stats = (None if self.ledger is None
                       else settle_batches(self._parties(), self.ledger))
        profile = None
        if config.profile:
            tenants = len(self.roster)
            profile = {
                "engine/schedule;engine/workload": tenants,
                "engine/schedule;engine/workload;engine/stream": tenants,
            }
            if crypto is not None:
                for op, counter in crypto.series.items():
                    profile[f"engine/drive;crypto/{op}"] = int(counter.value)
        assert self.sim is not None and self.network is not None
        assert self.provider is not None and self.ttp is not None
        sends = self.network.trace.sends("tpnr.")
        p50, p99 = latency_quantiles(self.latency_sketch)
        return PoolResult(
            config=self.config,
            sessions=sorted(self._sessions.values(), key=lambda s: s.transaction_id),
            sim_duration=self.sim.now,
            messages_sent=len(sends),
            bytes_on_wire=sum(e.size_bytes for e in sends),
            provider_stats=self.provider.stats(),
            ttp_stats=self.ttp.stats(),
            p50_latency=p50,
            p99_latency=p99,
            latency_sketch=self.latency_sketch,
            cache_stats=bundle.stats() if bundle is not None else None,
            batch_stats=batch_stats,
            profile=profile,
        )
