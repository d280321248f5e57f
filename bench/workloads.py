"""The three benchmark workloads and their correctness checks.

Every workload is a closed loop driven from one process: the next
operation starts only after the previous one finished.  Inputs for
round *r* come from ``random.Random(f"{seed}/{workload}/{r}")`` and are
built by :meth:`inputs` before any timing starts; :meth:`run_round`
then drives the ``repro`` public API over them and returns a
:class:`RoundResult` holding the timings, the deterministic outputs,
and every deviation from ground truth.

``run_round`` times exactly one window per round, and installs the
optional tracer around exactly that window, so the traced and the
untraced numbers cover the same work.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

from repro.core.party import TpnrParty
from repro.core.policy import DEFAULT_POLICY, TpnrPolicy
from repro.core.protocol import dispute_tampering, make_deployment
from repro.core.transaction import TxStatus
from repro.determinism import canon_float
from repro.engine.pool import EngineConfig, SessionPool, TenantDirectory
from repro.engine.sharding import ShardedSessionPool
from repro.errors import ReproError
from repro.net.channel import LOSSY, WAN, ChannelSpec
from repro.net.network import Network
from repro.replication.store import ReplicatedStore, attach_replication

from .stats import quantile
from .tracing import patched

#: Provider container the TPNR provider stores uploads under.
CONTAINER = "tpnr-data"

#: Under LOSSY the default retry budget (3 retransmits inside a 5 s
#: time-out) loses about 1 session in 10,000 to the network; with 12
#: retransmits inside 30 s a session needs 13 consecutive lost round
#: trips to fail, so a correct run never reports a failed session.
LOSSY_POLICY = TpnrPolicy(response_timeout=30.0, max_retransmits=12)

#: Counters behind the per-layer ratio metrics, summed over rounds.
COUNT_KEYS = (
    "cache_hits", "cache_lookups", "replica_reads", "hedged_reads",
    "wal_bytes", "fsyncs", "retransmits", "sends", "deliveries",
)


#: A timed interval: (start, end) in ``time.perf_counter`` seconds.
Span = tuple[float, float]


@dataclass
class RoundResult:
    """What one round did, took and produced.

    Timings are kept as raw spans; the runner turns them into seconds
    (see :mod:`bench.hostspeed`).
    """

    window: Span  # the whole timed round
    sessions: int
    completed: int
    uploads: list[list[Span]]  # per operation: the spans charged to it
    downloads: list[list[Span]]
    sim_latency_s: list[float]
    wire_bytes: int
    user_bytes: int
    stored_bytes: int
    signature: str
    attempted: int
    failures: list[str]
    counts: dict[str, int]
    setup: Span | None = None  # per-round set-up inside the window

    def timings(self, seconds) -> dict:
        """Durations of this round, each span measured by *seconds*."""
        return {
            "wall_s": seconds(*self.window),
            "upload_ms": [sum(seconds(*s) for s in op) * 1e3 for op in self.uploads],
            "download_ms": [sum(seconds(*s) for s in op) * 1e3 for op in self.downloads],
            "setup_s": None if self.setup is None else seconds(*self.setup),
        }

    def raw(self, timings: dict) -> dict:
        """The per-round values recorded in result files."""
        upload, download = timings["upload_ms"], timings["download_ms"]
        return {
            "wall_s": timings["wall_s"],
            "unadjusted_wall_s": self.window[1] - self.window[0],
            "sessions": self.sessions,
            "completed": self.completed,
            "tx_per_s": self.completed / timings["wall_s"],
            "uploads_timed": len(upload),
            "upload_p50_ms": quantile(upload, 0.50),
            "upload_p95_ms": quantile(upload, 0.95),
            "downloads_timed": len(download),
            "download_p50_ms": quantile(download, 0.50),
            "download_p95_ms": quantile(download, 0.95),
            "sim_latency_p50_s": quantile(self.sim_latency_s, 0.50),
            "sim_latency_p95_s": quantile(self.sim_latency_s, 0.95),
            "wire_bytes": self.wire_bytes,
            "user_bytes": self.user_bytes,
            "stored_bytes": self.stored_bytes,
            "setup_s": timings["setup_s"],
            "signature": self.signature,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "counts": dict(self.counts),
        }


def _evidence_bytes(parties) -> int:
    return sum(e.wire_size() for p in parties for e in p.evidence_store.all_entries())


def _wire_counts(trace) -> tuple[int, int]:
    """(sends, deliveries) recorded by one network trace."""
    sends = deliveries = 0
    for event in trace.events:
        if event.action == "send":
            sends += 1
        elif event.action in ("deliver", "corrupt"):
            deliveries += 1
    return sends, deliveries


# ---------------------------------------------------------------------------
# Pool workloads
# ---------------------------------------------------------------------------


class _SessionClock:
    """Per-session processing time in a pool, measured from outside.

    One simulator loop interleaves every tenant, so a session's elapsed
    wall time mostly measures other sessions.  Instead, every piece of
    work that belongs to one session is timed and charged to its
    current phase (``upload`` until the upload outcome, then
    ``download``): the client call that starts the upload, each message
    delivery (the receiving party's whole reaction), each retransmission
    and the download request issued on the upload outcome.  A charged
    call nested inside another (the download request inside the receipt
    delivery) is cut out of its parent, so every instant is charged
    once.  That is the wall time the system spends on the operation,
    which is what the single-client durable workload's call timings
    measure too.  The clock also remembers every pool (shard) it saw,
    so their parties can be inspected after the run.
    """

    def __init__(self) -> None:
        self.phase: dict[str, str] = {}
        self.pieces: dict[tuple[str, str], list[Span]] = {}
        self.pools: dict[int, SessionPool] = {}
        self._open: list[list] = []  # [charged key, start of current piece]

    def attached(self) -> ExitStack:
        stack = ExitStack()
        stack.enter_context(patched(SessionPool, "_start_upload", self._on_start))
        stack.enter_context(patched(SessionPool, "_upload_terminal", self._on_uploaded))
        stack.enter_context(patched(Network, "_deliver", self._on_deliver))
        stack.enter_context(patched(TpnrParty, "_retransmit_fire", self._on_retransmit))
        return stack

    def sessions(self, phase: str) -> list[list[Span]]:
        return [pieces for (_, p), pieces in self.pieces.items() if p == phase]

    def _charged(self, key, call):
        now = perf_counter()
        if self._open:
            parent = self._open[-1]
            self.pieces.setdefault(parent[0], []).append((parent[1], now))
        self._open.append([key, now])
        try:
            return call()
        finally:
            now = perf_counter()
            self.pieces.setdefault(key, []).append((self._open.pop()[1], now))
            if self._open:
                self._open[-1][1] = now

    def _key(self, transaction_id: str | None):
        if transaction_id not in self.phase:
            return None
        return (transaction_id, self.phase[transaction_id])

    def _on_start(self, original):
        def start(pool, tenant, data, transaction_id):
            self.pools.setdefault(id(pool), pool)
            self.phase[transaction_id] = "upload"
            return self._charged((transaction_id, "upload"),
                                 lambda: original(pool, tenant, data, transaction_id))
        return start

    def _on_uploaded(self, original):
        def uploaded(pool, record):
            if self.phase.get(record.transaction_id) != "upload":
                return original(pool, record)
            self.phase[record.transaction_id] = "download"
            return self._charged((record.transaction_id, "download"),
                                 lambda: original(pool, record))
        return uploaded

    def _on_deliver(self, original):
        def deliver(network, envelope):
            header = getattr(envelope.payload, "header", None)
            key = self._key(getattr(header, "transaction_id", None))
            if key is None:
                return original(network, envelope)
            return self._charged(key, lambda: original(network, envelope))
        return deliver

    def _on_retransmit(self, original):
        def retransmit(party, key):
            charged = self._key(key[1])  # retransmit keys are (kind, txn, ...)
            if charged is None:
                return original(party, key)
            return self._charged(charged, lambda: original(party, key))
        return retransmit


@dataclass(frozen=True)
class PoolWorkload:
    """Many tenants' upload+download sessions through one session pool."""

    name: str
    why: str
    n_tenants: int
    transactions_per_tenant: int
    channel: ChannelSpec
    min_rounds: int
    shards: int = 1
    batch_size: int | None = None
    policy: TpnrPolicy = DEFAULT_POLICY
    setup_reps: int = 3

    def warmup(self) -> "PoolWorkload":
        """A 10-tenant copy: enough to take every code path once."""
        return replace(self, n_tenants=min(self.n_tenants, 10))

    def identities(self) -> list[str]:
        return ["bob", "ttp", *(f"tenant-{i:04d}" for i in range(self.n_tenants))]

    def setup(self, seed: int) -> TenantDirectory:
        """Provision every identity (RSA keygen) — the pool's set-up."""
        rng = random.Random(f"{seed}/{self.name}/setup")
        directory = TenantDirectory(f"{rng.getrandbits(64):016x}")
        directory.warm(self.identities())
        directory.certificate_authority()
        return directory

    def inputs(self, seed: int, round_label) -> str:
        """The pool seed, from which the pool derives payloads and arrivals."""
        rng = random.Random(f"{seed}/{self.name}/{round_label}")
        return f"{rng.getrandbits(64):016x}"

    def run_round(self, directory: TenantDirectory, pool_seed: str, tracer=None) -> RoundResult:
        config = EngineConfig(
            n_tenants=self.n_tenants,
            transactions_per_tenant=self.transactions_per_tenant,
            batch_size=self.batch_size,
        )
        common = dict(seed=pool_seed, directory=directory, channel=self.channel,
                      policy=self.policy)
        if self.shards > 1:
            pool = ShardedSessionPool(config, shards=self.shards, **common)
        else:
            pool = SessionPool(config, **common)
        clock = _SessionClock()
        with clock.attached(), (tracer if tracer is not None else nullcontext()):
            started = perf_counter()
            result = pool.run()
            window = (started, perf_counter())

        failures = []
        expected = self.n_tenants * self.transactions_per_tenant
        if len(result.sessions) != expected:
            failures.append(f"{len(result.sessions)} sessions, expected {expected}")
        for s in result.sessions:
            if s.upload_status not in ("completed", "resolved") or not s.download_verified:
                failures.append(f"{s.transaction_id}: upload {s.upload_status}, "
                                f"download {s.download_detail or 'unverified'}")
        if self.batch_size is not None and (result.batch_stats or {}).get("failed", 1):
            failures.append(f"batch settlement: {result.batch_stats}")

        counts = dict.fromkeys(COUNT_KEYS, 0)
        for stats in (result.cache_stats or {}).values():
            counts["cache_hits"] += stats["hits"]
            counts["cache_lookups"] += stats["hits"] + stats["misses"]
        stored = 0
        for shard in clock.pools.values():
            parties = (shard.provider, shard.ttp, *shard.clients.values())
            stored += shard.provider.store.total_bytes() + _evidence_bytes(parties)
            counts["retransmits"] += sum(p.retransmits_sent for p in parties)
            sends, deliveries = _wire_counts(shard.network.trace)
            counts["sends"] += sends
            counts["deliveries"] += deliveries
        return RoundResult(
            window=window,
            sessions=len(result.sessions),
            completed=result.completed,
            uploads=clock.sessions("upload"),
            downloads=clock.sessions("download"),
            sim_latency_s=[s.latency for s in result.sessions if s.latency is not None],
            wire_bytes=result.bytes_on_wire,
            user_bytes=sum(s.payload_size for s in result.sessions),
            stored_bytes=stored,
            signature=result.signature(),
            attempted=len(result.sessions),
            failures=failures,
            counts=counts,
        )


# ---------------------------------------------------------------------------
# The durable, replicated single-client workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Upload:
    """One upload of a durable round, with its ground truth.

    *fault* is what happens to the stored object before it is read
    back: ``coordinator`` (the provider rewrites every replica and its
    trusted log), ``replica`` (one replica's copy is rewritten behind
    the coordinator), ``blackmail`` (nothing — the client then falsely
    claims tampering) or ``none``.
    """

    index: int
    payload: bytes
    fault: str
    tamper: bytes
    expect_verified: bool
    expect_verdict: str | None
    reread: int | None  # an earlier upload read back after this one


@dataclass(frozen=True)
class DurablePlan:
    deployment_seed: str
    store_seed: str
    uploads: tuple[Upload, ...]


#: Share of a durable round's uploads that get each fault, and that are
#: followed by a re-read of an earlier upload.
FAULT_SHARES = {"coordinator": 0.1, "replica": 0.1, "blackmail": 0.1}
REREAD_SHARE = 0.5
VERDICTS = {"coordinator": "provider-at-fault", "blackmail": "claim-rejected"}


@dataclass(frozen=True)
class DurableWorkload:
    """One client on a durable, 3-way replicated deployment."""

    name: str
    why: str
    min_rounds: int
    uploads: int = 100
    max_bytes: int = 64 * 1024
    setup_reps = 0  # set-up is the per-round deployment build

    def warmup(self) -> "DurableWorkload":
        """A 20-upload copy: enough to take every code path once."""
        return replace(self, uploads=min(self.uploads, 20))

    def setup(self, seed: int) -> None:
        return None

    def inputs(self, seed: int, round_label) -> DurablePlan:
        rng = random.Random(f"{seed}/{self.name}/{round_label}")
        n = self.uploads
        # Stratified sizes: uniform over [min, max) with the same spread
        # every round, so rounds differ in order and bytes, not volume.
        span = self.max_bytes - 1024
        sizes = [1024 + int(span * (k + rng.random()) / n) for k in range(n)]
        rng.shuffle(sizes)
        faults = [f for f, share in FAULT_SHARES.items() for _ in range(round(n * share))]
        faults += ["none"] * (n - len(faults))
        rng.shuffle(faults)
        rereads = set(rng.sample(range(1, n), round(n * REREAD_SHARE)))
        uploads = []
        for index, (size, fault) in enumerate(zip(sizes, faults)):
            payload = rng.randbytes(size)
            tampered = fault in ("coordinator", "replica")
            uploads.append(Upload(
                index=index,
                payload=payload,
                fault=fault,
                tamper=rng.randbytes(size) if tampered else b"",
                expect_verified=fault != "coordinator",
                expect_verdict=VERDICTS.get(fault),
                reread=rng.randrange(index) if index in rereads else None,
            ))
        return DurablePlan(
            deployment_seed=f"{rng.getrandbits(64):016x}",
            store_seed=f"{rng.getrandbits(64):016x}",
            uploads=tuple(uploads),
        )

    def run_round(self, _state, plan: DurablePlan, tracer=None) -> RoundResult:
        uploads: list[list[Span]] = []
        downloads: list[list[Span]] = []
        sim_latency: list[float] = []
        failures: list[str] = []
        rows: list[tuple] = []
        completed = attempted = 0
        with tracer if tracer is not None else nullcontext():
            started = perf_counter()
            dep = make_deployment(seed=plan.deployment_seed, channel=WAN,
                                  durable=True, batch_size=16)
            store = attach_replication(dep, ReplicatedStore(seed=plan.store_seed))
            setup = (started, perf_counter())
            client, sim = dep.client, dep.sim
            finished_at: dict[str, float] = {}
            client.on_download_complete = (
                lambda result: finished_at.setdefault(result.transaction_id, sim.now))

            def read(upload: Upload) -> None:
                txn = f"TXN-B{upload.index:04d}"
                began = perf_counter()
                client.download(txn)
                dep.run()
                downloads.append([(began, perf_counter())])
                got = client.downloads[txn]
                ok = (got.verified == upload.expect_verified
                      and got.tampering_detected != upload.expect_verified
                      and (not got.verified or got.data == upload.payload))
                rows.append(("read", txn, got.verified, got.tampering_detected))
                if not ok:
                    failures.append(f"{txn} ({upload.fault}): verified={got.verified} "
                                    f"tampering={got.tampering_detected} {got.detail}")

            for upload in plan.uploads:
                txn = f"TXN-B{upload.index:04d}"
                if tracer is not None:
                    tracer.label = txn
                attempted += 1
                try:
                    began_sim = sim.now
                    began = perf_counter()
                    client.upload(dep.provider.name, upload.payload, transaction_id=txn)
                    dep.run()
                    uploads.append([(began, perf_counter())])
                    status = client.transactions[txn].status
                    if status in (TxStatus.COMPLETED, TxStatus.RESOLVED):
                        completed += 1
                    else:
                        failures.append(f"{txn}: upload {status.value}")
                    if upload.fault == "coordinator":
                        store.overwrite_raw(CONTAINER, txn, data=upload.tamper)
                    elif upload.fault == "replica":
                        first = store.read_order(CONTAINER, txn)[0]
                        store.tamper_replica(first, CONTAINER, txn, upload.tamper)
                    read(upload)
                    latency = finished_at.get(txn, began_sim) - began_sim
                    if txn in finished_at:
                        sim_latency.append(latency)
                    else:
                        failures.append(f"{txn}: download never reached an outcome")
                    verdict = None
                    if upload.expect_verdict is not None:
                        attempted += 1
                        dep.settle_batches(strict=True)
                        verdict = dispute_tampering(dep, txn).verdict.value
                        if verdict != upload.expect_verdict:
                            failures.append(f"{txn} ({upload.fault}): ruled {verdict}, "
                                            f"expected {upload.expect_verdict}")
                    rows.append((txn, len(upload.payload), upload.fault, status.value,
                                 verdict, canon_float(latency)))
                    if upload.reread is not None:
                        attempted += 1
                        read(plan.uploads[upload.reread])
                except ReproError as exc:
                    failures.append(f"{txn}: raised {type(exc).__name__}: {exc}")
            try:
                dep.settle_batches(strict=True)
            except ReproError as exc:
                failures.append(f"final settlement raised {type(exc).__name__}: {exc}")
            window = (started, perf_counter())

        sends, deliveries = _wire_counts(dep.network.trace)
        wal_bytes = sum(len(dep.stable.volatile_view(f)) for f in dep.stable.filenames())
        replica_bytes = sum(store.handle(name).adapter.blobs.total_bytes()
                            for name in store.replica_names)
        wire_bytes = sum(e.size_bytes for e in dep.network.trace.sends("tpnr."))
        stored = replica_bytes + wal_bytes + _evidence_bytes(dep.parties())
        signature = hashlib.sha256(
            repr((rows, wire_bytes, stored)).encode("utf-8")).hexdigest()
        counts = dict.fromkeys(COUNT_KEYS, 0)
        counts.update(
            replica_reads=store.get_count,
            hedged_reads=store.hedged_reads,
            wal_bytes=wal_bytes,
            fsyncs=dep.stable.fsyncs,
            retransmits=sum(p.retransmits_sent for p in dep.parties()),
            sends=sends,
            deliveries=deliveries,
        )
        return RoundResult(
            window=window,
            sessions=len(plan.uploads),
            completed=completed,
            uploads=uploads,
            downloads=downloads,
            sim_latency_s=sim_latency,
            wire_bytes=wire_bytes,
            user_bytes=sum(len(u.payload) for u in plan.uploads),
            stored_bytes=stored,
            signature=signature,
            attempted=attempted,
            failures=failures,
            counts=counts,
            setup=setup,
        )


# ---------------------------------------------------------------------------
# The benchmark's workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        PoolWorkload(
            name="pool-classic",
            why="paper's TPNR Normal mode as written: per-message RSA evidence, "
                "WAN channel, 1 shard; the crypto-bound case",
            n_tenants=100,
            transactions_per_tenant=2,
            channel=WAN,
            min_rounds=4,
        ),
        PoolWorkload(
            name="pool-batched",
            why="Merkle-batched evidence over 2 shards on a lossy channel: RSA leaves "
                "the hot path, so hashing, protocol, network and telemetry dominate",
            n_tenants=100,
            transactions_per_tenant=8,
            channel=LOSSY,
            policy=LOSSY_POLICY,
            shards=2,
            batch_size=64,
            min_rounds=6,
        ),
        DurableWorkload(
            name="durable-replicated",
            why="1-64 KiB writes and re-reads through WAL-journaled parties and 3 "
                "replicas, with tampering and false claims; the storage-bound case",
            min_rounds=6,
        ),
    )
}
