"""Sharded session engine: partition tenants, run shards, merge.

The unsharded :class:`~repro.engine.pool.SessionPool` steps every
session on one sequential simulator loop; this module splits the
tenant population into N worker shards — each a complete pool world
(own :class:`~repro.net.events.Simulator`, network, provider, TTP)
over its slice of the roster — and reconstructs the global
:class:`~repro.engine.pool.PoolResult` from the per-shard results.

**Shard assignment is deterministic and seed-keyed**: tenant ``t``
lands on ``HMAC-SHA256(seed, domain || t) mod N`` — the PT-002 seed
scheme's construction (keyed HMAC over a domain-prefixed label)
applied to placement, so the same ``(seed, tenant)`` maps to the same
shard on every machine and the assignment redistributes statistically
uniformly when N changes.

**Why the merge is exact** (``signature()`` bit-identical across shard
counts — proven in ``tests/engine/test_sharding.py``): tenants never
interact with each other, only with the provider/TTP, and

* every tenant stream is a *named* DRBG keyed by the global tenant
  name and index, never a fork — so tenant 7's payloads, arrival
  offsets, and transaction IDs are the same in any layout;
* channel dice come from one named stream per directed link
  (``net/<src>-><dst>``, keyed off the ``engine/net`` stream, which is
  the same in every shard), and a tenant's links to the provider carry
  only its own sessions — so its delays, drops, duplicates and
  corruptions are the same in any layout, on every channel (sessions
  that escalate to the TTP share the provider-TTP links, so on a lossy
  channel this assumes a retry budget that keeps the TTP out);
* per-peer sequence numbers live on the (client, provider) pair, and
  the provider's per-tenant state is independent across tenants, so
  each session transcript is layout-invariant;
* wire sizes are layout-invariant (RSA/KEM blobs are modulus-sized,
  batched-evidence blobs are the fixed 32-byte leaf), so per-shard
  ``bytes_on_wire`` sums to the global number;
* the drive loop advances the clock on the ``SAMPLE_INTERVAL`` grid,
  so a shard's ``sim_duration`` is a pure function of its last event
  time — the max over shards equals the global run's duration;
* provider/TTP tallies are sums of per-event counters, so key-wise
  addition reconstructs them.

Latency quantiles come from the exact integer merge of the per-shard
``engine.session_latency`` sketches (shard-merge == global-build is an
identity on the sketch, see :mod:`repro.obs.sketch`) through
:func:`~repro.engine.pool.latency_quantiles`, the same path the
unsharded pool uses — so p50/p99 are bit-identical at every shard
count too.  They are telemetry, excluded from ``signature()``.  A
shard world, like an unsharded one, is not observed: its latency
sketch and, when profiled, its ``{path: calls}`` table are all the
telemetry it keeps, and both merge exactly.

Shards run as sequential loop-based workers in one process.  Whether
process fan-out would pay for its serialization on this GIL-bound,
pure-Python workload is unmeasured; what batching saves is counted
instead — RSA private-key operations (:attr:`PoolResult.rsa_private_ops`).

:func:`run_pool` is the one-call entry point over both engines.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.policy import DEFAULT_POLICY, TpnrPolicy
from ..crypto.hmac_ import hmac_digest
from ..net.channel import PERFECT, ChannelSpec
from ..obs.sketch import QuantileSketch
from .pool import (
    LATENCY_SKETCH,
    EngineConfig,
    PoolResult,
    SessionPool,
    TenantDirectory,
    _seed_bytes,
    latency_quantiles,
)

__all__ = [
    "SHARD_DOMAIN",
    "ShardedSessionPool",
    "merge_pool_results",
    "run_pool",
    "shard_of",
    "shard_plan",
]

#: Domain prefix for shard placement, mirroring the PT-002 seed-scheme
#: convention (`repro.scenarios.seed/v1|` there, shard placement here).
SHARD_DOMAIN = b"repro.engine.shard/v1|"


def shard_of(seed: bytes | str, tenant: str, shards: int) -> int:
    """The shard index for *tenant* under *seed*: HMAC mod N."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    mac = hmac_digest(_seed_bytes(seed), SHARD_DOMAIN + tenant.encode("utf-8"))
    return int.from_bytes(mac, "big") % shards


def shard_plan(
    seed: bytes | str, n_tenants: int, shards: int
) -> list[tuple[tuple[int, str], ...]]:
    """Partition the global roster into per-shard rosters.

    Every entry keeps its **global** index — transaction IDs and named
    streams key off it, which is what makes shard worlds reproduce the
    unsharded world's rows exactly.  Shards may be empty (they are
    simply skipped at run time).
    """
    rosters: list[list[tuple[int, str]]] = [[] for _ in range(shards)]
    for index in range(n_tenants):
        name = f"tenant-{index:04d}"
        rosters[shard_of(seed, name, shards)].append((index, name))
    return [tuple(r) for r in rosters]


def merge_pool_results(
    config: EngineConfig, shard_results: list[tuple[int, PoolResult]]
) -> PoolResult:
    """Reconstruct the global :class:`PoolResult` from shard results."""
    sessions = []
    messages_sent = bytes_on_wire = 0
    sim_duration = 0.0
    provider_stats: dict[str, int] = {}
    ttp_stats: dict[str, int] = {}
    sketches: list[QuantileSketch] = []
    cache_totals: dict[str, dict[str, float]] | None = None
    batch_totals: dict[str, int] | None = None
    profile: dict[str, int] | None = None
    summaries = []
    for shard_index, result in shard_results:
        sessions.extend(result.sessions)
        messages_sent += result.messages_sent
        bytes_on_wire += result.bytes_on_wire
        sim_duration = max(sim_duration, result.sim_duration)
        for key, value in result.provider_stats.items():
            provider_stats[key] = provider_stats.get(key, 0) + value
        for key, value in result.ttp_stats.items():
            ttp_stats[key] = ttp_stats.get(key, 0) + value
        sketches.append(result.latency_sketch)
        if result.cache_stats is not None:
            if cache_totals is None:
                cache_totals = {}
            for cache_name, stats in result.cache_stats.items():
                bucket = cache_totals.setdefault(
                    cache_name, {"size": 0, "capacity": 0, "hits": 0,
                                 "misses": 0, "evictions": 0})
                for key in ("size", "capacity", "hits", "misses", "evictions"):
                    bucket[key] += stats.get(key, 0)
        if result.batch_stats is not None:
            if batch_totals is None:
                batch_totals = {"batches": 0, "leaves": 0, "resolved": 0, "failed": 0}
            for key in batch_totals:
                batch_totals[key] += result.batch_stats.get(key, 0)
        if result.profile is not None:
            if profile is None:
                profile = {}
            for path, calls in result.profile.items():
                profile[path] = profile.get(path, 0) + calls
        summaries.append({
            "shard": shard_index,
            "tenants": result.config.n_tenants,
            "sessions": len(result.sessions),
            "completed": result.completed,
            "messages_sent": result.messages_sent,
            "sim_duration": result.sim_duration,
        })
    if cache_totals is not None:
        for bucket in cache_totals.values():
            asked = bucket["hits"] + bucket["misses"]
            bucket["hit_rate"] = round(bucket["hits"] / asked, 6) if asked else 0.0
    latency_sketch = QuantileSketch.merged(LATENCY_SKETCH, sketches)
    p50, p99 = latency_quantiles(latency_sketch)
    return PoolResult(
        config=config,
        sessions=sorted(sessions, key=lambda s: s.transaction_id),
        sim_duration=sim_duration,
        messages_sent=messages_sent,
        bytes_on_wire=bytes_on_wire,
        provider_stats=provider_stats,
        ttp_stats=ttp_stats,
        p50_latency=p50,
        p99_latency=p99,
        latency_sketch=latency_sketch,
        cache_stats=cache_totals,
        batch_stats=batch_totals,
        shard_summaries=summaries,
        # Every profile row is session-driven, so the summed shard
        # tables equal the unsharded run's table.
        profile=profile,
    )


class ShardedSessionPool:
    """Drive one pool workload as N loop-based shard workers.

    Same constructor surface as :class:`SessionPool` plus *shards*;
    ``run()`` returns a merged :class:`PoolResult` whose
    ``signature()`` is bit-identical to the unsharded pool's for the
    same ``(config, seed)`` — at any shard count.
    """

    def __init__(
        self,
        config: EngineConfig,
        seed: bytes | str = b"tpnr-engine",
        shards: int = 1,
        directory: TenantDirectory | None = None,
        channel: ChannelSpec = PERFECT,
        policy: TpnrPolicy = DEFAULT_POLICY,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.config = config
        self.seed = seed
        self.shards = shards
        # One shared directory: keygen is paid once across all shards
        # (its lock makes the sharing safe), and every shard sees the
        # same keys for the provider/TTP names it re-instantiates.
        if directory is None:
            directory = TenantDirectory(seed)
        self.directory = directory
        self.channel = channel
        self.policy = policy
        self.plan = shard_plan(seed, config.n_tenants, shards)
        self.shard_results: list[tuple[int, PoolResult]] = []

    def run(self) -> PoolResult:
        """Run every (non-empty) shard and merge."""
        self.shard_results = []
        for shard_index, roster in enumerate(self.plan):
            if not roster:
                continue
            pool = SessionPool(
                replace(self.config, n_tenants=len(roster)),
                seed=self.seed,
                directory=self.directory,
                channel=self.channel,
                policy=self.policy,
                roster=roster,
            )
            self.shard_results.append((shard_index, pool.run()))
        return merge_pool_results(self.config, self.shard_results)


def run_pool(
    seed: bytes | str,
    n_tenants: int,
    directory: TenantDirectory | None = None,
    use_caches: bool = True,
    transactions_per_tenant: int = 1,
    shards: int = 1,
    batch_size: int | None = None,
    profile: bool = False,
    channel: ChannelSpec = PERFECT,
) -> PoolResult:
    """One engine run at one tenant count; the low-level entry point.

    ``shards != 1`` routes through :class:`ShardedSessionPool` (merged
    result, signature-identical to ``shards=1``; it rejects
    ``shards < 1``); *batch_size* switches
    on Merkle-batched evidence; *profile* sets ``result.profile`` to the
    run's ``{path: calls}`` table (per-shard tables summed); *channel*
    is every link's :class:`~repro.net.channel.ChannelSpec`.
    """
    config = EngineConfig(
        n_tenants=n_tenants,
        transactions_per_tenant=transactions_per_tenant,
        use_caches=use_caches,
        batch_size=batch_size,
        profile=profile,
    )
    if shards != 1:
        return ShardedSessionPool(
            config, seed=seed, shards=shards, directory=directory, channel=channel
        ).run()
    return SessionPool(config, seed=seed, directory=directory, channel=channel).run()
