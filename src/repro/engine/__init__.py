"""repro.engine — the multi-tenant TPNR session engine.

The paper's §6 leaves performance evaluation open; this package closes
the measurement gap.  :class:`~repro.engine.pool.SessionPool` drives N
concurrent client/provider TPNR sessions over one simulated network,
deterministically (per-tenant named DRBG streams, explicit transaction
IDs), while the opt-in :mod:`repro.crypto.cache` bundle removes
repeated modular exponentiation from the hot path.
:class:`~repro.engine.sharding.ShardedSessionPool` partitions the
tenant population across N worker shards by seed-keyed HMAC and merges
the per-shard results back into one :class:`~repro.engine.pool.PoolResult`
whose ``signature()`` is bit-identical at any shard count;
:func:`~repro.engine.sharding.run_pool` runs either at one tenant count.
Wall-clock throughput is measured outside the package, by the
repository benchmark (``python3 -m bench``).
"""

from .pool import EngineConfig, PoolResult, SessionPool, SessionRecord, TenantDirectory
from .sharding import (
    ShardedSessionPool,
    merge_pool_results,
    run_pool,
    shard_of,
    shard_plan,
)

__all__ = [
    "EngineConfig",
    "PoolResult",
    "SessionPool",
    "SessionRecord",
    "TenantDirectory",
    "ShardedSessionPool",
    "merge_pool_results",
    "run_pool",
    "shard_of",
    "shard_plan",
]
