"""SessionPool: correctness, determinism, and cache transparency.

These are the TP1 acceptance tests in miniature: every session in a
clean multi-tenant run completes and verifies with the TTP untouched
(the off-line-TTP property at scale), two same-seed runs are
byte-identical, and toggling the crypto caches does not move the
result signature.
"""

import pytest

from repro.errors import ProtocolError
from repro.engine import (
    EngineConfig,
    SessionPool,
    ShardedSessionPool,
    TenantDirectory,
    run_pool,
)
from repro.net.channel import LOSSY
from repro.obs import NULL_OBS

SEED = b"test/engine"


@pytest.fixture(scope="module")
def directory():
    """One warmed identity directory shared by the module (keygen is
    the dominant cost; sharing it is also what production sweeps do)."""
    d = TenantDirectory(SEED)
    d.warm(["bob", "ttp", *[f"tenant-{i:04d}" for i in range(4)]])
    return d


@pytest.fixture(scope="module")
def result(directory):
    return run_pool(SEED, 3, directory=directory)


class TestCleanRun:
    def test_every_session_completes_and_verifies(self, result):
        assert len(result.sessions) == 3
        assert result.completed == 3 == result.verified
        assert all(s.finished for s in result.sessions)

    def test_ttp_never_involved(self, result):
        # Normal mode keeps the TTP off-line — the paper's efficiency
        # claim must survive concurrency.
        assert all(v == 0 for v in result.ttp_stats.values()), result.ttp_stats

    def test_provider_served_all_tenants(self, result):
        assert result.provider_stats["transactions"] == 3
        assert result.provider_stats["stored_blobs"] == 3
        assert result.provider_stats["rejected_messages"] == 0

    def test_wire_accounting_present(self, result):
        assert result.messages_sent > 0
        assert result.bytes_on_wire > result.messages_sent  # >1 byte/msg

    def test_latency_percentiles_ordered(self, result):
        # PERFECT delivers instantly, so every measured session latency
        # is 0.0 and the sketch reports exactly that.
        latencies = [s.latency for s in result.sessions]
        assert 0.0 <= result.p50_latency <= result.p99_latency <= max(latencies)
        assert result.p99_latency == max(latencies) == 0.0

    def test_transaction_ids_are_explicit_and_stable(self, result):
        ids = [s.transaction_id for s in result.sessions]
        assert ids == ["TXN-E0000-000", "TXN-E0001-000", "TXN-E0002-000"]


class TestDeterminism:
    def test_same_seed_same_signature(self, directory, result):
        again = run_pool(SEED, 3, directory=directory)
        assert again.signature() == result.signature()
        assert [s.row() for s in again.sessions] == [s.row() for s in result.sessions]

    def test_fresh_directory_same_signature(self, result):
        # Identities derive from named streams keyed only by the pool
        # seed, so a cold directory reproduces the warmed one's world.
        assert run_pool(SEED, 3).signature() == result.signature()

    def test_cache_toggle_does_not_move_the_signature(self, directory, result):
        uncached = run_pool(SEED, 3, directory=directory, use_caches=False)
        assert uncached.cache_stats is None
        assert uncached.signature() == result.signature()

class TestPoolTelemetry:
    """A pool world is not observed: its network seats NULL_OBS, no
    party opens a span, and the pool keeps only the latency sketch its
    p50/p99 come from (deployments keep full telemetry)."""

    @staticmethod
    def worlds(monkeypatch) -> list:
        """Every pool world built while the test runs, shards included."""
        built = []
        build = SessionPool.build

        def recording(pool):
            built.append(pool)
            build(pool)

        monkeypatch.setattr(SessionPool, "build", recording)
        return built

    @staticmethod
    def assert_unobserved(pool) -> None:
        assert pool.network.obs is NULL_OBS
        assert all(not party._obs_spans for party in pool._parties())

    def test_pool_world_is_unobserved_and_sketches_every_session(
            self, directory, monkeypatch):
        worlds = self.worlds(monkeypatch)
        config = EngineConfig(n_tenants=4, transactions_per_tenant=2, batch_size=4)
        result = SessionPool(config, seed=SEED, directory=directory,
                             channel=LOSSY).run()
        assert len(worlds) == 1
        self.assert_unobserved(worlds[0])
        assert result.latency_sketch.count == len(result.sessions) == 8
        assert (result.p50_latency, result.p99_latency) == (
            result.latency_sketch.quantile(0.50),
            result.latency_sketch.quantile(0.99))

    def test_sharded_pool_shards_keep_no_spans(self, directory, monkeypatch):
        worlds = self.worlds(monkeypatch)
        config = EngineConfig(n_tenants=4, transactions_per_tenant=2, batch_size=4)
        sharded = ShardedSessionPool(config, seed=SEED, shards=2,
                                     directory=directory, channel=LOSSY)
        result = sharded.run()
        assert len(worlds) == len(sharded.shard_results) == 2
        for pool in worlds:
            self.assert_unobserved(pool)
        assert sum(shard.latency_sketch.count
                   for _, shard in sharded.shard_results) == 8
        assert result.latency_sketch.count == len(result.sessions) == 8


class TestPinnedLossyPool:
    """Signature and p50/p99 of a LOSSY 8-tenant x 2-transaction pool
    at 1 and 4 shards, per-message and batched, pinned from the engine
    whose pool worlds still carried metrics, SLOs and detectors:
    dropping that telemetry moved none of them."""

    CLASSIC = ("30fda6f2859ff3da66991c553657ffa2599cb1e64e0dd539330ab165803f2371",
               "0.1998668923232057", "0.8105380416180062")
    BATCHED = ("d97567fe03ff7b404ba4caabb49285c728b50dd982f540f2a5bdfa25afcd6b2c",
               "0.1998668923232057", "0.8105380416180062")

    @pytest.fixture(scope="class")
    def pin_directory(self):
        d = TenantDirectory(b"pin")
        d.warm(["bob", "ttp", *[f"tenant-{i:04d}" for i in range(8)]])
        return d

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_signature_and_quantiles_pinned(self, pin_directory, shards, batch_size):
        result = run_pool(b"pin", 8, directory=pin_directory,
                          transactions_per_tenant=2, shards=shards,
                          batch_size=batch_size, channel=LOSSY)
        assert len(result.sessions) == 16
        assert (result.signature(), repr(result.p50_latency),
                repr(result.p99_latency)) == (
            self.CLASSIC if batch_size is None else self.BATCHED)


class TestCaches:
    def test_verify_cache_hits_on_the_tpnr_workload(self, result):
        stats = result.cache_stats
        assert stats is not None
        assert stats["verify"]["hits"] > 0
        assert 0 < stats["verify"]["hit_rate"] < 1
        assert stats["kem_wrap"]["hits"] > 0


class TestShapes:
    def test_multiple_transactions_per_tenant(self, directory):
        result = run_pool(SEED, 2, directory=directory, transactions_per_tenant=2)
        assert len(result.sessions) == 4
        assert result.completed == 4 == result.verified
        ids = {s.transaction_id for s in result.sessions}
        assert ids == {"TXN-E0000-000", "TXN-E0000-001",
                       "TXN-E0001-000", "TXN-E0001-001"}

    def test_upload_rejects_duplicate_transaction_id(self, directory):
        pool = SessionPool(EngineConfig(n_tenants=1), seed=SEED, directory=directory)
        pool.run()
        client = pool.clients["tenant-0000"]
        with pytest.raises(ProtocolError, match="already exists"):
            client.upload("bob", b"again", transaction_id="TXN-E0000-000")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(n_tenants=0)
        with pytest.raises(ValueError):
            EngineConfig(transactions_per_tenant=0)


class TestTenantDirectory:
    def test_identities_memoized_and_order_independent(self):
        a = TenantDirectory(b"dir-seed")
        b = TenantDirectory(b"dir-seed")
        first = a.identity("alice")
        assert a.identity("alice") is first  # memoized
        b.identity("bob")  # different creation order...
        assert b.identity("alice").private_key.n == first.private_key.n
        assert a.keygen_count == 1 and b.keygen_count == 2

    def test_cold_directory_is_honored_not_replaced(self):
        # Regression: an empty directory must be adopted, not replaced,
        # so it fills as the world builds.
        cold = TenantDirectory(SEED)
        pool = SessionPool(EngineConfig(n_tenants=1), seed=SEED, directory=cold)
        assert pool.directory is cold
        pool.build()
        assert cold.keygen_count == 3  # provider + ttp + one tenant


class TestDirectoryShardSafety:
    """ISSUE 9 satellite regressions: memoization under concurrent /
    shard use, double-warm, and label collisions across shards."""

    def test_double_warm_generates_nothing_new(self):
        d = TenantDirectory(b"dir-warm")
        names = ["bob", "ttp", "tenant-0000", "tenant-0001"]
        d.warm(names)
        first = d.keygen_count
        assert first == len(names)
        d.warm(names)  # the regression: a second warm must be a no-op
        assert d.keygen_count == first

    def test_cross_shard_label_collision_yields_equal_keys(self):
        # Two shards sharing one directory ask for the same label: they
        # must observe the *same* identity object, generated once.
        d = TenantDirectory(b"dir-collide")
        a = d.identity("tenant-0007")
        b = d.identity("tenant-0007")
        assert a is b
        assert d.keygen_count == 1

    def test_concurrent_identity_requests_generate_once(self):
        import threading

        d = TenantDirectory(b"dir-race")
        got = []
        barrier = threading.Barrier(4)

        def grab():
            barrier.wait()
            got.append(d.identity("shared"))

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert d.keygen_count == 1
        assert all(i is got[0] for i in got)

    def test_empty_directory_is_truthy_but_zero_len(self):
        # Falsiness used to alias "no directory supplied"; an empty
        # directory must stay distinguishable from None.
        d = TenantDirectory(b"dir-bool")
        assert d.keygen_count == 0
        assert bool(d) is True

    def test_ca_never_counts_as_identity(self):
        d = TenantDirectory(b"dir-ca")
        d.certificate_authority()
        assert d.keygen_count == 0


class TestSignatureFloatCanon:
    """ISSUE 9 satellite regression: every float reaching signature()
    is normalized, so accumulated float noise cannot move the hash."""

    def test_sim_duration_noise_invisible(self, result):
        from dataclasses import replace as dc_replace

        noisy = dc_replace(result, sim_duration=result.sim_duration + 1e-13)
        assert noisy.signature() == result.signature()

    def test_wall_clock_fields_excluded(self, result):
        # The result carries no wall-clock field at all, and its
        # telemetry fields stay out of the signature.
        from dataclasses import fields, replace as dc_replace

        assert not [f.name for f in fields(result) if f.name.endswith("seconds")]
        from repro.obs.sketch import QuantileSketch

        moved = dc_replace(result, latency_sketch=QuantileSketch("other"),
                           batch_stats={"batches": 9},
                           shard_summaries=[{"shard": 0}])
        assert moved.signature() == result.signature()

    def test_session_rows_carry_canonical_floats(self, result):
        from repro.determinism import canon_float

        for session in result.sessions:
            row = session.row()
            for cell in row:
                if isinstance(cell, float):
                    assert cell == canon_float(cell)


class TestBatchedPool:
    """Merkle-batched evidence inside the pool: settlement is part of
    the run, fail-closed, and invisible to the result signature's
    session rows."""

    def test_batched_run_settles_everything(self, directory):
        batched = run_pool(SEED, 3, directory=directory, batch_size=2)
        assert batched.completed == 3 == batched.verified
        stats = batched.batch_stats
        assert stats is not None
        assert stats["failed"] == 0
        assert stats["batches"] > 0
        assert stats["leaves"] > 0

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(n_tenants=1, batch_size=0)

    def test_classic_run_has_no_batch_stats(self, result):
        assert result.batch_stats is None


class TestRsaPrivateOps:
    """``PoolResult.rsa_private_ops``, the count TP2 pins per run: every
    RSA private-key operation, signatures and KEM unwraps alike."""

    @pytest.mark.parametrize("batch_size", [None, 2])
    def test_counts_every_private_key_operation(self, directory, monkeypatch,
                                                batch_size):
        from repro.crypto.rsa import RsaPrivateKey

        calls = []
        private_op = RsaPrivateKey._private_op

        def counted(key, c):
            calls.append(c)
            return private_op(key, c)

        monkeypatch.setattr(RsaPrivateKey, "_private_op", counted)
        result = run_pool(SEED, 4, directory=directory, batch_size=batch_size)
        assert result.rsa_private_ops == len(calls) > 0

    def test_no_cache_bundle_no_count(self, directory):
        assert run_pool(SEED, 2, directory=directory,
                        use_caches=False).rsa_private_ops is None
