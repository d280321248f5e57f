"""Backend parity: one op sequence, identical observable state.

The three platform models (§2: S3-style, Azure-style, GAE-style) have
different front doors — object API, SharedKey-signed REST blocks, a
datastore — but the replicated store treats them as interchangeable
replicas.  That is only sound if the same sequence of writes leaves
every backend in the same *observable* state: what ``get`` returns for
every stored key (size, version, creation time, content digest, stored
MD5) must match byte for byte.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.replication import (
    AzureReplicaAdapter,
    GaeReplicaAdapter,
    S3ReplicaAdapter,
)

# Names every platform accepts: Azure's REST path splits on "/" and
# reserves the "queue"/"table" containers, so stay clear of both.
_NAME = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=12).filter(
                    lambda s: s not in ("queue", "table"))
_OP = st.tuples(_NAME, _NAME, st.binary(min_size=0, max_size=64))


def fresh_adapters(tag: bytes = b"equiv"):
    rng = HmacDrbg(b"backend-equivalence", personalization=tag)
    return (
        S3ReplicaAdapter(rng.fork("s3like")),
        AzureReplicaAdapter(rng.fork("azurelike")),
        GaeReplicaAdapter(rng.fork("gaelike")),
    )


def observable_state(adapter, containers):
    state = []
    for container in sorted(containers):
        for key in adapter.blobs.list_keys(container):
            obj = adapter.blobs.get(container, key)
            state.append((container, key, obj.size, obj.version, obj.created_at,
                          hashlib.sha256(obj.data).hexdigest(), obj.content_md5))
    return state


def apply_ops(adapter, ops):
    clock = 0.0
    for container, key, data in ops:
        adapter.put(container, key, data, at_time=clock)
        clock += 0.25


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_OP, min_size=0, max_size=12))
def test_same_ops_same_observable_state(ops):
    adapters = fresh_adapters()
    containers = {c for c, _k, _d in ops}
    states = []
    for adapter in adapters:
        apply_ops(adapter, ops)
        states.append(observable_state(adapter, containers))
    assert states[0] == states[1] == states[2]


def test_seeded_sequence_matches_across_backends():
    """The satellite contract, deterministically: a seeded op sequence
    (fresh keys, overwrites, multiple containers) leaves all three
    backends byte-identical under the observable projection."""
    rng = HmacDrbg(b"backend-equivalence", personalization=b"seeded-ops")
    containers = ["docs", "media", "logs"]
    keys = [f"obj-{i}" for i in range(5)]
    ops = [
        (rng.choice(containers), rng.choice(keys),
         rng.generate(rng.randint(0, 96)))
        for _ in range(40)
    ]
    adapters = fresh_adapters(b"seeded")
    states = []
    for adapter in adapters:
        apply_ops(adapter, ops)
        states.append(observable_state(adapter, set(containers)))
    assert states[0] == states[1] == states[2]
    assert states[0]  # the sweep actually wrote something

    # Reads through each front door agree on the final bytes too.
    final = {}
    for container, key, data in ops:
        final[(container, key)] = data
    for adapter in adapters:
        for (container, key), data in final.items():
            assert adapter.get(container, key) == data


def test_content_digest_parity():
    adapters = fresh_adapters(b"digest")
    for adapter in adapters:
        adapter.put("c", "k", b"identical bytes")
    digests = {hashlib.sha256(a.get("c", "k")).hexdigest() for a in adapters}
    assert len(digests) == 1
