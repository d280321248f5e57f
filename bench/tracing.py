"""Outside-in tracing: the benchmark wraps ``repro`` entry points itself.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer`
replaces each target in :data:`OPS` with a timing wrapper while it is
installed:

* a free function is rebound on *every* ``repro.*`` module that holds
  that function object, so ``from x import f`` call sites (``aead`` ->
  ``chacha20_xor``, ``client`` -> ``digest``) are covered as well as
  ``x.f`` ones;
* a method is wrapped on the class that defines it, so subclasses that
  override it (the ``Null*`` telemetry stand-ins) stay untraced.

Each wrapper counts calls and accumulates *self time*: its duration
minus the time spent in wrapped calls nested inside it, so the self
times of all ops partition the time spent inside traced code.  Spans
(id, parent, op, start, end, label) are kept only while
:attr:`Tracer.spans` is a list; the runner turns that on for round 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: (op name, targets): ``layer.op`` -> ``module:function`` or
#: ``module:Class.method``.  Several targets may share one op.
OPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("crypto.rsa.sign", ("repro.crypto.rsa:sign",)),
    ("crypto.rsa.verify", ("repro.crypto.rsa:verify",)),
    ("crypto.rsa.decrypt", ("repro.crypto.rsa:decrypt",)),
    ("crypto.kem.wrap", ("repro.crypto.kem:hybrid_encrypt",)),
    ("crypto.kem.unwrap", ("repro.crypto.kem:hybrid_decrypt",)),
    ("crypto.aead.seal", ("repro.crypto.aead:seal",)),
    ("crypto.aead.open", ("repro.crypto.aead:open_",)),
    ("crypto.chacha20.xor", ("repro.crypto.chacha20_np:chacha20_xor",
                             "repro.crypto.chacha20:chacha20_xor")),
    ("crypto.hashes.digest", ("repro.crypto.hashes:digest",)),
    ("crypto.hmac.digest", ("repro.crypto.hmac_:hmac_digest",)),
    ("crypto.drbg.generate", ("repro.crypto.drbg:HmacDrbg.generate",)),
    ("crypto.merkle.build", ("repro.crypto.merkle:MerkleTree.__init__",)),
    ("crypto.merkle.prove", ("repro.crypto.merkle:MerkleTree.prove",)),
    ("crypto.merkle.verify", ("repro.crypto.merkle:verify_inclusion",)),
    ("crypto.batch.seal", ("repro.crypto.batch:EvidenceBatcher.seal",)),
    ("crypto.batch.verify_proof", ("repro.crypto.batch:verify_batch_proof",)),
    ("crypto.pki.keygen", ("repro.crypto.rsa:generate_keypair",)),
    ("core.evidence.build", ("repro.core.evidence:build_evidence",)),
    ("core.evidence.build_batched", ("repro.core.evidence:build_batched_evidence",)),
    ("core.evidence.open", ("repro.core.evidence:open_evidence",)),
    ("core.evidence.verify", ("repro.core.evidence:verify_opened_evidence",)),
    ("core.client.on_message", ("repro.core.client:TpnrClient.on_message",)),
    ("core.provider.on_message", ("repro.core.provider:TpnrProvider.on_message",)),
    ("core.ttp.on_message", ("repro.core.ttp:TrustedThirdParty.on_message",)),
    ("core.party.settle", ("repro.core.party:TpnrParty.settle_batched_evidence",)),
    ("core.arbitrator.rule", ("repro.core.arbitrator:Arbitrator.rule_on_tampering",
                              "repro.core.arbitrator:Arbitrator.rule_on_missing_receipt",
                              "repro.core.arbitrator:Arbitrator.rule_on_upload_content")),
    ("net.sim.run", ("repro.net.events:Simulator.run",)),
    ("net.network.send", ("repro.net.network:Network.send",)),
    ("net.channel.sample", ("repro.net.channel:ChannelSpec.sample",)),
    ("net.trace.record", ("repro.net.trace:TraceRecorder.record",)),
    ("storage.blob.put", ("repro.storage.blobstore:BlobStore.put",)),
    ("storage.blob.get", ("repro.storage.blobstore:BlobStore.get",)),
    ("replication.store.put", ("repro.replication.store:ReplicatedStore.put",)),
    ("replication.store.get", ("repro.replication.store:ReplicatedStore.get",)),
    ("replication.attest", ("repro.replication.store:ReplicaHandle.attest",)),
    ("replication.verifier.check_read",
     ("repro.replication.verify:ForkConsistencyVerifier.check_read",)),
    ("durability.journal.log", ("repro.durability.journal:PartyJournal.log",)),
    ("durability.journal.write_snapshot",
     ("repro.durability.journal:PartyJournal.write_snapshot",)),
    ("durability.wal.append", ("repro.durability.wal:WriteAheadLog.append",)),
    ("durability.stable.append", ("repro.durability.wal:StableStore.append",)),
    ("durability.stable.fsync", ("repro.durability.wal:StableStore.fsync",)),
    ("durability.checkpoint.capture", ("repro.durability.checkpoint:capture_state",)),
    ("engine.pool.run", ("repro.engine.pool:SessionPool.run",)),
    ("engine.pool.build", ("repro.engine.pool:SessionPool.build",)),
    ("engine.merge", ("repro.engine.sharding:merge_pool_results",)),
    ("obs.counter.inc", ("repro.obs.metrics:Counter.inc",)),
    ("obs.histogram.observe", ("repro.obs.metrics:Histogram.observe",)),
    ("obs.sketch.observe", ("repro.obs.sketch:QuantileSketch.observe",)),
    ("obs.registry.lookup", ("repro.obs.metrics:MetricsRegistry.counter",
                             "repro.obs.metrics:MetricsRegistry.gauge",
                             "repro.obs.metrics:MetricsRegistry.histogram",
                             "repro.obs.metrics:MetricsRegistry.sketch")),
    ("obs.anomaly.poll", ("repro.obs.anomaly:AnomalyMonitor.poll",)),
    ("obs.slo.poll", ("repro.obs.slo:SLOManager.poll",)),
    ("obs.tracer.start", ("repro.obs.span:Tracer.start",)),
    ("obs.tracer.finish", ("repro.obs.span:Tracer.finish",)),
)

LAYERS = ("crypto", "core", "net", "storage", "replication", "durability", "engine", "obs")

#: Spans kept per traced run; later spans are counted, not stored.
MAX_SPANS = 100_000


@contextmanager
def patched(owner, attr: str, make_wrapper):
    """Temporarily replace ``owner.attr`` with ``make_wrapper(original)``."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _module_bindings() -> dict[int, list[tuple[object, str]]]:
    """``id(object)`` -> every ``(repro module, attribute)`` bound to it."""
    bindings: dict[int, list[tuple[object, str]]] = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            bindings.setdefault(id(value), []).append((module, attr))
    return bindings


class Tracer:
    """Call counts, self time and optional spans for every op in :data:`OPS`."""

    def __init__(self) -> None:
        self.names = [name for name, _ in OPS]
        self.calls = [0] * len(OPS)
        self.self_seconds = [0.0] * len(OPS)
        # One child-time accumulator per open wrapped call; [0] collects
        # the time spent inside top-level wrapped calls.
        self._stack = [0.0]
        self._span_stack = [None]
        self._next_span = 0
        self.spans: list | None = None
        self.dropped_spans = 0
        self.label = ""
        self.origin = perf_counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets = [(index, *target.split(":"))
                   for index, (_, op_targets) in enumerate(OPS) for target in op_targets]
        modules = {name: importlib.import_module(name) for _, name, _ in targets}
        bindings = _module_bindings()
        for index, module_name, qualname in targets:
            module = modules[module_name]
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                self._bind(owner, attr, self._wrap(index, owner.__dict__[attr]))
            else:
                original = getattr(module, qualname)
                wrapper = self._wrap(index, original)
                for holder, attr in bindings[id(original)]:
                    self._bind(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- the wrapper -----------------------------------------------------

    def _wrap(self, index: int, fn):
        stack = self._stack
        calls = self.calls
        self_seconds = self.self_seconds
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.spans is not None:
                return tracer._recorded(index, fn, args, kwargs)
            stack.append(0.0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                inner = stack.pop()
                stack[-1] += elapsed
                calls[index] += 1
                self_seconds[index] += elapsed - inner

        return traced

    def _recorded(self, index: int, fn, args, kwargs):
        span_id = self._next_span
        self._next_span += 1
        parent = self._span_stack[-1]
        self._span_stack.append(span_id)
        self._stack.append(0.0)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = perf_counter()
            elapsed = ended - started
            inner = self._stack.pop()
            self._stack[-1] += elapsed
            self.calls[index] += 1
            self.self_seconds[index] += elapsed - inner
            self._span_stack.pop()
            spans = self.spans
            if spans is not None:
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, index, started, ended, self.label))
                else:
                    self.dropped_spans += 1

    # -- results ---------------------------------------------------------

    @property
    def traced_seconds(self) -> float:
        """Time spent inside top-level wrapped calls (sum of self times)."""
        return self._stack[0]

    def layer_seconds(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in zip(self.names, self.self_seconds):
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def write_spans(self, path: Path, spans: list) -> None:
        """Write *spans* (as recorded in :attr:`spans`) as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, index, started, ended, label in spans:
                handle.write(json.dumps({
                    "id": span_id,
                    "parent": parent,
                    "name": self.names[index],
                    "start_us": round((started - self.origin) * 1e6, 3),
                    "end_us": round((ended - self.origin) * 1e6, 3),
                    "op": label,
                }) + "\n")
            if self.dropped_spans:
                handle.write(json.dumps({"dropped_spans": self.dropped_spans}) + "\n")
