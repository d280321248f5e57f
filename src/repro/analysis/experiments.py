"""Experiment runners — one per table/figure in DESIGN.md §4.

Each ``experiment_*`` function is deterministic given its seed, returns
an :class:`ExperimentResult` (headers + rows for printing, plus a
``facts`` dict the tests assert on), and is what the corresponding
benchmark executes and times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..attacks.harness import run_gauntlet, tpnr_defense_holds
from ..baselines.ssl_only import SslOnlyPlatform
from ..baselines.zhou_gollmann import ZgClient, ZgOnlineTtp, ZgProvider
from ..bridging import ALL_SCHEMES, make_world
from ..core.policy import DEFAULT_POLICY
from ..core.protocol import (
    dispute_tampering,
    make_deployment,
    run_abort,
    run_download,
    run_upload,
)
from ..core.provider import ProviderBehavior
from ..core.transaction import TxStatus
from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import digest
from ..crypto.pki import CertificateAuthority, Identity, KeyRegistry
from ..net.channel import LOSSY, ChannelSpec
from ..net.events import Simulator
from ..net.network import Network
from ..net.node import Node
from ..storage.azurelike import AzureLikeClient, AzureLikeService
from ..storage.gaelike import GaeLikeService, ResourceRule, make_signed_request
from ..storage.rest import format_request
from ..storage.s3like import ManifestFile, S3LikeService, encode_signature_file
from ..storage.shipping import (
    DAY_SECONDS,
    EXPRESS,
    GROUND,
    OVERNIGHT,
    CarrierSpec,
    ShippingCarrier,
    StorageDevice,
)
from ..storage.tamper import TamperMode
from .diagram import sequence_diagram
from .metrics import measure
from .stats import format_rate
from .workload import WorkloadSpec, resilience_sweep, run_workload

__all__ = [
    "ExperimentResult",
    "run_meta",
    "experiment_table1",
    "experiment_fig1",
    "experiment_fig2",
    "experiment_fig3",
    "experiment_fig4",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_bridging",
    "experiment_step_counts",
    "experiment_attacks",
    "experiment_shipping",
    "experiment_scalability",
    "experiment_resilience",
    "experiment_fault_campaign",
    "experiment_crash_recovery",
    "experiment_evidence_ablation",
    "experiment_observability",
    "experiment_forensics",
    "experiment_slo",
    "experiment_throughput",
    "experiment_sharded_throughput",
    "experiment_profiler",
    "experiment_replication",
    "experiment_migration",
]


@dataclass
class ExperimentResult:
    """Uniform experiment output."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    facts: dict[str, Any] = field(default_factory=dict)
    notes: str = ""
    meta: dict[str, Any] = field(default_factory=dict)


def run_meta(seed: bytes, sim_duration: float | None = None) -> dict[str, Any]:
    """Provenance stamp for a result: the seed it is reproducible from,
    the repo version that produced it, and (when one simulation drove
    the experiment) the simulated-clock duration of that run.

    When the run executes under the scenario registry, the active
    :class:`~repro.scenarios.context.RunStamp` is folded in, so every
    writer emits the same ``run_key``/``seed``/``repo_version`` block
    without knowing about the registry.
    """
    # Lazy imports: repro/__init__ imports this module, and the
    # scenario registry imports the runners defined here.
    from .. import __version__
    from ..scenarios.context import current_stamp

    meta: dict[str, Any] = {
        "seed": seed.decode("latin-1"),
        "repo_version": __version__,
    }
    if sim_duration is not None:
        meta["sim_duration"] = sim_duration
    stamp = current_stamp()
    if stamp is not None:
        meta.update(stamp.as_meta())
        # The stamp's derived seed is authoritative only if it is the
        # seed this run actually used; a mismatch must stay visible.
        meta["seed"] = seed.decode("latin-1")
    return meta


# ---------------------------------------------------------------------------
# T1 — Table 1: the Azure REST PUT/GET with SharedKey auth
# ---------------------------------------------------------------------------

def experiment_table1(seed: bytes = b"exp/t1") -> ExperimentResult:
    """Regenerate Table 1: a signed PUT and GET with server verification."""
    rng = HmacDrbg(seed)
    service = AzureLikeService(rng)
    account = service.create_account("jerry")
    client = AzureLikeClient(service, account)
    body = b"movie block contents, one REST block of data"
    # The Table 1 PUT stages a block; PUT Block List commits it.
    put_request = client.build_put("movie", "block", body)
    put_response = service.handle(put_request)
    commit_request = client.build_commit("movie", "block", ["blockid1"])
    commit_response = service.handle(commit_request)
    get_request = client.build_get("movie", "block")
    get_response = service.handle(get_request)
    # A forged signature must be rejected.
    forged = client.build_get("movie", "block")
    forged.headers["Authorization"] = "SharedKey jerry:AAAA_not_a_real_signature_AAAA="
    forged_response = service.handle(forged)
    rows = [
        ["PUT block", put_request.path, put_request.header("Content-MD5"),
         put_response.status],
        ["PUT blocklist", commit_request.path, commit_response.header("Content-MD5"),
         commit_response.status],
        ["GET", get_request.path, get_response.header("Content-MD5"), get_response.status],
        ["GET(forged auth)", forged.path, "-", forged_response.status],
    ]
    put_rendered = format_request(put_request)
    get_rendered = format_request(get_request)
    return ExperimentResult(
        experiment_id="T1",
        title="Table 1 — REST PUT/GET with SharedKey HMAC-SHA256 authorization",
        headers=["op", "path", "Content-MD5", "status"],
        rows=rows,
        facts={
            "put_ok": put_response.ok and commit_response.ok,
            "get_ok": get_response.ok,
            "forged_rejected": forged_response.status == 403,
            "md5_round_tripped": commit_response.header("Content-MD5")
            == get_response.header("Content-MD5"),
            "put_rendered": put_rendered,
            "get_rendered": get_rendered,
        },
        notes=f"rendered PUT request (Table 1 layout):\n{put_rendered}\n\n"
        f"rendered GET request:\n{get_rendered}",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# F1 — Fig. 1: clients reaching services through one cloud/network
# ---------------------------------------------------------------------------

class _RequestCounter(Node):
    """A service node that counts and acknowledges requests."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.requests = 0

    def on_message(self, envelope) -> None:
        self.requests += 1
        self.send(envelope.src, "cloud.response", b"ack:" + envelope.payload[:16])


class _Consumer(Node):
    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.responses = 0

    def on_message(self, envelope) -> None:
        self.responses += 1


def experiment_fig1(
    seed: bytes = b"exp/f1", n_clients: int = 8, n_services: int = 3,
    requests_per_client: int = 5,
) -> ExperimentResult:
    """The cloud principle: many clients, services behind one network."""
    rng = HmacDrbg(seed)
    sim = Simulator()
    network = Network(sim, rng, ChannelSpec(base_latency=0.03, jitter=0.01))
    services = [_RequestCounter(f"service-{i}") for i in range(n_services)]
    clients = [_Consumer(f"client-{i}") for i in range(n_clients)]
    for node in services + clients:
        network.add_node(node)
    pick = rng.fork("placement")
    for client in clients:
        for r in range(requests_per_client):
            target = pick.choice(services)
            sim.schedule(pick.random(), lambda c=client, t=target, r=r: c.send(
                t.name, "cloud.request", f"req-{c.name}-{r}".encode()))
    sim.run()
    rows = [[s.name, s.requests] for s in services]
    total_responses = sum(c.responses for c in clients)
    return ExperimentResult(
        experiment_id="F1",
        title="Fig. 1 — cloud computing principle (clients -> Internet -> services)",
        headers=["service", "requests served"],
        rows=rows,
        facts={
            "total_requests": sum(s.requests for s in services),
            "total_responses": total_responses,
            "all_answered": total_responses == n_clients * requests_per_client,
            "elapsed": sim.now,
        },
        meta=run_meta(seed, sim.now),
    )


# ---------------------------------------------------------------------------
# F2 — Fig. 2: the AWS Import/Export flow
# ---------------------------------------------------------------------------

def experiment_fig2(
    seed: bytes = b"exp/f2",
    file_sizes: tuple[int, ...] = (1 << 16, 1 << 20, 1 << 22),
) -> ExperimentResult:
    """Manifest -> signature file -> ship -> validate -> load -> report."""
    rng = HmacDrbg(seed)
    sim = Simulator()
    service = S3LikeService(rng)
    account = service.create_account("alice")
    carrier = ShippingCarrier(sim, rng, GROUND)
    rows = []
    all_verified = True
    for size in file_sizes:
        data = rng.fork(f"payload/{size}").generate(size)
        manifest = ManifestFile(
            access_key_id=account.access_key_id,
            device_id=f"DEV-{size}",
            destination="backup",
            operation="import",
        )
        # E-mail the signed manifest; get the job id.
        job_id = service.submit_manifest(manifest, S3LikeService.sign_manifest(manifest, account))
        device = StorageDevice(f"DEV-{size}", capacity_bytes=2 * size)
        device.write_file(f"data-{size}.bin", data)
        device.attached_documents["signature-file"] = encode_signature_file(
            S3LikeService.make_signature_file(job_id, manifest, account)
        )
        reports = []
        transit = carrier.ship(device, "customer", "aws-dock",
                               lambda d, j=job_id, out=reports: out.append(service.receive_device(j, d)))
        sim.run()
        report = reports[0]
        # §2.1: the e-mailed report, the import log left in the bucket
        # and the bytes shipped must all carry the same MD5.
        key = f"data-{size}.bin"
        logged = service.fetch_log(report.log_location).lookup_md5(key)
        md5_ok = report.md5_of_bytes[key] == logged == digest("md5", data)
        all_verified &= md5_ok
        rows.append([size, f"{transit / DAY_SECONDS:.2f}", report.status,
                     report.bytes_processed, md5_ok])
    return ExperimentResult(
        experiment_id="F2",
        title="Fig. 2 — AWS-style Import/Export: manifest, signature file, shipping, MD5 log",
        headers=["bytes", "transit (days)", "job status", "bytes loaded", "MD5 verified"],
        rows=rows,
        facts={"all_jobs_completed": all_verified, "jobs": len(file_sizes)},
        meta=run_meta(seed, sim.now),
    )


# ---------------------------------------------------------------------------
# F3 — Fig. 3: the Azure secure data access procedure
# ---------------------------------------------------------------------------

def experiment_fig3(seed: bytes = b"exp/f3") -> ExperimentResult:
    """Account -> 256-bit key -> signed requests -> MD5 round trip."""
    rng = HmacDrbg(seed)
    service = AzureLikeService(rng)
    account = service.create_account("user1")
    client = AzureLikeClient(service, account)
    data = b"quarterly results " * 64
    rows = []
    put_response = client.put_blob("docs", "q3", data)
    rows.append(["PUT with Content-MD5", put_response.status, "stored"])
    downloaded = client.get_blob("docs", "q3")
    rows.append(["GET + verify returned MD5", 200, "verified" if downloaded == data else "MISMATCH"])
    # The wrong key must be rejected (authentication, not just integrity).
    other = service.create_account("user2")
    intruder = AzureLikeClient(service, other)
    intruder.account = type(other)(name="user1", secret_key=other.secret_key,
                                   access_key_id=other.access_key_id)
    bad = service.handle(intruder.build_get("docs", "q3"))
    rows.append(["GET with wrong secret key", bad.status, "rejected"])
    return ExperimentResult(
        experiment_id="F3",
        title="Fig. 3 — Azure-style security data access procedure",
        headers=["step", "status", "outcome"],
        rows=rows,
        facts={
            "round_trip_ok": downloaded == data,
            "wrong_key_rejected": bad.status == 403,
            "secret_key_bits": len(account.secret_key) * 8,
        },
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# F4 — Fig. 4: the Google SDC work flow
# ---------------------------------------------------------------------------

def experiment_fig4(seed: bytes = b"exp/f4") -> ExperimentResult:
    """Tunnel validation -> resource rules -> signed request -> data."""
    rng = HmacDrbg(seed)
    service = GaeLikeService(rng)
    app = Identity.generate("gadget-app", rng)
    service.register_app(app, consumer_key="consumer-1", token="tok-1")
    service.sdc.add_rule(ResourceRule("employee-*", "feeds/*"))
    service.datastore_put("feeds", "payroll", b"salary feed content")
    rows = []

    def attempt(label: str, **kwargs) -> tuple[str, str]:
        request = make_signed_request(app, rng, **kwargs)
        try:
            service.handle_request(request)
            return label, "allowed"
        except Exception as exc:
            return label, f"denied ({type(exc).__name__})"

    rows.append(attempt("authorized viewer, valid request",
                        owner_id="owner", viewer_id="employee-7", resource="feeds/payroll"))
    rows.append(attempt("viewer outside resource rules",
                        owner_id="owner", viewer_id="contractor-1", resource="feeds/payroll"))
    rows.append(attempt("unknown consumer key",
                        owner_id="owner", viewer_id="employee-7", resource="feeds/payroll",
                        consumer_key="rogue"))
    rows.append(attempt("invalid token",
                        owner_id="owner", viewer_id="employee-7", resource="feeds/payroll",
                        token="expired"))
    # Nonce replay: reuse an exact request.
    request = make_signed_request(app, rng, owner_id="owner", viewer_id="employee-7",
                                  resource="feeds/payroll")
    service.handle_request(request)
    try:
        service.handle_request(request)
        rows.append(("replayed signed request", "allowed"))
    except Exception as exc:
        rows.append(("replayed signed request", f"denied ({type(exc).__name__})"))
    outcomes = dict(rows)
    return ExperimentResult(
        experiment_id="F4",
        title="Fig. 4 — Google-SDC-style work flow (tunnel, resource rules, signed request)",
        headers=["request", "outcome"],
        rows=[list(r) for r in rows],
        facts={
            "authorized_allowed": outcomes["authorized viewer, valid request"] == "allowed",
            "rule_enforced": outcomes["viewer outside resource rules"].startswith("denied"),
            "tunnel_enforced": outcomes["unknown consumer key"].startswith("denied"),
            "replay_blocked": outcomes["replayed signed request"].startswith("denied"),
        },
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# F5 — Fig. 5: the integrity vulnerability
# ---------------------------------------------------------------------------

def experiment_fig5(seed: bytes = b"exp/f5", trials: int = 10) -> ExperimentResult:
    """Detection/attribution rates: platforms vs TPNR, per tamper mode.

    Expected shape (the paper's core claim): the status-quo platforms
    detect at most naive tampering (Azure model) and attribute nothing;
    TPNR detects and attributes everything.
    """
    tamper_modes = (TamperMode.BIT_FLIP, TamperMode.REPLACE, TamperMode.FIXUP_MD5)
    rows = []
    facts: dict[str, Any] = {}
    rng = HmacDrbg(seed)
    for platform, md5_mode in (("azure-like (stored MD5)", "stored"),
                               ("aws-like (recomputed MD5)", "recomputed")):
        for mode in tamper_modes:
            detected = 0
            for trial in range(trials):
                plat = SslOnlyPlatform(rng.fork(f"{platform}/{mode}/{trial}"), md5_mode=md5_mode)
                key = plat.upload(rng.generate(256))
                plat.tamper(key, mode)
                result = plat.download(key)
                detected += result.detected_mismatch
            rows.append([platform, mode.value,
                         format_rate(detected, trials), format_rate(0, trials)])
            facts[f"{md5_mode}/{mode.value}/detection"] = detected / trials
    # TPNR: detection and attribution via signed evidence.
    for mode in tamper_modes:
        detected = attributed = 0
        for trial in range(trials):
            dep = make_deployment(seed=seed + f"/tpnr/{mode.value}/{trial}".encode(),
                                  behavior=ProviderBehavior(tamper_mode=mode))
            outcome = run_upload(dep, HmacDrbg(seed, str(trial).encode()).generate(256))
            download = run_download(dep, outcome.transaction_id)
            if download.tampering_detected:
                detected += 1
                ruling = dispute_tampering(dep, outcome.transaction_id)
                if ruling.verdict.value == "provider-at-fault":
                    attributed += 1
        rows.append(["TPNR", mode.value,
                     format_rate(detected, trials), format_rate(attributed, trials)])
        facts[f"tpnr/{mode.value}/detection"] = detected / trials
        facts[f"tpnr/{mode.value}/attribution"] = attributed / trials
    return ExperimentResult(
        experiment_id="F5",
        title="Fig. 5 — upload-to-download integrity: detection & attribution rates",
        headers=["system", "tamper mode", "detection rate [95% CI]",
                 "attribution rate [95% CI]"],
        rows=rows,
        facts=facts,
        notes="Attribution = a dispute ends provider-at-fault with evidence.",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# F6 — Fig. 6: the four TPNR work flows
# ---------------------------------------------------------------------------

def experiment_fig6(seed: bytes = b"exp/f6") -> ExperimentResult:
    """Trace the Normal, Abort, Resolve, and Disputation flows."""
    rows = []
    facts: dict[str, Any] = {}
    # (b) Normal mode, off-line TTP.
    dep = make_deployment(seed=seed + b"/normal")
    outcome = run_upload(dep, b"normal-mode payload " * 8)
    normal_seq = [k for _, _, k in dep.network.trace.sequence() if k.startswith("tpnr.")]
    rows.append(["Normal (6b)", " -> ".join(normal_seq), "no TTP" if not outcome.ttp_involved else "TTP!"])
    facts["normal_steps"] = outcome.steps
    facts["normal_offline_ttp"] = not outcome.ttp_involved
    # (b) Abort, off-line TTP.
    dep_a = make_deployment(seed=seed + b"/abort",
                            behavior=ProviderBehavior(silent_on_upload=True))
    outcome_a = run_abort(dep_a, b"abort-mode payload")
    abort_seq = [k for _, _, k in dep_a.network.trace.sequence() if k.startswith("tpnr.")]
    rows.append(["Abort (6b)", " -> ".join(abort_seq),
                 outcome_a.upload_status.value])
    facts["abort_status"] = outcome_a.upload_status.value
    facts["abort_offline_ttp"] = not outcome_a.ttp_involved
    # (c) Resolve, in-line TTP.
    dep_r = make_deployment(seed=seed + b"/resolve",
                            behavior=ProviderBehavior(silent_on_upload=True))
    outcome_r = run_upload(dep_r, b"resolve-mode payload")
    resolve_seq = [k for _, _, k in dep_r.network.trace.sequence() if k.startswith("tpnr.resolve")]
    rows.append(["Resolve (6c)", " -> ".join(resolve_seq), outcome_r.upload_status.value])
    facts["resolve_status"] = outcome_r.upload_status.value
    facts["resolve_inline_ttp"] = outcome_r.ttp_involved
    # (d) Disputation.
    dep_d = make_deployment(seed=seed + b"/dispute",
                            behavior=ProviderBehavior(tamper_mode=TamperMode.REPLACE))
    outcome_d = run_upload(dep_d, b"dispute-mode payload " * 8)
    run_download(dep_d, outcome_d.transaction_id)
    ruling = dispute_tampering(dep_d, outcome_d.transaction_id)
    rows.append(["Disputation (6d)", "evidence(alice) + evidence(bob) -> arbitrator",
                 ruling.verdict.value])
    facts["dispute_verdict"] = ruling.verdict.value
    # Sequence charts of the traced flows, mirroring Fig. 6(b) and 6(c).
    diagrams = "\n\n".join(
        f"{label}:\n" + sequence_diagram(d.network.trace, "tpnr.",
                                         participants=["alice", "bob", "ttp"],
                                         show_time=False)
        for label, d in (("Fig. 6(b) Normal mode (off-line TTP)", dep),
                         ("Fig. 6(b) Abort mode (off-line TTP)", dep_a),
                         ("Fig. 6(c) Resolve mode (in-line TTP)", dep_r))
    )
    return ExperimentResult(
        experiment_id="F6",
        title="Fig. 6 — TPNR work flows: Normal / Abort / Resolve / Disputation",
        headers=["flow", "message sequence", "outcome"],
        rows=rows,
        facts=facts,
        notes="the traced flows as sequence charts:\n\n" + diagrams,
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# S3 — the §3 bridging-scheme comparison
# ---------------------------------------------------------------------------

def experiment_bridging(seed: bytes = b"exp/s3",
                        tamper_mode: TamperMode = TamperMode.FIXUP_MD5) -> ExperimentResult:
    """Four bridging schemes + the status quo under cover-up tampering."""
    rows = []
    facts: dict[str, Any] = {}
    for cls in ALL_SCHEMES:
        world = make_world(seed=seed + cls.__name__.encode())
        scheme = cls(world)
        r = scheme.run_scenario(b"bridged payload " * 16, tamper_mode)
        rows.append([
            r.scheme, r.needs_tac, r.detected, r.agreed_digest_provable,
            r.tamper_verdict, r.blackmail_verdict,
            r.upload_messages, r.download_messages, r.dispute_messages,
        ])
        facts[f"{r.scheme}/detected"] = r.detected
        facts[f"{r.scheme}/tamper_verdict"] = r.tamper_verdict
        facts[f"{r.scheme}/blackmail_verdict"] = r.blackmail_verdict
    return ExperimentResult(
        experiment_id="S3",
        title="§3 — bridging schemes under cover-up tampering (TAC x SKS matrix)",
        headers=["scheme", "TAC", "detected", "digest provable",
                 "tamper verdict", "blackmail verdict", "up msgs", "down msgs", "dispute msgs"],
        rows=rows,
        facts=facts,
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# S4 — TPNR vs traditional NR step counts / bytes / latency
# ---------------------------------------------------------------------------

def _run_zg_exchange(seed: bytes, payload: bytes, channel: ChannelSpec):
    rng = HmacDrbg(seed)
    sim = Simulator()
    network = Network(sim, rng, channel)
    ca = CertificateAuthority("zg-ca", rng.fork("ca"))
    registry = KeyRegistry(ca)
    identities = {name: Identity.generate(name, rng) for name in ("alice", "bob", "zg-ttp")}
    for identity in identities.values():
        registry.enroll(identity)
    client = ZgClient(identities["alice"], registry, rng)
    provider = ZgProvider(identities["bob"], registry, rng)
    ttp = ZgOnlineTtp(identities["zg-ttp"], registry)
    for node in (client, provider, ttp):
        network.add_node(node)
    label = client.exchange("bob", payload)
    sim.run()
    assert client.outcomes[label].complete
    return network


def experiment_step_counts(
    seed: bytes = b"exp/s4",
    payload_sizes: tuple[int, ...] = (1 << 10, 1 << 14, 1 << 18),
    latency: float = 0.04,
) -> ExperimentResult:
    """§4.4 — "two steps ... in contrast, four steps in the traditional
    non-repudiation protocol"."""
    channel = ChannelSpec(base_latency=latency, bandwidth_bps=12.5e6)
    rows = []
    facts: dict[str, Any] = {}
    for size in payload_sizes:
        payload = HmacDrbg(seed, str(size).encode()).generate(size)
        dep = make_deployment(seed=seed + f"/tpnr/{size}".encode(), channel=channel)
        outcome = run_upload(dep, payload)
        assert outcome.upload_status is TxStatus.COMPLETED
        tpnr_cost = measure(dep.network.trace, "tpnr", "tpnr.", network=dep.network)
        zg_net = _run_zg_exchange(seed + f"/zg/{size}".encode(), payload, channel)
        zg_cost = measure(zg_net.trace, "zg", "zg.", network=zg_net)
        rows.append(["TPNR Normal", size, tpnr_cost.steps, tpnr_cost.bytes_on_wire,
                     f"{tpnr_cost.latency:.3f}", tpnr_cost.uses_ttp])
        rows.append(["Traditional (ZG)", size, zg_cost.steps, zg_cost.bytes_on_wire,
                     f"{zg_cost.latency:.3f}", zg_cost.uses_ttp])
        facts[f"{size}/tpnr_steps"] = tpnr_cost.steps
        facts[f"{size}/zg_steps"] = zg_cost.steps
        facts[f"{size}/tpnr_latency"] = tpnr_cost.latency
        facts[f"{size}/zg_latency"] = zg_cost.latency
    facts["tpnr_always_fewer_steps"] = all(
        facts[f"{s}/tpnr_steps"] < facts[f"{s}/zg_steps"] for s in payload_sizes
    )
    facts["tpnr_always_faster"] = all(
        facts[f"{s}/tpnr_latency"] < facts[f"{s}/zg_latency"] for s in payload_sizes
    )
    return ExperimentResult(
        experiment_id="S4",
        title="§4.4 — TPNR vs traditional four-step NR: steps, bytes, latency",
        headers=["protocol", "payload bytes", "steps", "bytes on wire", "latency (s)", "TTP on path"],
        rows=rows,
        facts=facts,
        notes="TPNR Normal mode completes the exchange of data + evidence in 2 "
        "messages with an off-line TTP; the traditional protocol needs 5 "
        "messages with the TTP on-line in every exchange.",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# S5 — the §5 attack matrix
# ---------------------------------------------------------------------------

def experiment_attacks(seed: bytes = b"exp/s5") -> ExperimentResult:
    """All five attacks vs defended and weakened targets."""
    results = run_gauntlet(seed)
    rows = [[r.attack, r.target, r.succeeded, r.detail[:72]] for r in results]
    facts = {f"{r.attack}|{r.target}": r.succeeded for r in results}
    facts["tpnr_defense_holds"] = tpnr_defense_holds(results)
    facts["weakened_all_fall"] = all(
        r.succeeded for r in results
        if r.target not in ("tpnr/full", "securechannel/authenticated")
    )
    return ExperimentResult(
        experiment_id="S5",
        title="§5 — robustness gauntlet: attack x target success matrix",
        headers=["attack", "target", "succeeded", "detail"],
        rows=rows,
        facts=facts,
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# S6 — protocol time vs surface-mail shipping time
# ---------------------------------------------------------------------------

def experiment_shipping(
    seed: bytes = b"exp/s6",
    data_sizes_tb: tuple[float, ...] = (0.5, 1.0, 4.0, 10.0),
    carriers: tuple[CarrierSpec, ...] = (GROUND, EXPRESS, OVERNIGHT),
) -> ExperimentResult:
    """§6 — "the time required for executing the protocol is really
    trivial comparing to the time consumed by delivering the storage
    devices by surface mail"."""
    rng = HmacDrbg(seed)
    # Measure a real TPNR evidence exchange over a WAN-ish channel once;
    # bulk data goes on the device, the protocol carries hashes.
    dep = make_deployment(seed=seed + b"/protocol",
                          channel=ChannelSpec(base_latency=0.04, bandwidth_bps=12.5e6))
    outcome = run_upload(dep, b"x" * 4096)
    protocol_seconds = outcome.elapsed
    rows = []
    fractions = []
    for size_tb in data_sizes_tb:
        for carrier in carriers:
            transit = carrier.sample_transit_seconds(rng.fork(f"{size_tb}/{carrier.name}"))
            round_trip = 2 * transit  # device out + device back
            total = round_trip + protocol_seconds
            fraction = protocol_seconds / total
            fractions.append(fraction)
            rows.append([size_tb, carrier.name, f"{round_trip / DAY_SECONDS:.2f}",
                         f"{protocol_seconds:.3f}", f"{fraction:.2e}"])
    return ExperimentResult(
        experiment_id="S6",
        title="§6 — TPNR protocol time as a fraction of device-shipping time",
        headers=["data (TB)", "carrier", "shipping RTT (days)", "protocol (s)", "protocol fraction"],
        rows=rows,
        facts={
            "protocol_seconds": protocol_seconds,
            "max_fraction": max(fractions),
            "protocol_is_trivial": max(fractions) < 1e-3,
            "protocol_time_positive": protocol_seconds > 0,
        },
        meta=run_meta(seed, dep.sim.now),
    )


# ---------------------------------------------------------------------------
# W1 — extension: multi-client scalability
# ---------------------------------------------------------------------------

def experiment_scalability(
    seed: bytes = b"exp/w1",
    client_counts: tuple[int, ...] = (1, 2, 4, 8),
    transactions_per_client: int = 4,
) -> ExperimentResult:
    """TPNR under concurrent load: N clients x M transactions.

    The deferred evaluation the paper's cloud framing implies: protocol
    cost grows linearly in transactions (2 messages each), evidence
    accumulates on both sides, and everything terminates.
    """
    rows = []
    facts: dict[str, Any] = {}
    for n in client_counts:
        spec = WorkloadSpec(n_clients=n, transactions_per_client=transactions_per_client)
        _, report = run_workload(seed + f"/n={n}".encode(), spec)
        rows.append([
            n, spec.total_transactions, f"{report.success_rate:.2f}",
            report.total_messages, report.total_bytes,
            report.provider_objects, report.evidence_items,
        ])
        facts[f"{n}/success_rate"] = report.success_rate
        facts[f"{n}/messages"] = report.total_messages
        facts[f"{n}/terminated"] = report.all_terminated
    facts["linear_messages"] = all(
        facts[f"{n}/messages"] == 2 * n * transactions_per_client for n in client_counts
    )
    return ExperimentResult(
        experiment_id="W1",
        title="Extension — multi-client scalability (N clients, honest provider)",
        headers=["clients", "transactions", "success rate", "messages",
                 "bytes", "stored objects", "evidence items"],
        rows=rows,
        facts=facts,
        notes="2 messages per transaction regardless of concurrency: the "
        "off-line-TTP design has no shared bottleneck on the happy path.",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# R1 — extension: resilience to message loss
# ---------------------------------------------------------------------------

def experiment_resilience(
    seed: bytes = b"exp/r1",
    drop_probs: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4),
) -> ExperimentResult:
    """Outcome distribution vs channel loss.

    The §5.5 finiteness property under stress: success degrades
    gracefully (Resolve and restart recover most losses) and no
    transaction is ever left in limbo.
    """
    rows = []
    facts: dict[str, Any] = {}
    sweep = resilience_sweep(seed, drop_probs=drop_probs)
    for drop, report in sweep:
        rows.append([
            f"{drop:.2f}", f"{report.success_rate:.2f}",
            report.status_counts.get("completed", 0),
            report.status_counts.get("resolved", 0),
            report.status_counts.get("failed", 0),
            report.all_terminated,
        ])
        facts[f"{drop}/success_rate"] = report.success_rate
        facts[f"{drop}/terminated"] = report.all_terminated
    facts["all_terminated"] = all(report.all_terminated for _, report in sweep)
    facts["lossless_perfect"] = sweep[0][1].success_rate == 1.0
    facts["monotone_pressure"] = sweep[-1][1].success_rate <= sweep[0][1].success_rate
    return ExperimentResult(
        experiment_id="R1",
        title="Extension — resilience: outcomes vs channel drop probability",
        headers=["drop prob", "success rate", "completed", "resolved (TTP)",
                 "failed", "all terminated"],
        rows=rows,
        facts=facts,
        notes="'resolved' = receipts recovered through the in-line TTP; "
        "'failed' transactions still end with evidence (time-outs, TTP "
        "statements) rather than limbo.",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# A1 — ablation: what the evidence encryption costs and buys
# ---------------------------------------------------------------------------

def experiment_evidence_ablation(seed: bytes = b"exp/a1") -> ExperimentResult:
    """DESIGN.md §5.1: run Normal mode with and without the outer
    public-key encryption of evidence and compare wire cost; then show
    what the encryption buys (evidence confidentiality on the wire).
    """
    from ..core.policy import DEFAULT_POLICY
    from ..net.adversary import PassiveEavesdropper

    rows = []
    facts: dict[str, Any] = {}
    payload = HmacDrbg(seed, b"payload").generate(2048)
    for label, policy in (
        ("encrypted evidence", DEFAULT_POLICY),
        ("plain evidence", DEFAULT_POLICY.weakened(encrypt_evidence=False)),
    ):
        dep = make_deployment(seed=seed + label.encode(), policy=policy)
        eve = PassiveEavesdropper()
        dep.network.install_adversary(eve)
        outcome = run_upload(dep, payload)
        assert outcome.upload_status is TxStatus.COMPLETED
        # Can the eavesdropper read the signatures inside the evidence?
        upload_env = next(e for e in eve.seen if e.kind == "tpnr.upload")
        evidence_exposed = upload_env.payload.evidence.startswith(b"PLAIN")
        rows.append([label, outcome.steps, outcome.bytes_on_wire, evidence_exposed])
        facts[f"{label}/bytes"] = outcome.bytes_on_wire
        facts[f"{label}/exposed"] = evidence_exposed
    overhead = facts["encrypted evidence/bytes"] - facts["plain evidence/bytes"]
    facts["encryption_overhead_bytes"] = overhead
    facts["encryption_costs_bytes"] = overhead > 0
    return ExperimentResult(
        experiment_id="A1",
        title="Ablation — outer encryption of evidence: cost vs exposure",
        headers=["variant", "steps", "bytes on wire", "evidence readable on wire"],
        rows=rows,
        facts=facts,
        notes=f"The outer encryption costs {overhead} bytes per session and is "
        "what keeps the evidence confidential to its recipient (§4.1).",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# FC1 — fault-injection campaign: targeted faults vs the hardened sessions
# ---------------------------------------------------------------------------

def _fault_class_line(fault_classes: dict[str, dict]) -> str:
    """One compact, deterministic sentence summarizing the per-class
    telemetry, for experiment notes (the full table is in the campaign
    report and the facts carry the structured form)."""
    parts = []
    for name, row in sorted(fault_classes.items()):
        wal = f" wal={row['wal_replayed']}" if "wal_replayed" in row else ""
        parts.append(
            f"{name}: plans={row['plans']} retx={row['retries']} "
            f"escal={row['escalation_rate']:.0%}{wal} "
            f"lat={row['mean_latency']:.2f}s"
        )
    return "; ".join(parts) + "."


def experiment_fault_campaign(
    seed: bytes = b"exp/fc1", n_plans: int = 50
) -> ExperimentResult:
    """Sweep seeded fault plans (drop/duplicate/delay/corrupt/reorder
    the Nth message, party crash windows) over full TPNR sessions and
    tabulate the outcome of each — the targeted counterpart to R1's
    i.i.d. channel loss.

    The facts assert the §5.5 robustness contract under *adversarial*
    scheduling: every session reaches a terminal state, none violates
    a non-repudiation invariant (conflicting evidence, unaccounted
    messages), and the whole table is reproducible from its seed.
    """
    from ..net.faults import CampaignRunner, generate_plans
    from ..obs.campaign import class_breakdown

    plans = generate_plans(seed, n_plans)
    runner = CampaignRunner(seed=seed)
    report = runner.run(plans)
    status_counts = report.status_counts()
    rows = [
        [o.index, o.plan.name, o.plan.describe(), o.status,
         "yes" if o.ttp_involved else "no", o.faults_fired, o.retransmits,
         "none" if not o.violations else "; ".join(o.violations)]
        for o in report.outcomes
    ]
    facts: dict[str, Any] = {
        "plans": len(report.outcomes),
        "hung_sessions": report.hung_sessions,
        "violations": report.violation_count,
        "status_counts": status_counts,
        "plans_with_faults_fired": sum(
            1 for o in report.outcomes if o.faults_fired
        ),
        "ttp_involved": sum(1 for o in report.outcomes if o.ttp_involved),
        "signature": report.signature(),
        "all_settled": report.hung_sessions == 0,
        # Per-fault-class telemetry: retries, escalation rate, latency.
        "fault_classes": {
            row["fault_class"]: {
                "plans": row["plans"],
                "retries": row["retries"],
                "escalation_rate": row["escalation_rate"],
                "mean_latency": row["elapsed_mean"],
            }
            for row in class_breakdown(report)
        },
    }
    return ExperimentResult(
        experiment_id="FC1",
        title="Extension — fault-injection campaign over hardened TPNR sessions",
        headers=["#", "plan", "faults", "status", "ttp", "fired", "retx",
                 "violations"],
        rows=rows,
        facts=facts,
        notes="Each plan targets specific messages (or crashes a party) of one "
        "upload+download session; retransmission with capped backoff absorbs "
        "most faults, the Resolve path the rest. Identical seed => identical "
        f"table (signature {facts['signature'][:16]}...). "
        f"Per fault class: {_fault_class_line(facts['fault_classes'])}",
        meta=run_meta(seed, runner.deployment.sim.now),
    )


# ---------------------------------------------------------------------------
# CR1 — amnesia-crash recovery campaign
# ---------------------------------------------------------------------------

def experiment_crash_recovery(
    seed: bytes = b"exp/cr1", n_plans: int = 100
) -> ExperimentResult:
    """Sweep seeded amnesia-crash plans over write-ahead-logged TPNR
    sessions: each plan kills one party (sometimes twice), wiping its
    volatile state and timers, and crash recovery rebuilds it from the
    durable WAL prefix at restart.

    The facts assert the durability contract: every session reaches a
    terminal state, zero durably-acknowledged evidence records are
    lost, no party holds conflicting evidence, and the outcome table
    is byte-for-byte reproducible from its seed.
    """
    from ..net.faults import CampaignRunner, generate_amnesia_plans
    from ..obs.campaign import class_breakdown

    plans = generate_amnesia_plans(seed, n_plans)
    runner = CampaignRunner(seed=seed, durable=True)
    report = runner.run(plans)
    status_counts = report.status_counts()
    rows = [
        [o.index, o.plan.name, o.plan.describe(), o.status,
         o.crashes, o.recoveries, o.resumed, o.escalated,
         "none" if not o.violations else "; ".join(o.violations)]
        for o in report.outcomes
    ]
    evidence_intact = sum(
        1
        for o in report.outcomes
        if not any("evidence" in v for v in o.violations)
    )
    facts: dict[str, Any] = {
        "plans": len(report.outcomes),
        "hung_sessions": report.hung_sessions,
        "violations": report.violation_count,
        "status_counts": status_counts,
        "crashes": sum(o.crashes for o in report.outcomes),
        "recoveries": sum(o.recoveries for o in report.outcomes),
        "resumed": sum(o.resumed for o in report.outcomes),
        "escalated": sum(o.escalated for o in report.outcomes),
        "evidence_intact": evidence_intact,
        "signature": report.signature(),
        "all_settled": report.hung_sessions == 0,
        "every_plan_crashed": all(o.crashes >= 1 for o in report.outcomes),
        "every_crash_recovered": (
            sum(o.recoveries for o in report.outcomes)
            == sum(o.crashes for o in report.outcomes)),
        "no_evidence_lost": not any(
            "lost" in v for o in report.outcomes for v in o.violations
        ),
        # Per-fault-class telemetry: WAL replay lengths, escalation rate.
        "fault_classes": {
            row["fault_class"]: {
                "plans": row["plans"],
                "retries": row["retries"],
                "escalation_rate": row["escalation_rate"],
                "wal_replayed": row["wal_replayed"],
                "mean_latency": row["elapsed_mean"],
            }
            for row in class_breakdown(report)
        },
    }
    return ExperimentResult(
        experiment_id="CR1",
        title="Extension — amnesia-crash recovery campaign over durable TPNR sessions",
        headers=["#", "plan", "faults", "status", "crash", "recov",
                 "resumed", "escalated", "violations"],
        rows=rows,
        facts=facts,
        notes="Every party journals evidence-bearing transitions to a "
        "checksummed WAL before acting on them; an amnesia crash wipes its "
        "volatile state mid-session and recovery replays the durable prefix, "
        "re-sending or escalating in-flight work. Identical seed => identical "
        f"table (signature {facts['signature'][:16]}...). "
        f"Per fault class: {_fault_class_line(facts['fault_classes'])}",
        meta=run_meta(seed, runner.deployment.sim.now),
    )


# ---------------------------------------------------------------------------
# OB1 — observability: span trees + metrics across the four TPNR paths
# ---------------------------------------------------------------------------

def experiment_observability(seed: bytes = b"exp/ob1") -> ExperimentResult:
    """Drive every TPNR path — Normal, Abort, Resolve, and an
    amnesia-crash recovery resume — on *observed* deployments and show
    what the telemetry layer captured: a complete, parent-linked span
    tree per transaction, deterministic metrics stamped with the
    simulation clock, and crypto hot-path call counts.

    The facts assert the observability contract: every transaction's
    tree is complete (root closed, every child linked and finished),
    the metrics snapshot is non-empty and deterministic, the exporters
    produce valid JSONL/Prometheus text, and crypto instrumentation
    sees the RSA/AEAD traffic the session actually generated.  The
    disabled path does none of that work: an unobserved session keeps
    the network's bundle disabled, the crypto observer seat empty, and
    the null registry and tracer without a series or a span.  A session
    pool world takes the disabled path too: its network seats the null
    bundle, no party holds a span, and the pool's own latency sketch
    holds every session.
    """
    import json

    from ..core.protocol import run_session
    from ..crypto import instrument as crypto_seat
    from ..net.faults import CrashWindow, FaultInjector, FaultPlan
    from ..obs.exporters import spans_jsonl
    from ..obs.instrument import CRYPTO_OPS

    rows = []
    facts: dict[str, Any] = {}
    crypto_calls_total = 0

    def inspect(mode: str, dep, txn: str) -> None:
        nonlocal crypto_calls_total
        tracer = dep.obs.tracer
        spans = tracer.trace(txn)
        complete = tracer.tree_complete(txn)
        root = tracer.root(txn)
        status = root.status if root is not None else "missing"
        events = sum(len(s.events) for s in spans)
        snapshot = dep.obs.metrics.snapshot()
        rows.append([mode, status, len(spans), events, complete, len(snapshot)])
        facts[f"{mode}/tree_complete"] = complete
        facts[f"{mode}/spans"] = len(spans)
        facts[f"{mode}/metrics"] = len(snapshot)
        # Exporter sanity: every span line is valid JSON carrying the txn.
        lines = [json.loads(line) for line in spans_jsonl(tracer).splitlines()]
        facts[f"{mode}/jsonl_valid"] = all("span_id" in d for d in lines)

    # Normal mode (upload + verified download).
    dep = make_deployment(seed=seed + b"/normal", observe=True)
    with dep.obs.observe_crypto() as crypto:
        outcome = run_session(dep, b"observed payload " * 16)
    calls = {op: int(crypto.calls(op)) for op in CRYPTO_OPS}
    crypto_calls_total += sum(calls.values())
    facts["normal/crypto_calls"] = calls
    inspect("normal", dep, outcome.transaction_id)

    # Abort mode (receipt withheld, client gives up before escalating).
    dep_a = make_deployment(seed=seed + b"/abort", observe=True,
                            behavior=ProviderBehavior(silent_on_upload=True))
    outcome_a = run_abort(dep_a, b"observed abort payload")
    inspect("abort", dep_a, outcome_a.transaction_id)

    # Resolve mode (receipt withheld, client escalates to the TTP).
    dep_r = make_deployment(seed=seed + b"/resolve", observe=True,
                            behavior=ProviderBehavior(silent_on_upload=True))
    outcome_r = run_upload(dep_r, b"observed resolve payload")
    inspect("resolve", dep_r, outcome_r.transaction_id)

    # Crash-recovery resume: alice takes an amnesia crash mid-upload and
    # her recovered journal re-sends it.
    dep_c = make_deployment(seed=seed + b"/crash", observe=True, durable=True)
    plan = FaultPlan(
        name="ob1-amnesia-alice",
        crashes=(CrashWindow("alice", 0.0, 2.0, amnesia=True),),
    )
    injector = FaultInjector(plan)
    dep_c.network.install_adversary(injector)
    injector.reset(epoch=dep_c.sim.now)
    outcome_c = run_upload(dep_c, b"observed crash payload")
    dep_c.network.remove_adversary()
    inspect("crash-resume", dep_c, outcome_c.transaction_id)
    recovery_spans = [
        s for s in dep_c.obs.tracer.trace(outcome_c.transaction_id)
        if s.name.startswith("recovery.")
    ]
    facts["crash-resume/recovery_spans"] = len(recovery_spans)
    facts["crash-resume/recovery_traced"] = bool(recovery_spans)
    facts["crash-resume/status"] = outcome_c.upload_status.value

    facts["all_trees_complete"] = all(
        facts[f"{m}/tree_complete"]
        for m in ("normal", "abort", "resolve", "crash-resume")
    )
    facts["metrics_nonempty"] = all(
        facts[f"{m}/metrics"] > 0
        for m in ("normal", "abort", "resolve", "crash-resume")
    )
    facts["crypto_observed"] = crypto_calls_total > 0
    facts["prometheus_nonempty"] = bool(dep.obs.prometheus_text().strip())

    # The disabled path: the same session on an unobserved deployment.
    dark = make_deployment(seed=seed + b"/dark", observe=False)
    run_session(dark, b"unobserved payload " * 16)
    seat = dark.network.obs  # what every node reaches through self.obs
    facts["disabled_path_records_nothing"] = (
        not seat.enabled
        and crypto_seat.observer is None
        and not seat.metrics.snapshot()
        and not seat.tracer.spans
    )

    # A pool world is not observed: it keeps only the latency sketch
    # its p50/p99 come from, and no party opens a span.
    from ..engine import EngineConfig, SessionPool
    from ..obs import NULL_OBS

    pool = SessionPool(EngineConfig(n_tenants=4, transactions_per_tenant=2),
                       seed=seed + b"/pool")
    pooled = pool.run()
    facts["pool/sessions"] = len(pooled.sessions)
    facts["pool/spans"] = sum(len(p._obs_spans) for p in pool._parties())
    facts["observed_pool_keeps_no_spans"] = (
        pool.network.obs is NULL_OBS
        and facts["pool/spans"] == 0
        and pooled.latency_sketch.count == len(pooled.sessions) > 0
    )
    return ExperimentResult(
        experiment_id="OB1",
        title="Extension — observability: span trees + metrics across TPNR paths",
        headers=["mode", "root status", "spans", "events", "tree complete",
                 "metrics"],
        rows=rows,
        facts=facts,
        notes="Spans live on the network-side tracer (keyed by transaction id, "
        "events carry msg_id for wire-trace correlation), so trees survive "
        "amnesia crashes of party state; metrics are sim-clock-stamped and "
        "deterministic, and crypto hot paths are counted, never timed.  "
        "A session pool is not observed: it keeps only its latency sketch.",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# OB2 — forensics: timeline reconstruction + consistency auditing
# ---------------------------------------------------------------------------

def experiment_forensics(
    seed: bytes = b"exp/ob2", n_plans: int = 100
) -> ExperimentResult:
    """Reconstruct cross-surface timelines and audit them, first on
    four targeted scenarios with known ground truth, then across a
    seeded fault campaign.

    Targeted scenarios (one deployment each): a clean durable session
    must audit to *zero* findings (the false-positive check); a
    tampering provider must be caught as ``in-storage-tampering`` with
    the dossier's reconstructed verdict agreeing with the real
    Arbitrator; a dropped receipt must be attributed to
    ``message-loss``; an amnesia crash to ``amnesia-rollback``.

    Campaign sweep: ``n_plans`` seeded fault plans run with forensics,
    the rate-shift detectors, and the standard campaign SLOs on (the
    one path for budget and latency alerts).  The facts assert total
    attribution —
    every session that did not complete-and-verify carries at least one
    classified finding, the no-op plan carries none — plus the
    per-detector alert counts and the seed-stable report signature.
    Forensics off means no forensic work: the same campaign's first
    plans, rerun with forensics off, build no auditor and report no
    finding.
    """
    from ..net.faults import (
        CampaignRunner,
        CrashWindow,
        FaultAction,
        FaultInjector,
        FaultPlan,
        FaultRule,
        generate_plans,
    )
    from ..core.protocol import run_session

    rows = []
    facts: dict[str, Any] = {}

    def categories(findings) -> list[str]:
        return sorted({f.category for f in findings})

    # Clean baseline: durable + observed, no faults, zero findings.
    dep = make_deployment(seed=seed + b"/clean", observe=True, durable=True)
    outcome = run_session(dep, b"forensic baseline payload " * 8)
    txn = outcome.transaction_id
    timeline = dep.timeline(txn)
    clean_findings = dep.forensic_audit(txn)
    dossier = dep.dossier(txn)
    facts["clean/sources"] = timeline.sources()
    facts["clean/findings"] = len(clean_findings)
    facts["clean/agrees"] = dossier.agrees(dep.arbitrator, "tampering")
    rows.append(["clean", "-", dossier.reconstructed_verdict("tampering").value,
                 facts["clean/agrees"]])

    # In-storage tampering: the §5 covert-tampering provider.
    dep_t = make_deployment(
        seed=seed + b"/tamper", observe=True, durable=True,
        behavior=ProviderBehavior(tamper_mode=TamperMode.FIXUP_MD5),
    )
    out_t = run_upload(dep_t, b"audited company data " * 8)
    run_download(dep_t, out_t.transaction_id)
    tamper_findings = dep_t.forensic_audit(out_t.transaction_id)
    dossier_t = dep_t.dossier(out_t.transaction_id)
    facts["tamper/categories"] = categories(tamper_findings)
    facts["tamper/agrees"] = dossier_t.agrees(dep_t.arbitrator, "tampering")
    rows.append(["tamper", ",".join(facts["tamper/categories"]),
                 dossier_t.reconstructed_verdict("tampering").value,
                 facts["tamper/agrees"]])

    # Message loss: drop the first upload receipt on the wire.
    dep_d = make_deployment(seed=seed + b"/drop", observe=True, durable=True)
    plan_d = FaultPlan(
        name="ob2-drop-receipt",
        rules=(FaultRule(FaultAction.DROP, "tpnr.upload.receipt"),),
    )
    injector = FaultInjector(plan_d)
    dep_d.network.install_adversary(injector)
    injector.reset(epoch=dep_d.sim.now)
    out_d = run_upload(dep_d, b"dropped receipt payload")
    dep_d.network.remove_adversary()
    drop_findings = dep_d.forensic_audit(out_d.transaction_id)
    facts["drop/categories"] = categories(drop_findings)
    rows.append(["drop", ",".join(facts["drop/categories"]), "-", "-"])

    # Amnesia rollback: the client crashes mid-upload and loses RAM.
    dep_c = make_deployment(seed=seed + b"/amnesia", observe=True, durable=True)
    plan_c = FaultPlan(
        name="ob2-amnesia-alice",
        crashes=(CrashWindow("alice", 0.0, 2.0, amnesia=True),),
    )
    injector_c = FaultInjector(plan_c)
    dep_c.network.install_adversary(injector_c)
    injector_c.reset(epoch=dep_c.sim.now)
    out_c = run_upload(dep_c, b"amnesia crash payload")
    dep_c.network.remove_adversary()
    amnesia_findings = dep_c.forensic_audit(out_c.transaction_id)
    facts["amnesia/categories"] = categories(amnesia_findings)
    rows.append(["amnesia", ",".join(facts["amnesia/categories"]), "-", "-"])

    # Campaign sweep: forensics + rate-shift detectors + SLO burn alerts.
    plans = [FaultPlan(name="ob2-noop")] + generate_plans(seed, n_plans - 1)
    runner = CampaignRunner(seed=seed, forensics=True, anomaly=True, slo=True)
    report = runner.run(plans)
    unattributed = sum(
        1 for o in report.outcomes
        if not (o.status in ("completed", "resolved") and o.download_ok)
        and not o.findings
    )
    facts["campaign/plans"] = len(report.outcomes)
    facts["campaign/finding_categories"] = report.finding_categories()
    facts["campaign/unattributed"] = unattributed
    facts["campaign/noop_findings"] = len(report.outcomes[0].findings)
    facts["campaign/hung"] = report.hung_sessions
    facts["campaign/alert_counts"] = _alert_counts(report.alerts)
    facts["campaign/slo_budget_remaining"] = {
        s.name: round(s.budget_remaining, 4) for s in report.slo.statuses}
    facts["campaign/signature"] = report.signature()
    facts["all_attributed"] = unattributed == 0
    facts["no_false_positives"] = (
        facts["clean/findings"] == 0 and facts["campaign/noop_findings"] == 0
    )
    facts["verdicts_agree"] = facts["clean/agrees"] and facts["tamper/agrees"]
    dark = CampaignRunner(seed=seed)
    dark_report = dark.run(plans[:12])
    facts["forensics_off_builds_no_auditor"] = dark.auditor is None and not any(
        o.findings for o in dark_report.outcomes)
    for category, count in sorted(report.finding_categories().items()):
        rows.append([f"campaign:{category}", count, "-", "-"])
    return ExperimentResult(
        experiment_id="OB2",
        title="Extension — forensic timeline reconstruction + consistency audit",
        headers=["scenario", "finding classes", "reconstructed verdict", "agrees"],
        rows=rows,
        facts=facts,
        notes="Four telemetry surfaces (span tree, wire trace, per-party WAL, "
        "evidence archives) are joined into one causally-ordered timeline per "
        "transaction; the auditor classifies every cross-surface inconsistency "
        "and the dispute dossier's reconstructed verdict must match the real "
        "Arbitrator. Over the campaign every non-delivered outcome is "
        "attributed to a concrete violation class with zero findings on the "
        "no-fault plan. "
        f"Alert counts: {facts['campaign/alert_counts']}.",
        meta=run_meta(seed, runner.deployment.sim.now),
    )


def _alert_counts(alerts) -> dict[str, int]:
    counts: dict[str, int] = {}
    for alert in alerts:
        counts[alert.detector] = counts.get(alert.detector, 0) + 1
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# OB3 — SLO error budgets, burn-rate alerting, mergeable sketches
# ---------------------------------------------------------------------------

def experiment_slo(
    seed: bytes = b"exp/ob3", n_plans: int = 24, shards: int = 4
) -> ExperimentResult:
    """The SLO layer under fire: identical seeded campaigns, one clean
    and two fault storms, each evaluated against the standard campaign
    SLOs (session success, terminal-verdict latency, evidence
    verification).

    The facts assert the OB3 alerting contract — the clean run keeps
    every error budget intact and fires **zero** alerts while each
    storm burns a budget hard enough to fire at least one burn-rate
    alert — plus the sketch-merge contract: the per-plan latencies,
    round-robin sharded into *shards* per-shard sketches and merged,
    reproduce the global sketch **exactly** (bucket maps, counts,
    min/max) and its quantiles stay within the declared relative-error
    bound of the true sorted samples.
    """
    from ..net.faults import CampaignRunner, FaultPlan, generate_storm_plans
    from ..obs.sketch import QuantileSketch

    campaigns = [
        ("clean", [FaultPlan(name=f"s{i:03d}-clean") for i in range(n_plans)]),
        ("blackout", generate_storm_plans(seed + b"/blackout", n_plans,
                                          profile="blackout")),
        ("delay", generate_storm_plans(seed + b"/delay", n_plans,
                                       profile="delay")),
    ]
    rows: list[list[Any]] = []
    facts: dict[str, Any] = {}
    latencies: list[float] = []
    for tag, plans in campaigns:
        runner = CampaignRunner(seed=seed + b"/" + tag.encode(), slo=True)
        report = runner.run(plans)
        slo_report = report.slo
        burn = slo_report.burn_alerts()
        latencies.extend(o.elapsed for o in report.outcomes)
        worst = min(slo_report.statuses, key=lambda s: s.budget_remaining)
        facts[f"{tag}/plans"] = len(report.outcomes)
        facts[f"{tag}/status_counts"] = report.status_counts()
        facts[f"{tag}/hung"] = report.hung_sessions
        facts[f"{tag}/burn_alerts"] = len(burn)
        facts[f"{tag}/alerts"] = len(report.alerts)
        facts[f"{tag}/alert_counts"] = _alert_counts(report.alerts)
        facts[f"{tag}/min_budget_remaining"] = round(worst.budget_remaining, 4)
        facts[f"{tag}/signature"] = report.signature()
        rows.append([
            tag, len(report.outcomes), report.hung_sessions, len(burn),
            f"{worst.name}={worst.budget_remaining:.0%}",
            "; ".join(f"{k}:{v}" for k, v in report.status_counts().items()),
        ])

    # Shard the pooled latencies round-robin, merge the shard sketches,
    # and hold the merge to both the exactness and the accuracy bound.
    alpha = 0.01
    global_sketch = QuantileSketch("ob3.latency", alpha=alpha)
    shard_sketches = [
        QuantileSketch("ob3.latency", alpha=alpha) for _ in range(shards)]
    for i, value in enumerate(latencies):
        global_sketch.observe(value)
        shard_sketches[i % shards].observe(value)
    merged = QuantileSketch.merged("ob3.latency", shard_sketches, alpha=alpha)
    facts["samples"] = len(latencies)
    facts["alpha"] = alpha
    facts["shards"] = shards
    facts["sketch_merge_exact"] = (
        merged.buckets == global_sketch.buckets
        and merged.count == global_sketch.count
        and merged.zero_count == global_sketch.zero_count
        and merged.min == global_sketch.min
        and merged.max == global_sketch.max
    )
    sv = sorted(latencies)
    within = True
    quantiles: dict[str, float] = {}
    for q in (0.5, 0.9, 0.95, 0.99):
        est = merged.quantile(q)
        quantiles[f"p{int(q * 100)}"] = round(est, 6)
        # The sketch targets the floor-rank sample; accept either
        # neighbour rank so the check tests the error bound, not the
        # tie-breaking convention at rank boundaries.
        i = int(q * (len(sv) - 1))
        within = within and any(
            abs(est - sv[j]) <= alpha * sv[j] + 1e-9
            for j in (max(i - 1, 0), i, min(i + 1, len(sv) - 1)))
    facts["sketch_merge_within_bound"] = within
    facts["merged_quantiles"] = quantiles
    facts["clean_run_silent"] = (
        facts["clean/alerts"] == 0 and facts["clean/burn_alerts"] == 0)
    facts["storms_fire_burn_alerts"] = all(
        facts[f"{tag}/burn_alerts"] >= 1 for tag in ("blackout", "delay"))
    rows.append([
        "sketch-merge", facts["samples"], "-", "-",
        f"exact={facts['sketch_merge_exact']}",
        f"p99={quantiles['p99']:g} within_bound={within}",
    ])
    return ExperimentResult(
        experiment_id="OB3",
        title="Extension — SLO error budgets + burn-rate alerting "
        "(storms page, clean runs stay silent)",
        headers=["campaign", "plans", "hung", "burn alerts",
                 "worst budget", "detail"],
        rows=rows,
        facts=facts,
        notes="Three campaigns over the same TPNR wire surface: a clean "
        "control and two seeded fault storms (blackout drops every message; "
        "delay holds key messages past the 10 s latency objective). Each "
        "runs with the standard campaign SLOs attached; the multi-window "
        "burn-rate detectors must page on every storm and stay silent on "
        "the control. The pooled per-plan latencies, sharded "
        f"{shards}-way and merged, reproduce the global sketch exactly.",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# TP1 — multi-tenant throughput engine
# ---------------------------------------------------------------------------

def experiment_throughput(seed: bytes = b"exp/tp1") -> ExperimentResult:
    """The §6 open question, instrumented: drive concurrent TPNR
    sessions through the :mod:`repro.engine` pool and check the three
    properties the engine claims.

    * **Correctness under concurrency** — every session at every sweep
      point completes its upload and verifies its download, and the TTP
      is never contacted (Normal mode stays off-line-TTP no matter how
      many tenants interleave).
    * **Determinism** — two same-seed runs produce byte-identical
      result signatures (per-tenant named DRBG streams, explicit
      transaction IDs).
    * **Cache transparency** — enabling the :mod:`repro.crypto.cache`
      bundle leaves the signature byte-identical while the
      verification cache records real hits (it saves work without
      changing any simulated behavior).
    * **Amortized keys** — a pool pays RSA key generation once per
      identity, not per transaction, and a rerun over the same
      :class:`~repro.engine.pool.TenantDirectory` pays none at all.

    Every fact is a simulation output or a count; wall-clock throughput
    is the repository benchmark's to measure.
    """
    from ..engine import TenantDirectory, run_pool

    tenant_counts = (2, 8, 16)
    rows = []
    facts: dict[str, Any] = {}
    all_ok = True
    ttp_quiet = True
    verify_hits_total = 0
    for n in tenant_counts:
        result = run_pool(seed, n)
        stats = result.cache_stats or {}
        verify = stats.get("verify", {})
        verify_hits_total += int(verify.get("hits", 0))
        ok = result.completed == len(result.sessions) == result.verified == n
        all_ok = all_ok and ok
        ttp_quiet = ttp_quiet and result.ttp_stats["resolves_handled"] == 0
        rows.append([
            n,
            result.completed,
            result.verified,
            result.messages_sent,
            result.bytes_on_wire,
            f"{result.p50_latency:.4f}",
            f"{result.p99_latency:.4f}",
            f"{float(verify.get('hit_rate', 0.0)):.3f}",
        ])
    # Determinism + cache transparency at one point, three runs: same
    # seed cached, same seed cached again, same seed uncached.
    probe = 8
    sig_cached = run_pool(seed, probe).signature()
    sig_again = run_pool(seed, probe).signature()
    sig_uncached = run_pool(seed, probe, use_caches=False).signature()
    facts["all_sessions_completed_and_verified"] = all_ok
    facts["ttp_untouched"] = ttp_quiet
    facts["verify_cache_hits_positive"] = verify_hits_total > 0
    facts["same_seed_signature_identical"] = sig_cached == sig_again
    facts["cache_toggle_signature_identical"] = sig_cached == sig_uncached
    # Key amortization: two transactions per tenant over one directory,
    # twice.  The cold run generates one key per identity; the warm
    # rerun finds every identity memoized.
    directory = TenantDirectory(seed)
    run_pool(seed, probe, directory=directory, transactions_per_tenant=2)
    facts["cold_run_keygens"] = directory.keygen_count
    run_pool(seed, probe, directory=directory, transactions_per_tenant=2)
    facts["warm_run_keygens"] = directory.keygen_count - facts["cold_run_keygens"]
    return ExperimentResult(
        experiment_id="TP1",
        title="Extension — multi-tenant throughput engine (paper §6 open work)",
        headers=["tenants", "completed", "verified", "messages", "bytes on wire",
                 "p50 latency (sim s)", "p99 latency (sim s)", "verify-cache hit rate"],
        rows=rows,
        facts=facts,
        notes="N clients share one provider/TTP/network; per-tenant named DRBG "
        "streams and explicit transaction IDs keep every run byte-identical "
        "per seed.  The crypto caches (signature verification, deterministic "
        "signing, per-peer KEM session keys) change wall-clock cost only: the "
        "result signature — session rows, wire accounting, party tallies — is "
        "identical with caches on or off.  RSA keys are generated once per "
        "identity and reused by every later run over the same directory.",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# TP2 — sharded engine with Merkle-batched evidence
# ---------------------------------------------------------------------------

def experiment_sharded_throughput(
    seed: bytes = b"exp/tp2", n_tenants: int = 16, batch_size: int = 16
) -> ExperimentResult:
    """The sharded engine's contract, checked end to end.

    * **Shard invariance** — the merged ``PoolResult.signature()`` is
      bit-identical at 1, 2, 4, and 8 shards (HMAC-placed tenants,
      per-shard named DRBG streams, exact merge), and also invariant
      in the evidence batch size (batch layout is a crypto-amortization
      choice, never simulated behavior).  It holds on the ``LOSSY``
      channel too: channel dice come from per-link named streams, so
      drops, duplicates and jitter do not depend on the layout.
    * **Batched-evidence soundness** — every session completes and
      verifies with Merkle-batched evidence (one RSA signature per
      batch, per-item inclusion proofs), and end-of-run settlement
      resolves every pending item: nothing fails, nothing is silently
      accepted.
    * **Wire economy** — the batched runs ship fewer evidence bytes
      than the classic per-message-signature run at the same workload
      (a 32-byte leaf replaces an encrypted two-signature blob).
    * **RSA economy** — the RSA private-key operations each run paid
      (:attr:`~repro.engine.pool.PoolResult.rsa_private_ops`), classic
      and per shard count: a batched shard world signs once per sealed
      batch instead of once per evidence message.

    Every fact is a simulation output or a count; wall-clock throughput
    is the repository benchmark's to measure.
    """
    from ..engine import TenantDirectory, run_pool

    directory = TenantDirectory(seed)
    directory.warm(["bob", "ttp", *[f"tenant-{i:04d}" for i in range(n_tenants)]])
    shard_counts = (1, 2, 4, 8)
    rows = []
    facts: dict[str, Any] = {}
    signatures: dict[int, str] = {}
    all_ok = ttp_quiet = settled = True
    for shards in shard_counts:
        result = run_pool(
            seed, n_tenants, directory=directory,
            shards=shards, batch_size=batch_size,
        )
        ok = result.completed == len(result.sessions) == result.verified == n_tenants
        all_ok = all_ok and ok
        ttp_quiet = ttp_quiet and result.ttp_stats["resolves_handled"] == 0
        batch = result.batch_stats or {}
        settled = settled and batch.get("failed", 1) == 0 and batch.get("leaves", 0) > 0
        signatures[shards] = result.signature()
        facts[f"{shards}/rsa_private_ops"] = result.rsa_private_ops
        rows.append([
            shards,
            result.completed,
            result.verified,
            result.messages_sent,
            result.bytes_on_wire,
            batch.get("batches", 0),
            f"{result.p50_latency:.4f}",
            f"{result.p99_latency:.4f}",
            signatures[shards][:16],
        ])
    # Batch-size invariance probe (different layout, same behavior) and
    # the classic per-message-signature run for the wire comparison.
    sig_small_batches = run_pool(
        seed, n_tenants, directory=directory, shards=2, batch_size=4
    ).signature()
    classic = run_pool(seed, n_tenants, directory=directory)
    lossy_signatures = {
        run_pool(seed, n_tenants, directory=directory, shards=shards,
                 batch_size=batch_size, channel=LOSSY).signature()
        for shards in shard_counts
    }
    batched_bytes = {r[4] for r in rows}
    facts["shard_signature_invariant_1_2_4_8"] = len(set(signatures.values())) == 1
    facts["lossy/shard_signature_invariant_1_2_4_8"] = len(lossy_signatures) == 1
    facts["batch_size_signature_invariant"] = sig_small_batches == signatures[2]
    facts["all_sessions_completed_and_verified"] = all_ok
    facts["ttp_untouched"] = ttp_quiet
    facts["batched_evidence_settled_every_item"] = settled
    facts["batched_wire_bytes_below_classic"] = (
        len(batched_bytes) == 1 and batched_bytes.pop() < classic.bytes_on_wire
    )
    facts["classic/rsa_private_ops"] = classic.rsa_private_ops
    return ExperimentResult(
        experiment_id="TP2",
        title="Extension — sharded engine with Merkle-batched evidence",
        headers=["shards", "completed", "verified", "messages", "bytes on wire",
                 "batches sealed", "p50 latency (sim s)", "p99 latency (sim s)",
                 "signature"],
        rows=rows,
        facts=facts,
        notes="Tenants are placed on shards by HMAC(seed, tenant) mod N — the "
        "PT-002 construction applied to placement — and each shard drives its "
        "roster slice as a complete pool world on per-shard named DRBG "
        "streams; the merge reconstructs the global PoolResult exactly, so "
        "the signature is bit-identical at every shard count, on the LOSSY "
        "channel too (per-link channel dice).  Evidence is "
        "Merkle-batched: one RSA signature per batch of evidence leaves, "
        "per-item inclusion proofs resolved on download or at end-of-run "
        "settlement, accepted by the Arbitrator and forensics surfaces as "
        "equivalent NRO/NRR.  The classic run signs every evidence message; "
        "a batched shard world signs once per sealed batch.",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# OB4 — deterministic profiler and critical path
# ---------------------------------------------------------------------------

def experiment_profiler(
    seed: bytes = b"exp/ob4", n_tenants: int = 8
) -> ExperimentResult:
    """The profiling layer's contract, checked end to end.

    * **Artifact shard invariance** — with per-message evidence
      (``batch_size=None``) the deterministic profile artifacts — the
      collapsed-stack flamegraph and ``profile.jsonl`` — are
      byte-identical at 1, 2, 4, and 8 shards (every ``{path: calls}``
      row is session-driven, so the shard tables sum to the unsharded
      one) and across same-seed repeats, and the engine signature is
      bit-identical with profiling on or off: observation never
      perturbs behavior.
    * **Off means off** — the unprofiled run carries no profile.
    * **Critical path** — the dominant-stage chain extracted from a
      live transaction's span tree telescopes exactly: stage
      self-times sum to the root span's measured elapsed, and the
      path never exceeds the whole tree's duration.

    * **Shard utilization** — the 4-shard run's populated shard count
      and session skew (max per-shard sessions over the mean), both
      counted from the merged per-shard summaries.
    """
    from ..core.protocol import run_session
    from ..engine import TenantDirectory, run_pool
    from ..net.channel import WAN
    from ..obs.profiler import (
        critical_path,
        flamegraph_text,
        profile_jsonl,
        shard_utilization,
    )

    directory = TenantDirectory(seed)
    directory.warm(["bob", "ttp", *[f"tenant-{i:04d}" for i in range(n_tenants)]])
    shard_counts = (1, 2, 4, 8)
    rows = []
    facts: dict[str, Any] = {}
    artifacts: dict[int, tuple[str, str]] = {}
    signatures: dict[int, str] = {}
    for shards in shard_counts:
        result = run_pool(
            seed, n_tenants, directory=directory, shards=shards, profile=True
        )
        prof = result.profile
        flame = flamegraph_text(prof)
        profile_dump = profile_jsonl(prof)
        artifacts[shards] = (flame, profile_dump)
        signatures[shards] = result.signature()
        if shards == 4:
            for key, value in shard_utilization(result.shard_summaries).items():
                facts[f"shard_utilization/{key}"] = value
        rows.append([
            shards,
            result.completed,
            len(prof),
            digest("sha256", flame.encode()).hex()[:12],
            digest("sha256", profile_dump.encode()).hex()[:12],
            signatures[shards][:16],
        ])
    # Same-seed repeat and the unprofiled control run.
    repeat = run_pool(seed, n_tenants, directory=directory, shards=4, profile=True)
    unprofiled = run_pool(seed, n_tenants, directory=directory, shards=1)
    facts["profile_artifacts_shard_invariant_1_2_4_8"] = (
        len(set(artifacts.values())) == 1
    )
    facts["profile_artifacts_repeatable"] = (
        flamegraph_text(repeat.profile),
        profile_jsonl(repeat.profile),
    ) == artifacts[4]
    facts["signature_unchanged_by_profiling"] = (
        len(set(signatures.values())) == 1
        and unprofiled.signature() == signatures[1]
    )
    facts["unprofiled_run_records_no_regions"] = (
        unprofiled.profile is None
    )

    # Critical path over a live observed transaction's span tree, on a
    # WAN-ish channel so spans have real simulated extent (PERFECT's
    # zero latency would make reconciliation trivially 0 == 0).
    dep = make_deployment(seed=seed + b"/critical", observe=True, channel=WAN)
    outcome = run_session(dep, b"profiled critical-path payload " * 8)
    txn = outcome.transaction_id
    path = critical_path(dep.obs.tracer, txn)
    tree_total = sum(s.duration for s in dep.obs.tracer.trace(txn))
    dominant = path.dominant()
    facts["critical_path_reconciles"] = path.reconciles() and path.total > 0.0
    facts["critical_path_within_tree_total"] = path.length <= tree_total + 1e-9
    facts["critical_path_dominant_stage"] = (
        dominant.name if dominant is not None else None
    )

    return ExperimentResult(
        experiment_id="OB4",
        title="Extension — deterministic profiler and critical path",
        headers=["shards", "completed", "regions", "flamegraph sha256",
                 "profile sha256", "signature"],
        rows=rows,
        facts=facts,
        notes="A profile is a {path: calls} table: one workload region and "
        "one workload stream per tenant, plus the drive phase's crypto calls "
        "per op.  Every row is session-driven, so the merge sums the shard "
        "tables to the unsharded one, and the artifacts (flamegraph weighted "
        "by calls, profile.jsonl rows of path and calls) are byte-identical "
        "at every shard count with per-message evidence.  The critical path "
        "telescopes: stage self-times are child-max residuals, so their sum "
        "equals the root span's elapsed.  An unprofiled run carries no "
        "profile.",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# RP1 — replicated-store divergence campaign
# ---------------------------------------------------------------------------

def experiment_replication(
    seed: bytes = b"exp/rp1", n_plans: int = 60
) -> ExperimentResult:
    """Sweep seeded replica-fault plans (divergence, split-brain, lag,
    byzantine tamper with forged attestations) over fresh three-backend
    :class:`~repro.replication.store.ReplicatedStore` instances and
    account for every injected fault.

    The facts assert the RP1 robustness contract: every fault is either
    **masked** by the quorum (the workload never observed a wrong byte)
    or **detected** by the Venus-style fork-consistency verifier — none
    is silently absorbed — and clean control plans produce zero
    findings of any severity (no false positives).
    """
    from ..net.faults import generate_replica_plans
    from ..obs.campaign import class_breakdown
    from ..replication import ReplicationCampaignRunner

    plans = generate_replica_plans(seed, n_plans)
    runner = ReplicationCampaignRunner(seed=seed)
    report = runner.run(plans)
    rows = [
        [o.index, o.plan.name, o.plan.describe(), o.status, o.injected,
         o.masked, o.detected, o.reads, o.writes, o.retransmits,
         o.recoveries,
         "none" if not o.violations else "; ".join(o.violations)]
        for o in report.outcomes
    ]
    facts: dict[str, Any] = {
        "plans": len(report.outcomes),
        "injected_faults": report.injected_faults,
        "masked_faults": report.masked_faults,
        "detected_faults": report.detected_faults,
        "silent_faults": report.silent_faults,
        "violations": report.violation_count,
        "clean_plan_findings": report.clean_plan_findings(),
        "status_counts": report.status_counts(),
        "finding_categories": report.finding_categories(),
        "signature": report.signature(),
        "all_faults_masked_or_detected": (
            report.silent_faults == 0 and report.violation_count == 0
        ),
        "faults_injected": report.injected_faults > 0,
        "zero_false_positives": report.clean_plan_findings() == 0,
        # Per-replica-fault-class telemetry (retransmits = hedged
        # reads, recoveries = read-repairs).
        "fault_classes": {
            row["fault_class"]: {
                "plans": row["plans"],
                "retries": row["retries"],
                "escalation_rate": row["escalation_rate"],
                "mean_latency": row["elapsed_mean"],
            }
            for row in class_breakdown(report)
        },
    }
    return ExperimentResult(
        experiment_id="RP1",
        title="Extension — replicated-store divergence campaign "
        "(quorum masks, verifier detects)",
        headers=["#", "plan", "faults", "status", "inj", "masked", "det",
                 "reads", "writes", "hedged", "repairs", "violations"],
        rows=rows,
        facts=facts,
        notes="Each plan drives a seeded write/read workload over a fresh "
        "3-replica store (s3like/azurelike/gaelike, quorum 2), injects its "
        "replica faults mid-stream, heals, and runs the full audit sweep. "
        "Identical seed => identical table (signature "
        f"{facts['signature'][:16]}...). "
        f"Per fault class: {_fault_class_line(facts['fault_classes'])}",
        meta=run_meta(seed),
    )


# ---------------------------------------------------------------------------
# RP2 — live backend migration with evidence continuity
# ---------------------------------------------------------------------------

def experiment_migration(seed: bytes = b"exp/rp2") -> ExperimentResult:
    """Live s3like→azurelike migration under a TPNR deployment, with
    the NRO/NRR evidence chain surviving the move.

    Two variants share the same shape — upload through a replicated
    provider store, export the client's evidence bundle, migrate the
    store off ``s3like`` and onto ``azurelike`` (binding the bundle's
    SHA-256 into the migration chain digest), then download and raise a
    tampering dispute *after* the move:

    * **clean** — the download verifies and both the real Arbitrator
      and the dossier's reconstructed verdict reject the claim;
    * **tampered** — the provider rewrites the object on every replica
      post-migration and fixes its own trusted log (the §2.4 cover-up,
      replicated), so only the pre-migration client-held evidence can
      convict: the download flags tampering and both verdicts find the
      provider at fault.

    The Arbitrator never learns the provider switched platforms — that
    is what "the evidence chain survives the migration" means.
    """
    from ..core.arbitrator import Verdict
    from ..core.archive import export_store
    from ..replication import (
        AzureReplicaAdapter,
        GaeReplicaAdapter,
        ReplicatedStore,
        S3ReplicaAdapter,
        attach_replication,
        migrate_backend,
        verify_migration_chain,
    )

    def build(tag: bytes):
        dep = make_deployment(seed=seed + tag, observe=True)
        rng = HmacDrbg(seed + tag, personalization=b"migration-backends")
        store = ReplicatedStore(
            seed=seed + tag + b"/store",
            replicas=(S3ReplicaAdapter(rng.fork("s3like")),
                      GaeReplicaAdapter(rng.fork("gaelike"))),
            quorum=2,
        )
        attach_replication(dep, store)
        payload = rng.fork("payload").generate(192)
        outcome = run_upload(dep, payload, auto_resolve=True)
        txn = outcome.transaction_id
        bundle = export_store(dep.client.evidence_store, txn)
        record = migrate_backend(
            store, "s3like", AzureReplicaAdapter(rng.fork("azurelike")),
            evidence_blob=bundle, registry=dep.registry,
            at_time=dep.sim.now)
        return dep, store, txn, record

    rows = []
    facts: dict[str, Any] = {}

    # Clean variant: the move itself must not manufacture a dispute.
    dep, store, txn, record = build(b"/clean")
    download = run_download(dep, txn)
    ruling = dispute_tampering(dep, txn)
    from ..obs.forensics import DisputeDossier  # lazy: obs imports stay local

    dossier = DisputeDossier.build(dep, txn)
    facts["clean/download_verified"] = download.verified
    facts["clean/verdict"] = ruling.verdict.value
    facts["clean/claim_rejected"] = ruling.verdict is Verdict.CLAIM_REJECTED
    facts["clean/dossier_agrees"] = dossier.agrees(dep.arbitrator)
    facts["clean/chain_verified"] = verify_migration_chain(record)
    facts["clean/objects_migrated"] = record.object_count
    facts["clean/evidence_items_reverified"] = record.evidence_verified
    facts["clean/digests_preserved"] = all(
        store.verifier.latest(c, k).digest == d for c, k, _v, d in record.objects)
    facts["clean/replicas_after"] = list(store.replica_names)
    rows.append(["clean", f"{record.source}->{record.destination}",
                 record.object_count, record.evidence_verified,
                 "verified" if download.verified else "TAMPERED",
                 ruling.verdict.value,
                 "yes" if facts["clean/dossier_agrees"] else "NO"])

    # Tampered variant: post-migration cover-up on the new backend.
    dep, store, txn, record = build(b"/tampered")
    tampered = HmacDrbg(seed, personalization=b"tampered-bytes").generate(192)
    store.overwrite_raw("tpnr-data", txn, data=tampered)
    download = run_download(dep, txn)
    ruling = dispute_tampering(dep, txn)
    dossier = DisputeDossier.build(dep, txn)
    facts["tampered/download_flagged"] = download.tampering_detected
    facts["tampered/verdict"] = ruling.verdict.value
    facts["tampered/provider_at_fault"] = ruling.verdict is Verdict.PROVIDER_FAULT
    facts["tampered/dossier_agrees"] = dossier.agrees(dep.arbitrator)
    facts["tampered/chain_verified"] = verify_migration_chain(record)
    rows.append(["tampered", f"{record.source}->{record.destination}",
                 record.object_count, record.evidence_verified,
                 "TAMPERING DETECTED" if download.tampering_detected else "missed",
                 ruling.verdict.value,
                 "yes" if facts["tampered/dossier_agrees"] else "NO"])

    facts["evidence_chain_survives_migration"] = (
        facts["clean/download_verified"]
        and facts["clean/claim_rejected"]
        and facts["clean/dossier_agrees"]
        and facts["clean/chain_verified"]
        and facts["clean/digests_preserved"]
        and facts["clean/evidence_items_reverified"] > 0
        and facts["tampered/download_flagged"]
        and facts["tampered/provider_at_fault"]
        and facts["tampered/dossier_agrees"]
    )
    return ExperimentResult(
        experiment_id="RP2",
        title="Extension — live backend migration with evidence continuity",
        headers=["variant", "migration", "objects", "evidence items",
                 "download", "verdict", "dossier agrees"],
        rows=rows,
        facts=facts,
        notes="The client's NRO/NRR bundle is exported before the move, its "
        "SHA-256 is bound into the migration chain digest, and every item "
        "re-verifies against the key registry after the move.  A dispute "
        "raised post-migration is argued from exactly the evidence minted "
        "pre-migration: honest moves beat false claims, and a provider who "
        "rewrites all replicas *and* its trusted log after migrating is "
        "still convicted by the §4 evidence the client holds.",
        meta=run_meta(seed, dep.sim.now),
    )
