"""Shared framework for the §3 bridging schemes.

Each scheme subclasses :class:`BridgingScheme` and implements the
upload session, the download session, and dispute resolution.  A
:class:`BridgingWorld` bundles the participants (user, provider with
its blob store, optional TAC) so schemes differ only in what extra
material the sessions exchange and store.

The framework runs the full Fig.-5-style scenario: upload -> optional
in-storage tamper -> download -> (if warranted) dispute, and scores the
outcome on the axes the paper's §3 discussion cares about:

* **detected** — did the user notice the data changed?
* **agreed digest provable** — can the honest party establish what
  digest both sides originally agreed on (the "missing link")?
* **unilateral forgery possible** — can one side later assert a
  different digest without the other's cooperation?
* verdicts for the tampering dispute and the blackmail counter-claim.

Message counts per session are recorded so the S3 benchmark can report
the overhead column.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import digest
from ..crypto.pki import CertificateAuthority, Identity, KeyRegistry
from ..storage.blobstore import BlobStore
from ..storage.tamper import TamperMode, apply_tamper
from .tac import TacService

__all__ = ["BridgingWorld", "UploadArtifacts", "ScenarioResult", "BridgingScheme", "make_world"]

_CONTAINER = "bridged"


@dataclass
class BridgingWorld:
    """Participants shared by every scheme."""

    user: Identity
    provider: Identity
    registry: KeyRegistry
    rng: HmacDrbg
    store: BlobStore
    tac: TacService


def make_world(seed: bytes | str = b"bridging") -> BridgingWorld:
    """Deterministic participant setup (``pki.DEFAULT_KEY_BITS`` keys)."""
    rng = HmacDrbg(seed)
    ca = CertificateAuthority("bridging-ca", rng.fork("ca"))
    registry = KeyRegistry(ca)
    user = Identity.generate("alice", rng)
    provider = Identity.generate("eve", rng)
    registry.enroll(user)
    registry.enroll(provider)
    return BridgingWorld(
        user=user,
        provider=provider,
        registry=registry,
        rng=rng,
        store=BlobStore("bridging-store"),
        tac=TacService("tac", registry, rng),
    )


@dataclass
class UploadArtifacts:
    """What the upload session left behind, per scheme."""

    transaction_id: str
    agreed_md5: bytes
    user_holds: dict[str, bytes] = field(default_factory=dict)
    provider_holds: dict[str, bytes] = field(default_factory=dict)
    tac_holds: bool = False
    upload_messages: int = 0


@dataclass
class ScenarioResult:
    """Scorecard for one (scheme x tamper x claim) scenario."""

    scheme: str
    tamper_mode: TamperMode
    detected: bool
    agreed_digest_provable: bool
    unilateral_forgery_possible: bool
    tamper_verdict: str  # what the dispute over real tampering yields
    blackmail_verdict: str  # what a false claim yields
    upload_messages: int
    download_messages: int
    dispute_messages: int
    user_storage_items: int
    provider_storage_items: int
    needs_tac: bool


class BridgingScheme(abc.ABC):
    """One of the four §3 solutions (or the status-quo control)."""

    #: short name used in reports
    name: str = "abstract"
    #: whether the scheme requires the third authority
    needs_tac: bool = False
    #: can a party unilaterally assert a different agreed digest?
    unilateral_forgery_possible: bool = False

    def __init__(self, world: BridgingWorld) -> None:
        self.world = world
        self._txn_counter = 0

    # -- hooks -----------------------------------------------------------------

    @abc.abstractmethod
    def upload(self, data: bytes) -> UploadArtifacts:
        """Run the scheme's uploading session."""

    @abc.abstractmethod
    def download(self, artifacts: UploadArtifacts) -> tuple[bytes, bytes, int]:
        """Run the downloading session.

        Returns ``(data, md5_from_provider, messages_used)``.
        """

    @abc.abstractmethod
    def dispute(self, artifacts: UploadArtifacts, downloaded: bytes) -> tuple[str, int]:
        """Resolve a tampering dispute.

        Returns ``(verdict, messages_used)``; verdict is one of
        "provider-at-fault", "claim-rejected", "agreement-established",
        "unresolved".
        """

    # -- shared plumbing ----------------------------------------------------------

    def new_transaction_id(self) -> str:
        self._txn_counter += 1
        return f"{self.name}-{self._txn_counter:04d}"

    def store_data(self, transaction_id: str, data: bytes) -> None:
        self.world.store.put(_CONTAINER, transaction_id, data)

    def fetch_data(self, transaction_id: str) -> bytes:
        return self.world.store.get(_CONTAINER, transaction_id).data

    def md5(self, data: bytes) -> bytes:
        return digest("md5", data)

    # -- the full scenario ---------------------------------------------------------

    def run_scenario(self, data: bytes, tamper_mode: TamperMode) -> ScenarioResult:
        """Upload, tamper, download, dispute — and a blackmail probe.

        The blackmail probe re-runs the dispute for an *untampered*
        twin transaction where the user claims tampering anyway.
        """
        artifacts = self.upload(data)
        if tamper_mode is not TamperMode.NONE:
            apply_tamper(
                self.world.store, _CONTAINER, artifacts.transaction_id,
                tamper_mode, self.world.rng,
            )
        downloaded, provider_md5, download_messages = self.download(artifacts)
        detected = self.detect(artifacts, downloaded, provider_md5)
        if detected:
            tamper_verdict, dispute_messages = self.dispute(artifacts, downloaded)
        elif tamper_mode is not TamperMode.NONE:
            tamper_verdict, dispute_messages = "undetected", 0
        else:
            tamper_verdict, dispute_messages = "no-dispute", 0
        # Blackmail probe on a clean transaction.
        clean = self.upload(data)
        clean_downloaded, _clean_md5, _ = self.download(clean)
        blackmail_verdict, blackmail_messages = self.dispute(clean, clean_downloaded)
        return ScenarioResult(
            scheme=self.name,
            tamper_mode=tamper_mode,
            detected=detected,
            agreed_digest_provable=self.agreed_digest_provable(artifacts),
            unilateral_forgery_possible=self.unilateral_forgery_possible,
            tamper_verdict=tamper_verdict,
            blackmail_verdict=blackmail_verdict,
            upload_messages=artifacts.upload_messages,
            download_messages=download_messages,
            dispute_messages=max(dispute_messages, blackmail_messages),
            user_storage_items=len(artifacts.user_holds),
            provider_storage_items=len(artifacts.provider_holds),
            needs_tac=self.needs_tac,
        )

    def detect(self, artifacts: UploadArtifacts, downloaded: bytes, provider_md5: bytes) -> bool:
        """Default detection: compare against the user's record of the
        agreed digest (every §3 scheme gives the user that much)."""
        return self.md5(downloaded) != artifacts.agreed_md5

    def agreed_digest_provable(self, artifacts: UploadArtifacts) -> bool:
        """Can the honest party *prove* the agreed digest to a judge?"""
        return bool(artifacts.user_holds or artifacts.tac_holds)
