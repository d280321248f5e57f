"""Venus-style fork-consistency verification for replicated storage.

"Don't Trust the Cloud, Verify" (arXiv:1502.04496) showed that a
client-side verifier over commodity object stores can detect a
misbehaving provider by checking *signed version vectors and digests*
against a trusted log of its own writes.  This module is that checker
for the replicated deployments:

* every replica read comes back with a :class:`ReplicaAttestation` —
  the replica's name, its current version of the object, the SHA-256
  of the bytes it served, its version vector for the key, and an HMAC
  over all of it under a per-replica key;
* the :class:`ForkConsistencyVerifier` keeps the coordinator's trusted
  log (version history, digests, which replica acknowledged what) and
  classifies each attestation:

  - ``replica-bad-attestation`` — the MAC does not verify (forged);
  - ``replica-fork`` — the replica claims a version or vector the
    write quorum never committed (split-brain minority history);
  - ``replica-divergence`` — right version, wrong bytes (silent
    in-storage change with the platform MD5 fixed up);
  - ``replica-stale-read`` — the replica acknowledged a newer version
    and then served an older one (a rollback, hiding the new write);
  - ``replica-lag`` — an old version from a replica that never
    acknowledged the newer write: *info*, masked by the quorum, not an
    integrity violation.

Error-severity findings are the new evidence surface: they convert to
:class:`~repro.obs.forensics.AuditFinding` rows and flow into dispute
dossiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..crypto.hmac_ import constant_time_equals, hmac_digest

__all__ = [
    "ReplicaAttestation",
    "TrustedVersion",
    "VerifierFinding",
    "ForkConsistencyVerifier",
    "attestation_payload",
    "sign_attestation",
]


@dataclass(frozen=True)
class ReplicaAttestation:
    """One replica's signed claim about one object it served."""

    replica: str
    container: str
    key: str
    version: int
    digest: str  # SHA-256 hex of the bytes served
    vector: tuple[tuple[str, int], ...]  # replica -> version, sorted
    mac: bytes


def attestation_payload(replica: str, container: str, key: str,
                        version: int, digest_hex: str,
                        vector: tuple[tuple[str, int], ...]) -> bytes:
    vec = ",".join(f"{r}:{v}" for r, v in vector)
    return "|".join(
        ["replica-attest-v1", replica, container, key,
         str(version), digest_hex, vec]
    ).encode()


def sign_attestation(mac_key: bytes, replica: str, container: str, key: str,
                     sha256: bytes, version: int,
                     vector: tuple[tuple[str, int], ...]) -> ReplicaAttestation:
    """Build the attestation a replica returns alongside the bytes it
    served, whose SHA-256 (*sha256*) the replica computed itself."""
    digest_hex = sha256.hex()
    payload = attestation_payload(replica, container, key, version,
                                  digest_hex, vector)
    return ReplicaAttestation(
        replica=replica,
        container=container,
        key=key,
        version=version,
        digest=digest_hex,
        vector=vector,
        mac=hmac_digest(mac_key, payload),
    )


@dataclass(frozen=True)
class TrustedVersion:
    """The coordinator's record of one committed write."""

    version: int
    digest: str  # SHA-256 hex
    md5: str  # platform MD5 metadata, hex
    size: int
    created_at: float


@dataclass(frozen=True)
class VerifierFinding:
    """One verifier verdict about one replica's view of one object."""

    category: str
    replica: str
    container: str
    key: str
    detail: str
    severity: str = "error"  # "error" | "info"

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def describe(self) -> str:
        return (f"[{self.severity}] {self.category}: {self.replica} "
                f"{self.container}/{self.key} — {self.detail}")


@dataclass
class _KeyLog:
    """Per-object trusted history: digests by version, acks by replica."""

    history: dict[int, str] = field(default_factory=dict)
    latest: TrustedVersion | None = None
    acked: dict[str, int] = field(default_factory=dict)


class ForkConsistencyVerifier:
    """The client-side trusted log + attestation checker."""

    def __init__(self, replica_keys: Mapping[str, bytes] | None = None) -> None:
        self._keys: dict[str, bytes] = dict(replica_keys or {})
        self._log: dict[tuple[str, str], _KeyLog] = {}
        self.findings: list[VerifierFinding] = []

    # -- trusted-log maintenance (coordinator side) -------------------------

    def register_replica(self, name: str, mac_key: bytes) -> None:
        self._keys[name] = mac_key

    def commit(self, container: str, key: str, version: int, digest_hex: str,
               md5_hex: str, size: int, created_at: float,
               acked: Iterable[str]) -> None:
        """Record one quorum-committed write in the trusted log."""
        log = self._log.setdefault((container, key), _KeyLog())
        log.history[version] = digest_hex
        log.latest = TrustedVersion(version, digest_hex, md5_hex, size, created_at)
        for replica in acked:
            log.acked[replica] = max(log.acked.get(replica, 0), version)

    def mark_acked(self, container: str, key: str, replica: str,
                   version: int) -> None:
        """Record that *replica* now holds *version* (read-repair, join)."""
        log = self._log.get((container, key))
        if log is not None:
            log.acked[replica] = max(log.acked.get(replica, 0), version)

    def rewrite_history(self, container: str, key: str, digest_hex: str,
                        md5_hex: str, size: int) -> None:
        """The coordinator (i.e. the provider) rewrites its own books.

        This is the §2.4 cover-up translated to replication: the party
        running the store tampers with the data *and* fixes the trusted
        log, so replica-level checks stay green.  The TPNR evidence
        chain — held by the client, not the store — is what still
        catches it.
        """
        log = self._log.get((container, key))
        if log is None or log.latest is None:
            return
        log.history[log.latest.version] = digest_hex
        log.latest = TrustedVersion(
            log.latest.version, digest_hex, md5_hex, size,
            log.latest.created_at,
        )

    # -- queries ------------------------------------------------------------

    def latest(self, container: str, key: str) -> TrustedVersion | None:
        log = self._log.get((container, key))
        return None if log is None else log.latest

    def live_keys(self) -> list[tuple[str, str]]:
        return sorted(self._log)

    def error_findings(self) -> list[VerifierFinding]:
        return [f for f in self.findings if f.is_error]

    def findings_for(self, key: str | None = None,
                     replica: str | None = None) -> list[VerifierFinding]:
        return [
            f for f in self.findings
            if (key is None or f.key == key)
            and (replica is None or f.replica == replica)
        ]

    # -- the checker --------------------------------------------------------

    def _record(self, finding: VerifierFinding) -> VerifierFinding:
        self.findings.append(finding)
        return finding

    def check_read(self, att: ReplicaAttestation) -> VerifierFinding | None:
        """Classify one attestation against the trusted log.

        Returns ``None`` for a clean, up-to-date read; otherwise records
        and returns the finding (``replica-lag`` is info severity — the
        quorum masks it — everything else is an error).
        """
        log = self._log.get((att.container, att.key))
        if log is None or log.latest is None:
            return self._record(VerifierFinding(
                "replica-fork", att.replica, att.container, att.key,
                f"attests v{att.version} of an object the quorum never wrote"))
        mac_key = self._keys.get(att.replica)
        payload = attestation_payload(att.replica, att.container, att.key,
                                      att.version, att.digest, att.vector)
        if mac_key is None or not constant_time_equals(
                hmac_digest(mac_key, payload), att.mac):
            return self._record(VerifierFinding(
                "replica-bad-attestation", att.replica, att.container, att.key,
                "attestation MAC does not verify under the replica's key"))
        latest = log.latest
        if att.version > latest.version:
            return self._record(VerifierFinding(
                "replica-fork", att.replica, att.container, att.key,
                f"attests v{att.version} but the quorum committed only "
                f"v{latest.version} (minority history)"))
        if att.version == latest.version:
            if att.digest != latest.digest:
                return self._record(VerifierFinding(
                    "replica-divergence", att.replica, att.container, att.key,
                    f"v{att.version} digest {att.digest[:12]}... != trusted "
                    f"{latest.digest[:12]}..."))
            for replica, version in att.vector:
                if version > log.acked.get(replica, 0):
                    return self._record(VerifierFinding(
                        "replica-fork", att.replica, att.container, att.key,
                        f"vector claims {replica} at v{version}, never "
                        f"acknowledged to the quorum"))
            return None
        # att.version < latest.version: old view — rollback, divergence
        # on the historical version, or plain lag.
        trusted_old = log.history.get(att.version)
        if trusted_old is not None and att.digest != trusted_old:
            return self._record(VerifierFinding(
                "replica-divergence", att.replica, att.container, att.key,
                f"v{att.version} digest {att.digest[:12]}... != trusted "
                f"history {trusted_old[:12]}..."))
        if log.acked.get(att.replica, 0) > att.version:
            return self._record(VerifierFinding(
                "replica-stale-read", att.replica, att.container, att.key,
                f"served v{att.version} after acknowledging "
                f"v{log.acked[att.replica]} (rollback)"))
        return self._record(VerifierFinding(
            "replica-lag", att.replica, att.container, att.key,
            f"behind at v{att.version} (quorum at v{latest.version}), "
            "never acknowledged the newer write", severity="info"))

    def check_missing(self, replica: str, container: str,
                      key: str) -> VerifierFinding:
        """A replica cannot produce an object the trusted log holds."""
        log = self._log.get((container, key))
        if log is not None and log.acked.get(replica, 0) > 0:
            return self._record(VerifierFinding(
                "replica-divergence", replica, container, key,
                f"object vanished after acknowledging v{log.acked[replica]}"))
        return self._record(VerifierFinding(
            "replica-lag", replica, container, key,
            "object not yet replicated (no acknowledged write)",
            severity="info"))
