"""TPNR message structures (paper §4.1).

Every TPNR transmission carries a **plaintext header** with, as the
paper specifies: a flag labelling the process, the IDs of sender /
recipient / TTP, a nonce ("a random number"), a monotonically
increasing sequence number, a time limit, and the hash of the data.
Alongside the header travel the optional bulk payload and the
**evidence** blob (built in :mod:`repro.core.evidence`).

Headers have a canonical byte encoding (:meth:`Header.to_signed_bytes`)
— that is what the sender signs and what receivers check signatures
against, so any in-flight modification of the plaintext invalidates the
evidence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from ..errors import ProtocolError

__all__ = ["Flag", "Header", "TpnrMessage", "AbortDecision", "ResolveAction"]


class Flag(enum.Enum):
    """The header flag "to label the process"."""

    UPLOAD = "UPLOAD"
    UPLOAD_RECEIPT = "UPLOAD_RECEIPT"
    DOWNLOAD_REQUEST = "DOWNLOAD_REQUEST"
    DOWNLOAD_RESPONSE = "DOWNLOAD_RESPONSE"
    DOWNLOAD_ACK = "DOWNLOAD_ACK"
    GRANT = "GRANT"
    GRANT_ACK = "GRANT_ACK"
    ABORT = "ABORT"
    ABORT_ACCEPT = "ABORT_ACCEPT"
    ABORT_REJECT = "ABORT_REJECT"
    ABORT_ERROR = "ABORT_ERROR"
    RESOLVE_REQUEST = "RESOLVE_REQUEST"
    RESOLVE_QUERY = "RESOLVE_QUERY"
    RESOLVE_REPLY = "RESOLVE_REPLY"
    RESOLVE_RESULT = "RESOLVE_RESULT"
    RESOLVE_FAILED = "RESOLVE_FAILED"


class AbortDecision(enum.Enum):
    """Bob's answer to an Abort request (§4.2)."""

    ACCEPT = "accept"
    REJECT = "reject"
    ERROR = "error"  # malformed request: double-check, regenerate, resubmit


class ResolveAction(enum.Enum):
    """Bob's declared action in a Resolve reply (§4.3)."""

    CONTINUE = "continue"
    RESTART = "restart"
    REFUSE = "refuse"


@dataclass(frozen=True)
class Header:
    """The plaintext part of every TPNR message."""

    flag: Flag
    sender_id: str
    recipient_id: str
    ttp_id: str
    transaction_id: str
    sequence_number: int
    nonce: bytes
    time_limit: float  # absolute simulated deadline for accepting this message
    data_hash: bytes  # hash of the payload (or of the referenced stored data)

    def __post_init__(self) -> None:
        if self.sequence_number < 0:
            raise ProtocolError("sequence number must be non-negative")
        if not self.nonce:
            raise ProtocolError("nonce must be non-empty")

    def to_signed_bytes(self) -> bytes:
        """Canonical encoding covered by the sender's signature."""
        return self._signed_bytes

    @cached_property
    def _signed_bytes(self) -> bytes:
        """The encoding, built once per (frozen) header.  Cached in the
        instance ``__dict__``, outside the dataclass fields, so equality
        and repr never see it; default pickling copies that dict, so a
        pickled header carries the encoding with it."""
        return "|".join(
            [
                "tpnr-header-v1",
                self.flag.value,
                self.sender_id,
                self.recipient_id,
                self.ttp_id,
                self.transaction_id,
                str(self.sequence_number),
                self.nonce.hex(),
                repr(self.time_limit),
                self.data_hash.hex(),
            ]
        ).encode()

    def wire_size(self) -> int:
        return len(self._signed_bytes)


@dataclass(frozen=True)
class TpnrMessage:
    """Header + optional bulk data + evidence blob.

    ``embedded`` carries whole relayed messages: in Resolve mode the
    TTP forwards Bob's reply — whose evidence is encrypted to *Alice*
    and therefore opaque to the TTP — inside its own RESOLVE_RESULT.
    """

    header: Header
    data: bytes | None
    evidence: bytes  # output of evidence.build_evidence (possibly unencrypted in ablations)
    annotations: tuple[tuple[str, str], ...] = ()  # e.g. abort decision, resolve action
    embedded: tuple["TpnrMessage", ...] = ()

    def annotation(self, key: str, default: str = "") -> str:
        for k, v in self.annotations:
            if k == key:
                return v
        return default

    def wire_size(self) -> int:
        return (
            self.header.wire_size()
            + (len(self.data) if self.data else 0)
            + len(self.evidence)
            + sum(len(k) + len(v) for k, v in self.annotations)
            + sum(m.wire_size() for m in self.embedded)
        )
