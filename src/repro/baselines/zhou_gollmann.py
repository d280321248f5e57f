"""Traditional fair non-repudiation baseline (Zhou-Gollmann style).

The paper's efficiency claim (§4.4) is comparative: "in the Normal and
Abort models, it takes Alice and Bob merely two steps without TTP to
exchange messages and non-repudiation evidence directly.  In contrast,
the same operation takes four steps in the traditional non-repudiation
protocol."  This module implements that traditional protocol so the S4
benchmark can measure both sides.

The classic Zhou-Gollmann construction splits the message into a
commitment and a key, with a lightweight **on-line TTP** notarizing the
key on *every* transaction:

    1. A -> B   : c = E_K(data), NRO = Sign_A(f_NRO, B, L, H(c))
    2. B -> A   : NRR = Sign_B(f_NRR, A, L, H(c))
    3. A -> TTP : K,  sub_K = Sign_A(f_SUB, B, L, K)
    4. TTP -> A : con_K = Sign_TTP(f_CON, A, B, L, K)   (A's confirmation)
    5. TTP -> B : K, con_K                              (B can now decrypt)

Evidence of origin = (NRO, con_K); evidence of receipt = (NRR, con_K).
Fairness holds because neither party gets a usable message/evidence
until the TTP publishes con_K — at the price of four protocol steps and
a TTP on the critical path of every exchange, which is exactly the
overhead TPNR's two-step Normal mode avoids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..crypto import aead, rsa
from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import digest
from ..crypto.pki import Identity, KeyRegistry
from ..errors import EvidenceError
from ..net.network import Envelope
from ..net.node import Node
from ..core.transaction import new_transaction_id

__all__ = ["ZgLabel", "ZgClient", "ZgProvider", "ZgOnlineTtp", "ZgOutcome"]


class ZgFlag(enum.Enum):
    NRO = "f_NRO"
    NRR = "f_NRR"
    SUB = "f_SUB"
    CON = "f_CON"


@dataclass(frozen=True)
class ZgLabel:
    """The (A, B, L) transaction label the signatures bind."""

    originator: str
    recipient: str
    label: str

    def to_bytes(self) -> bytes:
        return f"zg|{self.originator}|{self.recipient}|{self.label}".encode()


def _sign(identity: Identity, flag: ZgFlag, label: ZgLabel, payload: bytes) -> bytes:
    return rsa.sign(identity.private_key, flag.value.encode() + b"|" + label.to_bytes() + b"|" + payload)


def _verify(public, flag: ZgFlag, label: ZgLabel, payload: bytes, signature: bytes) -> bool:
    return rsa.verify(public, flag.value.encode() + b"|" + label.to_bytes() + b"|" + payload, signature)


@dataclass(frozen=True)
class ZgCommit:
    """Step 1 payload: ciphertext + NRO."""

    label: ZgLabel
    ciphertext: bytes
    nro: bytes

    def wire_size(self) -> int:
        return len(self.label.to_bytes()) + len(self.ciphertext) + len(self.nro)


@dataclass(frozen=True)
class ZgReceipt:
    """Step 2 payload: NRR over the same commitment."""

    label: ZgLabel
    commit_hash: bytes
    nrr: bytes

    def wire_size(self) -> int:
        return len(self.label.to_bytes()) + len(self.commit_hash) + len(self.nrr)


@dataclass(frozen=True)
class ZgKeySubmission:
    """Step 3 payload: the key + sub_K, lodged with the TTP."""

    label: ZgLabel
    key: bytes
    sub_k: bytes

    def wire_size(self) -> int:
        return len(self.label.to_bytes()) + len(self.key) + len(self.sub_k)


@dataclass(frozen=True)
class ZgConfirmation:
    """Steps 4/5 payload: the TTP's con_K (key included toward B)."""

    label: ZgLabel
    key: bytes
    con_k: bytes

    def wire_size(self) -> int:
        return len(self.label.to_bytes()) + len(self.key) + len(self.con_k)


@dataclass
class ZgOutcome:
    """Originator-side record of one exchange."""

    label: str
    status: str = "pending"  # pending -> receipted -> confirmed
    nrr: bytes | None = None
    con_k: bytes | None = None

    @property
    def complete(self) -> bool:
        return self.status == "confirmed" and self.nrr is not None


class ZgClient(Node):
    """The originator A."""

    def __init__(self, identity: Identity, registry: KeyRegistry, rng: HmacDrbg,
                 ttp_name: str = "zg-ttp") -> None:
        super().__init__(identity.name)
        self.identity = identity
        self.registry = registry
        self.rng = rng.fork(f"zg/{identity.name}")
        self.ttp_name = ttp_name
        self.outcomes: dict[str, ZgOutcome] = {}
        self._keys: dict[str, bytes] = {}
        self._labels: dict[str, ZgLabel] = {}

    def exchange(self, provider: str, data: bytes) -> str:
        """Step 1: commit the encrypted message with the NRO."""
        label = ZgLabel(self.name, provider, new_transaction_id(self.network.transaction_ids, "ZG"))
        key = self.rng.generate(32)
        nonce = self.rng.generate(12)
        ciphertext = aead.seal(key, nonce, data, aad=label.to_bytes())
        nro = _sign(self.identity, ZgFlag.NRO, label, digest("sha256", ciphertext))
        self._keys[label.label] = key
        self._labels[label.label] = label
        self.outcomes[label.label] = ZgOutcome(label=label.label)
        self.send(provider, "zg.commit", ZgCommit(label=label, ciphertext=ciphertext, nro=nro))
        return label.label

    def on_message(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if isinstance(payload, ZgReceipt):
            self._on_receipt(payload)
        elif isinstance(payload, ZgConfirmation):
            self._on_confirmation(payload)

    def _on_receipt(self, receipt: ZgReceipt) -> None:
        outcome = self.outcomes.get(receipt.label.label)
        if outcome is None or outcome.status != "pending":
            return
        provider_key = self.registry.lookup(receipt.label.recipient)
        if not _verify(provider_key, ZgFlag.NRR, receipt.label, receipt.commit_hash, receipt.nrr):
            raise EvidenceError("ZG: NRR invalid")
        outcome.nrr = receipt.nrr
        outcome.status = "receipted"
        # Step 3: lodge the key with the TTP.
        label = self._labels[receipt.label.label]
        key = self._keys[receipt.label.label]
        sub_k = _sign(self.identity, ZgFlag.SUB, label, key)
        self.send(self.ttp_name, "zg.submit", ZgKeySubmission(label=label, key=key, sub_k=sub_k))

    def _on_confirmation(self, confirmation: ZgConfirmation) -> None:
        outcome = self.outcomes.get(confirmation.label.label)
        if outcome is None or outcome.status != "receipted":
            return
        ttp_key = self.registry.lookup(self.ttp_name)
        if not _verify(ttp_key, ZgFlag.CON, confirmation.label, confirmation.key, confirmation.con_k):
            raise EvidenceError("ZG: con_K invalid")
        outcome.con_k = confirmation.con_k
        outcome.status = "confirmed"


class ZgProvider(Node):
    """The recipient B."""

    def __init__(self, identity: Identity, registry: KeyRegistry, rng: HmacDrbg,
                 ttp_name: str = "zg-ttp") -> None:
        super().__init__(identity.name)
        self.identity = identity
        self.registry = registry
        self.rng = rng.fork(f"zg/{identity.name}")
        self.ttp_name = ttp_name
        self.received: dict[str, bytes] = {}  # label -> recovered plaintext
        self._pending: dict[str, ZgCommit] = {}
        self.evidence: dict[str, tuple[bytes, bytes]] = {}  # label -> (nro, con_k)

    def on_message(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if isinstance(payload, ZgCommit):
            self._on_commit(payload)
        elif isinstance(payload, ZgConfirmation):
            self._on_confirmation(payload)

    def _on_commit(self, commit: ZgCommit) -> None:
        originator_key = self.registry.lookup(commit.label.originator)
        commit_hash = digest("sha256", commit.ciphertext)
        if not _verify(originator_key, ZgFlag.NRO, commit.label, commit_hash, commit.nro):
            raise EvidenceError("ZG: NRO invalid")
        self._pending[commit.label.label] = commit
        # Step 2: answer with the NRR.
        nrr = _sign(self.identity, ZgFlag.NRR, commit.label, commit_hash)
        self.send(
            commit.label.originator,
            "zg.receipt",
            ZgReceipt(label=commit.label, commit_hash=commit_hash, nrr=nrr),
        )

    def _on_confirmation(self, confirmation: ZgConfirmation) -> None:
        commit = self._pending.get(confirmation.label.label)
        if commit is None:
            return
        ttp_key = self.registry.lookup(self.ttp_name)
        if not _verify(ttp_key, ZgFlag.CON, confirmation.label, confirmation.key, confirmation.con_k):
            raise EvidenceError("ZG: con_K invalid")
        plaintext = aead.open_(confirmation.key, commit.ciphertext, aad=commit.label.to_bytes())
        self.received[confirmation.label.label] = plaintext
        self.evidence[confirmation.label.label] = (commit.nro, confirmation.con_k)


class ZgOnlineTtp(Node):
    """The on-line TTP that notarizes every key (steps 4 and 5)."""

    is_ttp = True  # role marker: analysis derives TTP attribution from this

    def __init__(self, identity: Identity, registry: KeyRegistry) -> None:
        super().__init__(identity.name)
        self.identity = identity
        self.registry = registry
        self.confirmations_issued = 0

    def on_message(self, envelope: Envelope) -> None:
        submission = envelope.payload
        if not isinstance(submission, ZgKeySubmission):
            return
        originator_key = self.registry.lookup(submission.label.originator)
        if not _verify(originator_key, ZgFlag.SUB, submission.label, submission.key, submission.sub_k):
            raise EvidenceError("ZG: sub_K invalid")
        con_k = _sign(self.identity, ZgFlag.CON, submission.label, submission.key)
        confirmation = ZgConfirmation(label=submission.label, key=submission.key, con_k=con_k)
        self.confirmations_issued += 1
        # Step 4: confirmation to A; step 5: key + confirmation to B.
        self.send(submission.label.originator, "zg.confirm", confirmation)
        self.send(submission.label.recipient, "zg.confirm", confirmation)
