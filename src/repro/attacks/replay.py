"""Replay attack (paper §5.4).

"A valid data transmission is maliciously or fraudulently repeated...
In this protocol, we use unique sequence number with the sender
signature to avoid the attack.  If someone intercepts the message and
replays it..., even the attacker can modify the sequence number in the
plaintext, the attacker cannot modify the Encrypted Hash value
protected by the sender's private key."

The adversary records Alice's UPLOAD message and re-injects a verbatim
copy.  Against the full protocol the provider rejects the duplicate
(nonce reuse / stale sequence number) and issues exactly one receipt;
with sequence and nonce enforcement switched off, the duplicate is
processed again and a second receipt proves the attack landed.
"""

from __future__ import annotations

from ..core.policy import DEFAULT_POLICY
from ..core.protocol import make_deployment
from ..net.adversary import Adversary
from ..net.network import Envelope
from .base import Attack, AttackResult

__all__ = ["ReplayAttack", "RecordAndReplayAdversary"]


class RecordAndReplayAdversary(Adversary):
    """Forwards everything; re-injects one copy of each selected message."""

    def __init__(self, kind_to_replay: str, replay_delay: float) -> None:
        super().__init__(name="replayer", positions=None)
        self.kind_to_replay = kind_to_replay
        self.replay_delay = replay_delay

    def on_intercept(self, envelope: Envelope) -> None:
        self.seen.append(envelope)
        self.forward(envelope)
        if envelope.kind == self.kind_to_replay:
            self.replay_later(envelope, self.replay_delay)


class ReplayAttack(Attack):
    """Verbatim re-injection of a recorded UPLOAD."""

    name = "replay"
    paper_section = "5.4"

    def run(self, seed: bytes, weakened: bool = False) -> AttackResult:
        policy = DEFAULT_POLICY
        if weakened:
            policy = policy.weakened(enforce_sequence=False, enforce_nonce=False)
        target = "tpnr/no-seq-no-nonce" if weakened else "tpnr/full"
        dep = make_deployment(seed=seed + b"/replay", policy=policy)
        adversary = RecordAndReplayAdversary("tpnr.upload", replay_delay=0.5)
        dep.network.install_adversary(adversary)
        dep.client.upload(dep.provider.name, b"pay the blackmailer 1000 coins")
        dep.run()
        receipts = dep.network.trace.message_count("tpnr.upload.receipt")
        replay_rejected = any(
            "Replay" in reason or "nonce" in reason or "sequence" in reason
            for _, reason in dep.provider.rejected_messages
        )
        succeeded = receipts > 1
        detail = (
            f"provider processed the duplicate: {receipts} receipts issued"
            if succeeded
            else f"duplicate rejected ({'replay guard' if replay_rejected else 'no effect'}); "
            f"{receipts} receipt issued"
        )
        return AttackResult(
            attack=self.name,
            target=target,
            succeeded=succeeded,
            detail=detail,
            messages_intercepted=len(adversary.seen),
            messages_injected=adversary.injected,
        )
