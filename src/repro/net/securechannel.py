"""A miniature TLS: signed ephemeral DH handshake + AEAD record layer.

The paper's platforms all delegate per-session integrity to SSL (§2).
This module is that SSL stand-in.  The handshake is server-
authenticated (optionally mutual), the record layer numbers and MACs
every record, and — crucially for the paper's argument — a client that
*skips certificate validation* (``verify_peer=False``) completes the
handshake happily with a man in the middle.  The attack suite uses
exactly that knob to reproduce §5.1.

Handshake flow::

    Client                                  Server
      | -- ClientHello(random_c, dh_c) ------> |
      | <-- ServerHello(random_s, dh_s,        |
      |        cert_s, sig_s(transcript)) ---- |
      | -- Finished(HMAC(master, transcript)) >|

Master secret = HMAC(shared_dh, random_c || random_s); directional
record keys are derived with "c2s"/"s2c" labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import aead, dh, rsa
from ..crypto.drbg import HmacDrbg
from ..crypto.hmac_ import constant_time_equals, hmac_digest
from ..crypto.numbers import int_to_bytes
from ..crypto.pki import Certificate, Identity, KeyRegistry
from ..errors import HandshakeError, RecordError

__all__ = [
    "ClientHello",
    "ServerHello",
    "Finished",
    "Record",
    "SecureSession",
    "ClientEndpoint",
    "ServerEndpoint",
    "establish_session",
]

_RANDOM_SIZE = 32


@dataclass(frozen=True)
class ClientHello:
    client_name: str
    random: bytes
    dh_public: int


@dataclass(frozen=True)
class ServerHello:
    server_name: str
    random: bytes
    dh_public: int
    certificate: Certificate
    signature: bytes


@dataclass(frozen=True)
class Finished:
    verify_data: bytes


@dataclass(frozen=True)
class Record:
    """One protected record: explicit sequence number + sealed box."""

    seq: int
    sealed: bytes


def _transcript(hello_c: ClientHello, random_s: bytes, dh_s: int) -> bytes:
    return b"|".join(
        [
            b"repro-tls-v1",
            hello_c.client_name.encode(),
            hello_c.random,
            int_to_bytes(hello_c.dh_public),
            random_s,
            int_to_bytes(dh_s),
        ]
    )


class SecureSession:
    """Established channel state for one direction pair.

    ``is_client`` decides which derived key encrypts outbound records.
    Sequence numbers are strictly increasing and verified on receive,
    so within-session replay and reordering are detected (RecordError).
    """

    def __init__(self, master: bytes, is_client: bool, peer_name: str, rng: HmacDrbg) -> None:
        self._send_key = hmac_digest(master, b"c2s" if is_client else b"s2c")
        self._recv_key = hmac_digest(master, b"s2c" if is_client else b"c2s")
        self._send_seq = 0
        self._recv_seq = 0
        self._rng = rng
        self.peer_name = peer_name

    def seal(self, plaintext: bytes) -> Record:
        """Protect one outbound record."""
        seq = self._send_seq
        self._send_seq += 1
        nonce = self._rng.generate(12)
        aad = b"record|" + seq.to_bytes(8, "big")
        return Record(seq=seq, sealed=aead.seal(self._send_key, nonce, plaintext, aad))

    def open(self, record: Record) -> bytes:
        """Verify and decrypt one inbound record (in order)."""
        if record.seq != self._recv_seq:
            raise RecordError(
                f"record sequence violation: got {record.seq}, expected {self._recv_seq}"
            )
        aad = b"record|" + record.seq.to_bytes(8, "big")
        try:
            plaintext = aead.open_(self._recv_key, record.sealed, aad)
        except Exception as exc:
            raise RecordError(f"record failed authentication: {exc}") from exc
        self._recv_seq += 1
        return plaintext


class ClientEndpoint:
    """Client half of the handshake state machine."""

    def __init__(
        self,
        name: str,
        rng: HmacDrbg,
        registry: KeyRegistry | None,
        expected_server: str,
        verify_peer: bool = True,
    ) -> None:
        self.name = name
        self._rng = rng.fork(f"tls-client/{name}")
        self._registry = registry
        self._expected_server = expected_server
        self._verify_peer = verify_peer
        self._group = dh.default_group()
        self._keypair: dh.DhKeyPair | None = None
        self._hello: ClientHello | None = None
        self.session: SecureSession | None = None

    def hello(self) -> ClientHello:
        """Produce the ClientHello (step 1)."""
        self._keypair = dh.generate_keypair(self._group, self._rng)
        self._hello = ClientHello(
            client_name=self.name,
            random=self._rng.generate(_RANDOM_SIZE),
            dh_public=self._keypair.public,
        )
        return self._hello

    def finish(self, server_hello: ServerHello, at_time: float = 0.0) -> Finished:
        """Consume the ServerHello, authenticate, derive keys (step 3)."""
        if self._hello is None or self._keypair is None:
            raise HandshakeError("finish() before hello()")
        transcript = _transcript(self._hello, server_hello.random, server_hello.dh_public)
        if self._verify_peer:
            if self._registry is None:
                raise HandshakeError("verify_peer requires a key registry")
            if server_hello.certificate.subject != self._expected_server:
                raise HandshakeError(
                    f"certificate subject {server_hello.certificate.subject!r} "
                    f"does not match expected server {self._expected_server!r}"
                )
            self._registry.ca.validate(server_hello.certificate, at_time)
            if not rsa.verify(
                server_hello.certificate.public_key, transcript, server_hello.signature
            ):
                raise HandshakeError("server handshake signature invalid")
        shared = dh.derive_shared_secret(self._keypair, server_hello.dh_public)
        master = hmac_digest(shared, self._hello.random + server_hello.random)
        self.session = SecureSession(master, is_client=True, peer_name=server_hello.server_name, rng=self._rng)
        return Finished(verify_data=hmac_digest(master, b"finished|" + transcript))


class ServerEndpoint:
    """Server half of the handshake state machine."""

    def __init__(self, identity: Identity, certificate: Certificate, rng: HmacDrbg) -> None:
        self.identity = identity
        self.certificate = certificate
        self._rng = rng.fork(f"tls-server/{identity.name}")
        self._group = dh.default_group()
        # client random -> (master secret, transcript bytes, client name)
        self._pending: dict[bytes, tuple[bytes, bytes, str]] = {}
        self.sessions: dict[str, SecureSession] = {}

    def respond(self, hello: ClientHello) -> ServerHello:
        """Consume a ClientHello, produce the signed ServerHello (step 2)."""
        keypair = dh.generate_keypair(self._group, self._rng)
        random_s = self._rng.generate(_RANDOM_SIZE)
        transcript = _transcript(hello, random_s, keypair.public)
        signature = rsa.sign(self.identity.private_key, transcript)
        # Key the pending handshake by the client random (unique per hello).
        shared = dh.derive_shared_secret(keypair, hello.dh_public)
        master = hmac_digest(shared, hello.random + random_s)
        self._pending[hello.random] = (master, transcript, hello.client_name)
        return ServerHello(
            server_name=self.identity.name,
            random=random_s,
            dh_public=keypair.public,
            certificate=self.certificate,
            signature=signature,
        )

    def complete(self, hello: ClientHello, finished: Finished) -> SecureSession:
        """Verify the client's Finished and install the session (step 4)."""
        try:
            master, transcript, client_name = self._pending.pop(hello.random)
        except KeyError as exc:
            raise HandshakeError("no pending handshake for this client random") from exc
        expected = hmac_digest(master, b"finished|" + transcript)
        if not constant_time_equals(expected, finished.verify_data):
            raise HandshakeError("client Finished MAC invalid")
        session = SecureSession(master, is_client=False, peer_name=client_name, rng=self._rng)
        self.sessions[client_name] = session
        return session


def establish_session(
    client: ClientEndpoint, server: ServerEndpoint, at_time: float = 0.0
) -> tuple[SecureSession, SecureSession]:
    """Run the three-message handshake in memory.

    Returns ``(client_session, server_session)``.  Attack code stages
    the same messages by hand instead of calling this helper.
    """
    hello = client.hello()
    server_hello = server.respond(hello)
    finished = client.finish(server_hello, at_time)
    server_session = server.complete(hello, finished)
    assert client.session is not None
    return client.session, server_session
