"""The mini-TLS handshake and record layer."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.pki import CertificateAuthority, Identity, KeyRegistry
from repro.errors import HandshakeError, RecordError
from repro.net.securechannel import ClientEndpoint, ServerEndpoint, establish_session


@pytest.fixture(scope="module")
def world():
    rng = HmacDrbg(b"tls-tests")
    ca = CertificateAuthority("ca", rng)
    registry = KeyRegistry(ca)
    bob = Identity.generate("bob", rng)
    cert = registry.enroll(bob)
    return rng, registry, bob, cert


def fresh_pair(world, verify_peer=True, expected="bob"):
    rng, registry, bob, cert = world
    client = ClientEndpoint("alice", rng.fork("c"), registry, expected, verify_peer)
    server = ServerEndpoint(bob, cert, rng.fork("s"))
    return client, server


class TestHandshake:
    def test_establish(self, world):
        client, server = fresh_pair(world)
        cs, ss = establish_session(client, server)
        assert cs.peer_name == "bob"
        assert ss.peer_name == "alice"

    def test_sessions_carry_data_both_ways(self, world):
        cs, ss = establish_session(*fresh_pair(world))
        assert ss.open(cs.seal(b"up")) == b"up"
        assert cs.open(ss.seal(b"down")) == b"down"

    def test_finish_before_hello(self, world):
        client, server = fresh_pair(world)
        other_client, _ = fresh_pair(world)
        hello = other_client.hello()
        server_hello = server.respond(hello)
        with pytest.raises(HandshakeError):
            client.finish(server_hello)  # client never sent a hello

    def test_wrong_expected_server(self, world):
        client, server = fresh_pair(world, expected="carol")
        hello = client.hello()
        server_hello = server.respond(hello)
        with pytest.raises(HandshakeError):
            client.finish(server_hello)

    def test_tampered_signature(self, world):
        client, server = fresh_pair(world)
        hello = client.hello()
        server_hello = server.respond(hello)
        from dataclasses import replace

        bad = replace(server_hello, signature=bytes(len(server_hello.signature)))
        with pytest.raises(HandshakeError):
            client.finish(bad)

    def test_tampered_dh_value(self, world):
        """Changing the DH public breaks the transcript signature."""
        client, server = fresh_pair(world)
        hello = client.hello()
        server_hello = server.respond(hello)
        from dataclasses import replace

        bad = replace(server_hello, dh_public=server_hello.dh_public + 1)
        with pytest.raises(HandshakeError):
            client.finish(bad)

    def test_unknown_client_random_rejected_at_complete(self, world):
        client, server = fresh_pair(world)
        hello = client.hello()
        server_hello = server.respond(hello)
        finished = client.finish(server_hello)
        from dataclasses import replace

        stranger_hello = replace(hello, random=bytes(32))
        with pytest.raises(HandshakeError):
            server.complete(stranger_hello, finished)

    def test_bad_finished_mac(self, world):
        client, server = fresh_pair(world)
        hello = client.hello()
        server_hello = server.respond(hello)
        client.finish(server_hello)
        from repro.net.securechannel import Finished

        with pytest.raises(HandshakeError):
            server.complete(hello, Finished(verify_data=bytes(32)))

    def test_no_verification_accepts_bad_signature(self, world):
        """The vulnerable mode the MITM attack exploits."""
        client, server = fresh_pair(world, verify_peer=False)
        hello = client.hello()
        server_hello = server.respond(hello)
        from dataclasses import replace

        bad = replace(server_hello, signature=b"\x00" * 64)
        client.finish(bad)  # accepted without complaint
        assert client.session is not None

    def test_verify_requires_registry(self, world):
        rng, _, bob, cert = world
        client = ClientEndpoint("alice", rng.fork("nr"), None, "bob", verify_peer=True)
        server = ServerEndpoint(bob, cert, rng.fork("nrs"))
        hello = client.hello()
        with pytest.raises(HandshakeError):
            client.finish(server.respond(hello))


class TestRecordLayer:
    def test_replay_rejected(self, world):
        cs, ss = establish_session(*fresh_pair(world))
        record = cs.seal(b"once")
        ss.open(record)
        with pytest.raises(RecordError):
            ss.open(record)

    def test_reorder_rejected(self, world):
        cs, ss = establish_session(*fresh_pair(world))
        r0 = cs.seal(b"zero")
        r1 = cs.seal(b"one")
        with pytest.raises(RecordError):
            ss.open(r1)  # out of order
        ss.open(r0)

    def test_tampered_record(self, world):
        cs, ss = establish_session(*fresh_pair(world))
        record = cs.seal(b"payload")
        from dataclasses import replace

        bad = replace(record, sealed=record.sealed[:-1] + bytes([record.sealed[-1] ^ 1]))
        with pytest.raises(RecordError):
            ss.open(bad)

    def test_seq_spoofing_rejected(self, world):
        """Changing the explicit seq breaks the AAD binding."""
        cs, ss = establish_session(*fresh_pair(world))
        cs.seal(b"zero")  # advance sender seq
        record1 = cs.seal(b"one")
        from dataclasses import replace

        spoofed = replace(record1, seq=0)
        with pytest.raises(RecordError):
            ss.open(spoofed)

    def test_directional_keys_differ(self, world):
        cs, ss = establish_session(*fresh_pair(world))
        record = cs.seal(b"direction test")
        with pytest.raises(RecordError):
            cs.open(record)  # own message, wrong direction key

    def test_independent_sessions_do_not_mix(self, world):
        cs1, ss1 = establish_session(*fresh_pair(world))
        cs2, ss2 = establish_session(*fresh_pair(world))
        record = cs1.seal(b"session 1")
        with pytest.raises(RecordError):
            ss2.open(record)

