"""Certificates, the CA, and the key registry."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.pki import Certificate, CertificateAuthority, Identity, KeyRegistry
from repro.errors import CertificateError


@pytest.fixture(scope="module")
def world():
    rng = HmacDrbg(b"pki-tests")
    ca = CertificateAuthority("ca", rng)
    registry = KeyRegistry(ca)
    alice = Identity.generate("alice", rng)
    return rng, ca, registry, alice


class TestIssueValidate:
    def test_issue_and_validate(self, world):
        _, ca, _, alice = world
        cert = ca.issue("alice", alice.public_key)
        ca.validate(cert)  # no raise

    def test_serials_increment(self, world):
        _, ca, _, alice = world
        c1 = ca.issue("a", alice.public_key)
        c2 = ca.issue("b", alice.public_key)
        assert c2.serial == c1.serial + 1

    def test_validity_window(self, world):
        _, ca, _, alice = world
        cert = ca.issue("alice", alice.public_key, not_before=10.0, not_after=20.0)
        ca.validate(cert, at_time=15.0)
        with pytest.raises(CertificateError):
            ca.validate(cert, at_time=5.0)
        with pytest.raises(CertificateError):
            ca.validate(cert, at_time=25.0)

    def test_revocation(self, world):
        _, ca, _, alice = world
        cert = ca.issue("alice", alice.public_key)
        ca.revoke(cert.serial)
        with pytest.raises(CertificateError):
            ca.validate(cert)

    def test_tampered_subject_rejected(self, world):
        _, ca, _, alice = world
        cert = ca.issue("alice", alice.public_key)
        forged = Certificate(
            subject="mallory",
            public_key=cert.public_key,
            issuer=cert.issuer,
            not_before=cert.not_before,
            not_after=cert.not_after,
            serial=cert.serial,
            signature=cert.signature,
        )
        with pytest.raises(CertificateError):
            ca.validate(forged)

    def test_swapped_key_rejected(self, world):
        rng, ca, _, alice = world
        mallory = Identity.generate("mallory", rng)
        cert = ca.issue("alice", alice.public_key)
        forged = Certificate(
            subject=cert.subject,
            public_key=mallory.public_key,
            issuer=cert.issuer,
            not_before=cert.not_before,
            not_after=cert.not_after,
            serial=cert.serial,
            signature=cert.signature,
        )
        with pytest.raises(CertificateError):
            ca.validate(forged)

    def test_wrong_issuer_rejected(self, world):
        rng, _, _, alice = world
        other_ca = CertificateAuthority("other-ca", rng)
        cert = other_ca.issue("alice", alice.public_key)
        ca = CertificateAuthority("ca-2", rng)
        with pytest.raises(CertificateError):
            ca.validate(cert)


class TestRegistry:
    def test_enroll_and_lookup(self, world):
        rng, ca, _, _ = world
        registry = KeyRegistry(ca)
        bob = Identity.generate("bob", rng)
        registry.enroll(bob)
        assert registry.lookup("bob") == bob.public_key

    def test_unknown_subject(self, world):
        _, ca, _, _ = world
        registry = KeyRegistry(ca)
        with pytest.raises(CertificateError):
            registry.lookup("nobody")

    def test_register_validates(self, world):
        rng, ca, _, alice = world
        registry = KeyRegistry(ca)
        mallory = Identity.generate("mallory2", rng)
        good = ca.issue("alice", alice.public_key)
        forged = Certificate(
            subject="alice",
            public_key=mallory.public_key,
            issuer=good.issuer,
            not_before=good.not_before,
            not_after=good.not_after,
            serial=good.serial,
            signature=good.signature,
        )
        with pytest.raises(CertificateError):
            registry.register(forged)

    def test_certificate_accessor(self, world):
        rng, ca, _, _ = world
        registry = KeyRegistry(ca)
        carol = Identity.generate("carol", rng)
        cert = registry.enroll(carol)
        assert registry.lookup("carol") == cert.public_key
        with pytest.raises(CertificateError):
            registry.lookup("nobody")


class TestIdentity:
    def test_generate_deterministic_per_seed(self):
        a = Identity.generate("x", HmacDrbg(b"id-seed"))
        b = Identity.generate("x", HmacDrbg(b"id-seed"))
        assert a.private_key == b.private_key

    def test_distinct_names_distinct_keys(self):
        rng = HmacDrbg(b"id-seed-2")
        assert Identity.generate("a", rng).private_key != Identity.generate("b", rng).private_key
