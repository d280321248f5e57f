"""A miniature PKI: identities, certificates, a CA, and a key registry.

The paper assumes each party "gets the other's public key" and "should
authenticate the validity to avoid the MITM" (§5.1).  This module makes
that assumption concrete: a :class:`CertificateAuthority` signs
:class:`Certificate` objects binding an identity string to an RSA
public key; a :class:`KeyRegistry` is the directory parties consult.
The MITM attack demonstrates what happens when a party skips
certificate validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CertificateError
from .drbg import HmacDrbg
from .rsa import RsaPrivateKey, RsaPublicKey, generate_keypair, sign, verify

__all__ = ["Identity", "Certificate", "CertificateAuthority", "KeyRegistry"]

DEFAULT_KEY_BITS = 512  # scaled-down for simulation speed (DESIGN.md §2)


@dataclass(frozen=True)
class Identity:
    """A named principal and its keypair."""

    name: str
    private_key: RsaPrivateKey

    @property
    def public_key(self) -> RsaPublicKey:
        return self.private_key.public_key()

    @staticmethod
    def generate(name: str, rng: HmacDrbg, bits: int = DEFAULT_KEY_BITS) -> "Identity":
        return Identity(name=name, private_key=generate_keypair(bits, rng.fork(f"id/{name}")))


@dataclass(frozen=True)
class Certificate:
    """Binding of a subject name to a public key, signed by an issuer."""

    subject: str
    public_key: RsaPublicKey
    issuer: str
    not_before: float
    not_after: float
    serial: int
    signature: bytes = b""

    def to_signed_bytes(self) -> bytes:
        """Canonical byte encoding covered by the issuer's signature."""
        return "|".join(
            [
                "repro-cert-v1",
                self.subject,
                str(self.public_key.n),
                str(self.public_key.e),
                self.issuer,
                repr(self.not_before),
                repr(self.not_after),
                str(self.serial),
            ]
        ).encode()


class CertificateAuthority:
    """Issues and validates certificates; the PKI trust root."""

    def __init__(self, name: str, rng: HmacDrbg, bits: int = DEFAULT_KEY_BITS) -> None:
        self.name = name
        self._identity = Identity.generate(name, rng, bits)
        self._next_serial = 1
        self._revoked: set[int] = set()

    @property
    def public_key(self) -> RsaPublicKey:
        return self._identity.public_key

    def issue(
        self,
        subject: str,
        public_key: RsaPublicKey,
        not_before: float = 0.0,
        not_after: float = float("inf"),
    ) -> Certificate:
        """Sign a certificate for *subject*'s *public_key*."""
        cert = Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            not_before=not_before,
            not_after=not_after,
            serial=self._next_serial,
        )
        self._next_serial += 1
        signature = sign(self._identity.private_key, cert.to_signed_bytes())
        return Certificate(
            subject=cert.subject,
            public_key=cert.public_key,
            issuer=cert.issuer,
            not_before=cert.not_before,
            not_after=cert.not_after,
            serial=cert.serial,
            signature=signature,
        )

    def revoke(self, serial: int) -> None:
        """Add a certificate serial to the revocation list."""
        self._revoked.add(serial)

    def validate(self, cert: Certificate, at_time: float = 0.0) -> None:
        """Raise :class:`CertificateError` unless *cert* is currently valid."""
        if cert.issuer != self.name:
            raise CertificateError(f"certificate issued by {cert.issuer!r}, not {self.name!r}")
        if cert.serial in self._revoked:
            raise CertificateError(f"certificate serial {cert.serial} is revoked")
        if not cert.not_before <= at_time <= cert.not_after:
            raise CertificateError(
                f"certificate not valid at t={at_time} "
                f"(window [{cert.not_before}, {cert.not_after}])"
            )
        if not verify(self.public_key, cert.to_signed_bytes(), cert.signature):
            raise CertificateError("certificate signature invalid")


@dataclass
class KeyRegistry:
    """Directory of validated certificates, indexed by subject name.

    Parties look up peers here instead of trusting keys received
    in-band — the distinction the MITM analysis (§5.1) hinges on.
    """

    ca: CertificateAuthority
    _certs: dict[str, Certificate] = field(default_factory=dict)

    def register(self, cert: Certificate, at_time: float = 0.0) -> None:
        """Validate and store a certificate."""
        self.ca.validate(cert, at_time)
        self._certs[cert.subject] = cert

    def enroll(self, identity: Identity, at_time: float = 0.0) -> Certificate:
        """Issue-and-register convenience for simulation setup."""
        cert = self.ca.issue(identity.name, identity.public_key)
        self.register(cert, at_time)
        return cert

    def lookup(self, subject: str) -> RsaPublicKey:
        """Public key of *subject*; raises if unknown."""
        try:
            return self._certs[subject].public_key
        except KeyError as exc:
            raise CertificateError(f"no certificate registered for {subject!r}") from exc
