"""Google-App-Engine-style service with a Secure Data Connector (Fig. 4).

Reproduces the §2.3 pipeline: the user sends an authorized data request
to the Apps front end, which forwards it to the **Tunnel Server**; the
tunnel validates the requester and establishes an encrypted connection
to the on-premises **SDC agent**; the SDC checks **resource rules** to
decide whether this viewer may touch this resource; if allowed it
performs the network request against the internal **data service**,
which validates the **signed request** (owner_id, viewer_id,
instance_id, app_id, public_key, consumer_key, nonce, token, signature
— the §2.3 field list) and returns the data.

Nonces are remembered and rejected on reuse, so a captured signed
request cannot be replayed — but, exactly as the paper observes, none
of this says anything about whether the data *stored behind* the
service was modified while at rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fnmatch import fnmatch

from ..crypto import rsa
from ..crypto.drbg import HmacDrbg
from ..crypto.pki import Identity
from ..errors import AuthenticationError, AuthorizationError, NoSuchObjectError
from .blobstore import BlobStore

__all__ = [
    "SignedRequest",
    "make_signed_request",
    "ResourceRule",
    "TunnelServer",
    "SdcAgent",
    "GaeLikeService",
]


@dataclass(frozen=True)
class SignedRequest:
    """A signed request with the §2.3 field list."""

    owner_id: str
    viewer_id: str
    instance_id: str
    app_id: str
    public_key: str  # fingerprint of the signing key
    consumer_key: str
    nonce: bytes
    token: str
    resource: str
    signature: bytes = b""

    def to_signed_bytes(self) -> bytes:
        return "|".join(
            [
                "sdc-request-v1",
                self.owner_id,
                self.viewer_id,
                self.instance_id,
                self.app_id,
                self.public_key,
                self.consumer_key,
                self.nonce.hex(),
                self.token,
                self.resource,
            ]
        ).encode()


def make_signed_request(identity: Identity, rng: HmacDrbg, **fields: str) -> SignedRequest:
    """Build and sign a request with *identity*'s key."""
    request = SignedRequest(
        owner_id=fields["owner_id"],
        viewer_id=fields["viewer_id"],
        instance_id=fields.get("instance_id", "inst-1"),
        app_id=fields.get("app_id", "app-1"),
        public_key=identity.public_key.fingerprint(),
        consumer_key=fields.get("consumer_key", "consumer-1"),
        nonce=rng.generate(16),
        token=fields.get("token", "tok-1"),
        resource=fields["resource"],
    )
    signature = rsa.sign(identity.private_key, request.to_signed_bytes())
    return replace(request, signature=signature)


@dataclass(frozen=True)
class ResourceRule:
    """One SDC authorization rule: viewer pattern + resource pattern."""

    viewer_pattern: str
    resource_pattern: str
    allow: bool = True

    def matches(self, viewer_id: str, resource: str) -> bool:
        return fnmatch(viewer_id, self.viewer_pattern) and fnmatch(resource, self.resource_pattern)


class TunnelServer:
    """Validates requesters and brokers connections to the SDC."""

    def __init__(self, known_consumers: set[str] | None = None) -> None:
        self.known_consumers = known_consumers if known_consumers is not None else set()
        self.connections_established = 0

    def register_consumer(self, consumer_key: str) -> None:
        self.known_consumers.add(consumer_key)

    def validate(self, request: SignedRequest) -> None:
        """The tunnel's identity check before any connection is set up."""
        if request.consumer_key not in self.known_consumers:
            raise AuthenticationError(f"tunnel: unknown consumer {request.consumer_key!r}")
        self.connections_established += 1


class SdcAgent:
    """On-premises connector enforcing resource rules."""

    def __init__(self, rules: list[ResourceRule] | None = None) -> None:
        self.rules: list[ResourceRule] = list(rules or [])
        self.requests_checked = 0

    def add_rule(self, rule: ResourceRule) -> None:
        self.rules.append(rule)

    def authorize(self, request: SignedRequest) -> None:
        """First matching rule wins; no match means deny."""
        self.requests_checked += 1
        for rule in self.rules:
            if rule.matches(request.viewer_id, request.resource):
                if rule.allow:
                    return
                break
        raise AuthorizationError(
            f"SDC: viewer {request.viewer_id!r} may not access {request.resource!r}"
        )


class GaeLikeService:
    """The full §2.3 pipeline plus the backing data store."""

    def __init__(self, rng: HmacDrbg, name: str = "gae-like") -> None:
        self.name = name
        self.blobs = BlobStore(f"{name}/datastore")
        self.tunnel = TunnelServer()
        self.sdc = SdcAgent()
        self._registered_keys: dict[str, rsa.RsaPublicKey] = {}
        self._valid_tokens: set[str] = set()
        self._seen_nonces: set[bytes] = set()
        self._rng = rng.fork("gae")

    # -- provisioning --------------------------------------------------------

    def register_app(self, identity: Identity, consumer_key: str, token: str) -> None:
        """Register an app's public key, consumer key, and token."""
        self._registered_keys[identity.public_key.fingerprint()] = identity.public_key
        self.tunnel.register_consumer(consumer_key)
        self._valid_tokens.add(token)

    # -- GET/PUT (lower API: "only some functions such as GET and PUT") -------

    def datastore_put(self, kind: str, key: str, data: bytes, at_time: float = 0.0) -> None:
        self.blobs.put(kind, key, data, at_time=at_time)

    def datastore_get(self, kind: str, key: str) -> bytes:
        return self.blobs.get(kind, key).data

    # -- the SDC request path ---------------------------------------------------

    def handle_request(self, request: SignedRequest) -> bytes:
        """Run the full Fig. 4 pipeline for one signed request."""
        # 1. Tunnel server validates the requester.
        self.tunnel.validate(request)
        # 2. SDC resource rules authorize viewer/resource.
        self.sdc.authorize(request)
        # 3. The data service validates the signed request itself.
        self._validate_signature(request)
        # 4. Return the data.
        kind, _, key = request.resource.partition("/")
        if not key:
            raise NoSuchObjectError(f"malformed resource {request.resource!r}")
        return self.blobs.get(kind, key).data

    def _validate_signature(self, request: SignedRequest) -> None:
        public_key = self._registered_keys.get(request.public_key)
        if public_key is None:
            raise AuthenticationError("data service: unregistered public key")
        if request.token not in self._valid_tokens:
            raise AuthenticationError("data service: invalid token")
        if request.nonce in self._seen_nonces:
            raise AuthenticationError("data service: nonce replay rejected")
        if not rsa.verify(public_key, request.to_signed_bytes(), request.signature):
            raise AuthenticationError("data service: request signature invalid")
        self._seen_nonces.add(request.nonce)
