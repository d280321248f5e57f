"""Minimal REST request/response model + SharedKey canonicalization.

Models the HTTP surface in the paper's Table 1: ``PUT``/``GET`` with
``Content-MD5``, ``Content-Length``, ``x-ms-date`` and an
``Authorization: SharedKey <account>:<base64 HMAC-SHA256>`` header over
a canonicalized string-to-sign.  :func:`format_request` renders a
request in exactly the Table 1 layout so the T1 benchmark can print the
reproduced artifact.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

from ..crypto.hmac_ import hmac_digest
from ..errors import StorageError

__all__ = [
    "RestRequest",
    "RestResponse",
    "string_to_sign",
    "shared_key_signature",
    "authorization_header",
    "format_request",
]

_SIGNED_HEADERS = ("Content-MD5", "Content-Length", "x-ms-date", "x-ms-version")


@dataclass
class RestRequest:
    """An HTTP request as the platform models see it."""

    method: str
    path: str  # e.g. "/jerry/movie/block?comp=block&blockid=blockid1"
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def __post_init__(self) -> None:
        if self.method not in ("GET", "PUT", "DELETE", "HEAD", "POST"):
            raise StorageError(f"unsupported HTTP method {self.method!r}")

    @property
    def resource(self) -> str:
        """Path without the query string."""
        return self.path.split("?", 1)[0]

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return default


@dataclass
class RestResponse:
    """An HTTP response."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def header(self, name: str, default: str = "") -> str:
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return default


def string_to_sign(request: RestRequest, account_name: str) -> bytes:
    """Canonical string covered by the SharedKey signature.

    VERB, the signed headers in fixed order, then the canonicalized
    resource (``/account/path``), newline-separated — the shape Azure's
    SharedKey scheme uses.
    """
    parts = [request.method]
    parts.extend(request.header(h) for h in _SIGNED_HEADERS)
    parts.append(f"/{account_name}{request.resource}")
    return "\n".join(parts).encode()


def shared_key_signature(request: RestRequest, account_name: str, secret_key: bytes) -> str:
    """Base64 HMAC-SHA256 of the string-to-sign."""
    mac = hmac_digest(secret_key, string_to_sign(request, account_name))
    return base64.b64encode(mac).decode()


def authorization_header(request: RestRequest, account_name: str, secret_key: bytes) -> str:
    """Full ``SharedKey account:signature`` header value."""
    return f"SharedKey {account_name}:{shared_key_signature(request, account_name, secret_key)}"


def format_request(request: RestRequest, host: str = "myaccount.blob.core.example.net") -> str:
    """Render a request in the layout of the paper's Table 1."""
    lines = [f"{request.method} http://{host}{request.path} HTTP/1.1"]
    for key, value in request.headers.items():
        lines.append(f"{key}: {value}")
    return "\n".join(lines)
