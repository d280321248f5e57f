"""Windows-Azure-style storage service (paper §2.2, Table 1, Fig. 3).

Faithful to the behaviours the paper calls out:

* account provisioning hands the user a **256-bit secret key**;
* every request carries an ``Authorization: SharedKey`` HMAC-SHA256
  signature which the server verifies;
* ``PUT`` may carry ``Content-MD5``; the server checks it against the
  body and **stores it** alongside the blob;
* ``GET`` returns the **stored** ``Content-MD5`` ("the original MD5_1
  will be sent", §2.4) — *not* a recomputation, which is precisely why
  naive tampering is detectable but metadata-fixing tampering is not;
* Blobs (<= 50 GB), the data item the paper's integrity analysis
  follows.  Azure's Tables and Queues are not modelled: they carry no
  integrity mechanism the paper analyses.

The service is deliberately honest about its checks and nothing more —
the integrity gap it inherits is the paper's subject, not a bug.
"""

from __future__ import annotations

import base64

from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import digest
from ..crypto.hmac_ import constant_time_equals
from ..errors import AuthenticationError, IntegrityError, NoSuchObjectError, StorageError
from .account import Account, AccountDirectory
from .blobstore import BlobStore
from .rest import RestRequest, RestResponse, authorization_header, shared_key_signature

__all__ = ["AzureLikeService", "AzureLikeClient", "MAX_BLOB_SIZE"]

MAX_BLOB_SIZE = 50 * 1024**3  # "Blobs (up to 50GB)"


class AzureLikeService:
    """Server side: authenticates SharedKey requests, stores blobs."""

    def __init__(self, rng: HmacDrbg, name: str = "azure-like") -> None:
        self.name = name
        self.accounts = AccountDirectory(rng)
        self.blobs = BlobStore(f"{name}/blobs")
        # (account, container, key) -> blockid -> (staged bytes, the
        # MD5 the server checked them against)
        self._staged_blocks: dict[tuple[str, str, str], dict[str, tuple[bytes, bytes]]] = {}
        self.request_log: list[tuple[str, str, int]] = []  # (method, path, status)

    # -- portal ------------------------------------------------------------

    def create_account(self, name: str) -> Account:
        """Provision an account; the returned object carries the
        256-bit secret key the user must keep."""
        return self.accounts.create(name)

    # -- request handling -----------------------------------------------------

    def handle(self, request: RestRequest, at_time: float = 0.0) -> RestResponse:
        """Authenticate and dispatch one REST request."""
        try:
            account = self._authenticate(request)
        except AuthenticationError as exc:
            return self._log(request, RestResponse(status=403, body=str(exc).encode()))
        try:
            response = self._handle_blob(account, request, at_time)
        except IntegrityError as exc:
            response = RestResponse(status=400, body=str(exc).encode())
        except NoSuchObjectError as exc:
            response = RestResponse(status=404, body=str(exc).encode())
        except StorageError as exc:
            response = RestResponse(status=400, body=str(exc).encode())
        return self._log(request, response)

    def _log(self, request: RestRequest, response: RestResponse) -> RestResponse:
        self.request_log.append((request.method, request.path, response.status))
        return response

    def _authenticate(self, request: RestRequest) -> Account:
        """Verify the ``SharedKey account:signature`` header."""
        auth = request.header("Authorization")
        if not auth.startswith("SharedKey "):
            raise AuthenticationError("missing SharedKey authorization")
        try:
            account_name, presented = auth[len("SharedKey ") :].split(":", 1)
        except ValueError as exc:
            raise AuthenticationError("malformed authorization header") from exc
        account = self.accounts.by_name(account_name)
        expected = shared_key_signature(request, account_name, account.secret_key)
        if not constant_time_equals(expected.encode(), presented.encode()):
            raise AuthenticationError("SharedKey signature mismatch")
        if not request.header("x-ms-date"):
            raise AuthenticationError("missing x-ms-date header")
        return account

    # -- blobs --------------------------------------------------------------

    @staticmethod
    def _query_params(request: RestRequest) -> dict[str, str]:
        if "?" not in request.path:
            return {}
        query = request.path.split("?", 1)[1]
        return dict(pair.split("=", 1) for pair in query.split("&") if "=" in pair)

    def _handle_blob(self, account: Account, request: RestRequest, at_time: float) -> RestResponse:
        container, key = self._parse_blob_path(account, request)
        params = self._query_params(request)
        if request.method == "PUT":
            if len(request.body) > MAX_BLOB_SIZE:
                raise StorageError(f"blob exceeds {MAX_BLOB_SIZE} bytes")
            declared = request.header("Content-Length")
            if declared and int(declared) != len(request.body):
                raise IntegrityError("Content-Length does not match body")
            content_md5_b64 = request.header("Content-MD5")
            if content_md5_b64:
                content_md5 = base64.b64decode(content_md5_b64)
                if content_md5 != digest("md5", request.body):
                    # "The MD5 checksum is checked by the server. If it
                    # does not match, an error is returned."
                    raise IntegrityError("Content-MD5 mismatch")
            else:
                content_md5 = digest("md5", request.body)
            if params.get("comp") == "block":
                # Table 1's operation: stage one block; not readable
                # until the block list commits it.
                block_id = params.get("blockid", "")
                if not block_id:
                    raise StorageError("comp=block requires a blockid")
                staging = self._staged_blocks.setdefault((account.name, container, key), {})
                staging[block_id] = (request.body, content_md5)
                return RestResponse(
                    status=201,
                    headers={"Content-MD5": base64.b64encode(content_md5).decode()},
                )
            if params.get("comp") == "blocklist":
                # Commit: the body names the staged blocks in order.
                staging = self._staged_blocks.get((account.name, container, key), {})
                block_ids = [b for b in request.body.decode().split("\n") if b]
                missing = [b for b in block_ids if b not in staging]
                if missing:
                    raise StorageError(f"unstaged block ids in block list: {missing}")
                if len(block_ids) == 1:
                    # One block is the whole blob: its MD5 was checked
                    # (or made) when it was staged.
                    assembled, blob_md5 = staging[block_ids[0]]
                else:
                    assembled = b"".join(staging[b][0] for b in block_ids)
                    blob_md5 = digest("md5", assembled)
                self.blobs.put(container, key, assembled, blob_md5, at_time=at_time)
                self._staged_blocks.pop((account.name, container, key), None)
                return RestResponse(
                    status=201,
                    headers={"Content-MD5": base64.b64encode(blob_md5).decode()},
                )
            self.blobs.put(container, key, request.body, content_md5, at_time=at_time)
            return RestResponse(
                status=201,
                headers={"Content-MD5": base64.b64encode(content_md5).decode()},
            )
        if request.method == "GET":
            obj = self.blobs.get(container, key)
            # Return the *stored* MD5 — the Azure behaviour of §2.4.
            return RestResponse(
                status=200,
                headers={
                    "Content-MD5": base64.b64encode(obj.content_md5).decode(),
                    "Content-Length": str(obj.size),
                },
                body=obj.data,
            )
        raise StorageError(f"unsupported blob operation {request.method}")

    def _parse_blob_path(self, account: Account, request: RestRequest) -> tuple[str, str]:
        parts = request.resource.strip("/").split("/")
        if len(parts) < 3 or parts[0] != account.name:
            raise StorageError(f"malformed blob path {request.path!r}")
        return parts[1], "/".join(parts[2:])


class AzureLikeClient:
    """User side: builds signed requests, checks response integrity."""

    def __init__(self, service: AzureLikeService, account: Account, clock=None) -> None:
        self.service = service
        self.account = account
        self._clock = clock
        self.last_verified_md5: bytes | None = None

    def _date_header(self) -> str:
        t = self._clock.now if self._clock is not None else 0.0
        return f"sim-t={t:.3f}"

    def _signed(self, request: RestRequest) -> RestRequest:
        request.headers["x-ms-date"] = self._date_header()
        request.headers["x-ms-version"] = "2009-09-19"
        request.headers["Authorization"] = authorization_header(
            request, self.account.name, self.account.secret_key
        )
        return request

    def build_put(self, container: str, key: str, data: bytes,
                  block_id: str = "blockid1",
                  content_md5: bytes | None = None) -> RestRequest:
        """The Table-1 PUT: stage one block, Content-MD5 + SharedKey.
        *content_md5* is the caller's MD5 of *data*, if it holds one."""
        if content_md5 is None:
            content_md5 = digest("md5", data)
        request = RestRequest(
            method="PUT",
            path=(
                f"/{self.account.name}/{container}/{key}"
                f"?comp=block&blockid={block_id}&timeout=30"
            ),
            headers={
                "Content-Length": str(len(data)),
                "Content-MD5": base64.b64encode(content_md5).decode(),
            },
            body=data,
        )
        return self._signed(request)

    def build_commit(self, container: str, key: str, block_ids: list[str]) -> RestRequest:
        """The PUT Block List that commits staged blocks in order."""
        body = "\n".join(block_ids).encode()
        request = RestRequest(
            method="PUT",
            path=f"/{self.account.name}/{container}/{key}?comp=blocklist",
            headers={
                "Content-Length": str(len(body)),
                "Content-MD5": base64.b64encode(digest("md5", body)).decode(),
            },
            body=body,
        )
        return self._signed(request)

    def build_get(self, container: str, key: str) -> RestRequest:
        request = RestRequest(
            method="GET",
            path=f"/{self.account.name}/{container}/{key}",
        )
        return self._signed(request)

    def put_blob(self, container: str, key: str, data: bytes, at_time: float = 0.0,
                 block_size: int | None = None,
                 content_md5: bytes | None = None) -> RestResponse:
        """Upload via the block protocol: stage block(s), then commit.

        *block_size* splits large payloads into multiple staged blocks
        (default: one block).  *content_md5*, the caller's MD5 of
        *data*, is sent as a single block's Content-MD5.  Returns the
        commit response, whose Content-MD5 is the digest the server
        persisted.
        """
        if block_size is None or block_size >= len(data) or len(data) == 0:
            chunks = [data]
        else:
            chunks = [data[i : i + block_size] for i in range(0, len(data), block_size)]
            content_md5 = None
        block_ids = []
        for index, chunk in enumerate(chunks, start=1):
            block_id = f"blockid{index}"
            response = self.service.handle(
                self.build_put(container, key, chunk, block_id, content_md5), at_time
            )
            if not response.ok:
                raise StorageError(
                    f"PUT block failed ({response.status}): {response.body.decode()}"
                )
            block_ids.append(block_id)
        response = self.service.handle(self.build_commit(container, key, block_ids), at_time)
        if not response.ok:
            raise StorageError(
                f"PUT blocklist failed ({response.status}): {response.body.decode()}"
            )
        return response

    def get_blob(self, container: str, key: str, verify: bool = True) -> bytes:
        """Download; with *verify*, check body against returned MD5.

        Note this verifies only the download *session* — if the server
        returned a fixed-up MD5 for tampered data, verification passes.
        That gap is the paper's Fig. 5.
        """
        response = self.service.handle(self.build_get(container, key))
        if not response.ok:
            raise StorageError(f"GET failed ({response.status}): {response.body.decode()}")
        returned_md5 = base64.b64decode(response.header("Content-MD5"))
        if verify:
            if returned_md5 != digest("md5", response.body):
                raise IntegrityError("downloaded data does not match returned Content-MD5")
            self.last_verified_md5 = returned_md5
        return response.body
