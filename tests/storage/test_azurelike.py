"""The Azure-like platform model (paper §2.2 / Table 1 / Fig. 3)."""

import base64

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import digest
from repro.errors import IntegrityError, StorageError
from repro.storage.azurelike import AzureLikeClient, AzureLikeService
from repro.storage.rest import RestRequest, authorization_header
from repro.storage.tamper import TamperMode, apply_tamper


@pytest.fixture
def service():
    return AzureLikeService(HmacDrbg(b"azure-tests"))


@pytest.fixture
def client(service):
    return AzureLikeClient(service, service.create_account("jerry"))


class TestAccounts:
    def test_secret_key_is_256_bits(self, service):
        assert len(service.create_account("u1").secret_key) == 32

    def test_duplicate_account(self, service):
        service.create_account("u1")
        with pytest.raises(StorageError):
            service.create_account("u1")


class TestAuthentication:
    def test_valid_request_accepted(self, service, client):
        assert service.handle(client.build_put("c", "k", b"data")).status == 201

    def test_missing_auth_rejected(self, service):
        response = service.handle(RestRequest(method="GET", path="/jerry/c/k"))
        assert response.status == 403

    def test_forged_signature_rejected(self, service, client):
        request = client.build_get("c", "k")
        request.headers["Authorization"] = "SharedKey jerry:Zm9yZ2VkIHNpZ25hdHVyZQ=="
        assert service.handle(request).status == 403

    def test_tampered_body_breaks_signature(self, service, client):
        """Changing the body changes Content-MD5 -> signature mismatch
        only if headers change; a silently swapped body fails the MD5."""
        request = client.build_put("c", "k", b"original")
        request.body = b"swapped!"  # same headers, different body
        response = service.handle(request)
        assert response.status == 400  # Content-MD5 mismatch

    def test_unknown_account(self, service, client):
        request = client.build_put("c", "k", b"x")
        request.headers["Authorization"] = request.headers["Authorization"].replace(
            "jerry", "ghost"
        )
        assert service.handle(request).status == 403

    def test_request_log(self, service, client):
        service.handle(client.build_put("c", "k", b"x"))
        assert service.request_log[-1][0] == "PUT"


class TestBlobSemantics:
    def test_md5_round_trip(self, service, client):
        """The §2.4 Azure behaviour: stored MD5 returned on GET."""
        data = b"round trip data"
        put_response = client.put_blob("c", "k", data)
        stored_md5 = base64.b64decode(put_response.header("Content-MD5"))
        assert stored_md5 == digest("md5", data)
        assert client.get_blob("c", "k") == data

    def test_get_missing(self, service, client):
        response = service.handle(client.build_get("c", "missing"))
        assert response.status == 404

    def test_delete(self, service, client):
        """DELETE is not a blob operation of the model: refused, blob kept."""
        client.put_blob("c", "k", b"x")
        request = client.build_get("c", "k")
        request.method = "DELETE"
        request.headers["Authorization"] = authorization_header(
            request, "jerry", client.account.secret_key
        )
        assert service.handle(request).status == 400
        assert client.get_blob("c", "k") == b"x"

    def test_naive_tamper_detected(self, service, client):
        client.put_blob("c", "k", b"victim data")
        apply_tamper(service.blobs, "c", "k", TamperMode.REPLACE, HmacDrbg(b"t"))
        with pytest.raises(IntegrityError):
            client.get_blob("c", "k")

    def test_coverup_tamper_undetected(self, service, client):
        """FIXUP_MD5 defeats the returned-MD5 check — the Fig. 5 gap."""
        client.put_blob("c", "k", b"victim data")
        apply_tamper(service.blobs, "c", "k", TamperMode.FIXUP_MD5, HmacDrbg(b"t"))
        downloaded = client.get_blob("c", "k")  # verifies "successfully"
        assert downloaded != b"victim data"

    def test_content_length_checked(self, service, client):
        request = client.build_put("c", "k", b"12345")
        request.headers["Content-Length"] = "999"
        # changing the header invalidates the signature first
        assert service.handle(request).status == 403

    def test_malformed_path(self, service, client):
        request = client.build_put("c", "k", b"x")
        request.path = "/jerry/onlycontainer"
        request.headers["Authorization"] = authorization_header(
            request, "jerry", client.account.secret_key
        )
        assert service.handle(request).status == 400


class TestBlockProtocol:
    """The genuine Table 1 operation: PUT Block + PUT Block List."""

    def test_staged_block_not_readable_before_commit(self, service, client):
        request = client.build_put("c", "staged", b"block data")
        assert service.handle(request).status == 201
        assert service.handle(client.build_get("c", "staged")).status == 404

    def test_commit_assembles_blocks_in_order(self, service, client):
        for i, chunk in enumerate([b"AAA", b"BBB", b"CCC"], start=1):
            service.handle(client.build_put("c", "multi", chunk, f"blockid{i}"))
        commit = client.build_commit("c", "multi", ["blockid3", "blockid1", "blockid2"])
        assert service.handle(commit).status == 201
        assert client.get_blob("c", "multi") == b"CCCAAABBB"

    def test_commit_of_unstaged_block_rejected(self, service, client):
        service.handle(client.build_put("c", "partial", b"x", "blockid1"))
        commit = client.build_commit("c", "partial", ["blockid1", "blockid9"])
        assert service.handle(commit).status == 400

    def test_staging_cleared_after_commit(self, service, client):
        service.handle(client.build_put("c", "once", b"x", "blockid1"))
        service.handle(client.build_commit("c", "once", ["blockid1"]))
        # Committing again without restaging must fail.
        assert service.handle(client.build_commit("c", "once", ["blockid1"])).status == 400

    def test_put_blob_multi_block(self, service, client):
        data = bytes(range(256)) * 10
        response = client.put_blob("c", "big", data, block_size=512)
        assert response.status == 201
        assert client.get_blob("c", "big") == data

    def test_commit_md5_is_blob_md5(self, service, client):
        data = b"whole blob contents"
        response = client.put_blob("c", "whole", data)
        assert base64.b64decode(response.header("Content-MD5")) == digest("md5", data)

    def test_block_without_id_rejected(self, service, client):
        request = client.build_put("c", "k", b"x")
        request.path = request.path.replace("&blockid=blockid1", "")
        request.headers["Authorization"] = authorization_header(
            request, "jerry", client.account.secret_key
        )
        assert service.handle(request).status == 400
