"""REST request model and SharedKey canonicalization."""

import pytest

from repro.crypto.hmac_ import hmac_digest
from repro.errors import StorageError
from repro.storage.rest import (
    RestRequest,
    RestResponse,
    authorization_header,
    format_request,
    shared_key_signature,
    string_to_sign,
)


def sample_request(body=b"block data"):
    return RestRequest(
        method="PUT",
        path="/jerry/movie/block?comp=block&blockid=blockid1&timeout=30",
        headers={
            "Content-Length": str(len(body)),
            "Content-MD5": "FJXZLUNMuI/KZ5KDcJPcOA==",
            "x-ms-date": "Sun, 13 Sept 2009 20:30:25 GMT",
            "x-ms-version": "2009-09-19",
        },
        body=body,
    )


class TestRestRequest:
    def test_unsupported_method(self):
        with pytest.raises(StorageError):
            RestRequest(method="PATCH", path="/x")

    def test_resource_strips_query(self):
        assert sample_request().resource == "/jerry/movie/block"

    def test_header_case_insensitive(self):
        request = sample_request()
        assert request.header("content-md5") == "FJXZLUNMuI/KZ5KDcJPcOA=="
        assert request.header("CONTENT-LENGTH") == "10"
        assert request.header("missing", "default") == "default"


class TestRestResponse:
    def test_ok_range(self):
        assert RestResponse(status=200).ok
        assert RestResponse(status=299).ok
        assert not RestResponse(status=404).ok

    def test_header_lookup(self):
        response = RestResponse(status=200, headers={"Content-MD5": "abc"})
        assert response.header("content-md5") == "abc"


class TestStringToSign:
    def test_structure(self):
        sts = string_to_sign(sample_request(), "jerry").decode()
        lines = sts.split("\n")
        assert lines[0] == "PUT"
        assert lines[1] == "FJXZLUNMuI/KZ5KDcJPcOA=="  # Content-MD5
        assert lines[2] == "10"  # Content-Length
        assert lines[-1] == "/jerry/jerry/movie/block"

    def test_method_bound(self):
        put = sample_request()
        get = RestRequest(method="GET", path=put.path, headers=dict(put.headers))
        assert string_to_sign(put, "jerry") != string_to_sign(get, "jerry")

    def test_query_string_not_signed(self):
        """Only the resource path enters the canonical string."""
        r1 = sample_request()
        r2 = RestRequest(method="PUT", path="/jerry/movie/block?timeout=99",
                         headers=dict(r1.headers), body=r1.body)
        assert string_to_sign(r1, "jerry") == string_to_sign(r2, "jerry")


class TestSignature:
    def test_signature_is_base64_hmac(self):
        key = b"k" * 32
        request = sample_request()
        import base64

        expected = base64.b64encode(
            hmac_digest(key, string_to_sign(request, "jerry"))
        ).decode()
        assert shared_key_signature(request, "jerry", key) == expected

    def test_authorization_header_format(self):
        header = authorization_header(sample_request(), "jerry", b"k" * 32)
        assert header.startswith("SharedKey jerry:")

    def test_key_changes_signature(self):
        request = sample_request()
        assert shared_key_signature(request, "jerry", b"a" * 32) != shared_key_signature(
            request, "jerry", b"b" * 32
        )


class TestFormat:
    def test_table1_shape(self):
        """The rendered request has the Table 1 layout."""
        text = format_request(sample_request(), host="jerry.blob.core.example.net")
        lines = text.split("\n")
        assert lines[0].startswith("PUT http://jerry.blob.core.example.net/jerry/movie/block")
        assert lines[0].endswith("HTTP/1.1")
        assert any(line.startswith("Content-MD5: ") for line in lines)
        assert any(line.startswith("x-ms-date: ") for line in lines)
