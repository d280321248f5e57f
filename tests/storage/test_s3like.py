"""The AWS-like platform model (paper §2.1 / Fig. 2)."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import digest
from repro.errors import AuthenticationError, IntegrityError, NoSuchObjectError, StorageError
from repro.storage.s3like import (
    ManifestFile,
    S3LikeService,
    encode_signature_file,
)
from repro.storage.shipping import StorageDevice
from repro.storage.tamper import TamperMode, apply_tamper


@pytest.fixture
def service():
    return S3LikeService(HmacDrbg(b"s3-tests"))


@pytest.fixture
def account(service):
    return service.create_account("alice")


def make_import_job(service, account, device_id="DEV-1", destination="backup"):
    manifest = ManifestFile(
        access_key_id=account.access_key_id,
        device_id=device_id,
        destination=destination,
        operation="import",
    )
    job_id = service.submit_manifest(manifest, S3LikeService.sign_manifest(manifest, account))
    return manifest, job_id


def loaded_device(service, account, manifest, job_id, files):
    device = StorageDevice(manifest.device_id, capacity_bytes=10**9)
    for name, data in files.items():
        device.write_file(name, data)
    device.attached_documents["signature-file"] = encode_signature_file(
        S3LikeService.make_signature_file(job_id, manifest, account)
    )
    return device


def export_device(service, account, capacity_bytes=10**9):
    """An export job for ``backup`` and its empty, signed device."""
    manifest = ManifestFile(account.access_key_id, "DEV-X", "backup", "export")
    job_id = service.submit_manifest(manifest, S3LikeService.sign_manifest(manifest, account))
    device = StorageDevice("DEV-X", capacity_bytes)
    device.attached_documents["signature-file"] = encode_signature_file(
        S3LikeService.make_signature_file(job_id, manifest, account)
    )
    return job_id, device


class TestManifestSubmission:
    def test_valid_manifest_creates_job(self, service, account):
        manifest, job_id = make_import_job(service, account)
        report = service.receive_device(
            job_id, loaded_device(service, account, manifest, job_id, {"f": b"x"}))
        assert report.status == "completed"

    def test_bad_signature_rejected(self, service, account):
        manifest = ManifestFile(account.access_key_id, "DEV-1", "backup", "import")
        with pytest.raises(AuthenticationError):
            service.submit_manifest(manifest, b"\x00" * 32)

    def test_unknown_access_key(self, service, account):
        manifest = ManifestFile("AKDOESNOTEXIST", "DEV-1", "backup", "import")
        with pytest.raises(AuthenticationError):
            service.submit_manifest(manifest, b"sig")

    def test_bad_operation(self, service, account):
        manifest = ManifestFile(account.access_key_id, "DEV-1", "backup", "destroy")
        with pytest.raises(Exception):
            service.submit_manifest(manifest, S3LikeService.sign_manifest(manifest, account))

    def test_job_ids_unique(self, service, account):
        _, j1 = make_import_job(service, account)
        _, j2 = make_import_job(service, account, device_id="DEV-2")
        assert j1 != j2


class TestImport:
    def test_import_loads_and_reports(self, service, account):
        manifest, job_id = make_import_job(service, account)
        files = {"a.bin": b"alpha" * 100, "b.bin": b"beta" * 50}
        report = service.receive_device(job_id, loaded_device(service, account, manifest, job_id, files))
        assert report.status == "completed"
        assert report.bytes_processed == sum(len(v) for v in files.values())
        for name, data in files.items():
            assert report.md5_of_bytes[name] == digest("md5", data)
            assert service.blobs.get("backup", name).data == data

    def test_log_contents(self, service, account):
        manifest, job_id = make_import_job(service, account)
        report = service.receive_device(
            job_id, loaded_device(service, account, manifest, job_id, {"f": b"data"})
        )
        log = service.fetch_log(report.log_location)
        assert log.lookup_md5("f") == digest("md5", b"data")
        with pytest.raises(NoSuchObjectError):
            log.lookup_md5("ghost")

    def test_missing_signature_file(self, service, account):
        manifest, job_id = make_import_job(service, account)
        device = StorageDevice("DEV-1", 10**6)
        device.write_file("f", b"x")
        with pytest.raises(AuthenticationError):
            service.receive_device(job_id, device)
        with pytest.raises(StorageError, match="takes no further device"):
            service.receive_device(
                job_id, loaded_device(service, account, manifest, job_id, {"f": b"x"}))

    def test_device_for_a_completed_job_is_refused(self, service, account):
        """A replayed signature file cannot run the job again."""
        manifest, job_id = make_import_job(service, account)
        service.receive_device(
            job_id, loaded_device(service, account, manifest, job_id, {"f": b"A" * 100}))
        replay = loaded_device(service, account, manifest, job_id, {"f": b"B" * 100})
        with pytest.raises(StorageError, match="takes no further device"):
            service.receive_device(job_id, replay)
        assert service.blobs.get("backup", "f").data == b"A" * 100

    def test_device_for_a_failed_job_is_refused(self, service, account):
        manifest, job_id = make_import_job(service, account)
        wrong = loaded_device(service, account, manifest, job_id, {"f": b"x"})
        wrong.device_id = "DEV-OTHER"
        with pytest.raises(AuthenticationError):
            service.receive_device(job_id, wrong)
        with pytest.raises(StorageError, match="takes no further device"):
            service.receive_device(
                job_id, loaded_device(service, account, manifest, job_id, {"f": b"x"}))
        assert service.blobs.list_keys("backup") == []

    def test_wrong_job_signature(self, service, account):
        manifest1, job1 = make_import_job(service, account)
        manifest2, job2 = make_import_job(service, account, device_id="DEV-2")
        # Device carries job2's signature file but arrives for job1.
        device = loaded_device(service, account, manifest2, job2, {"f": b"x"})
        with pytest.raises(AuthenticationError):
            service.receive_device(job1, device)

    def test_wrong_device_id(self, service, account):
        manifest, job_id = make_import_job(service, account, device_id="DEV-1")
        device = loaded_device(service, account, manifest, job_id, {"f": b"x"})
        device.device_id = "DEV-OTHER"
        with pytest.raises(AuthenticationError):
            service.receive_device(job_id, device)

    def test_unknown_job(self, service, account):
        with pytest.raises(NoSuchObjectError):
            service.receive_device("JOB-999999", StorageDevice("D", 10))

    def test_malformed_signature_file(self, service, account):
        manifest, job_id = make_import_job(service, account)
        device = StorageDevice("DEV-1", 10**6)
        device.attached_documents["signature-file"] = b"not|valid"
        with pytest.raises(AuthenticationError):
            service.receive_device(job_id, device)
        # The garbled file fails the job like a wrongly signed one does.
        with pytest.raises(StorageError, match="takes no further device"):
            service.receive_device(
                job_id, loaded_device(service, account, manifest, job_id, {"f": b"x"}))


class TestExport:
    def test_export_round_trip(self, service, account):
        # Import first.
        manifest, job_id = make_import_job(service, account)
        original = {"doc": b"exported content " * 20}
        service.receive_device(job_id, loaded_device(service, account, manifest, job_id, original))
        # Now export onto a fresh device.
        export_job, device = export_device(service, account)
        report = service.receive_device(export_job, device)
        assert device.files["doc"] == original["doc"]
        assert report.md5_of_bytes["doc"] == digest("md5", original["doc"])

    def test_export_md5_is_recomputed(self, service, account):
        """The §2.4 AWS behaviour: tampering is laundered at export.

        After REPLACE the export writes the tampered bytes to the device
        and reports a recomputed MD5_2 of them, not the upload's MD5_1.
        """
        original = b"honest data " * 10
        manifest, job_id = make_import_job(service, account)
        service.receive_device(
            job_id, loaded_device(service, account, manifest, job_id, {"doc": original}))
        tampered = apply_tamper(service.blobs, "backup", "doc", TamperMode.REPLACE,
                                HmacDrbg(b"tamper")).data
        export_job, device = export_device(service, account)
        report = service.receive_device(export_job, device)
        assert device.files["doc"] == tampered != original
        # The report's and the log's MD5 match the *tampered* bytes: no detection.
        md5_2 = digest("md5", tampered)
        assert report.md5_of_bytes["doc"] == md5_2
        assert service.fetch_log(report.log_location).lookup_md5("doc") == md5_2

    def test_run_that_raises_leaves_the_job_failed(self, service, account):
        manifest, job_id = make_import_job(service, account)
        service.receive_device(
            job_id, loaded_device(service, account, manifest, job_id, {"doc": b"x" * 100}))
        export_job, device = export_device(service, account, capacity_bytes=10)
        with pytest.raises(StorageError, match="full"):
            service.receive_device(export_job, device)
        with pytest.raises(StorageError, match="takes no further device"):
            service.receive_device(export_job, device)


class TestDirectApi:
    def test_put_get(self, service, account):
        etag = service.put_object(account, "bucket", "key", b"direct data")
        assert etag == digest("md5", b"direct data")
        data, md5 = service.get_object(account, "bucket", "key")
        assert data == b"direct data" and md5 == etag

    def test_put_with_bad_md5(self, service, account):
        with pytest.raises(IntegrityError):
            service.put_object(account, "b", "k", b"data", content_md5=b"\x00" * 16)

    def test_get_recomputes_md5(self, service, account):
        service.put_object(account, "b", "k", b"honest")
        service.blobs.overwrite_raw("b", "k", data=b"evil!!")
        data, md5 = service.get_object(account, "b", "k")
        assert md5 == digest("md5", b"evil!!")  # matches tampered data


class TestDevice:
    def test_capacity_enforced(self):
        device = StorageDevice("D", capacity_bytes=10)
        device.write_file("a", b"12345")
        with pytest.raises(Exception):
            device.write_file("b", b"123456")

    def test_overwrite_reuses_space(self):
        device = StorageDevice("D", capacity_bytes=10)
        device.write_file("a", b"1234567890")
        device.write_file("a", b"abc")  # replacing frees the old bytes
        assert device.used_bytes() == 3

    def test_wipe(self):
        device = StorageDevice("D", capacity_bytes=10)
        device.write_file("a", b"123")
        device.wipe()
        assert device.files == {}
