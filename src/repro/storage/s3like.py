"""AWS-style storage: S3-ish object API + Import/Export jobs (Fig. 2).

Reproduces the data-processing approach of paper §2.1:

* The user stores job parameters (AccessKeyID, DeviceID, Destination,
  ...) in a **manifest file**, signs it, and e-mails it to the
  provider.
* A **signature file** — naming the MAC algorithm and binding the job
  ID to the manifest digest — travels attached to the shipped device
  and lets the provider "uniquely identify and authenticate the user
  request".
* On receiving device + signature file the provider validates both,
  copies the data into the store, and e-mails back a status report:
  bytes saved, **the MD5 of the bytes** (recomputed from what it
  received!), load status, and the location of the AWS-Import/Export-
  style log listing key names, byte counts and MD5 checksums.
* Export (download) mirrors the flow; the returned MD5s are again
  **recomputed** from whatever is in storage — the "MD5_2" behaviour
  of §2.4, which silently launders in-storage tampering.

The direct (Internet) object API recomputes digests on GET as well,
matching that platform behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import digest
from ..crypto.hmac_ import constant_time_equals, hmac_digest
from ..errors import AuthenticationError, IntegrityError, NoSuchObjectError, StorageError
from .account import Account, AccountDirectory
from .blobstore import BlobStore, ObjectStat
from .shipping import StorageDevice

__all__ = [
    "ManifestFile",
    "SignatureFile",
    "ImportExportLog",
    "JobReport",
    "S3LikeService",
]

_SIGFILE_ALGORITHM = "HMAC-SHA256"


@dataclass(frozen=True)
class ManifestFile:
    """Import/export job parameters, as §2.1 lists them."""

    access_key_id: str
    device_id: str
    destination: str  # target bucket
    operation: str  # "import" | "export"
    return_address: str = "customer-dock"

    def to_bytes(self) -> bytes:
        return "|".join(
            [
                "manifest-v1",
                self.access_key_id,
                self.device_id,
                self.destination,
                self.operation,
                self.return_address,
            ]
        ).encode()

    def wire_size(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True)
class SignatureFile:
    """Names the MAC algorithm and binds job ID to the manifest digest."""

    algorithm: str
    job_id: str
    signature: bytes  # MAC over job_id || manifest digest

    def wire_size(self) -> int:
        return len(self.algorithm) + len(self.job_id) + len(self.signature)


@dataclass(frozen=True)
class ImportExportLog:
    """The per-file log AWS leaves in the bucket after a job."""

    job_id: str
    entries: tuple[tuple[str, int, bytes], ...]  # (key name, bytes, md5)

    def lookup_md5(self, key: str) -> bytes:
        for name, _size, md5 in self.entries:
            if name == key:
                return md5
        raise NoSuchObjectError(f"no log entry for {key!r}")


@dataclass(frozen=True)
class JobReport:
    """The e-mailed status: bytes saved, MD5s, status, log location."""

    job_id: str
    status: str
    bytes_processed: int
    md5_of_bytes: dict[str, bytes]
    log_location: str


@dataclass
class _Job:
    job_id: str
    manifest: ManifestFile
    account: Account
    state: str = "created"  # created -> validated -> completed / failed
    report: JobReport | None = None


class S3LikeService:
    """Provider side of the AWS-style flows."""

    def __init__(self, rng: HmacDrbg, name: str = "aws-like") -> None:
        self.name = name
        self.accounts = AccountDirectory(rng)
        self.blobs = BlobStore(f"{name}/objects")
        self._jobs: dict[str, _Job] = {}
        self._logs: dict[str, ImportExportLog] = {}
        self._job_counter = 0

    # -- accounts -----------------------------------------------------------

    def create_account(self, name: str) -> Account:
        return self.accounts.create(name)

    # -- user-side helpers ---------------------------------------------------

    @staticmethod
    def sign_manifest(manifest: ManifestFile, account: Account) -> bytes:
        """The user's signature over the manifest (keyed MAC)."""
        return hmac_digest(account.secret_key, b"manifest|" + manifest.to_bytes())

    @staticmethod
    def make_signature_file(job_id: str, manifest: ManifestFile, account: Account) -> SignatureFile:
        """Build the signature file shipped with the device."""
        payload = job_id.encode() + b"|" + digest("sha256", manifest.to_bytes())
        return SignatureFile(
            algorithm=_SIGFILE_ALGORITHM,
            job_id=job_id,
            signature=hmac_digest(account.secret_key, b"sigfile|" + payload),
        )

    # -- e-mail channel: job creation ---------------------------------------

    def submit_manifest(self, manifest: ManifestFile, manifest_signature: bytes) -> str:
        """Receive the e-mailed signed manifest; create a job.

        Returns the job ID the user needs for the signature file.
        """
        account = self.accounts.by_access_key(manifest.access_key_id)
        expected = self.sign_manifest(manifest, account)
        if not constant_time_equals(expected, manifest_signature):
            raise AuthenticationError("manifest signature invalid")
        if manifest.operation not in ("import", "export"):
            raise StorageError(f"unknown operation {manifest.operation!r}")
        self._job_counter += 1
        job_id = f"JOB-{self._job_counter:06d}"
        self._jobs[job_id] = _Job(job_id=job_id, manifest=manifest, account=account)
        return job_id

    # -- dock: device arrival ----------------------------------------------------

    def receive_device(self, job_id: str, device: StorageDevice) -> JobReport:
        """Validate the attached signature file, run the job, build the
        report that is e-mailed back with the returned device.

        A job takes one device: once it has completed or failed, a
        device that arrives for it again is refused.
        """
        job = self._jobs.get(job_id)
        if job is None:
            raise NoSuchObjectError(f"unknown job {job_id!r}")
        if job.state != "created":
            raise StorageError(f"job {job_id} is {job.state}: it takes no further device")
        raw = device.attached_documents.get("signature-file")
        if raw is None:
            job.state = "failed"
            raise AuthenticationError("device arrived without a signature file")
        sigfile = _decode_signature_file(raw)
        expected = self.make_signature_file(job_id, job.manifest, job.account)
        if sigfile.algorithm != expected.algorithm or not constant_time_equals(
            sigfile.signature, expected.signature
        ):
            job.state = "failed"
            raise AuthenticationError("signature file validation failed")
        if device.device_id != job.manifest.device_id:
            job.state = "failed"
            raise AuthenticationError("device ID does not match manifest")
        job.state = "validated"
        run = self._run_import if job.manifest.operation == "import" else self._run_export
        try:
            report = run(job, device)
        except StorageError:
            job.state = "failed"
            raise
        job.state = "completed"
        job.report = report
        return report

    def _run_import(self, job: _Job, device: StorageDevice) -> JobReport:
        bucket = job.manifest.destination
        md5s: dict[str, bytes] = {}
        entries = []
        total = 0
        for key, data in sorted(device.files.items()):
            md5 = digest("md5", data)  # recomputed from received bytes
            self.blobs.put(bucket, key, data, md5)
            md5s[key] = md5
            entries.append((key, len(data), md5))
            total += len(data)
        log = ImportExportLog(job_id=job.job_id, entries=tuple(entries))
        log_location = f"{bucket}/.import-export-log/{job.job_id}"
        self._logs[log_location] = log
        return JobReport(
            job_id=job.job_id,
            status="completed",
            bytes_processed=total,
            md5_of_bytes=md5s,
            log_location=log_location,
        )

    def _run_export(self, job: _Job, device: StorageDevice) -> JobReport:
        bucket = job.manifest.destination
        md5s: dict[str, bytes] = {}
        entries = []
        total = 0
        device.wipe()
        for key in self.blobs.list_keys(bucket):
            obj = self.blobs.get(bucket, key)
            device.write_file(key, obj.data)
            md5 = obj.actual_md5()  # "a recomputed MD5_2 is sent" (§2.4)
            md5s[key] = md5
            entries.append((key, obj.size, md5))
            total += obj.size
        log = ImportExportLog(job_id=job.job_id, entries=tuple(entries))
        log_location = f"{bucket}/.import-export-log/{job.job_id}"
        self._logs[log_location] = log
        return JobReport(
            job_id=job.job_id,
            status="completed",
            bytes_processed=total,
            md5_of_bytes=md5s,
            log_location=log_location,
        )

    def fetch_log(self, log_location: str) -> ImportExportLog:
        try:
            return self._logs[log_location]
        except KeyError as exc:
            raise NoSuchObjectError(f"no log at {log_location!r}") from exc

    def job_state(self, job_id: str) -> str:
        job = self._jobs.get(job_id)
        if job is None:
            raise NoSuchObjectError(f"unknown job {job_id!r}")
        return job.state

    # -- direct Internet object API (for <=50 GB transfers) -----------------------

    def put_object(self, account: Account, bucket: str, key: str, data: bytes,
                   content_md5: bytes | None = None, at_time: float = 0.0) -> bytes:
        """Direct upload; verifies the optional client MD5, returns ETag."""
        self.accounts.by_name(account.name)  # existence check
        if content_md5 is not None and content_md5 != digest("md5", data):
            raise IntegrityError("Content-MD5 mismatch")
        obj = self.blobs.put(bucket, key, data, at_time=at_time)
        return obj.content_md5

    def get_object(self, account: Account, bucket: str, key: str) -> tuple[bytes, bytes]:
        """Direct download: returns (data, md5 **recomputed** from
        whatever is currently stored) — the AWS-side behaviour."""
        self.accounts.by_name(account.name)
        obj = self.blobs.get(bucket, key)
        return obj.data, obj.actual_md5()

    # -- parity surface (uniform across the three platform models) ----------

    def stat(self, container: str, key: str) -> ObjectStat:
        """Uniform object metadata; ``backend`` is the service name."""
        return self.blobs.stat(container, key, backend=self.name)

    def content_digest(self, container: str, key: str) -> str:
        """SHA-256 hex of the currently stored bytes."""
        return self.blobs.content_digest(container, key)


def _decode_signature_file(raw: bytes) -> SignatureFile:
    """Parse the on-device encoding written by encode_signature_file."""
    try:
        algorithm, job_id, sig_hex = raw.decode().split("|", 2)
        return SignatureFile(algorithm=algorithm, job_id=job_id, signature=bytes.fromhex(sig_hex))
    except (ValueError, UnicodeDecodeError) as exc:
        raise AuthenticationError("malformed signature file") from exc


def encode_signature_file(sigfile: SignatureFile) -> bytes:
    """Serialize a signature file for taping onto a device."""
    return f"{sigfile.algorithm}|{sigfile.job_id}|{sigfile.signature.hex()}".encode()
