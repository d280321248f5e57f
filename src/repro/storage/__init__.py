"""Cloud-storage substrate: the three platform models of paper §2.

* :mod:`repro.storage.azurelike` — SharedKey HMAC REST blobs (Table 1,
  Fig. 3); stored-MD5-returned-on-GET semantics.  Tables and queues
  are not modelled: they carry no mechanism the paper analyses.
* :mod:`repro.storage.s3like` — object API + Import/Export jobs with
  manifest/signature files and device shipping (Fig. 2);
  recomputed-MD5 semantics.
* :mod:`repro.storage.gaelike` — Secure Data Connector pipeline:
  tunnel validation, resource rules, signed requests (Fig. 4).

Plus the shared machinery: the blob store, accounts, the REST model,
surface-mail shipping, and the tampering behaviours of Fig. 5.
"""

from . import account, azurelike, blobstore, gaelike, rest, s3like, shipping, tamper
from .account import Account, AccountDirectory
from .azurelike import MAX_BLOB_SIZE, AzureLikeClient, AzureLikeService
from .blobstore import BlobStore, ObjectStat, StoredObject
from .gaelike import (
    GaeLikeService,
    ResourceRule,
    SdcAgent,
    SignedRequest,
    TunnelServer,
    make_signed_request,
)
from .rest import (
    RestRequest,
    RestResponse,
    authorization_header,
    format_request,
    shared_key_signature,
    string_to_sign,
)
from .s3like import (
    ImportExportLog,
    JobReport,
    ManifestFile,
    S3LikeService,
    SignatureFile,
    encode_signature_file,
)
from .shipping import (
    DAY_SECONDS,
    EXPRESS,
    GROUND,
    OVERNIGHT,
    CarrierSpec,
    ShippingCarrier,
    StorageDevice,
)
from .tamper import TamperMode, apply_tamper

__all__ = [
    "account",
    "azurelike",
    "blobstore",
    "gaelike",
    "rest",
    "s3like",
    "shipping",
    "tamper",
    "Account",
    "AccountDirectory",
    "MAX_BLOB_SIZE",
    "AzureLikeClient",
    "AzureLikeService",
    "BlobStore",
    "ObjectStat",
    "StoredObject",
    "GaeLikeService",
    "ResourceRule",
    "SdcAgent",
    "SignedRequest",
    "TunnelServer",
    "make_signed_request",
    "RestRequest",
    "RestResponse",
    "authorization_header",
    "format_request",
    "shared_key_signature",
    "string_to_sign",
    "ImportExportLog",
    "JobReport",
    "ManifestFile",
    "S3LikeService",
    "SignatureFile",
    "encode_signature_file",
    "DAY_SECONDS",
    "EXPRESS",
    "GROUND",
    "OVERNIGHT",
    "CarrierSpec",
    "ShippingCarrier",
    "StorageDevice",
    "TamperMode",
    "apply_tamper",
]
