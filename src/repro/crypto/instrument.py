"""Observer seat for the crypto hot paths.

A deliberately tiny leaf module (no repro imports) so ``rsa`` and
``aead`` can consult it without any risk of import cycles.  The
observability layer (:mod:`repro.obs.instrument`) installs an object
exposing ``crypto_call(op: str)`` here, which the hot paths call once
per operation: calls are counted, never timed.  When
``observer`` is ``None`` — the default — the hot paths pay exactly one
attribute load and one ``is None`` test per call.
"""

from __future__ import annotations

observer = None

#: The hashing seat: :func:`repro.crypto.hashes.digest` calls its
#: ``hashed(nbytes)`` with each input's size when it is not ``None``
#: (RP2 counts the bytes each party hashes through it).
hash_observer = None


def set_observer(obs) -> None:
    """Install (or, with ``None``, remove) the process-wide observer."""
    global observer
    observer = obs
