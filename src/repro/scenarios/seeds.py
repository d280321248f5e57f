"""Seed derivation for scenario runs (Proteus PT-002 style).

One scenario owns one *root seed*; every repetition ``r`` of it draws
its seed deterministically from that root through a versioned HMAC
derivation.  The rules:

* **Repetition 0 is the canonical run and uses the root seed itself.**
  This keeps every pre-registry artifact (``results/FC1.txt`` and
  friends, all regenerated from ``exp/...`` seeds) byte-identical under
  the registry.
* **Repetitions ``r >= 1`` derive** ``HMAC(root, "rep/<r>")`` —
  independent streams for replication sweeps, recoverable from the
  root alone.

Derived seeds are the lowercase-hex digest *as ASCII bytes*: printable
in JSON result files, byte-exact as a DRBG seed, and recomputable from
the registered root.
"""

from __future__ import annotations

from ..crypto.hmac_ import hmac_digest
from ..errors import ReproError

__all__ = [
    "SEED_SCHEME",
    "derive_seed",
    "repetition_seed",
]

#: Version tag of the derivation scheme; hashed into every run_key so a
#: change to the derivation can never collide with an old key.  v2:
#: channel dice come from per-link streams, so the same seed draws
#: different channel outcomes (the derivation itself is unchanged).
SEED_SCHEME = "pt002-hmac-sha256/v2"

_DOMAIN = b"repro.scenarios.seed/v1|"


def _as_bytes(seed: bytes | str) -> bytes:
    return seed.encode() if isinstance(seed, str) else bytes(seed)


def derive_seed(root: bytes | str, label: str) -> bytes:
    """Derive the named stream seed: hex(HMAC(root, domain|label)) as ASCII."""
    if not label:
        raise ReproError("seed derivation needs a non-empty label")
    return hmac_digest(_as_bytes(root), _DOMAIN + label.encode()).hex().encode()


def repetition_seed(root: bytes | str, repetition: int = 0) -> bytes:
    """Seed for repetition *repetition* of a scenario."""
    if repetition < 0:
        raise ReproError(f"repetition index must be >= 0, got {repetition}")
    if repetition == 0:
        return _as_bytes(root)
    return derive_seed(root, f"rep/{repetition}")
