"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.crypto import CertificateAuthority, HmacDrbg, Identity, KeyRegistry
from repro.crypto.rsa import generate_keypair


@pytest.fixture
def rng() -> HmacDrbg:
    """A fresh deterministic generator per test."""
    return HmacDrbg(b"test-suite-seed")


@pytest.fixture(scope="session")
def session_rng() -> HmacDrbg:
    """Session-wide generator for expensive shared material."""
    return HmacDrbg(b"test-suite-session")


@pytest.fixture(scope="session")
def rsa_key(session_rng):
    """One 512-bit RSA key shared across the session (keygen is slow)."""
    return generate_keypair(512, session_rng.fork("shared-rsa"))


@pytest.fixture(scope="session")
def pki(session_rng):
    """A CA + registry with 'alice', 'bob', and 'ttp' enrolled."""
    ca = CertificateAuthority("test-ca", session_rng.fork("ca"))
    registry = KeyRegistry(ca)
    identities = {
        name: Identity.generate(name, session_rng.fork(f"pki/{name}"))
        for name in ("alice", "bob", "ttp")
    }
    for identity in identities.values():
        registry.enroll(identity)
    return ca, registry, identities


@pytest.fixture(scope="session")
def scenario_result():
    """The rep-0 result of a registered scenario, run once per session.

    The contract tests and the determinism tests read the same runs, so
    each registered experiment executes once however many tests look
    at it; the results are shared, so tests must not mutate them.
    """
    from functools import cache

    from repro.scenarios import SCENARIOS

    return cache(lambda scenario_id: SCENARIOS.get(scenario_id).run())
