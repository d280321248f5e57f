"""PT-002 seed derivation: root continuity, derived streams, matching."""

import pytest

from repro.errors import ReproError
from repro.scenarios.seeds import SEED_SCHEME, derive_seed, repetition_seed


def test_repetition_zero_is_the_root_seed():
    # Artifact continuity: the canonical run uses the root itself, so
    # every pre-registry result regenerated from "exp/..." seeds stays
    # byte-identical under the registry.
    assert repetition_seed("exp/fc1", 0) == b"exp/fc1"
    assert repetition_seed(b"exp/fc1", 0) == b"exp/fc1"


def test_higher_repetitions_derive_distinct_streams():
    seeds = [repetition_seed("exp/fc1", r) for r in range(5)]
    assert len(set(seeds)) == 5
    for derived in seeds[1:]:
        assert derived != b"exp/fc1"
        # Lowercase-hex digest as ASCII bytes: printable and DRBG-ready.
        assert len(derived) == 64
        assert set(derived) <= set(b"0123456789abcdef")


def test_derivation_is_deterministic_and_str_bytes_agnostic():
    assert repetition_seed("exp/tp1", 3) == repetition_seed(b"exp/tp1", 3)
    assert derive_seed("exp/tp1", "x") == derive_seed(b"exp/tp1", "x")


def test_distinct_roots_distinct_streams():
    assert derive_seed("exp/a", "rep/1") != derive_seed("exp/b", "rep/1")
    assert derive_seed("exp/a", "x") != derive_seed("exp/a", "y")


def test_invalid_derivations_raise():
    with pytest.raises(ReproError):
        derive_seed("root", "")
    with pytest.raises(ReproError):
        repetition_seed("root", -1)


def test_scheme_tag_is_versioned():
    assert SEED_SCHEME == "pt002-hmac-sha256/v2"
