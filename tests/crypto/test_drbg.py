"""Determinism and distribution sanity for the HMAC-DRBG."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.errors import CryptoError


class ReferenceHmacDrbg:
    """SP 800-90A HMAC_DRBG with SHA-256 and no reseed, over the stdlib HMAC.

    The package's own HMAC is what is under test, so the reference runs
    on the one it does not use.

    Instantiate's seed material is ``seed || personalization``; the
    generate step takes no additional input.
    """

    def __init__(self, seed_material: bytes) -> None:
        self.key = b"\x00" * 32
        self.v = b"\x01" * 32
        self.update(seed_material)

    def hmac(self, data: bytes) -> bytes:
        return hmac.digest(self.key, data, "sha256")

    def update(self, provided: bytes) -> None:
        self.key = self.hmac(self.v + b"\x00" + provided)
        self.v = self.hmac(self.v)
        if provided:
            self.key = self.hmac(self.v + b"\x01" + provided)
            self.v = self.hmac(self.v)

    def generate(self, n_bytes: int) -> bytes:
        temp = b""
        while len(temp) < n_bytes:
            self.v = self.hmac(self.v)
            temp += self.v
        self.update(b"")
        return temp[:n_bytes]

    def fork(self, label: bytes) -> "ReferenceHmacDrbg":
        return ReferenceHmacDrbg(self.generate(32) + label)


def seed_bytes(seed: bytes | str | int) -> bytes:
    """The byte encoding ``HmacDrbg`` documents for each seed type."""
    if isinstance(seed, str):
        return seed.encode()
    if isinstance(seed, int):
        return seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
    return seed


REQUEST_SIZES = (0, 1, 16, 31, 32, 33, 64, 1000)
#: An int step draws that many bytes; a (label, switch) step forks, and
#: continues on the child when *switch* is set.
STEPS = st.lists(
    st.one_of(
        st.sampled_from(REQUEST_SIZES),
        st.tuples(st.binary(min_size=1, max_size=8), st.booleans()),
    ),
    min_size=1,
    max_size=6,
)


class TestAgainstReference:
    @given(
        seed=st.one_of(
            st.binary(max_size=40),
            st.text(max_size=12),
            st.integers(min_value=0, max_value=2**200),
        ),
        personalization=st.one_of(st.none(), st.binary(min_size=1, max_size=16)),
        steps=STEPS,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sp800_90a_reference(self, seed, personalization, steps):
        if personalization is None:
            drbg = HmacDrbg(seed)
            ref = ReferenceHmacDrbg(seed_bytes(seed))
        else:
            drbg = HmacDrbg(seed, personalization=personalization)
            ref = ReferenceHmacDrbg(seed_bytes(seed) + personalization)
        for step in steps:
            if isinstance(step, int):
                assert drbg.generate(step) == ref.generate(step)
                continue
            label, switch = step
            child, ref_child = drbg.fork(label), ref.fork(label)
            assert child.generate(16) == ref_child.generate(16)
            if switch:
                drbg, ref = child, ref_child
        assert drbg.generate(32) == ref.generate(32)

    def test_fixed_draw_sequence_is_pinned(self):
        """Any change to the output bytes fails here, not only downstream."""
        g = HmacDrbg(b"pinned-seed", personalization=b"pinned")
        parts = [g.generate(n) for n in REQUEST_SIZES]
        parts.append(g.fork("child").generate(48))
        parts.append(g.generate(16))
        parts.append(HmacDrbg(2**64 + 1).generate(32))
        parts.append(HmacDrbg("text-seed").generate(17))
        parts.append(HmacDrbg(0).generate(5))
        parts.append(HmacDrbg(b"").generate(40))
        assert hashlib.sha256(b"".join(parts)).hexdigest() == (
            "f24a05e87ff350e4c98168868a2f071d53135b3d6cb65628425098c0cfe43162"
        )


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = HmacDrbg(b"seed"), HmacDrbg(b"seed")
        assert a.generate(100) == b.generate(100)

    def test_different_seeds_differ(self):
        assert HmacDrbg(b"seed-1").generate(32) != HmacDrbg(b"seed-2").generate(32)

    def test_personalization_differs(self):
        assert (
            HmacDrbg(b"s", personalization=b"a").generate(32)
            != HmacDrbg(b"s", personalization=b"b").generate(32)
        )

    def test_seed_types(self):
        """str / int / bytes seeds all work and are distinct."""
        streams = {
            HmacDrbg(b"42").generate(16),
            HmacDrbg("42").generate(16),
            HmacDrbg(42).generate(16),
        }
        # bytes b"42" and str "42" encode identically; int 42 differs.
        assert len(streams) == 2

    def test_chunking_invariance_of_length(self):
        g = HmacDrbg(b"chunks")
        assert len(g.generate(1)) == 1
        assert len(g.generate(31)) == 31
        assert len(g.generate(33)) == 33
        assert g.generate(0) == b""

    def test_negative_rejected(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"x").generate(-1)

    @pytest.mark.parametrize("seed", [-1, -5, -(2**70)])
    def test_negative_int_seed_rejected(self, seed):
        with pytest.raises(CryptoError):
            HmacDrbg(seed)


class TestFork:
    def test_forks_are_independent(self):
        parent = HmacDrbg(b"parent")
        a = parent.fork("a")
        b = parent.fork("b")
        assert a.generate(32) != b.generate(32)

    def test_fork_same_label_after_same_history(self):
        p1, p2 = HmacDrbg(b"p"), HmacDrbg(b"p")
        assert p1.fork("x").generate(16) == p2.fork("x").generate(16)

    def test_fork_advances_parent(self):
        p1, p2 = HmacDrbg(b"p"), HmacDrbg(b"p")
        p1.fork("x")
        assert p1.generate(16) != p2.generate(16)


class TestDraws:
    @given(st.integers(min_value=1, max_value=256))
    @settings(max_examples=30)
    def test_randbits_range(self, bits):
        value = HmacDrbg(b"bits").randbits(bits)
        assert 0 <= value < (1 << bits)

    def test_randbits_zero_rejected(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"x").randbits(0)

    @given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_randint_inclusive_bounds(self, low, span):
        high = low + span
        value = HmacDrbg(b"int").randint(low, high)
        assert low <= value <= high

    def test_randint_degenerate(self):
        assert HmacDrbg(b"x").randint(7, 7) == 7

    def test_randint_empty_range(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"x").randint(5, 4)

    def test_randint_covers_range(self):
        g = HmacDrbg(b"coverage")
        seen = {g.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_random_unit_interval(self):
        g = HmacDrbg(b"float")
        values = [g.random() for _ in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7  # roughly centred

    def test_choice(self):
        g = HmacDrbg(b"choice")
        items = ["a", "b", "c"]
        assert all(g.choice(items) in items for _ in range(20))

    def test_choice_empty(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"x").choice([])

