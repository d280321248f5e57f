"""Lane-parallel ChaCha20 — the bulk-cipher fast path.

Every TPNR message carries evidence sealed to its recipient, and each
seal runs ChaCha20 over a box of a few blocks (~150–190 B).  At that
size the cost is per-operation dispatch, not arithmetic, so this kernel
computes every block of the keystream at once with a few hundred
big-integer operations.

SWAR layout (SIMD within a register): each state row ``a, b, c, d`` is
one Python int.  The word of (block ``k``, column ``i``) sits in 64-bit
lane ``4k + i`` — value in the low 32 bits, the high 32 bits are guard
bits that absorb the carry of an add and the spill of a shift and are
cleared by the lane mask after every step.  A column round is then one
quarter-round over all blocks at once; a diagonal round first rotates
the b/c/d lanes within each 256-bit block group so the diagonals line
up as columns, and rotates them back afterwards.

Between 16 and 64 KiB per call the big-integer operations outgrow the
dispatch they save, and above that a NumPy array kernel is faster
(DESIGN.md §3 records the measured trade); no benchmark workload makes
such calls.

Output is bit-identical to the reference :mod:`repro.crypto.chacha20`
(RFC 8439 vectors and randomized cross-checks in the tests).  The module
path, named for the NumPy kernel this one replaced, and both function
names are kept: :mod:`repro.crypto.aead` imports ``chacha20_xor`` from
here and the benchmark tracer binds
``repro.crypto.chacha20_np:chacha20_xor`` by name.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from ..errors import CryptoError
from .chacha20 import KEY_SIZE, NONCE_SIZE

__all__ = ["chacha20_keystream", "chacha20_xor"]

_ROUNDS = 10  # double rounds
_WORD = 0xFFFFFFFF
#: Row ``a`` of one block group: the "expand 32-byte k" constants.
_CONSTANTS = 0x61707865 | 0x3320646E << 64 | 0x79622D32 << 128 | 0x6B206574 << 192


def _group(words: bytes) -> int:
    """Four little-endian 32-bit words, each widened into a 64-bit lane."""
    w0, w1, w2, w3 = struct.unpack("<4I", words)
    return w0 | w1 << 64 | w2 << 128 | w3 << 192


def _tile(group: int, n_blocks: int) -> int:
    """One 256-bit block group repeated for *n_blocks* blocks."""
    return int.from_bytes(group.to_bytes(32, "little") * n_blocks, "little")


@lru_cache(maxsize=16)
def _masks(n_blocks: int) -> tuple[int, ...]:
    """Per-block-count constants: the block-group repeater, the counter
    ramp, the lane mask and the lane-selection masks of the diagonal
    rotation (lanes listed are positions within each block group)."""
    ramp = int.from_bytes(b"".join(k.to_bytes(32, "little") for k in range(n_blocks)), "little")
    lane0, lane1, lane2, lane3 = (_WORD << (64 * i) for i in range(4))
    return (
        _tile(1, n_blocks),
        ramp,
        _tile(lane0 | lane1 | lane2 | lane3, n_blocks),
        _tile(lane0, n_blocks),
        _tile(lane0 | lane1, n_blocks),
        _tile(lane0 | lane1 | lane2, n_blocks),
        _tile(lane1 | lane2 | lane3, n_blocks),
        _tile(lane2 | lane3, n_blocks),
        _tile(lane3, n_blocks),
    )


def _quarter_round(a: int, b: int, c: int, d: int, m: int) -> tuple[int, int, int, int]:
    """RFC 8439 quarter-round on every lane at once; *m* is the lane mask."""
    a = (a + b) & m
    d ^= a
    d = ((d << 16) | (d >> 16)) & m
    c = (c + d) & m
    b ^= c
    b = ((b << 12) | (b >> 20)) & m
    a = (a + b) & m
    d ^= a
    d = ((d << 8) | (d >> 24)) & m
    c = (c + d) & m
    b ^= c
    b = ((b << 7) | (b >> 25)) & m
    return a, b, c, d


def _keystream_rows(key: bytes, nonce: bytes, n_blocks: int, initial_counter: int):
    """The four output rows: 20 rounds over every block, plus the input state."""
    repeat, ramp, m, l0, l01, l012, l123, l23, l3 = _masks(n_blocks)
    a0 = _CONSTANTS * repeat
    b0 = _group(key[:16]) * repeat
    c0 = _group(key[16:]) * repeat
    d0 = _group(initial_counter.to_bytes(4, "little") + nonce) * repeat + ramp
    a, b, c, d = a0, b0, c0, d0
    for _ in range(_ROUNDS):
        # Column round: QR(0,4,8,12) ... QR(3,7,11,15) on every block.
        a, b, c, d = _quarter_round(a, b, c, d, m)
        # Diagonal round: lane i of b, c, d takes lane i+1, i+2, i+3 ...
        b = ((b >> 64) & l012) | ((b << 192) & l3)
        c = ((c >> 128) & l01) | ((c << 128) & l23)
        d = ((d << 64) & l123) | ((d >> 192) & l0)
        a, b, c, d = _quarter_round(a, b, c, d, m)
        # ... and gives it back.
        b = ((b << 64) & l123) | ((b >> 192) & l0)
        c = ((c >> 128) & l01) | ((c << 128) & l23)
        d = ((d >> 64) & l012) | ((d << 192) & l3)
    return ((a + a0) & m, (b + b0) & m, (c + c0) & m, (d + d0) & m)


def chacha20_keystream(key: bytes, nonce: bytes, length: int, initial_counter: int = 1) -> bytes:
    """*length* keystream bytes, all blocks computed in parallel."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"ChaCha20 key must be {KEY_SIZE} bytes, got {len(key)}")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if length <= 0:
        return b""
    n_blocks = (length + 63) // 64
    if initial_counter < 0 or initial_counter + n_blocks - 1 > 0xFFFFFFFF:
        raise CryptoError("ChaCha20 block counter out of range")
    out = bytearray(64 * n_blocks)
    # Item-wise moves of 4-byte cells copy bytes verbatim, so the
    # native byte order of the "I" view does not matter.
    words = memoryview(out).cast("I")
    for row_index, row in enumerate(_keystream_rows(key, nonce, n_blocks, initial_counter)):
        # Little-endian lane L is 8 bytes: its word is cell 2L, guard cell 2L+1.
        cells = memoryview(row.to_bytes(32 * n_blocks, "little")).cast("I")
        for column in range(4):
            words[4 * row_index + column::16] = cells[2 * column::8]
    return bytes(out[:length])


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, initial_counter: int = 1) -> bytes:
    """Encrypt/decrypt *data* with the lane-parallel keystream."""
    if not data:
        return b""
    n = len(data)
    stream = chacha20_keystream(key, nonce, n, initial_counter)
    mixed = int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    return mixed.to_bytes(n, "little")
