"""Merkle accumulator with domain-separated hashing (PoR-style).

The batched-evidence layer (:mod:`repro.crypto.batch`) follows the
Proofs-of-Retrievability aggregation idiom: instead of one RSA
signature per evidence item, the signer accumulates the items' digests
into a Merkle tree and signs the **root** once; each item then carries
a logarithmic *inclusion proof* that ties it to the signed root.

Two hash domains keep the tree second-preimage safe:

* a **leaf** hashes as ``H(leaf-domain || payload)``;
* an **interior node** hashes as ``H(node-domain || left || right)``;

so no interior node can be reinterpreted as a leaf (or vice versa) and
a proof for one payload can never verify another.  An odd node at any
level is *promoted* unpaired to the next level — never duplicated —
which removes the classic ambiguity where ``[a, b]`` and ``[a, b, b]``
share a root.

Proofs are sequences of ``(side, sibling)`` steps, ``side`` saying
whether the sibling sits left (``"L"``) or right (``"R"``) of the
running node; verification needs only the root, the leaf payload, and
the proof.
"""

from __future__ import annotations

from ..errors import CryptoError
from . import instrument as _instrument
from .hashes import digest

__all__ = ["MerkleTree", "verify_inclusion"]

_LEAF_DOMAIN = b"repro-merkle-leaf/v1|"
_NODE_DOMAIN = b"repro-merkle-node/v1|"


def _leaf_node(payload: bytes) -> bytes:
    return digest("sha256", _LEAF_DOMAIN + payload)


def _interior_node(left: bytes, right: bytes) -> bytes:
    return digest("sha256", _NODE_DOMAIN + left + right)


class MerkleTree:
    """An immutable Merkle tree over a fixed list of leaf payloads."""

    def __init__(self, leaves: list[bytes] | tuple[bytes, ...]) -> None:
        if not leaves:
            raise CryptoError("a Merkle tree needs at least one leaf")
        self._leaves = [bytes(leaf) for leaf in leaves]
        levels = [[_leaf_node(leaf) for leaf in self._leaves]]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            nxt = [
                _interior_node(prev[i], prev[i + 1])
                for i in range(0, len(prev) - 1, 2)
            ]
            if len(prev) % 2:
                nxt.append(prev[-1])  # promote, never duplicate
            levels.append(nxt)
        self._levels = levels
        observer = _instrument.observer
        if observer is not None:
            observer.crypto_call("merkle.build")

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def leaf(self, index: int) -> bytes:
        return self._leaves[index]

    def prove(self, index: int) -> tuple[tuple[str, bytes], ...]:
        """The inclusion proof for the leaf at *index*.

        Levels where the running node was promoted unpaired contribute
        no step, so proof length is ``<= ceil(log2(n))``.
        """
        if not 0 <= index < len(self._leaves):
            raise CryptoError(
                f"leaf index {index} out of range for {len(self._leaves)} leaves")
        path: list[tuple[str, bytes]] = []
        i = index
        for level in self._levels[:-1]:
            sibling = i ^ 1
            if sibling < len(level):
                side = "L" if sibling < i else "R"
                path.append((side, level[sibling]))
            i //= 2
        observer = _instrument.observer
        if observer is not None:
            observer.crypto_call("merkle.prove")
        return tuple(path)


def verify_inclusion(
    root: bytes, leaf: bytes, proof: tuple[tuple[str, bytes], ...]
) -> bool:
    """Does *proof* tie the *leaf* payload to *root*?

    Pure recomputation — no tree needed, which is what lets a verifier
    (Arbitrator, forensics) check an item against a published signed
    root alone.
    """
    observer = _instrument.observer
    if observer is not None:
        observer.crypto_call("merkle.verify")
    node = _leaf_node(leaf)
    for side, sibling in proof:
        if side == "L":
            node = _interior_node(sibling, node)
        elif side == "R":
            node = _interior_node(node, sibling)
        else:
            return False
    return node == root
