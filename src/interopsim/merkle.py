"""Authenticated key-value map: a persistent binary trie over sha256(key) bits.

Each key sits at the shortest prefix of its key hash that no other key
shares.  The commitment of a set S of (key, value) items, splitting on the
next key-hash bit at each level:

    root(empty)  = EMPTY_ROOT = digest(b"")
    root({x})    = digest(0x00 || lp(key) || encode(value))          leaf
    root(S)      = digest(0x01 || root(S0) || root(S1))              inner

Membership proofs carry the sibling digests from the key's leaf up to the
root, and nothing else: which side each sibling sits on is the key hash's
bit at that level, so the verifier reads it from sha256(key).  An absence
proof carries the same path for the absent key's hash, ending either at an
empty slot or at the leaf of a different key whose hash shares the path's
prefix.  A proof is an ordinary record (values.record): it rides inside a
read response and decodes with it, each field checked against its
annotation.

A map is immutable: `MerkleMap(items, base)` applies `items` on top of `base`
by path copying, so its cost is the writes times the depth, and `base` stays
valid.  Writing walks down each key's hash bits to its slot, copying the
inner nodes it passes and splitting a leaf found there at the first bit
where their hashes differ; then every copied node is hashed once, bottom-up,
so a level the batch's paths share costs one hash per batch, not one per
write.  Neither step is a call per level.  The trie's shape depends only on
its keys, so the order of the writes does not change the root.  Chains
keep only their latest map, so proofs are served at the current height.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Optional

from .errors import EncodingError
from .values import Value, digest, encode_value, lp, record

EMPTY_ROOT = digest(b"")

MEMBERSHIP = "membership"
ABSENCE = "absence"

# Nodes are plain tuples (untracked by the cycle collector); an empty slot is
# None.  leaf: (digest, key hash as int, key, value); inner: (digest, left, right)


def leaf_digest(key: bytes, value: Value) -> bytes:
    return digest(b"\x00" + lp(key) + encode_value(value))


def inner_digest(left: bytes, right: bytes) -> bytes:
    return digest(b"\x01" + left + right)


def key_bits(key: bytes) -> int:
    """The key's position in the trie: sha256(key) as a 256-bit integer."""
    return int.from_bytes(digest(key), "big")


def _bit(bits: int, depth: int) -> int:
    return (bits >> (255 - depth)) & 1


def _leaf(key: bytes, value: Value) -> tuple:
    return (leaf_digest(key, value), key_bits(key), key, value)


def _node_digest(node: Optional[tuple]) -> bytes:
    return EMPTY_ROOT if node is None else node[0]


def _put(root: Optional[tuple], leaves) -> Optional[tuple]:
    """The trie `root` with `leaves` written, by path copying, without a call per level.

    Each leaf walks down its key-hash bits to its slot, copying every inner
    node it passes into a [left, right] list whose digest is not yet known.
    A different leaf found in the slot moves down with it to the first bit
    where their key hashes differ.  Then each copied node is hashed once,
    children before parents, and its tuple replaces it in its parent's slot,
    so the levels the writes share are hashed once."""
    top = [root]  # the root's slot
    copied = []  # (parent, side, node) per copied inner node, each after its parent
    for leaf in leaves:
        bits = leaf[1]
        parent, side, depth = top, 0, 0
        node = top[0]
        while node is not None and len(node) != 4:
            if node.__class__ is tuple:
                node = parent[side] = [node[1], node[2]]
                copied.append((parent, side, node))
            parent, side = node, (bits >> (255 - depth)) & 1
            node = node[side]
            depth += 1
        if node is not None and node[2] != leaf[2]:
            other = node[1]
            while True:
                inner = parent[side] = [None, None]
                copied.append((parent, side, inner))
                parent, side = inner, (bits >> (255 - depth)) & 1
                if side != (other >> (255 - depth)) & 1:
                    inner[1 - side] = node
                    break
                depth += 1
        parent[side] = leaf
    for parent, side, (left, right) in reversed(copied):
        left_digest = EMPTY_ROOT if left is None else left[0]
        right_digest = EMPTY_ROOT if right is None else right[0]
        parent[side] = (sha256(b"\x01" + left_digest + right_digest).digest(), left, right)
    return top[0]


def fold_path(node: bytes, bits: int, path: tuple[bytes, ...]) -> bytes:
    """Fold a node digest up to the root along the key hash `bits`.

    The sibling at each level sits on the side the key hash's bit does not
    take: on the left where the bit is 1, on the right where it is 0."""
    depth = len(path)
    if depth > 256:
        raise EncodingError("path longer than the key hash")
    h = node
    for sibling in path:
        if len(sibling) != 32:
            raise EncodingError("path sibling is not a 32-byte digest")
        depth -= 1
        h = inner_digest(sibling, h) if _bit(bits, depth) else inner_digest(h, sibling)
    return h


@record
class MerkleProof:
    kind: str
    leaf_key: bytes
    leaf_value: Value = None
    path: tuple[bytes, ...] = ()  # sibling digests, leaf level first
    root_height: int = 0
    # absence only: (key, value) of the leaf the path ends at; None = empty slot
    terminal: Optional[tuple[bytes, Value]] = None


class MerkleMap:
    """Immutable trie snapshot: `items` written on top of `base`."""

    def __init__(self, items: dict[bytes, Value], base: Optional["MerkleMap"] = None):
        node = base._node if base is not None else None
        self._node = _put(node, [_leaf(key, value) for key, value in items.items()])

    @property
    def root(self) -> bytes:
        return _node_digest(self._node)

    def prove(self, key: bytes, root_height: int = 0) -> MerkleProof:
        bits = key_bits(key)
        node, depth, siblings = self._node, 0, []
        while node is not None and len(node) == 3:
            side = _bit(bits, depth)
            siblings.append(_node_digest(node[2 - side]))
            node = node[1 + side]
            depth += 1
        path = tuple(reversed(siblings))
        if node is not None and node[2] == key:
            return MerkleProof(MEMBERSHIP, key, node[3], path, root_height)
        terminal = None if node is None else (node[2], node[3])
        return MerkleProof(ABSENCE, key, None, path, root_height, terminal)


def verify_proof(state_root: bytes, proof: MerkleProof) -> bool:
    """True iff the proof is consistent with state_root; false on any defect."""
    try:
        bits = key_bits(proof.leaf_key)
        if proof.kind == MEMBERSHIP and proof.terminal is None:
            node = leaf_digest(proof.leaf_key, proof.leaf_value)
        elif proof.kind != ABSENCE or proof.leaf_value is not None:
            return False
        elif proof.terminal is None:
            node = EMPTY_ROOT
        else:
            other_key, other_value = proof.terminal
            # the other leaf must sit on the absent key's path
            shared = (key_bits(other_key) ^ bits) >> (256 - len(proof.path))
            if other_key == proof.leaf_key or shared:
                return False
            node = leaf_digest(other_key, other_value)
        return fold_path(node, bits, proof.path) == state_root
    except Exception:
        return False


def root_of_digests(leaves: list[bytes]) -> bytes:
    """Merkle root over an ordered list of 32-byte digests (txn roots)."""
    if not leaves:
        return EMPTY_ROOT
    level = list(leaves)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            left = level[i]
            right = level[i + 1] if i + 1 < len(level) else level[i]
            nxt.append(digest(left + right))
        level = nxt
    return level[0]
