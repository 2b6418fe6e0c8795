import hashlib
import random

import pytest

from interopsim.errors import EncodingError
from interopsim.merkle import (
    ABSENCE,
    EMPTY_ROOT,
    MEMBERSHIP,
    MerkleMap,
    MerkleProof,
    fold_path,
    key_bits,
    verify_proof,
)
from interopsim.values import decode_record, encode_record, encode_value


def _sha(raw: bytes) -> bytes:
    return hashlib.sha256(raw).digest()


def _bit(key: bytes, depth: int) -> int:
    h = _sha(key)
    return (h[depth // 8] >> (7 - depth % 8)) & 1


def _leaf(key: bytes, value) -> bytes:
    return _sha(b"\x00" + len(key).to_bytes(4, "big") + key + encode_value(value))


def reference_root(items, depth=0):
    """Independent recursive commitment: split on the next key-hash bit."""
    if not items:
        return _sha(b"")
    if len(items) == 1:
        ((key, value),) = items.items()
        return _leaf(key, value)
    halves = ({}, {})
    for key, value in items.items():
        halves[_bit(key, depth)][key] = value
    return _sha(
        b"\x01" + reference_root(halves[0], depth + 1) + reference_root(halves[1], depth + 1)
    )


def reference_terminal(items, key):
    """Where an absent key's path ends, by brute force: (depth, other key or None).

    The path stops at the first depth whose slot holds at most one key.
    """
    depth = 0
    while True:
        sharing = [k for k in items if all(_bit(k, d) == _bit(key, d) for d in range(depth))]
        if len(sharing) <= 1:
            return depth, (sharing[0] if sharing else None)
        depth += 1


def _random_items(rng, n):
    items = {}
    while len(items) < n:
        k = bytes(rng.randrange(256) for _ in range(rng.randint(1, 12)))
        items[k] = rng.choice([rng.randrange(-5000, 5000), "s" * rng.randint(0, 3), None, True])
    return items


def _absent_key(rng, items):
    while True:
        key = bytes(rng.randrange(256) for _ in range(rng.randint(1, 12)))
        if key not in items:
            return key


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 13])
def test_root_matches_reference(n):
    items = {f"k{i:03d}".encode(): i for i in range(n)}
    assert MerkleMap(items).root == reference_root(items)


def test_empty_tree_root():
    assert MerkleMap({}).root == EMPTY_ROOT
    assert EMPTY_ROOT == hashlib.sha256(b"").digest()


def test_root_independent_of_insertion_order():
    rng = random.Random(5)
    items = _random_items(rng, 30)
    keys = list(items)
    for _ in range(5):
        rng.shuffle(keys)
        assert MerkleMap({k: items[k] for k in keys}).root == reference_root(items)
        tree = MerkleMap({})
        for k in keys:
            tree = MerkleMap({k: items[k]}, base=tree)
        assert tree.root == reference_root(items)


def test_writes_on_a_base_equal_a_full_build():
    rng = random.Random(6)
    for _ in range(40):
        a = _random_items(rng, rng.randint(0, 25))
        b = _random_items(rng, rng.randint(0, 10))
        for k in rng.sample(sorted(a), min(3, len(a))):
            b[k] = rng.randrange(100)  # overwrite some keys of the base
        base = MerkleMap(a)
        before = base.root
        assert MerkleMap(b, base=base).root == MerkleMap(a | b).root == reference_root(a | b)
        assert base.root == before  # the base is not modified


def test_membership_proof_verifies():
    items = {b"a": 1, b"b": "x", b"c": None, b"d": b"zz"}
    tree = MerkleMap(items)
    for key in items:
        proof = tree.prove(key)
        assert proof.kind == MEMBERSHIP
        assert verify_proof(tree.root, proof)


def test_membership_tamper_fails():
    tree = MerkleMap({b"a": 1, b"b": 2, b"c": 3})
    proof = tree.prove(b"b")
    bad = MerkleProof(
        kind=proof.kind,
        leaf_key=proof.leaf_key,
        leaf_value=99,  # flip the value
        path=proof.path,
        root_height=proof.root_height,
    )
    assert not verify_proof(tree.root, bad)


def test_absence_proof_ends_where_reference_says():
    rng = random.Random(7)
    for _ in range(40):
        items = _random_items(rng, rng.randint(1, 20))
        tree = MerkleMap(items)
        absent = _absent_key(rng, items)
        proof = tree.prove(absent)
        assert proof.kind == ABSENCE
        depth, other = reference_terminal(items, absent)
        assert len(proof.path) == depth
        assert proof.terminal == (None if other is None else (other, items[other]))
        assert verify_proof(tree.root, proof)


def test_absence_at_empty_slot_and_at_other_leaf():
    rng = random.Random(8)
    tree = MerkleMap(_random_items(rng, 16))
    kinds = set()
    for i in range(200):
        proof = tree.prove(f"absent{i}".encode())
        assert verify_proof(tree.root, proof)
        kinds.add(proof.terminal is None)
    assert kinds == {True, False}


def test_absence_against_empty_tree():
    proof = MerkleProof(kind=ABSENCE, leaf_key=b"anything")
    assert verify_proof(EMPTY_ROOT, proof)
    assert not verify_proof(b"\x01" * 32, proof)
    assert MerkleMap({}).prove(b"anything") == proof


def test_proof_against_wrong_root_fails():
    t1 = MerkleMap({b"a": 1, b"b": 2})
    t2 = MerkleMap({b"a": 1, b"b": 3})
    assert not verify_proof(t2.root, t1.prove(b"a"))


def test_absence_for_present_key_fails():
    rng = random.Random(9)
    for _ in range(30):
        items = _random_items(rng, rng.randint(1, 20))
        key = rng.choice(sorted(items))
        tree = MerkleMap(items)
        without = MerkleMap({k: v for k, v in items.items() if k != key})
        # an honest absence proof from the state before the key was written
        assert not verify_proof(tree.root, without.prove(key))
        # the key's own leaf presented as the terminal of an absence proof
        member = tree.prove(key)
        forged = MerkleProof(ABSENCE, key, path=member.path, terminal=(key, items[key]))
        assert not verify_proof(tree.root, forged)
        # an empty slot claimed anywhere on the key's path
        for depth in range(len(member.path) + 1):
            forged = MerkleProof(ABSENCE, key, path=member.path[len(member.path) - depth :])
            assert not verify_proof(tree.root, forged)


def _keys_by_first_bit(n):
    out = ([], [])
    i = 0
    while min(len(out[0]), len(out[1])) < n:
        key = f"key{i}".encode()
        out[_bit(key, 0)].append(key)
        i += 1
    return out


def test_absence_diverging_terminal_leaf_fails():
    # a root that places a leaf on the wrong side of the first split: the
    # path folds to it, so only the terminal's hash prefix check rejects it
    zeros, ones = _keys_by_first_bit(2)
    misplaced, other = ones[0], ones[1]
    root = _sha(b"\x01" + _leaf(misplaced, 1) + _leaf(other, 2))
    forged = MerkleProof(ABSENCE, zeros[0], path=(_leaf(other, 2),), terminal=(misplaced, 1))
    assert not verify_proof(root, forged)
    # the same check passes an honest shape: terminal on the absent key's side
    root = _sha(b"\x01" + _leaf(zeros[1], 1) + _leaf(other, 2))
    honest = MerkleProof(ABSENCE, zeros[0], path=(_leaf(other, 2),), terminal=(zeros[1], 1))
    assert verify_proof(root, honest)


def test_path_direction_must_match_key_hash():
    zeros, ones = _keys_by_first_bit(1)
    a, b = zeros[0], ones[0]
    # a root with the two leaves swapped: b's key hash puts its sibling on
    # the left, so the fold never gives the swapped root
    swapped = _sha(b"\x01" + _leaf(b, 2) + _leaf(a, 1))
    forged = MerkleProof(MEMBERSHIP, b, 2, path=(_leaf(a, 1),))
    assert not verify_proof(swapped, forged)
    tree = MerkleMap({a: 1, b: 2})
    assert tree.root == _sha(b"\x01" + _leaf(a, 1) + _leaf(b, 2))
    assert tree.prove(b).path == (_leaf(a, 1),)
    assert verify_proof(tree.root, tree.prove(b))


def test_a_path_sibling_is_a_32_byte_digest():
    tree = MerkleMap(_random_items(random.Random(11), 12))
    proof = tree.prove(b"absent")
    assert proof.path and verify_proof(tree.root, proof)
    node = EMPTY_ROOT if proof.terminal is None else _leaf(*proof.terminal)
    assert fold_path(node, key_bits(b"absent"), proof.path) == tree.root
    for sibling in (proof.path[0][:31], proof.path[0] + b"\x00", b""):
        with pytest.raises(EncodingError):
            fold_path(node, key_bits(b"absent"), (sibling, *proof.path[1:]))


def test_proof_wire_roundtrip():
    tree = MerkleMap({b"a": 1, b"c": "v", b"e": None})
    for key in (b"a", b"b", b"\x00", b"zzz", b"e"):
        proof = tree.prove(key, root_height=7)
        back = decode_record(encode_record(proof), MerkleProof)
        assert back == proof
        assert verify_proof(tree.root, back) == verify_proof(tree.root, proof)


def test_fuzz_proofs_and_mutations():
    rng = random.Random(1234)
    for round_ in range(60):
        items = _random_items(rng, rng.randint(1, 40))
        tree = MerkleMap(items)
        assert tree.root == reference_root(items)
        # membership
        key = rng.choice(sorted(items))
        proof = tree.prove(key)
        assert verify_proof(tree.root, proof)
        # absence of a fresh key
        absent = _absent_key(rng, items)
        aproof = tree.prove(absent)
        assert verify_proof(tree.root, aproof)
        depth, other = reference_terminal(items, absent)
        assert (len(aproof.path), aproof.terminal and aproof.terminal[0]) == (depth, other)
        # single-byte mutation of a committed sibling digest must fail
        if proof.path:
            i = rng.randrange(len(proof.path))
            sib = proof.path[i]
            j = rng.randrange(32)
            bad_sib = sib[:j] + bytes([sib[j] ^ 0x5A]) + sib[j + 1 :]
            bad_path = proof.path[:i] + (bad_sib,) + proof.path[i + 1 :]
            bad = MerkleProof(MEMBERSHIP, proof.leaf_key, proof.leaf_value, bad_path)
            assert not verify_proof(tree.root, bad)
        # mutated membership key must fail
        k = proof.leaf_key
        j = rng.randrange(len(k))
        bad_key = k[:j] + bytes([k[j] ^ 0x01]) + k[j + 1 :]
        bad = MerkleProof(MEMBERSHIP, bad_key, proof.leaf_value, proof.path)
        assert not verify_proof(tree.root, bad)


def _keys_sharing_bits(prefix_key: bytes, bits: int, count: int) -> list[bytes]:
    """`count` keys whose hashes share at least `bits` leading bits with prefix_key's."""
    target = int.from_bytes(_sha(prefix_key), "big") >> (256 - bits)
    found, i = [], 0
    while len(found) < count:
        key = b"near%d" % i
        if int.from_bytes(_sha(key), "big") >> (256 - bits) == target:
            found.append(key)
        i += 1
    return found


@pytest.mark.parametrize("size", range(1, 21))
def test_batches_of_one_to_twenty_keys_match_the_reference(size):
    rng = random.Random(size)
    # near keys share 12 or more leading hash bits, so their leaves split deep
    near = [b"anchor", *_keys_sharing_bits(b"anchor", 12, 3)]
    applied: dict = {}
    tree = MerkleMap({})
    for round_ in range(4):
        batch = _random_items(rng, size)
        for key in rng.sample(near, min(len(near), size // 3 + 1)):
            batch[key] = round_
        for key in rng.sample(sorted(applied), min(2, len(applied))):
            batch[key] = rng.randrange(100)  # overwrites
        tree = MerkleMap(batch, base=tree)
        applied |= batch
        assert tree.root == reference_root(applied)
        assert MerkleMap(batch).root == reference_root(batch)
