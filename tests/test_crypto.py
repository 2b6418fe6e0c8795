import hashlib
import hmac
import random

import pytest

from interopsim.crypto import Ed25519Scheme, HmacScheme, get_scheme


@pytest.mark.parametrize("name", ["hmac", "ed25519"])
def test_sign_verify_roundtrip(name):
    scheme = get_scheme(name)
    kp = scheme.keygen(b"node-seed")
    msg = b"certify this header"
    sig = scheme.sign(kp.signing_key, msg)
    assert scheme.verify(kp.verify_key, msg, sig)
    assert not scheme.verify(kp.verify_key, msg + b"!", sig)
    assert not scheme.verify(kp.verify_key, msg, sig[:-1] + bytes([sig[-1] ^ 1]))


@pytest.mark.parametrize("name", ["hmac", "ed25519"])
def test_keys_deterministic_from_seed(name):
    scheme = get_scheme(name)
    assert scheme.keygen(b"seed-a") == scheme.keygen(b"seed-a")
    assert scheme.keygen(b"seed-a") != scheme.keygen(b"seed-b")


@pytest.mark.parametrize("name", ["hmac", "ed25519"])
def test_wrong_key_rejects(name):
    scheme = get_scheme(name)
    a = scheme.keygen(b"a")
    b = scheme.keygen(b"b")
    sig = scheme.sign(a.signing_key, b"msg")
    assert not scheme.verify(b.verify_key, b"msg", sig)


def test_ed25519_is_asymmetric():
    scheme = Ed25519Scheme()
    kp = scheme.keygen(b"x")
    assert kp.signing_key != kp.verify_key


def test_hmac_scheme_is_symmetric_by_design():
    scheme = HmacScheme()
    kp = scheme.keygen(b"x")
    assert kp.signing_key == kp.verify_key


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        get_scheme("rot13")


# ------------------------------------------------ HMAC against the stdlib

KEYGEN_SEEDS = [b"alpha|alpha:node0", b"beta|beta:node3", b""]
OTHER_KEY_LENGTHS = [0, 1, 32, 64, 65, 200]  # around the 64-byte SHA-256 block


def _hmac_keys():
    scheme = HmacScheme()
    generated = [scheme.keygen(seed).signing_key for seed in KEYGEN_SEEDS]
    rng = random.Random(2104)
    other = [rng.randbytes(n) for n in OTHER_KEY_LENGTHS]
    return scheme, generated, other


def test_hmac_sign_equals_stdlib_hmac():
    scheme, generated, other = _hmac_keys()
    rng = random.Random(7)
    for key in generated + other:
        for n in range(301):
            msg = rng.randbytes(n)
            assert scheme.sign(key, msg) == hmac.new(key, msg, hashlib.sha256).digest()
    # only the keys the scheme generated keep precomputed state
    assert set(scheme._pads) == set(generated)


def test_hmac_verify_accepts_the_reference_and_rejects_changes():
    scheme, generated, other = _hmac_keys()
    msg = b"an event digest, say"
    for key in generated + other:
        sig = hmac.new(key, msg, hashlib.sha256).digest()
        assert scheme.verify(key, msg, sig)
        for bit in (0, 7, 100, 255):
            flipped = bytearray(sig)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert not scheme.verify(key, msg, bytes(flipped))
        for cut in (sig[:-1], sig[:16], b""):
            assert not scheme.verify(key, msg, cut)
    for key, other_node in zip(generated, generated[1:] + generated[:1]):
        sig = scheme.sign(key, msg)
        assert not scheme.verify(other_node, msg, sig)


def test_hmac_verify_right_after_signing_rejects_changes():
    # verify of the message just signed compares against the stored MAC
    scheme, generated, other = _hmac_keys()
    msg = b"a block header digest"
    keys = generated + other
    sigs = {key: scheme.sign(key, msg) for key in keys}
    for key, sig in sigs.items():
        assert scheme.verify(key, msg, sig)
        flipped = bytes([sig[0] ^ 1]) + sig[1:]
        assert not scheme.verify(key, msg, flipped)
        assert not scheme.verify(key, msg, sig[:-1])
        assert not scheme.verify(key, msg + b"!", sig)
    for key, other_node in zip(keys, keys[1:] + keys[:1]):
        assert not scheme.verify(other_node, msg, sigs[key])


def test_hmac_keeps_the_macs_of_one_message_only():
    scheme, generated, _ = _hmac_keys()
    for key in generated:
        scheme.sign(key, b"first")
    scheme.sign(generated[0], b"second")
    assert scheme._last == (b"second", {generated[0]: scheme.sign(generated[0], b"second")})


def test_hmac_keygen_and_signature_pinned():
    scheme = HmacScheme()
    kp = scheme.keygen(b"alpha|alpha:node0")
    assert kp.signing_key.hex() == "3234e3e29541acf9a6ce99c6f4549dc1378e9c2147cf66cc1942c06f9c0d3ea0"
    sig = scheme.sign(kp.signing_key, b"certify this header")
    assert sig.hex() == "c27c01a7a78813fb41fb6b74f64193c44e7a2d6c997a6aac89dffa75c8b2b146"
