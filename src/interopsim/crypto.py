"""Digital-signature schemes used by chain nodes.

Two interchangeable implementations: an HMAC-based deterministic scheme
(fast, used by default in property sweeps) and Ed25519 from the
cryptography package (the real asymmetric scheme, exercised by the
acceptance suite).  The HMAC scheme precomputes each generated key's
inner and outer hash states (RFC 2104) and the MACs of the last message it
signed; its signatures are hmac.new's bytes.
"""

from __future__ import annotations

import hashlib
import hmac

from .values import record

# RFC 2104 pads, as byte-translation tables over the zero-padded key block
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@record
class Keypair:
    signing_key: bytes
    verify_key: bytes


class SignatureScheme:
    name = "abstract"

    def keygen(self, seed: bytes) -> Keypair:
        raise NotImplementedError

    def sign(self, signing_key: bytes, message: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, verify_key: bytes, message: bytes, signature: bytes) -> bool:
        raise NotImplementedError


class HmacScheme(SignatureScheme):
    """Deterministic test scheme: signature = HMAC-SHA256(node secret, msg).

    The verify key equals the signing key; the simulation's verifier registry
    holds it, and modeled adversaries never learn other nodes' secrets.
    keygen also builds the key's inner and outer SHA-256 states, which sign
    and verify copy; a key this scheme did not generate goes through
    hmac.new, uncached.  Either way the bytes are hmac.new's.
    A chain's nodes sign one digest in turn, and the gateway or the block
    certificate checks those signatures next, so verify of the last signed
    message under a key that signed it compares against the stored MAC.
    """

    name = "hmac"

    def __init__(self):
        self._pads: dict[bytes, tuple] = {}  # generated key -> (inner, outer) state
        self._last: tuple[bytes, dict[bytes, bytes]] = (b"", {})  # message, key -> MAC

    def keygen(self, seed: bytes) -> Keypair:
        sk = hashlib.sha256(b"hmac-key|" + seed).digest()
        # a key no longer than the 64-byte block is zero-padded, not hashed
        block = sk.ljust(64, b"\0")
        self._pads[sk] = (
            hashlib.sha256(block.translate(_IPAD)),
            hashlib.sha256(block.translate(_OPAD)),
        )
        return Keypair(signing_key=sk, verify_key=sk)

    def _mac(self, key: bytes, message: bytes) -> bytes:
        pads = self._pads.get(key)
        if pads is None:
            return hmac.new(key, message, hashlib.sha256).digest()
        inner, outer = pads[0].copy(), pads[1].copy()
        inner.update(message)
        outer.update(inner.digest())
        return outer.digest()

    def sign(self, signing_key: bytes, message: bytes) -> bytes:
        if message != self._last[0]:
            self._last = (message, {})
        mac = self._last[1][signing_key] = self._mac(signing_key, message)
        return mac

    def verify(self, verify_key: bytes, message: bytes, signature: bytes) -> bool:
        last, macs = self._last
        mac = macs.get(verify_key) if message == last else None
        return hmac.compare_digest(mac or self._mac(verify_key, message), signature)


class Ed25519Scheme(SignatureScheme):
    """Real asymmetric signatures; keys derived deterministically from seed."""

    name = "ed25519"

    def __init__(self):
        from cryptography.hazmat.primitives.asymmetric import ed25519

        self._ed25519 = ed25519

    def keygen(self, seed: bytes) -> Keypair:
        raw = hashlib.sha256(b"ed25519-seed|" + seed).digest()
        private = self._ed25519.Ed25519PrivateKey.from_private_bytes(raw)
        public = private.public_key()
        from cryptography.hazmat.primitives import serialization

        pub_raw = public.public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        return Keypair(signing_key=raw, verify_key=pub_raw)

    def sign(self, signing_key: bytes, message: bytes) -> bytes:
        private = self._ed25519.Ed25519PrivateKey.from_private_bytes(signing_key)
        return private.sign(message)

    def verify(self, verify_key: bytes, message: bytes, signature: bytes) -> bool:
        try:
            public = self._ed25519.Ed25519PublicKey.from_public_bytes(verify_key)
            public.verify(signature, message)
            return True
        except Exception:
            return False


def get_scheme(name: str) -> SignatureScheme:
    if name == "hmac":
        return HmacScheme()
    if name == "ed25519":
        return Ed25519Scheme()
    raise ValueError(f"unknown signature scheme: {name}")
