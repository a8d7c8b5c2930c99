"""Tests for repro.crypto.aead."""

import hashlib
import hmac
import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aead import (
    AeadError,
    AeadKey,
    KEY_SIZE,
    NONCE_SIZE,
    TAG_SIZE,
    open_,
    seal,
    sealed_overhead,
)
from repro.crypto.hashes import hkdf


@pytest.fixture
def key():
    return AeadKey.generate(random.Random(7))


class TestAeadKey:
    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            AeadKey(b"short")

    def test_generate_deterministic_with_rng(self):
        assert (AeadKey.generate(random.Random(1)).key
                == AeadKey.generate(random.Random(1)).key)

    def test_generate_without_rng_uses_entropy(self):
        assert AeadKey.generate().key != AeadKey.generate().key

    def test_from_secret_label_separation(self):
        assert (AeadKey.from_secret(b"s", b"a").key
                != AeadKey.from_secret(b"s", b"b").key)

    def test_subkeys_differ(self, key):
        assert key._enc_key != key._mac_key


class TestSealOpen:
    def test_roundtrip(self, key):
        assert open_(key, seal(key, b"hello")) == b"hello"

    def test_roundtrip_empty_plaintext(self, key):
        assert open_(key, seal(key, b"")) == b""

    def test_roundtrip_with_associated_data(self, key):
        sealed = seal(key, b"payload", b"header")
        assert open_(key, sealed, b"header") == b"payload"

    def test_wrong_associated_data_rejected(self, key):
        sealed = seal(key, b"payload", b"header")
        with pytest.raises(AeadError):
            open_(key, sealed, b"other")

    def test_wrong_key_rejected(self, key):
        other = AeadKey.generate(random.Random(8))
        with pytest.raises(AeadError):
            open_(other, seal(key, b"payload"))

    def test_tampered_ciphertext_rejected(self, key):
        sealed = bytearray(seal(key, b"payload"))
        sealed[NONCE_SIZE] ^= 0x01
        with pytest.raises(AeadError):
            open_(key, bytes(sealed))

    def test_tampered_tag_rejected(self, key):
        sealed = bytearray(seal(key, b"payload"))
        sealed[-1] ^= 0x01
        with pytest.raises(AeadError):
            open_(key, bytes(sealed))

    def test_truncated_rejected(self, key):
        with pytest.raises(AeadError):
            open_(key, b"short")

    def test_nonces_are_fresh(self, key):
        rng = random.Random(3)
        first = seal(key, b"m", rng=rng)
        second = seal(key, b"m", rng=rng)
        assert first != second  # same plaintext, different wire bytes

    def test_overhead_constant(self, key):
        sealed = seal(key, b"x" * 100)
        assert len(sealed) - 100 == sealed_overhead() == NONCE_SIZE + TAG_SIZE

    @given(st.binary(max_size=2048), st.binary(max_size=64))
    def test_property_roundtrip(self, plaintext, associated):
        key = AeadKey.from_secret(b"property-test-secret")
        sealed = seal(key, plaintext, associated, rng=random.Random(0))
        assert open_(key, sealed, associated) == plaintext

    @given(st.binary(min_size=1, max_size=256),
           st.integers(min_value=0))
    def test_property_single_bitflip_detected(self, plaintext, position):
        key = AeadKey.from_secret(b"bitflip-secret")
        sealed = bytearray(seal(key, plaintext, rng=random.Random(0)))
        index = position % len(sealed)
        sealed[index] ^= 0x01
        with pytest.raises(AeadError):
            open_(key, bytes(sealed))


class TestKnownAnswer:
    """Pin the construction, rebuilt here from stdlib primitives."""

    PLAINTEXT = b"cyclosa sealed record \x00\x01\x02" * 3
    ASSOCIATED = b"relay-header"

    def test_seal_matches_independent_construction(self, key):
        sealed = seal(key, self.PLAINTEXT, self.ASSOCIATED,
                      rng=random.Random(0))
        draw = random.Random(0)
        nonce = bytes(draw.getrandbits(8) for _ in range(NONCE_SIZE))
        enc_key = hkdf(key.key, b"repro.aead.enc")
        mac_key = hkdf(key.key, b"repro.aead.mac")
        stream = hashlib.shake_256(enc_key + nonce).digest(
            len(self.PLAINTEXT))
        ciphertext = bytes(p ^ s for p, s in zip(self.PLAINTEXT, stream))
        tag = hmac.new(mac_key, nonce + self.ASSOCIATED + ciphertext,
                       hashlib.sha256).digest()
        assert sealed == nonce + ciphertext + tag
        assert open_(key, sealed, self.ASSOCIATED) == self.PLAINTEXT

    def test_distinct_nonces_give_distinct_keystreams(self, key):
        zeros = bytes(64)
        first = seal(key, zeros, rng=random.Random(0))
        second = seal(key, zeros, rng=random.Random(1))
        assert first[:NONCE_SIZE] != second[:NONCE_SIZE]
        # Sealing zeros exposes the keystream as the ciphertext.
        assert (first[NONCE_SIZE:-TAG_SIZE]
                != second[NONCE_SIZE:-TAG_SIZE])


class TestNonceRngContract:
    def test_seal_draws_exactly_sixteen_getrandbits_8(self, key):
        # Seeded simulations share this RNG with everything else, so
        # the nonce draw must consume the stream exactly as pinned
        # here; e.g. ``rng.randbytes(16)`` would shift every later
        # draw and move seeded figures.
        rng = random.Random(42)
        twin = random.Random(42)
        seal(key, b"payload", rng=rng)
        for _ in range(NONCE_SIZE):
            twin.getrandbits(8)
        assert rng.getstate() == twin.getstate()
