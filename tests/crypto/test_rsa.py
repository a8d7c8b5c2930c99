"""Tests for repro.crypto.rsa."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.rsa import (RsaError, RsaKeyPair, _random_prime,
                              is_probable_prime)


@pytest.fixture(scope="module")
def keypair():
    return RsaKeyPair.generate(bits=512, rng=random.Random(42))


class TestMillerRabin:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 101, 7919):
            assert is_probable_prime(p, rng=random.Random(0))

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 561, 7917):
            assert not is_probable_prime(n, rng=random.Random(0))

    def test_carmichael_number_rejected(self):
        # 561 = 3*11*17 fools Fermat but not Miller-Rabin.
        assert not is_probable_prime(561, rng=random.Random(0))

    def test_large_known_prime(self):
        assert is_probable_prime((1 << 127) - 1, rng=random.Random(0))


class TestKeyGeneration:
    def test_deterministic_with_seed(self):
        a = RsaKeyPair.generate(bits=256, rng=random.Random(5))
        b = RsaKeyPair.generate(bits=256, rng=random.Random(5))
        assert a.public.n == b.public.n

    def test_modulus_size(self, keypair):
        assert 511 <= keypair.public.n.bit_length() <= 512

    def test_fingerprint_stable_and_distinct(self, keypair):
        other = RsaKeyPair.generate(bits=256, rng=random.Random(6))
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert keypair.public.fingerprint() != other.public.fingerprint()


class TestHybridEncryption:
    def test_roundtrip(self, keypair):
        rng = random.Random(1)
        ciphertext = keypair.public.encrypt(b"the message", rng=rng)
        assert keypair.decrypt(ciphertext) == b"the message"

    def test_roundtrip_large_payload(self, keypair):
        rng = random.Random(2)
        payload = bytes(range(256)) * 64  # 16 KiB, far beyond modulus size
        assert keypair.decrypt(keypair.public.encrypt(payload, rng=rng)) == payload

    def test_wrong_key_rejected(self, keypair):
        other = RsaKeyPair.generate(bits=512, rng=random.Random(7))
        ciphertext = keypair.public.encrypt(b"secret", rng=random.Random(1))
        with pytest.raises(RsaError):
            other.decrypt(ciphertext)

    def test_tampered_payload_rejected(self, keypair):
        ciphertext = bytearray(keypair.public.encrypt(b"secret",
                                                      rng=random.Random(1)))
        ciphertext[-1] ^= 0x01
        with pytest.raises(RsaError):
            keypair.decrypt(bytes(ciphertext))

    def test_truncated_rejected(self, keypair):
        ciphertext = keypair.public.encrypt(b"secret", rng=random.Random(1))
        with pytest.raises(RsaError):
            keypair.decrypt(ciphertext[:10])

    def test_randomised_encryption(self, keypair):
        rng = random.Random(3)
        assert (keypair.public.encrypt(b"m", rng=rng)
                != keypair.public.encrypt(b"m", rng=rng))


class TestSignatures:
    def test_sign_verify(self, keypair):
        signature = keypair.sign(b"message")
        assert keypair.public.verify(b"message", signature)

    def test_wrong_message_rejected(self, keypair):
        signature = keypair.sign(b"message")
        assert not keypair.public.verify(b"other", signature)

    def test_wrong_key_rejected(self, keypair):
        other = RsaKeyPair.generate(bits=512, rng=random.Random(8))
        signature = keypair.sign(b"message")
        assert not other.public.verify(b"message", signature)

    def test_tampered_signature_rejected(self, keypair):
        signature = bytearray(keypair.sign(b"message"))
        signature[0] ^= 0x01
        assert not keypair.public.verify(b"message", bytes(signature))

    def test_wrong_length_signature_rejected(self, keypair):
        assert not keypair.public.verify(b"message", b"\x00" * 8)

    @settings(max_examples=15, deadline=None)
    @given(st.binary(max_size=512))
    def test_property_sign_verify_any_message(self, message):
        keypair = RsaKeyPair.generate(bits=512, rng=random.Random(99))
        assert keypair.public.verify(message, keypair.sign(message))


class TestCrt:
    """Private-key operations by CRT: same keys, same results, faults
    caught before release."""

    # Captured from the full-width pow(m, d, n) implementation.
    KNOWN_SIGNATURE = (
        "0d9b4a3474b7784b13f72a55f41e64f91eeff2735e3a024e147dd5dbddaa85c4"
        "6eb1f9650c1e0c3a8000cdbf28044a01a79780bed471ce4c85ccfc095ed1128d")
    KNOWN_KEY_SHA256 = (
        "2170e8d4c886b07f138227366e28c0b844fdff54da2254e2f600894d93191610")
    KNOWN_NEXT_DRAW = 6802008099978762422

    def test_known_answer_signature(self, keypair):
        assert keypair.sign(b"repro.rsa known-answer").hex() \
            == self.KNOWN_SIGNATURE

    def test_generate_keeps_key_and_rng_draws(self):
        rng = random.Random(42)
        keypair = RsaKeyPair.generate(bits=512, rng=rng)
        # The twin makes the draws key generation made before CRT:
        # two primes per attempt, retried on p == q or e | phi.
        twin = random.Random(42)
        while True:
            p = _random_prime(256, twin)
            q = _random_prime(256, twin)
            phi = (p - 1) * (q - 1)
            if p != q and phi % 65537:
                break
        assert rng.getstate() == twin.getstate()
        assert (keypair.public.n, keypair.d) == (p * q, pow(65537, -1, phi))
        key = (keypair.public.n, keypair.public.e, keypair.d)
        assert hashlib.sha256(str(key).encode()).hexdigest() \
            == self.KNOWN_KEY_SHA256
        assert rng.getrandbits(64) == self.KNOWN_NEXT_DRAW

    def test_crt_components(self, keypair):
        p, q = keypair.p, keypair.q
        assert p * q == keypair.public.n
        assert keypair.d_p == keypair.d % (p - 1)
        assert keypair.d_q == keypair.d % (q - 1)
        assert keypair.q_inv * q % p == 1

    @pytest.mark.parametrize("component", ["d_p", "d_q", "q_inv"])
    def test_faulty_component_raises(self, keypair, component):
        faulty = dataclasses.replace(
            keypair, **{component: getattr(keypair, component) ^ 1})
        ciphertext = keypair.public.encrypt(b"secret", rng=random.Random(4))
        with pytest.raises(RsaError, match="consistency check"):
            faulty.sign(b"message")
        with pytest.raises(RsaError, match="consistency check"):
            faulty.decrypt(ciphertext)

    @settings(max_examples=25, deadline=None)
    @given(payload=st.binary(max_size=2048),
           seed=st.integers(min_value=0, max_value=2**32))
    def test_property_encrypt_decrypt_roundtrip(self, keypair, payload, seed):
        ciphertext = keypair.public.encrypt(payload, rng=random.Random(seed))
        assert keypair.decrypt(ciphertext) == payload
