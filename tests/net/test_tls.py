"""Tests for repro.net.tls: handshake, records, attested channels."""

import random

import pytest

from repro.crypto.keys import IdentityKeyPair
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network, NetNode
from repro.net.tls import (
    SecureChannel,
    SecureChannelManager,
    SgxAuthenticator,
    SignatureAuthenticator,
    TlsError,
    _directional_keys,
)
from repro.sgx.attestation import IntelAttestationService, MeasurementPolicy
from repro.sgx.enclave import Enclave, EnclaveHost


class TlsNode(NetNode):
    def __init__(self, network, address, manager_factory):
        super().__init__(network, address)
        self.tls = manager_factory(self)

    def handle_request(self, ctx):
        self.tls.handle_handshake(ctx)


@pytest.fixture
def rng():
    return random.Random(7)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim, rng):
    return Network(sim, rng, default_latency=ConstantLatency(0.01))


def _sig_manager(rng):
    def factory(node):
        identity = IdentityKeyPair.generate(bits=512, rng=rng)
        return SecureChannelManager(
            node, SignatureAuthenticator(identity), rng)

    return factory


class TestHandshake:
    def test_establish_and_roundtrip(self, net, sim, rng):
        a = TlsNode(net, "a", _sig_manager(rng))
        b = TlsNode(net, "b", _sig_manager(rng))
        ready = []
        a.tls.establish("b", on_ready=ready.append)
        sim.run()
        assert ready
        channel_a = a.tls.channel("b")
        channel_b = b.tls.channel("a")
        sealed = channel_a.seal({"query": "secret"}, rng=rng)
        assert channel_b.open(sealed) == {"query": "secret"}

    def test_bidirectional_records(self, net, sim, rng):
        a = TlsNode(net, "a", _sig_manager(rng))
        b = TlsNode(net, "b", _sig_manager(rng))
        a.tls.establish("b", on_ready=lambda ch: None)
        sim.run()
        back = b.tls.channel("a").seal("reply", rng=rng)
        assert a.tls.channel("b").open(back) == "reply"

    def test_on_established_fires_both_sides(self, net, sim, rng):
        established = []

        def factory_with_hook(node):
            identity = IdentityKeyPair.generate(bits=512, rng=rng)
            return SecureChannelManager(
                node, SignatureAuthenticator(identity), rng,
                on_established=lambda ch: established.append(
                    (node.address, ch.peer)))

        a = TlsNode(net, "a", factory_with_hook)
        TlsNode(net, "b", factory_with_hook)
        a.tls.establish("b", on_ready=lambda ch: None)
        sim.run()
        assert ("a", "b") in established and ("b", "a") in established

    def test_handshake_timeout(self, net, sim, rng):
        a = TlsNode(net, "a", _sig_manager(rng))
        failures = []
        # "b" exists but never answers handshake kinds.
        NetNode(net, "b")
        a.tls.establish("b", on_ready=lambda ch: None,
                        on_fail=failures.append, timeout=1.0)
        sim.run()
        assert failures == ["handshake timeout"]

    def test_pinned_trust_anchor_rejects_unknown_key(self, net, sim, rng):
        pinned_fingerprint = b"\x00" * 32

        def pinning_factory(node):
            identity = IdentityKeyPair.generate(bits=512, rng=rng)
            return SecureChannelManager(
                node,
                SignatureAuthenticator(
                    identity,
                    trust_anchor=lambda pub: pub.fingerprint() == pinned_fingerprint),
                rng)

        a = TlsNode(net, "a", pinning_factory)
        TlsNode(net, "b", _sig_manager(rng))
        failures = []
        a.tls.establish("b", on_ready=lambda ch: None,
                        on_fail=failures.append, timeout=5.0)
        sim.run()
        assert failures  # peer key not pinned -> rejected


class TestRecordLayer:
    def _pair(self):
        send_a, recv_a = _directional_keys(b"s" * 32, initiator=True)
        send_b, recv_b = _directional_keys(b"s" * 32, initiator=False)
        return (SecureChannel(peer="b", send_key=send_a, recv_key=recv_a),
                SecureChannel(peer="a", send_key=send_b, recv_key=recv_b))

    def test_out_of_order_delivery_accepted(self, rng):
        a, b = self._pair()
        first = a.seal("one", rng=rng)
        second = a.seal("two", rng=rng)
        assert b.open(second) == "two"
        assert b.open(first) == "one"

    def test_replay_rejected(self, rng):
        a, b = self._pair()
        record = a.seal("payload", rng=rng)
        assert b.open(record) == "payload"
        with pytest.raises(TlsError):
            b.open(record)

    def test_tampered_record_rejected(self, rng):
        a, b = self._pair()
        record = bytearray(a.seal("payload", rng=rng))
        record[-1] ^= 1
        with pytest.raises(TlsError):
            b.open(bytes(record))

    def test_short_record_rejected(self):
        _, b = self._pair()
        with pytest.raises(TlsError):
            b.open(b"tiny")

    def test_directional_keys_are_asymmetric(self):
        send_a, recv_a = _directional_keys(b"s" * 32, initiator=True)
        assert send_a.key != recv_a.key


class TestSgxAuthenticatedChannels:
    class PeerEnclave(Enclave):
        ENCLAVE_VERSION = "1"
        BASE_FOOTPRINT_BYTES = 4096

    def _sgx_factory(self, rng, ias, policy):
        def factory(node):
            host = EnclaveHost(rng)
            enclave = host.create_enclave(self.PeerEnclave)
            ias.provision_host(host)
            node.host = host
            node.enclave = enclave
            return SecureChannelManager(
                node, SgxAuthenticator(enclave, host, ias, policy), rng)

        return factory

    def test_attested_handshake_succeeds(self, net, sim, rng):
        ias = IntelAttestationService()
        policy = MeasurementPolicy()
        policy.allow_class(self.PeerEnclave)
        factory = self._sgx_factory(rng, ias, policy)
        a = TlsNode(net, "a", factory)
        TlsNode(net, "b", factory)
        ready = []
        a.tls.establish("b", on_ready=ready.append)
        sim.run()
        assert ready

    def test_unattested_initiator_gets_no_channel(self, net, sim, rng):
        ias = IntelAttestationService()
        policy = MeasurementPolicy()
        policy.allow_class(self.PeerEnclave)
        # Responder requires quotes; initiator only has a signature.
        responder = TlsNode(net, "b", self._sgx_factory(rng, ias, policy))
        initiator = TlsNode(net, "a", _sig_manager(rng))
        failures = []
        initiator.tls.establish("b", on_ready=lambda ch: None,
                                on_fail=failures.append, timeout=2.0)
        sim.run()
        assert failures
        assert responder.tls.channel("a") is None

    def test_revoked_platform_rejected(self, net, sim, rng):
        ias = IntelAttestationService()
        policy = MeasurementPolicy()
        policy.allow_class(self.PeerEnclave)
        factory = self._sgx_factory(rng, ias, policy)
        a = TlsNode(net, "a", factory)
        b = TlsNode(net, "b", factory)
        ias.revoke(b.host.platform_id)
        failures = []
        a.tls.establish("b", on_ready=lambda ch: None,
                        on_fail=failures.append, timeout=2.0)
        sim.run()
        assert failures == ["peer credential rejected"]


# Hellos that are not the dict the handshake expects: each one used to
# raise out of Simulator.run (KeyError, KeyError, AttributeError,
# TypeError, in order).
MALFORMED_HELLOS = [
    {},
    {"dh_public": 5},
    {"dh_public": "x", "credential": {}},
    ["junk"],
]
# Well formed but unauthenticated: dropped silently before and after.
UNAUTHENTICATED_HELLO = {"dh_public": 5, "credential": {}}
HELLO_SIZE = 96


def _overlay_run(hello):
    """Send *hello* as an attested-channel request inside a 4-node
    CYCLOSA overlay and run 5 simulated seconds; returns what a wiretap,
    the network counters and the clock saw, plus the initiator's
    replies."""
    from repro.core.client import CyclosaNetwork
    from repro.net.trace import MessageTrace

    deployment = CyclosaNetwork.create(num_nodes=4, seed=0)
    nodes = deployment.nodes
    simulator = deployment.simulator
    replies = []
    with MessageTrace(deployment.network) as trace:
        nodes[0].request(nodes[1].address, hello, replies.append,
                         size_bytes=HELLO_SIZE, kind="atls")
        simulator.run(until=simulator.now + 5.0)
    stats = deployment.network.stats
    return {
        "trace": [(m.time, m.src, m.dst, m.kind, m.size_bytes)
                  for m in trace],
        "counters": (stats.messages, stats.bytes, stats.dropped),
        "events": simulator.events_processed,
        "now": simulator.now,
        "replies": replies,
        "channel": nodes[1].peer_tls.channel(nodes[0].address),
    }


class TestMalformedHello:
    @pytest.fixture(scope="class")
    def unauthenticated_run(self):
        return _overlay_run(UNAUTHENTICATED_HELLO)

    @pytest.mark.parametrize("hello", MALFORMED_HELLOS,
                             ids=["empty", "no-credential", "str-dh", "list"])
    def test_responder_drops_malformed_hello(self, hello,
                                             unauthenticated_run):
        run = _overlay_run(hello)
        assert run["replies"] == [] and run["channel"] is None
        # Exactly what the existing silent drop of an unauthenticated
        # hello of the same size produces: no reply, nothing else moves.
        for field in ("trace", "counters", "events", "now"):
            assert run[field] == unauthenticated_run[field], field

    @pytest.mark.parametrize("server_hello", MALFORMED_HELLOS + [
        {"dh_public": 1, "credential": {}},
        {"dh_public": True, "credential": {}},
        {"dh_public": 5, "credential": "x"},
    ], ids=["empty", "no-credential", "str-dh", "list", "dh-out-of-range",
            "bool-dh", "str-credential"])
    def test_initiator_fails_on_malformed_server_hello(self, net, sim, rng,
                                                       server_hello):
        class Responder(NetNode):
            def handle_request(self, ctx):
                ctx.respond(server_hello)

        a = TlsNode(net, "a", _sig_manager(rng))
        Responder(net, "b")
        ready, failures = [], []
        a.tls.establish("b", on_ready=ready.append,
                        on_fail=failures.append, timeout=2.0)
        sim.run()
        assert ready == [] and failures == ["malformed server hello"]
        assert a.tls.channel("b") is None


_WRONG_TYPES = ("x", None, 1.5, True, [], {})


def _mutations(credential):
    """Each field removed, then each field given each wrong type (the
    field's own type skipped)."""
    for name in credential:
        yield f"missing {name}", {k: v for k, v in credential.items()
                                  if k != name}
        for wrong in _WRONG_TYPES:
            value = credential[name]
            if type(wrong) is type(value):
                continue
            yield f"{name}={wrong!r}", {**credential, name: wrong}


class TestAuthenticatorRejectsMalformedCredential:
    CONTEXT = b"repro.tls.hs.v1|a|b|\x05"

    def test_signature_credential(self, rng):
        identity = IdentityKeyPair.generate(bits=512, rng=rng)
        authenticator = SignatureAuthenticator(identity)
        credential = authenticator.prove(self.CONTEXT)
        assert authenticator.verify(credential, self.CONTEXT)
        for label, broken in _mutations(credential):
            assert authenticator.verify(broken, self.CONTEXT) is False, label
        assert authenticator.verify(["junk"], self.CONTEXT) is False
        for n, e in ((0, 65537), (credential["n"], 0),
                     (credential["n"], 1 << 64)):
            assert authenticator.verify(
                {**credential, "n": n, "e": e}, self.CONTEXT) is False

    def test_sgx_credential(self, rng):
        ias = IntelAttestationService()
        policy = MeasurementPolicy()
        policy.allow_class(TestSgxAuthenticatedChannels.PeerEnclave)
        host = EnclaveHost(rng)
        enclave = host.create_enclave(TestSgxAuthenticatedChannels.PeerEnclave)
        ias.provision_host(host)
        authenticator = SgxAuthenticator(enclave, host, ias, policy)
        credential = authenticator.prove(self.CONTEXT)
        assert authenticator.verify(credential, self.CONTEXT)
        for label, broken in _mutations(credential):
            assert authenticator.verify(broken, self.CONTEXT) is False, label
        assert authenticator.verify(["junk"], self.CONTEXT) is False
