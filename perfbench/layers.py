"""Per-layer tracing from outside the program.

The traced run wraps each layer's public functions from here — nothing
under ``src/`` is edited. A :class:`SpanRecorder` times every wrapped
call as a span (name, start, end, parent) and keeps each span's *self
time*: its duration minus the time its wrapped children cover. Spans
are strictly nested because the simulation is single-threaded, so the
children of one span never overlap and their durations simply add up.

:class:`Patcher` swaps the wrappers in — both where a function is
defined and wherever a module bound it by name (``repro.net.tls``
imports ``repro.crypto.aead.seal`` as ``aead_seal``) — and puts every
original back on :meth:`Patcher.restore`.

Span names are ``<layer>/<function>``; :func:`layer_metrics` folds them
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict, deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import percentile

#: Spans are kept for the first this-many closed-loop searches only
#: (about 700 spans each); self time and counts cover every search.
SPAN_SEARCHES = 100
#: Marks a wrapper made here, so a test can prove none is left behind.
WRAPPED_MARK = "__perfbench_wrapped__"


class SpanRecorder:
    """Times wrapped calls; keeps per-name self time, call counts and
    counters, and optionally every span.

    *clock* is injectable so tests can drive exact timestamps.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_spans: bool = False) -> None:
        self.clock = clock
        self.keep_spans = keep_spans
        #: ``[name, start, end, parent index or -1, search id or -1]``.
        self.spans: List[list] = []
        #: Id stamped on spans opened from now on (closed-loop searches).
        self.search = -1
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def enter(self, name: str) -> None:
        start = self.clock()
        index = -1
        if self.keep_spans and 0 <= self.search < SPAN_SEARCHES:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, start, None, parent, self.search])
        self._stack.append([name, start, 0.0, index])

    def exit(self) -> None:
        name, start, children, index = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end

    def wrapper(self, name: str,
                after: Optional[Callable[..., None]] = None):
        """A factory turning a function into its timed wrapper; *after*
        (``after(recorder, args, kwargs, result)``) counts work once the
        call has returned."""

        def factory(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def timed(*args: Any, **kwargs: Any) -> Any:
                self.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.exit()
                if after is not None:
                    after(self, args, kwargs, result)
                return result

            setattr(timed, WRAPPED_MARK, True)
            return timed

        return factory

    def take(self) -> Dict[str, Any]:
        """Return the aggregates gathered since the last call and reset
        them (spans are kept)."""
        snapshot = {"self_s": dict(self.self_s), "calls": dict(self.calls),
                    "counts": dict(self.counts),
                    "samples": {k: list(v) for k, v in self.samples.items()}}
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.samples.clear()
        return snapshot

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(["name", "start", "end", "parent",
                                  "search"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class Patcher:
    """Installs wrappers and restores every original."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def function(self, module_name: str, attr: str, factory) -> None:
        """Wrap a module-level function, rebinding it in every loaded
        ``repro`` module that holds it under any name."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = factory(original)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapped)

    def method(self, cls: type, attr: str, factory) -> None:
        """Wrap a method defined on *cls* (plain, class- or static)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(factory(raw.__func__))
        else:
            wrapped = factory(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _add_len(counter: str, index: int, name: str):
    def after(rec: SpanRecorder, args, kwargs, result) -> None:
        rec.counts[counter] += len(_arg(args, kwargs, index, name))
    return after


def _add_result_len(counter: str):
    def after(rec: SpanRecorder, args, kwargs, result) -> None:
        rec.counts[counter] += len(result)
    return after


def install(rec: SpanRecorder, patch: Patcher) -> None:
    """Wrap every layer's public entry points (see the module doc).

    Everything the workloads import is imported first, so no module can
    bind a wrapper by name after this and keep it past the restore."""
    import repro.core.client  # noqa: F401
    import repro.experiments.shard_scale  # noqa: F401
    import repro.perf  # noqa: F401
    from repro.core.enclave import CyclosaEnclave
    from repro.core.node import CyclosaNode
    from repro.core.sensitivity import SensitivityAnalysis
    from repro.crypto.dh import DhKeyPair
    from repro.crypto.keys import IdentityKeyPair
    from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
    from repro.net.simulator import EventHandle, ShardedSimulator, Simulator
    from repro.net.tls import SecureChannel, SecureChannelManager
    from repro.net.transport import Network
    from repro.obs.trace import Tracer
    from repro.searchengine.engine import SearchEngine
    from repro.sgx.enclave import _ECALL_MARK, Enclave

    wrap = rec.wrapper

    patch.function("repro.crypto.aead", "seal", wrap(
        "crypto.aead/seal", _add_len("crypto.aead.bytes", 1, "plaintext")))
    patch.function("repro.crypto.aead", "open_", wrap(
        "crypto.aead/open", _add_len("crypto.aead.bytes", 1, "sealed")))
    patch.method(DhKeyPair, "generate", wrap("crypto.modexp/dh_generate"))
    patch.method(DhKeyPair, "shared_secret", wrap("crypto.modexp/dh_shared"))
    patch.method(RsaKeyPair, "sign", wrap("crypto.modexp/rsa_sign"))
    patch.method(RsaKeyPair, "decrypt", wrap("crypto.modexp/rsa_decrypt"))
    patch.method(RsaPublicKey, "verify", wrap("crypto.modexp/rsa_verify"))
    patch.method(RsaPublicKey, "encrypt", wrap("crypto.modexp/rsa_encrypt"))
    patch.method(IdentityKeyPair, "generate", wrap("crypto.keygen/identity"))

    patch.function("repro.net.wire", "encode", wrap(
        "net.wire/encode", _add_result_len("net.wire.bytes")))
    patch.function("repro.net.wire", "decode", wrap(
        "net.wire/decode", _add_len("net.wire.bytes", 0, "data")))

    patch.method(SecureChannel, "seal", wrap("net.tls/seal"))
    patch.method(SecureChannel, "open", wrap("net.tls/open"))

    def establish_factory(fn: Callable) -> Callable:
        timed = wrap("net.tls/establish")(fn)

        @functools.wraps(fn)
        def establish(self, peer, on_ready, on_fail=None, timeout=None):
            rec.counts["net.tls.handshakes"] += 1

            def failed(reason: str) -> None:
                rec.counts["net.tls.handshake_failures"] += 1
                if on_fail is not None:
                    on_fail(reason)

            return timed(self, peer, on_ready, failed, timeout)

        setattr(establish, WRAPPED_MARK, True)
        return establish

    patch.method(SecureChannelManager, "establish", establish_factory)

    def count_send(rec_: SpanRecorder, args, kwargs, message) -> None:
        rec_.counts["net.transport.messages"] += 1
        if message is not None:
            rec_.counts["net.transport.bytes"] += message.size_bytes
        if str(_arg(args, kwargs, 3, "kind")).startswith("pss"):
            rec_.counts["net.transport.gossip_messages"] += 1

    patch.method(Network, "send", wrap("net.transport/send", count_send))

    patch.method(Simulator, "run", wrap("net.simulator/run"))
    patch.method(Simulator, "step", wrap("net.simulator/step"))
    patch.method(EventHandle, "cancel", wrap("net.simulator/cancel"))
    patch.method(ShardedSimulator, "run", wrap("net.shards/run"))

    # Enclave gates: every ecall of CyclosaEnclave plus the ocall gate.
    # functools.wraps copies the ecall mark, so MRENCLAVE is unchanged.
    waits: Dict[Tuple[int, str], deque] = defaultdict(deque)

    def search_factory(fn: Callable) -> Callable:
        timed = wrap("core.node/search")(fn)

        @functools.wraps(fn)
        def search(self, query, *args, **kwargs):
            simulator = self.network.simulator
            waits[(id(self.enclave), query)].append(
                (simulator, simulator.now))
            return timed(self, query, *args, **kwargs)

        setattr(search, WRAPPED_MARK, True)
        return search

    def batch_built(rec_: SpanRecorder, args, kwargs, result) -> None:
        pending = waits.get((id(args[0]), _arg(args, kwargs, 1, "query")))
        if pending:
            simulator, issued = pending.popleft()
            rec_.samples["channel_wait"].append(simulator.now - issued)

    def response_opened(rec_: SpanRecorder, args, kwargs, result) -> None:
        rec_.counts["core.node.opened"] += 1
        if result is not None:
            rec_.counts["core.node.useful"] += 1

    hooks = {"build_protected_batch": batch_built,
             "open_relay_response": response_opened}
    for name in sorted(vars(CyclosaEnclave)):
        if getattr(vars(CyclosaEnclave)[name], _ECALL_MARK, False):
            patch.method(CyclosaEnclave, name,
                         wrap(f"sgx.gate/{name}", hooks.get(name)))
    patch.method(Enclave, "ocall", wrap("sgx.gate/ocall"))
    patch.function("repro.sgx.attestation", "attest_quote",
                   wrap("sgx.attest/attest_quote"))

    patch.method(SensitivityAnalysis, "assess",
                 wrap("core.sensitivity/assess"))
    patch.method(CyclosaNode, "search", search_factory)
    patch.method(SearchEngine, "search", wrap("searchengine/search"))
    patch.method(SearchEngine, "rank_terms", wrap("searchengine/rank_terms"))
    patch.method(Tracer, "start_span", wrap("obs/start_span"))
    patch.method(Tracer, "end_span", wrap("obs/end_span"))


def _layer_sum(table: Dict[str, float], layer: str,
               exclude: Tuple[str, ...] = ()) -> float:
    prefix = layer + "/"
    return sum(value for name, value in table.items()
               if name.startswith(prefix) and name not in exclude)


def layer_metrics(snapshot: Dict[str, Any],
                  keygen: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from one phase's :meth:`SpanRecorder.take`
    (*keygen* is the set-up phase's, where identity keys are made)."""
    self_s, calls = snapshot["self_s"], snapshot["calls"]
    counts = snapshot["counts"]
    handshakes = counts.get("net.tls.handshakes", 0)
    opened = counts.get("core.node.opened", 0)
    waits = snapshot["samples"].get("channel_wait", [])
    return {
        "crypto.aead.calls": _layer_sum(calls, "crypto.aead"),
        "crypto.aead.bytes": counts.get("crypto.aead.bytes", 0),
        "crypto.aead.self_s": _layer_sum(self_s, "crypto.aead"),
        "crypto.modexp.calls": _layer_sum(calls, "crypto.modexp"),
        "crypto.modexp.self_s": _layer_sum(self_s, "crypto.modexp"),
        "crypto.keygen.calls": _layer_sum(keygen["calls"], "crypto.keygen"),
        "crypto.keygen.self_s": _layer_sum(keygen["self_s"],
                                           "crypto.keygen"),
        "net.wire.calls": _layer_sum(calls, "net.wire"),
        "net.wire.bytes": counts.get("net.wire.bytes", 0),
        "net.wire.self_s": _layer_sum(self_s, "net.wire"),
        "net.tls.records": _layer_sum(calls, "net.tls",
                                      exclude=("net.tls/establish",)),
        "net.tls.handshakes": handshakes,
        "net.tls.handshake_fail_frac": (
            counts.get("net.tls.handshake_failures", 0) / handshakes
            if handshakes else 0.0),
        "net.tls.self_s": _layer_sum(self_s, "net.tls"),
        "net.transport.messages": counts.get("net.transport.messages", 0),
        "net.transport.bytes": counts.get("net.transport.bytes", 0),
        "net.transport.gossip_messages": counts.get(
            "net.transport.gossip_messages", 0),
        "net.transport.self_s": _layer_sum(self_s, "net.transport"),
        "net.simulator.cancels": calls.get("net.simulator/cancel", 0),
        "net.simulator.self_s": _layer_sum(self_s, "net.simulator"),
        "net.shards.self_s": _layer_sum(self_s, "net.shards"),
        "sgx.ecalls": _layer_sum(calls, "sgx.gate",
                                 exclude=("sgx.gate/ocall",)),
        "sgx.ocalls": calls.get("sgx.gate/ocall", 0),
        "sgx.gate_self_s": _layer_sum(self_s, "sgx.gate"),
        "sgx.attestations": _layer_sum(calls, "sgx.attest"),
        "sgx.attest_self_s": _layer_sum(self_s, "sgx.attest"),
        "core.sensitivity.calls": _layer_sum(calls, "core.sensitivity"),
        "core.sensitivity.self_s": _layer_sum(self_s, "core.sensitivity"),
        "core.node.searches": calls.get("core.node/search", 0),
        "core.node.useful_response_ratio": (
            counts.get("core.node.useful", 0) / opened if opened else 0.0),
        "core.node.channel_wait_sim_p50_s": (
            percentile(waits, 50) if waits else 0.0),
        "searchengine.rank_calls": _layer_sum(calls, "searchengine"),
        "searchengine.rank_self_s": _layer_sum(self_s, "searchengine"),
        "obs.spans": calls.get("obs/start_span", 0),
        "obs.self_s": _layer_sum(self_s, "obs"),
    }
