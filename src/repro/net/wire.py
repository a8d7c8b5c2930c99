"""Canonical wire encoding for application payloads.

Protocols in this repository encrypt *bytes*; their payloads are small
JSON-able structures (queries, result lists, handshake fields) that may
embed raw byte strings (keys, quotes, nonces). This module provides a
deterministic, reversible encoding: JSON with sorted keys, where bytes
are tagged as ``{"__bytes__": "<hex>"}``.

The tagging lives in :mod:`json`'s own hooks, so the walk over the
structure stays in the C encoder and decoder: the encoder's ``default``
turns ``bytes``/``bytearray`` into the tag dict, and the decoder's
``object_hook`` turns a dict whose sole key is the tag back into
``bytes``. Anything else the encoder cannot serialise raises
:class:`TypeError`.

Determinism matters twice: encrypted sizes must be stable for the
traffic-analysis experiments, and hashes over encoded structures (e.g.
attestation report data) must be reproducible.
"""

from __future__ import annotations

import json
from typing import Any

_BYTES_TAG = "__bytes__"


def _tag_bytes(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_TAG: value.hex()}
    raise TypeError(f"{type(value).__name__} is not wire-encodable")


def _untag_bytes(value: dict) -> Any:
    if len(value) == 1 and _BYTES_TAG in value:
        return bytes.fromhex(value[_BYTES_TAG])
    return value


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            default=_tag_bytes)
_DECODER = json.JSONDecoder(object_hook=_untag_bytes)


def encode(obj: Any) -> bytes:
    """Serialise *obj* to canonical bytes."""
    return _ENCODER.encode(obj).encode("utf-8")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`."""
    return _DECODER.decode(data.decode("utf-8"))
