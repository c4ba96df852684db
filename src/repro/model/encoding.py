"""Wire encoding of spans and traces, with byte accounting.

The evaluation in the paper is fundamentally about *bytes*: network
overhead is the bytes an agent sends to the backend, storage overhead is
the bytes the backend persists.  This module defines a canonical
JSON-lines encoding (close to OTLP/JSON in structure and size) and a
single :func:`encoded_size` helper that all meters use, so every
framework in the comparison is charged with the same ruler.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

from repro.model.span import Span, SpanKind, SpanStatus
from repro.model.trace import Trace


def span_to_dict(span: Span) -> dict[str, Any]:
    """Convert a span to a plain dict in canonical field order."""
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "service": span.service,
        "kind": span.kind.value,
        "start_time": span.start_time,
        "duration": span.duration,
        "status": span.status.value,
        "node": span.node,
        "attributes": dict(sorted(span.attributes.items())),
    }


def span_from_dict(data: dict[str, Any]) -> Span:
    """Rebuild a span from :func:`span_to_dict` output."""
    return Span(
        trace_id=data["trace_id"],
        span_id=data["span_id"],
        parent_id=data.get("parent_id"),
        name=data["name"],
        service=data["service"],
        kind=SpanKind(data.get("kind", "server")),
        start_time=data.get("start_time", 0.0),
        duration=data.get("duration", 0.0),
        status=SpanStatus(data.get("status", "ok")),
        node=data.get("node", "node-0"),
        attributes=dict(data.get("attributes", {})),
    )


def encode_span(span: Span) -> str:
    """Encode one span as a compact JSON document."""
    return json.dumps(span_to_dict(span), separators=(",", ":"), sort_keys=False)


def decode_span(payload: str) -> Span:
    """Decode a span previously produced by :func:`encode_span`."""
    return span_from_dict(json.loads(payload))


def encode_trace(trace: Trace) -> str:
    """Encode a whole trace as JSON lines, one span per line."""
    return "\n".join(encode_span(span) for span in trace.spans)


def decode_trace(payload: str) -> Trace:
    """Decode a trace from :func:`encode_trace` output."""
    spans = [decode_span(line) for line in payload.splitlines() if line]
    if not spans:
        raise ValueError("cannot decode a trace from an empty payload")
    return Trace(trace_id=spans[0].trace_id, spans=spans)


def encoded_size(obj: Any) -> int:
    """Bytes of the canonical encoding of ``obj``.

    Accepts spans, traces, strings, bytes, or anything JSON-serialisable;
    this is the single size ruler used by every meter in the simulation.
    """
    if isinstance(obj, Span):
        return len(encode_span(obj).encode("utf-8"))
    if isinstance(obj, Trace):
        return len(encode_trace(obj).encode("utf-8"))
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    return len(json.dumps(obj, separators=(",", ":"), default=str).encode("utf-8"))


# ----------------------------------------------------------------------
# Incremental size estimation (byte-identical to the JSON ruler)
# ----------------------------------------------------------------------
# The agent sizes every span's parameter record on ingest; rendering the
# full JSON text just to take its length dominates that path.  The
# helpers below compute the exact length json.dumps would produce
# without materialising the string.  They are an optimisation of the
# ruler, not a new ruler: `fast_encoded_size(x) == encoded_size(x)` for
# every JSON-serialisable value (enforced by tests).

# Characters that stop a string being "length + 2 quotes": anything
# json.dumps escapes (backslash, double quote, control chars) or
# non-ASCII (escaped to \uXXXX under the default ensure_ascii=True).
# One negated class — printable ASCII minus '"' and '\\' — so the search
# runs without alternation backtracking.  Public so size-critical
# callers can inline the plain-string test.
JSON_ESCAPE_RE = re.compile(r"[^ !#-\[\]-~]")
_NEEDS_ESCAPE = JSON_ESCAPE_RE


def json_string_size(value: str) -> int:
    """Exact byte length of ``json.dumps(value)``."""
    if _NEEDS_ESCAPE.search(value) is None:
        return len(value) + 2
    return len(json.dumps(value))


def json_number_size(value: float) -> int:
    """Exact byte length of a JSON-encoded int or float."""
    if isinstance(value, float) and not math.isfinite(value):
        return len(json.dumps(value))  # NaN / Infinity spellings
    return len(repr(value))


def json_value_size(obj: Any) -> int:
    """Exact byte length of ``json.dumps(obj, separators=(",", ":"),
    default=str)`` — the size of ``obj`` as a *JSON value* (a string here
    is sized as its quoted, escaped JSON form)."""
    if obj is None:
        return 4
    cls = obj.__class__
    if cls is str:
        return json_string_size(obj)
    if cls is float or cls is int:
        return json_number_size(obj)
    if cls is bool:
        return 4 if obj else 5
    if cls is list or cls is tuple:
        if not obj:
            return 2
        return 1 + len(obj) + sum(json_value_size(item) for item in obj)
    if cls is dict:
        if not obj:
            return 2
        size = 1 + len(obj)  # open brace + one ,/} per entry
        for key, value in obj.items():
            if key.__class__ is not str:
                break  # json coerces exotic keys; use the real encoder
            size += json_string_size(key) + 1 + json_value_size(value)
        else:
            return size
    return len(json.dumps(obj, separators=(",", ":"), default=str))


def fast_encoded_size(obj: Any) -> int:
    """Exact :func:`encoded_size` of ``obj``, computed without rendering
    the encoded text where possible.

    Mirrors :func:`encoded_size`'s dispatch (bare strings and bytes are
    raw payloads, everything else is JSON) and falls back to the real
    encoder for anything outside the plain JSON types, so the result is
    byte-identical to :func:`encoded_size` by construction.
    """
    if isinstance(obj, str):
        return len(obj) if obj.isascii() else len(obj.encode("utf-8"))
    if isinstance(obj, (Span, Trace, bytes)):
        return encoded_size(obj)
    return json_value_size(obj)
