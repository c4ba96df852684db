"""CLP-style compression (Rodrigues et al., OSDI 2021).

CLP parses each message into a *logtype* (the constant text), a list of
*dictionary variables* (tokens mixing letters and digits, stored once in
a dictionary and referenced by id) and *non-dictionary variables*
(plain numbers, encoded in place).  Searches run directly over the
compressed representation — the property the paper's experiment
requires of every contender.
"""

from __future__ import annotations

import re

from repro.compression.base import CompressionResult, Compressor
from repro.compression.corpus import corpus_raw_bytes, spans_as_lines
from repro.model.encoding import encoded_size
from repro.model.trace import Trace

_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")
_HEX_RE = re.compile(r"^[0-9a-f]{4,16}$")
_DICT_VAR_RE = re.compile(r"^(?=.*\d)[\w.\-:/=]+$")


def classify_token(token: str) -> str:
    """CLP token classes: 'number', 'encoded' or 'dictvar' vs 'logtype'.

    CLP stores variables representable in 64 bits as *non-dictionary*
    (inline-encoded) values; hex ids up to 16 digits qualify.  Treating
    them as dictionary variables instead would balloon the dictionary
    with never-repeating ids.
    """
    if _NUMBER_RE.match(token):
        return "number"
    if _HEX_RE.match(token):
        return "encoded"
    if _DICT_VAR_RE.match(token):
        return "dictvar"
    return "logtype"


class CLPCompressor(Compressor):
    """Logtype + dictionary/non-dictionary variable encoding."""

    name = "CLP"

    def compress(self, traces: list[Trace]) -> CompressionResult:
        lines = spans_as_lines(traces)
        raw = corpus_raw_bytes(traces)
        logtypes: dict[str, int] = {}
        var_dict: dict[str, int] = {}
        # A corpus repeats its tokens: classify each distinct core once.
        classes: dict[str, str] = {"": "logtype"}
        residual_bytes = 0
        for line in lines:
            # CLP tokenises on punctuation as well as spaces; splitting
            # key=value pairs lets the constant key join the logtype
            # while only the value is treated as a variable.
            tokens = []
            for piece in line.split(" "):
                if "=" in piece:
                    key, _, value = piece.partition("=")
                    tokens.append(f"{key}=")
                    if value:
                        tokens.append(value)
                else:
                    tokens.append(piece)
            logtype_parts: list[str] = []
            dict_ids: list[int] = []
            numbers: list[float] = []
            for token in tokens:
                # Peel punctuation affixes (quotes, parens, commas) so a
                # token like ``('4f2a1b',`` classifies by its core; the
                # affixes stay in the logtype as constant text.
                core = token.strip("'\"(),;[]{}")
                prefix_len = token.find(core) if core else len(token)
                prefix = token[:prefix_len]
                suffix = token[prefix_len + len(core):] if core else ""
                cls = classes.get(core)
                if cls is None:
                    cls = classes[core] = classify_token(core)
                if cls == "number":
                    logtype_parts.append(f"{prefix}\\f{suffix}")
                    numbers.append(float(core))
                elif cls == "encoded":
                    logtype_parts.append(f"{prefix}\\x{suffix}")
                    numbers.append(int(core, 16))
                elif cls == "dictvar":
                    logtype_parts.append(f"{prefix}\\d{suffix}")
                    var_id = var_dict.get(core)
                    if var_id is None:
                        var_id = len(var_dict)
                        var_dict[core] = var_id
                    dict_ids.append(var_id)
                else:
                    logtype_parts.append(token)
            logtype = " ".join(logtype_parts)
            logtype_id = logtypes.get(logtype)
            if logtype_id is None:
                logtype_id = len(logtypes)
                logtypes[logtype] = logtype_id
            residual_bytes += encoded_size([logtype_id, dict_ids, numbers])
        dictionary_bytes = encoded_size(list(logtypes)) + encoded_size(
            list(var_dict)
        )
        compressed = dictionary_bytes + residual_bytes
        return CompressionResult(
            compressor=self.name,
            raw_bytes=raw,
            compressed_bytes=compressed,
            details={
                "logtypes": len(logtypes),
                "dictionary_entries": len(var_dict),
                "dictionary_bytes": dictionary_bytes,
                "residual_bytes": residual_bytes,
            },
        )
