"""The service wire protocol: versioned NDJSON frames over TCP.

One frame per line, each line one JSON object with a ``"type"`` field.
The protocol is deliberately boring — newline-delimited JSON is
inspectable with ``nc`` and ``jq``, resyncs trivially after a bad frame
(skip to the next newline), and round-trips floats losslessly (Python's
``json`` emits shortest-repr doubles), which is what lets the client
reconstruct bit-identical :class:`~repro.core.results.MatchResult`
log-probabilities.

Frame inventory (``→`` = server to client, ``←`` = client to server):

=========  ===  ==========================================================
``hello``   →   first frame on connect: protocol version, server limits.
``submit``  ←   start a query: client-chosen ``id``, query spec, budget.
``match``   →   one streamed match for ``id`` (monotonic ``seq``).
``progress``→   periodic per-query counters while a query runs.
``done``    →   terminal frame for ``id``: status, reason, final stats.
``error``   →   protocol-level failure (malformed/oversized frame, bad
                submit, unknown id); carries ``id`` when attributable.
``cancel``  ←   stop query ``id`` at the next scheduling boundary.
``window``  ←   grant ``n`` more match-delivery credits for ``id``.
``stats``   ←→  request / response: service-wide counters.
``bye``     ←   polite disconnect (closing the socket works too).
=========  ===  ==========================================================

Every decode path is fuzz-tolerant: malformed input raises
:class:`ProtocolError` (which the server answers with an ``error`` frame
and survives), never anything else.  Frames above ``MAX_FRAME_BYTES``
are rejected before parsing.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

from repro.core.preprocessors import LevenshteinPreprocessor
from repro.core.query import (
    QuerySearchStrategy,
    QueryTokenizationStrategy,
    SearchQuery,
    SimpleSearchQuery,
)
from repro.core.results import MatchResult
from repro.core.scheduler import QueryBudget
from repro.lm.decoding import DecodingPolicy

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FRAME_TYPES",
    "DONE_STATUSES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "validate_submit",
    "query_to_wire",
    "query_from_wire",
    "match_to_wire",
    "match_from_wire",
]

#: Bump on any incompatible change to frame shapes; ``hello`` carries it
#: and clients refuse to talk across a mismatch.
PROTOCOL_VERSION = 1

#: Hard per-frame byte ceiling (newline included).  A match frame is a
#: few hundred bytes; 1 MiB leaves room for pathological patterns while
#: bounding what a hostile peer can make the server buffer.
MAX_FRAME_BYTES = 1 << 20

#: Every frame type either side may legitimately send.
FRAME_TYPES = frozenset(
    {
        "hello",
        "submit",
        "match",
        "progress",
        "done",
        "error",
        "cancel",
        "window",
        "stats",
        "bye",
    }
)

#: Terminal statuses a ``done`` frame may carry.
DONE_STATUSES = ("ok", "truncated", "cancelled", "rejected", "interrupted")

_STRATEGIES = {
    "shortest": QuerySearchStrategy.SHORTEST_PATH,
    "random": QuerySearchStrategy.RANDOM_SAMPLING,
}
_STRATEGY_NAMES = {v: k for k, v in _STRATEGIES.items()}
_TOKENIZATIONS = {
    "all": QueryTokenizationStrategy.ALL_TOKENS,
    "canonical": QueryTokenizationStrategy.CANONICAL,
}
_TOKENIZATION_NAMES = {v: k for k, v in _TOKENIZATIONS.items()}


class ProtocolError(Exception):
    """A frame that cannot be parsed or validated.

    ``fatal=True`` marks failures after which the byte stream cannot be
    trusted to resync (none today — newline framing always resyncs — but
    the flag keeps the server's policy explicit).
    """

    def __init__(self, message: str, *, fatal: bool = False) -> None:
        super().__init__(message)
        self.fatal = fatal


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """Serialize *frame* to one newline-terminated JSON line."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(line: bytes, *, max_bytes: int = MAX_FRAME_BYTES) -> dict[str, Any]:
    """Parse one wire line into a frame dict, or raise :class:`ProtocolError`.

    Checks, in order: byte length, UTF-8 validity, JSON validity, that the
    document is an object, and that ``type`` is a known frame type.  The
    caller still validates type-specific fields (:func:`validate_submit`).
    """
    if len(line) > max_bytes:
        raise ProtocolError(f"frame exceeds {max_bytes} bytes")
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame is not valid UTF-8: {exc}") from None
    text = text.strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        frame = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc.msg}") from None
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object")
    frame_type = frame.get("type")
    if not isinstance(frame_type, str) or frame_type not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame_type!r}")
    return frame


def _require_str(frame: Mapping[str, Any], key: str) -> str:
    value = frame.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{frame.get('type', '?')} frame needs a string {key!r}")
    return value


def _opt_number(
    spec: Mapping[str, Any], key: str, *, integral: bool = False
) -> float | int | None:
    value = spec.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{key!r} must be a number")
    if not math.isfinite(value):  # ``json.loads`` parses NaN and Infinity
        raise ProtocolError(f"{key!r} must be a finite number")
    if integral:
        if isinstance(value, float) and not value.is_integer():
            raise ProtocolError(f"{key!r} must be an integer")
        return int(value)
    return value


def validate_submit(frame: Mapping[str, Any]) -> tuple[str, SimpleSearchQuery, QueryBudget]:
    """Validate a ``submit`` frame; returns ``(id, query, budget)``.

    Any shape problem — missing id, non-object query spec, non-numeric or
    unsatisfiable budget field (``max_results: 0``, a non-finite
    ``deadline``) — raises :class:`ProtocolError` with a message safe to
    echo to the client.
    """
    query_id = _require_str(frame, "id")
    if len(query_id) > 200:
        raise ProtocolError("query id longer than 200 characters")
    spec = frame.get("query")
    if not isinstance(spec, dict):
        raise ProtocolError("submit frame needs an object 'query' field")
    query = query_from_wire(spec)
    budget_spec = frame.get("budget", {})
    if not isinstance(budget_spec, dict):
        raise ProtocolError("'budget' must be an object")
    try:
        budget = QueryBudget(
            deadline=_opt_number(budget_spec, "deadline"),
            max_lm_calls=_opt_number(budget_spec, "max_lm_calls", integral=True),
            max_results=_opt_number(budget_spec, "max_results", integral=True),
        )
    except ValueError as exc:
        raise ProtocolError(f"bad budget: {exc}") from None
    return query_id, query, budget


# -- query specs --------------------------------------------------------------
def query_to_wire(query: SimpleSearchQuery) -> dict[str, Any]:
    """Serialize *query* for a ``submit`` frame.

    The inverse of :func:`query_from_wire`.  Preprocessors other than a
    single :class:`LevenshteinPreprocessor` have no wire form (they carry
    arbitrary automata) and raise ``ValueError`` — the service API is the
    regex surface, not the full preprocessor algebra.
    """
    edits = 0
    if query.preprocessors:
        if len(query.preprocessors) != 1 or not isinstance(
            query.preprocessors[0], LevenshteinPreprocessor
        ):
            raise ValueError(
                "only a single LevenshteinPreprocessor can be sent over the wire"
            )
        edits = query.preprocessors[0].distance
    spec: dict[str, Any] = {
        "pattern": query.query_string.query_str,
        "strategy": _STRATEGY_NAMES[query.search_strategy],
        "tokenization": _TOKENIZATION_NAMES[query.tokenization_strategy],
    }
    if query.query_string.prefix_str is not None:
        spec["prefix"] = query.query_string.prefix_str
    for key, value, default in (
        ("top_k", query.top_k_sampling, None),
        ("top_p", query.top_p_sampling, None),
        ("temperature", query.temperature, 1.0),
        ("sequence_length", query.sequence_length, None),
        ("num_samples", query.num_samples, None),
        ("require_eos", query.require_eos, False),
        ("seed", query.seed, None),
        ("edits", edits, 0),
        ("uniform_edge_sampling", query.uniform_edge_sampling, False),
    ):
        if value != default:
            spec[key] = value
    return spec


def query_from_wire(spec: Mapping[str, Any]) -> SimpleSearchQuery:
    """Build a :class:`SimpleSearchQuery` from a ``submit`` query spec.

    Round-trips :func:`query_to_wire` exactly (same dataclass fields), so
    a query submitted through the service compiles to the same cache
    fingerprint as the identical query run in-process — warm compile- and
    checkpoint-cache hits depend on this.
    """
    pattern = spec.get("pattern")
    if not isinstance(pattern, str) or not pattern:
        raise ProtocolError("query spec needs a non-empty string 'pattern'")
    prefix = spec.get("prefix")
    if prefix is not None and not isinstance(prefix, str):
        raise ProtocolError("'prefix' must be a string")
    strategy_name = spec.get("strategy", "shortest")
    if strategy_name not in _STRATEGIES:
        raise ProtocolError(
            f"unknown strategy {strategy_name!r} (use one of {sorted(_STRATEGIES)})"
        )
    tokenization_name = spec.get("tokenization", "all")
    if tokenization_name not in _TOKENIZATIONS:
        raise ProtocolError(
            f"unknown tokenization {tokenization_name!r} "
            f"(use one of {sorted(_TOKENIZATIONS)})"
        )
    edits = _opt_number(spec, "edits", integral=True) or 0
    if edits < 0:
        raise ProtocolError("'edits' must be >= 0")
    temperature = _opt_number(spec, "temperature")
    require_eos = spec.get("require_eos", False)
    uniform = spec.get("uniform_edge_sampling", False)
    if not isinstance(require_eos, bool) or not isinstance(uniform, bool):
        raise ProtocolError("'require_eos'/'uniform_edge_sampling' must be booleans")
    try:
        query = SearchQuery(
            pattern,
            prefix=prefix,
            top_k=_opt_number(spec, "top_k", integral=True),
            top_p=_opt_number(spec, "top_p"),
            temperature=1.0 if temperature is None else float(temperature),
            strategy=_STRATEGIES[strategy_name],
            tokenization=_TOKENIZATIONS[tokenization_name],
            sequence_length=_opt_number(spec, "sequence_length", integral=True),
            num_samples=_opt_number(spec, "num_samples", integral=True),
            require_eos=require_eos,
            preprocessors=(LevenshteinPreprocessor(int(edits)),) if edits else (),
            seed=_opt_number(spec, "seed", integral=True),
        )
        # The decision rules' own checks (top_k >= 1, top_p in (0, 1],
        # temperature > 0), here so a bad rule is this frame's error.
        DecodingPolicy(
            top_k=query.top_k_sampling,
            top_p=query.top_p_sampling,
            temperature=query.temperature,
        )
    except ProtocolError:
        raise
    except Exception as exc:  # defensive: bad combos must not kill the session
        raise ProtocolError(f"invalid query spec: {exc}") from None
    if uniform:
        query = query.with_(uniform_edge_sampling=True)
    return query


# -- matches ------------------------------------------------------------------
def match_to_wire(match: MatchResult) -> dict[str, Any]:
    """Serialize one match (same record shape as the JSONL log sink)."""
    return {
        "text": match.text,
        "tokens": list(match.tokens),
        "logprob": match.logprob,
        "total_logprob": match.total_logprob,
        "canonical": match.canonical,
        "prefix_text": match.prefix_text,
    }


def match_from_wire(record: Mapping[str, Any]) -> MatchResult:
    """Rebuild a :class:`MatchResult` from its wire form."""
    try:
        return MatchResult(
            tokens=tuple(record["tokens"]),
            text=record["text"],
            logprob=record["logprob"],
            total_logprob=record["total_logprob"],
            canonical=record["canonical"],
            prefix_text=record.get("prefix_text", ""),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed match record: {exc!r}") from None
