"""The serve wire protocol: one JSON object per line, both directions.

Requests::

    {"op": "ping"}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "rosa", "text": "<Figure 2/4 query source>",
     "max_states": 200000, "max_seconds": 60.0}
    {"op": "analyze", "program": "passwd"}
    {"op": "corpus", "seed": 0, "generated": 4, "exemplars": false,
     "builtins": false, "limit": 8}
    {"op": "shutdown"}

Every request may carry a client-chosen ``"id"``; the response echoes
it.  Responses::

    {"ok": true,  "op": <op>, "id": <id>, "result": <op-specific>,
     "served": {"store_hits": H, "store_misses": M, "published": P}}
    {"ok": false, "op": <op>, "id": <id>, "error": "<message>"}

``served`` carries the request's own shared-store accounting — how many
of its distinct searches were read from the store versus computed live
and published — so clients can verify compute-once behaviour themselves
(the serve-smoke gate asserts ``store_hits / (store_hits +
store_misses) >= 0.9`` for a second client over a warm store).

The framing is deliberately trivial: UTF-8 JSON, ``\\n``-terminated, no
length prefixes, no binary.  Any line that does not decode to a JSON
object with a known ``op`` produces an ``ok: false`` response (never a
dropped connection), and lines over :data:`MAX_LINE_BYTES` are refused
by the server's stream limit.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Bump on any incompatible change to the envelope or an op's fields.
PROTOCOL_VERSION = 1

#: Upper bound on one request or response line.  Corpus responses carry
#: whole profile tables; queries carry whole configurations.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Every operation the server admits.
OPS = ("ping", "stats", "metrics", "rosa", "analyze", "corpus", "shutdown")


class ProtocolError(ValueError):
    """A line that is not a well-formed protocol message."""


def encode(message: Dict[str, Any]) -> bytes:
    """One message as its wire line (UTF-8 JSON + newline)."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def decode(line: bytes) -> Dict[str, Any]:
    """The message on one wire line; raises :class:`ProtocolError`."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"undecodable message line: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(f"message is {type(message).__name__}, want object")
    return message


def ok(
    op: str,
    result: Any,
    request_id: Optional[Any] = None,
    served: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """A success response envelope."""
    response: Dict[str, Any] = {"ok": True, "op": op, "result": result}
    if request_id is not None:
        response["id"] = request_id
    if served is not None:
        response["served"] = served
    return response


def error(
    op: Optional[str], message: str, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    """A failure response envelope (the connection stays up)."""
    response: Dict[str, Any] = {"ok": False, "op": op, "error": message}
    if request_id is not None:
        response["id"] = request_id
    return response
