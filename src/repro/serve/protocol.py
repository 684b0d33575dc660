"""Wire protocol for the analysis daemon: newline-delimited JSON-RPC 2.0.

One request or response per line, UTF-8, over a Unix or TCP socket.
Kept deliberately tiny — the stdlib has no JSON-RPC, and the daemon
needs exactly five verbs plus lifecycle::

    {"jsonrpc": "2.0", "id": 1, "method": "submit", "params": {...}}
    {"jsonrpc": "2.0", "id": 1, "result": {...}}
    {"jsonrpc": "2.0", "id": 1, "error": {"code": -32601, "message": ..}}

Methods (see :class:`repro.serve.server.ReproServer`):

``ping``, ``submit``, ``status``, ``result``, ``cancel``, ``stats``,
``results`` (store listing) and ``shutdown``.

A ``submit`` reply answered from the daemon's memory or store tier
(``"cached": true``) also carries an optional ``result`` field: the
payload a ``result`` call for that job returns, with its ``cache``
counters a snapshot taken when the submit was answered.  The field is
additive, so an older client ignores it and a newer client falls back
to the ``result`` call when a daemon leaves it out.

Error codes follow the JSON-RPC spec for transport errors and use the
server range for domain errors (unknown job/target, draining, …).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

__all__ = ["PROTOCOL_VERSION", "MAX_LINE", "ProtocolError", "ServeError",
           "request", "response", "error_response", "encode", "decode",
           "PARSE_ERROR", "INVALID_REQUEST", "METHOD_NOT_FOUND",
           "INVALID_PARAMS", "INTERNAL_ERROR", "UNKNOWN_JOB",
           "UNKNOWN_TARGET", "JOB_NOT_DONE", "JOB_FAILED", "DRAINING"]

#: Bumped when the RPC surface changes incompatibly; exchanged in
#: ``ping`` so mismatched client/daemon pairs fail loudly.
PROTOCOL_VERSION = 1

#: Upper bound on one protocol line.  Reports with thousands of
#: violation digests fit in well under a tenth of this.
MAX_LINE = 64 * 1024 * 1024

# JSON-RPC spec codes
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

# Server-defined domain codes (-32000..-32099 reserved range)
UNKNOWN_JOB = -32000
UNKNOWN_TARGET = -32001
JOB_NOT_DONE = -32002
JOB_FAILED = -32003
DRAINING = -32004


class ProtocolError(Exception):
    """A malformed frame (transport layer)."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class ServeError(Exception):
    """An error *response* surfaced to a client caller."""

    def __init__(self, code: int, message: str,
                 data: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.code = code
        self.data = data or {}


def request(req_id: int, method: str,
            params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    msg: Dict[str, Any] = {"jsonrpc": "2.0", "id": req_id, "method": method}
    if params:
        msg["params"] = params
    return msg


def response(req_id: Any, result: Any) -> Dict[str, Any]:
    return {"jsonrpc": "2.0", "id": req_id, "result": result}


def error_response(req_id: Any, code: int, message: str,
                   data: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": code, "message": message}
    if data:
        error["data"] = data
    return {"jsonrpc": "2.0", "id": req_id, "error": error}


def encode(msg: Dict[str, Any]) -> bytes:
    """One frame: compact JSON + newline."""
    return (json.dumps(msg, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse and structurally validate one frame."""
    if len(line) > MAX_LINE:
        raise ProtocolError(INVALID_REQUEST, "frame too large")
    try:
        msg = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(PARSE_ERROR, f"bad JSON frame: {exc}") from None
    if not isinstance(msg, dict) or msg.get("jsonrpc") != "2.0":
        raise ProtocolError(INVALID_REQUEST, "not a JSON-RPC 2.0 frame")
    if "method" in msg and not isinstance(msg["method"], str):
        raise ProtocolError(INVALID_REQUEST, "method must be a string")
    if "params" in msg and not isinstance(msg["params"], dict):
        raise ProtocolError(INVALID_PARAMS, "params must be an object")
    return msg
