"""A blocking client for the ``privanalyzer serve`` protocol.

Small on purpose — a socket, a buffered line reader, and one method per
operation — so tests, the serve-smoke gate, and scripts talk to the
server without pulling in asyncio.  Any process (or many threads of
one) can hold its own client; the server handles each connection's
requests off-loop, so concurrent clients genuinely overlap.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Optional

from repro.serve import protocol


class ServeError(RuntimeError):
    """The server answered ``ok: false`` (the connection is still fine)."""


class ServeClient:
    """One connection to a :class:`~repro.serve.server.VerdictServer`."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._next_id = 0

    # -- plumbing --------------------------------------------------------------

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, wait for its response, return the envelope.

        Raises :class:`ServeError` on an ``ok: false`` answer and
        :class:`~repro.serve.protocol.ProtocolError` on garbage.
        """
        self._next_id += 1
        message = {"op": op, "id": self._next_id, **fields}
        self._sock.sendall(protocol.encode(message))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection mid-request")
        response = protocol.decode(line)
        if not response.get("ok"):
            raise ServeError(str(response.get("error", "unknown server error")))
        return response

    # -- operations ------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")["result"]

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")["result"]

    def metrics_text(self) -> str:
        """The server's Prometheus text exposition (the live dashboard)."""
        return self.request("metrics")["result"]["text"]

    def rosa(
        self,
        text: str,
        name: str = "query",
        max_states: int = 200_000,
        max_seconds: float = 60.0,
    ) -> Dict[str, Any]:
        return self.request(
            "rosa",
            text=text,
            name=name,
            max_states=max_states,
            max_seconds=max_seconds,
        )

    def analyze(self, program: str, **fields: Any) -> Dict[str, Any]:
        return self.request("analyze", program=program, **fields)

    def corpus(
        self,
        seed: int = 0,
        generated: int = 4,
        exemplars: bool = False,
        builtins: bool = False,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "seed": seed,
            "generated": generated,
            "exemplars": exemplars,
            "builtins": builtins,
        }
        if limit is not None:
            fields["limit"] = limit
        return self.request("corpus", **fields)

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")["result"]
