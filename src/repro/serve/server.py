"""The ``privanalyzer serve`` control plane.

One :class:`VerdictServer` owns one :class:`~repro.rosa.store.
SharedVerdictStore` (wrapped in :class:`~repro.rosa.store.SingleFlight`
so concurrent cold misses for the same canonical key run one search,
not N) and admits requests over the line protocol in
:mod:`repro.serve.protocol`.  The asyncio loop only frames and
dispatches; the actual analysis work runs on a thread per request, so
many connections progress concurrently and the single-flight window is
real.

Every request gets a *fresh* :class:`~repro.rosa.engine.QueryEngine`
(empty in-memory LRU) over the shared store, and one private
:class:`~repro.telemetry.Telemetry` its engines count into — the
``served`` field of each response therefore reports honestly how many
of that request's distinct searches were store-served versus computed
live, with zero help from warm process state.  After each request the
counts fold into the server's metrics registry, so ``{"op": "metrics"}``
(Prometheus text exposition) is the live service dashboard: ``serve.*``
request counters plus ``rosa.store.*`` fleet-wide compute-once counters.
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.rosa.store import SharedVerdictStore, SingleFlight
from repro.serve import protocol
from repro.telemetry import Telemetry, metrics_to_prometheus

logger = logging.getLogger("repro.serve")


#: The request-registry counters behind a response's ``served`` field
#: (the query engine bumps them once per store ``get`` and once per
#: ``put`` that publishes), keyed by their ``served`` name.
_SERVED_COUNTERS = {
    "store_hits": "rosa.store.hits",
    "store_misses": "rosa.store.misses",
    "published": "rosa.store.published",
}


def _served(telemetry: Telemetry) -> Dict[str, int]:
    """One request's store accounting, read from its telemetry."""
    metrics = telemetry.metrics
    return {
        field: metrics.counter(name).value
        for field, name in _SERVED_COUNTERS.items()
    }


class VerdictServer:
    """An asyncio socket server sharing one verdict store across clients."""

    def __init__(
        self,
        store_root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.store = SingleFlight(SharedVerdictStore(store_root))
        #: The dashboard registry; each request's engines count into a
        #: private telemetry, whose store counters fold in here after
        #: every response (see :meth:`_account`).
        self.telemetry = telemetry or Telemetry.enabled()
        self._started = time.monotonic()
        self._requests: Dict[str, int] = {}
        #: Guards the bookkeeping handler threads share: the per-op
        #: request counts and the dashboard registry's instruments.
        self._lock = threading.Lock()
        self._shutdown = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        logger.info("serving on %s:%d (store %s)", self.host, self.port,
                    self.store.store.root)
        return self.host, self.port

    async def wait_closed(self) -> None:
        """Block until a ``shutdown`` request arrives, then close."""
        await self._shutdown.wait()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    def run(self, port_file: Optional[str] = None) -> None:
        """Start, optionally publish the bound port, serve until shutdown."""

        async def main() -> None:
            host, port = await self.start()
            if port_file is not None:
                # Atomic, so a poller never reads a created-but-empty file.
                partial = f"{port_file}.tmp"
                with open(partial, "w", encoding="utf-8") as handle:
                    handle.write(f"{host}:{port}\n")
                os.replace(partial, port_file)
            await self.wait_closed()

        asyncio.run(main())

    # -- the connection loop ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(protocol.encode(
                        protocol.error(None, "request line too long")
                    ))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await asyncio.to_thread(self._dispatch, line)
                writer.write(protocol.encode(response))
                await writer.drain()
                if response.get("op") == "shutdown" and response.get("ok"):
                    self._shutdown.set()
                    break
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            logger.debug("connection from %s closed", peer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass

    # -- dispatch (thread side) ------------------------------------------------

    def _dispatch(self, line: bytes) -> Dict[str, Any]:
        request_id = None
        op = None
        try:
            message = protocol.decode(line)
            request_id = message.get("id")
            op = message.get("op")
            if op not in protocol.OPS:
                raise protocol.ProtocolError(
                    f"unknown op {op!r}; known: {', '.join(protocol.OPS)}"
                )
            with self._lock:
                self._requests[op] = self._requests.get(op, 0) + 1
                self.telemetry.metrics.counter("serve.requests").inc()
            handler = getattr(self, f"_op_{op}")
            result, served = handler(message)
            self._account(served)
            return protocol.ok(op, result, request_id, served)
        except Exception as exc:  # noqa: BLE001 - the wire boundary
            logger.warning("request failed (%s): %s", op, exc)
            with self._lock:
                self.telemetry.metrics.counter("serve.errors").inc()
            return protocol.error(op, str(exc), request_id)

    def _account(self, served: Optional[Dict[str, int]]) -> None:
        """Fold one request's store accounting into the dashboard."""
        if not served:
            return
        metrics = self.telemetry.metrics
        with self._lock:
            for field, name in _SERVED_COUNTERS.items():
                if served.get(field):
                    metrics.counter(name).inc(served[field])

    # -- operations ------------------------------------------------------------

    def _op_ping(self, message) -> Tuple[Any, Optional[Dict[str, int]]]:
        return {"pong": True, "protocol": protocol.PROTOCOL_VERSION}, None

    def _op_stats(self, message) -> Tuple[Any, Optional[Dict[str, int]]]:
        stats = self.store.stats()
        stats["rejected_total"] = stats.get("rejected", 0)
        with self._lock:
            requests = dict(sorted(self._requests.items()))
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "requests": requests,
            "store": stats,
        }, None

    def _op_metrics(self, message) -> Tuple[Any, Optional[Dict[str, int]]]:
        # The single-flight coalescing gauges refresh on read, so the
        # dashboard shows them without a request having to fold them.
        flight = self.store.stats()["single_flight"]
        entries = self.store.store.entry_count()
        metrics = self.telemetry.metrics
        with self._lock:
            metrics.gauge("serve.single_flight.leaders").set(flight["leaders"])
            metrics.gauge("serve.single_flight.joined").set(flight["joined"])
            metrics.gauge("rosa.store.entries").set(entries)
            text = metrics_to_prometheus(metrics)
        return {"text": text}, None

    def _op_shutdown(self, message) -> Tuple[Any, Optional[Dict[str, int]]]:
        return {"stopping": True}, None

    def _op_rosa(self, message) -> Tuple[Any, Optional[Dict[str, int]]]:
        from repro.rewriting import SearchBudget
        from repro.rosa.dsl import parse_query
        from repro.rosa.engine import QueryCache, QueryEngine

        text = message.get("text")
        if not isinstance(text, str) or not text.strip():
            raise protocol.ProtocolError("rosa needs a non-empty 'text' field")
        query = parse_query(text, name=str(message.get("name", "query")))
        budget = SearchBudget(
            max_states=int(message.get("max_states", 200_000)),
            max_seconds=float(message.get("max_seconds", 60.0)),
        )
        telemetry = Telemetry.disabled()
        engine = QueryEngine(
            budget=budget,
            cache=QueryCache(),
            store=self.store,
            telemetry=telemetry,
        )
        report = engine.check(query)
        return {
            "name": report.query.name,
            "verdict": report.verdict.value,
            "witness": list(report.witness),
            "states_explored": report.states_explored,
            "states_seen": report.states_seen,
            "from_cache": report.from_cache,
        }, _served(telemetry)

    def _op_analyze(self, message) -> Tuple[Any, Optional[Dict[str, int]]]:
        from repro.core.pipeline import PrivAnalyzer
        from repro.core.report import analysis_to_dict
        from repro.programs import spec_by_name
        from repro.rewriting import SearchBudget

        program = message.get("program")
        if not isinstance(program, str):
            raise protocol.ProtocolError("analyze needs a 'program' name")
        spec = spec_by_name(program)
        budget = None
        if "max_states" in message or "max_seconds" in message:
            budget = SearchBudget(
                max_states=int(message.get("max_states", 200_000)),
                max_seconds=float(message.get("max_seconds", 60.0)),
            )
        telemetry = Telemetry.disabled()
        analyzer = PrivAnalyzer(
            budget=budget, verdict_store=self.store, telemetry=telemetry,
        )
        analysis = analyzer.analyze(spec)
        return analysis_to_dict(analysis), _served(telemetry)

    def _op_corpus(self, message) -> Tuple[Any, Optional[Dict[str, int]]]:
        from repro.core.pipeline import PrivAnalyzer
        from repro.core.report import analysis_to_dict
        from repro.corpus.build import CorpusSpec, generate_corpus
        from repro.corpus.sweep import DEFAULT_SWEEP_BUDGET

        spec = CorpusSpec(
            seed=int(message.get("seed", 0)),
            size=int(message.get("generated", 4)),
            violators=min(int(message.get("generated", 4)), 1),
            include_exemplars=bool(message.get("exemplars", False)),
            include_builtins=bool(message.get("builtins", False)),
        )
        entries = generate_corpus(spec)
        limit = message.get("limit")
        if limit is not None:
            entries = entries[: int(limit)]
        telemetry = Telemetry.disabled()
        programs = []
        for entry in entries:
            analyzer = PrivAnalyzer(
                budget=DEFAULT_SWEEP_BUDGET,
                verdict_store=self.store,
                telemetry=telemetry,
            )
            analysis = analyzer.analyze(entry.spec())
            programs.append(analysis_to_dict(analysis))
        return {"corpus_seed": spec.seed, "programs": programs}, _served(telemetry)
