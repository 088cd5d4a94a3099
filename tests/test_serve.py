"""The ``privanalyzer serve`` control plane, end to end over real sockets.

A server thread with a store in ``tmp_path``, real clients over
loopback.  The headline property is the serve-smoke gate's: a second
client asking the same questions must be store-served (``store_hits /
lookups >= 0.9``) with responses identical to the first client's, and
concurrent cold clients must not duplicate work (total publishes equal
the store's distinct objects).
"""

import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServeClient,
    ServeError,
    VerdictServer,
    protocol,
)

FIGURE2 = (Path(__file__).parent.parent / "examples" / "queries" / "figure2.rosa")


@pytest.fixture()
def server(tmp_path):
    """A live VerdictServer on an ephemeral loopback port."""
    instance = VerdictServer(str(tmp_path / "store"))
    port_file = tmp_path / "port"
    thread = threading.Thread(
        target=instance.run, kwargs={"port_file": str(port_file)}, daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while not port_file.exists():
        assert time.monotonic() < deadline, "server never published its port"
        time.sleep(0.01)
    host, port = port_file.read_text().strip().rsplit(":", 1)
    instance.test_address = (host, int(port))
    yield instance
    try:
        with ServeClient(*instance.test_address, timeout=10.0) as client:
            client.shutdown()
    except (ConnectionError, OSError):
        pass  # the test already shut it down
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def connect(server, timeout=120.0):
    return ServeClient(*server.test_address, timeout=timeout)


def served_fraction(response):
    served = response["served"]
    lookups = served["store_hits"] + served["store_misses"]
    return served["store_hits"] / lookups if lookups else 0.0


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "ping", "id": 7}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ProtocolError, match="want object"):
            protocol.decode(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode(b"{nope\n")

    def test_envelopes(self):
        good = protocol.ok("ping", {"pong": True}, 3, {"store_hits": 1})
        assert good["ok"] and good["id"] == 3 and "served" in good
        bad = protocol.error("rosa", "boom", 4)
        assert not bad["ok"] and bad["error"] == "boom" and bad["id"] == 4


class TestControlOps:
    def test_ping(self, server):
        with connect(server) as client:
            assert client.ping() == {"pong": True, "protocol": PROTOCOL_VERSION}

    def test_stats_shape(self, server):
        with connect(server) as client:
            client.ping()
            stats = client.stats()
        assert stats["protocol"] == PROTOCOL_VERSION
        assert stats["uptime_seconds"] >= 0
        assert stats["requests"]["ping"] == 1
        assert stats["store"]["entries"] == 0
        assert "single_flight" in stats["store"]

    def test_metrics_is_prometheus_text(self, server):
        with connect(server) as client:
            client.ping()
            text = client.metrics_text()
        assert "serve_requests" in text
        assert "rosa_store_entries" in text

    def test_unknown_op_keeps_the_connection(self, server):
        with connect(server) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client.request("launder")
            assert client.ping()["pong"]  # same connection still fine

    def test_garbage_line_keeps_the_connection(self, server):
        with connect(server) as client:
            client._sock.sendall(b"this is not json\n")
            response = protocol.decode(client._reader.readline())
            assert response["ok"] is False
            assert "undecodable" in response["error"]
            assert client.ping()["pong"]

    def test_request_id_is_echoed(self, server):
        with connect(server) as client:
            response = client.request("ping")
            assert response["id"] == 1
            response = client.request("ping")
            assert response["id"] == 2


class TestRosaOp:
    def test_figure2_query_over_the_wire(self, server):
        text = FIGURE2.read_text()
        with connect(server) as client:
            first = client.rosa(text, name="figure2")
        assert first["result"]["verdict"] == "vulnerable"
        assert first["result"]["witness"]
        assert first["served"]["published"] == 1
        assert first["served"]["store_hits"] == 0

        with connect(server) as client:
            second = client.rosa(text, name="figure2-again")
        assert second["served"]["store_hits"] == 1
        assert second["served"]["published"] == 0
        assert second["result"]["verdict"] == first["result"]["verdict"]
        assert second["result"]["witness"] == first["result"]["witness"]
        assert second["result"]["from_cache"] is True

    def test_rosa_requires_text(self, server):
        with connect(server) as client:
            with pytest.raises(ServeError, match="non-empty 'text'"):
                client.request("rosa")


class TestAnalyzeOp:
    def test_second_client_is_store_served_and_identical(self, server):
        with connect(server) as client:
            first = client.analyze("passwd")
        assert first["served"]["store_hits"] == 0
        assert first["served"]["published"] > 0

        with connect(server) as client:
            second = client.analyze("passwd")
        assert served_fraction(second) >= 0.9  # the serve-smoke bar
        assert second["served"]["published"] == 0
        assert first["result"] == second["result"]

    def test_unknown_program_is_an_error_response(self, server):
        with connect(server) as client:
            with pytest.raises(ServeError):
                client.analyze("no-such-program")
            assert client.ping()["pong"]

    def test_concurrent_cold_clients_never_duplicate_work(self, server):
        responses = []
        lock = threading.Lock()

        def worker():
            with connect(server) as client:
                response = client.analyze("passwd")
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert len(responses) == 2
        assert responses[0]["result"] == responses[1]["result"]
        # Publishes across the fleet equal the distinct objects landed:
        # racing clients coalesced or deduped, never double-published.
        total_published = sum(r["served"]["published"] for r in responses)
        with connect(server) as client:
            stats = client.stats()
        assert total_published == stats["store"]["entries"]


class TestCorpusOp:
    def test_corpus_slice_and_warm_serving(self, server):
        with connect(server) as client:
            first = client.corpus(seed=7, generated=2)
        programs = first["result"]["programs"]
        assert first["result"]["corpus_seed"] == 7
        assert len(programs) == 2
        assert first["served"]["published"] > 0

        with connect(server) as client:
            second = client.corpus(seed=7, generated=2)
        assert served_fraction(second) >= 0.9
        assert second["result"] == first["result"]

    def test_limit_truncates(self, server):
        with connect(server) as client:
            response = client.corpus(seed=7, generated=2, limit=1)
        assert len(response["result"]["programs"]) == 1


class TestShutdown:
    def test_shutdown_stops_the_server(self, server):
        with connect(server) as client:
            assert client.shutdown() == {"stopping": True}
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                with ServeClient(*server.test_address, timeout=1.0):
                    time.sleep(0.05)
            except (ConnectionError, OSError):
                break
        else:
            pytest.fail("server kept accepting after shutdown")


class TestMetricsAccounting:
    def test_store_counters_fold_into_the_dashboard(self, server):
        with connect(server) as client:
            client.analyze("passwd")
            client.analyze("passwd")
            text = client.metrics_text()
        lines = {
            line.split()[0]: float(line.split()[1])
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert lines["privanalyzer_rosa_store_published_total"] > 0
        assert lines["privanalyzer_rosa_store_hits_total"] > 0
        assert lines["privanalyzer_rosa_store_entries"] == lines["privanalyzer_rosa_store_published_total"]


class TestConcurrentBookkeeping:
    def test_no_request_is_lost_under_concurrency(self, tmp_path):
        """Handler threads share the request counts and the dashboard
        registry; with a tiny switch interval an unlocked
        read-modify-write loses increments."""
        server = VerdictServer(str(tmp_path / "store"))
        line = protocol.encode({"op": "ping", "id": 1})
        threads, per_thread = 8, 20000

        def hammer():
            for _ in range(per_thread):
                assert server._dispatch(line)["ok"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        stats = server._dispatch(protocol.encode({"op": "stats"}))["result"]
        assert stats["requests"]["ping"] == threads * per_thread
        requests = server.telemetry.metrics.counter("serve.requests").value
        assert requests == threads * per_thread + 1  # the pings and the stats
