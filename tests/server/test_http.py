"""The HTTP/1.1 front: keep-alive, one write per reply, shutdown as a join.

``SlicerServer`` is exercised over real sockets with ``http.client`` —
the client the benchmark harness uses — and, for malformed input, with
raw sockets.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.server.app import SlicerApp
from repro.server.http import MAX_HEAD_BYTES, SlicerServer, WORKERS
from tests.server.conftest import wsgi_get


@pytest.fixture
def app(served_bundles):
    return SlicerApp(served_bundles["CURE+"])


def get(connection, path, method="GET"):
    connection.request(method, path)
    response = connection.getresponse()
    return response.status, response.read()


def slicer_threads():
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("slicer-")
    ]


def raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes; return everything the server sends until it closes."""
    with socket.create_connection((server.host, server.port), timeout=10) as s:
        s.sendall(request)
        received = b""
        while chunk := s.recv(65536):
            received += chunk
        return received


def test_sequential_requests_share_one_connection(app):
    with SlicerServer(app) as server:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        expected = wsgi_get(SlicerApp(app.bundle), "/node/0")[1]
        for _ in range(50):
            assert get(connection, "/node/0") == (200, expected)
        stats = json.loads(get(connection, "/stats")[1])
        connection.close()
    # http.client reconnects silently when the server closes after a
    # reply, so the server's own count is the evidence.
    assert stats["connections"] == 1
    assert stats["requests"] == 51


def test_error_statuses_and_bodies_match_the_wsgi_adapter(app):
    reference = SlicerApp(app.bundle)
    with SlicerServer(app) as server:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        for path, status in [
            ("/nope", 404),
            ("/slice/0?where=banana", 400),
            ("/slice/0?where=0.0:999", 400),
            ("/node/99999", 400),
            ("/iceberg/0?min=x", 400),
        ]:
            expected = wsgi_get(reference, path)
            assert expected[0].startswith(str(status))
            assert get(connection, path) == (status, expected[1])
        # the connection survived five client errors
        assert get(connection, "/node/0")[0] == 200
        assert get(connection, "/node/0", method="POST") == (
            405,
            wsgi_get(reference, "/node/0", method="POST")[1],
        )
        connection.close()


def test_encoded_paths_and_connection_close(app):
    with SlicerServer(app) as server:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        plain = get(connection, "/slice/0?where=0.0:1|3")
        quoted = get(connection, "/slice/0?where=0.0%3A1%7C3")
        assert plain == quoted and plain[0] == 200
        connection.close()
        reply = raw_exchange(
            server, b"GET /node/0 HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in head
        assert body == plain_body(app, "/node/0")
        # HTTP/1.0 without keep-alive closes after one reply as well
        reply = raw_exchange(server, b"GET /node/0 HTTP/1.0\r\n\r\n")
        assert reply.endswith(plain_body(app, "/node/0"))


def plain_body(app, path):
    return wsgi_get(SlicerApp(app.bundle), path)[1]


def test_pipelined_requests_are_answered_in_order(app):
    with SlicerServer(app) as server:
        reply = raw_exchange(
            server,
            b"GET /node/1 HTTP/1.1\r\n\r\n"
            b"GET /node/2 HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
    first, second = plain_body(app, "/node/1"), plain_body(app, "/node/2")
    assert reply.count(b"HTTP/1.1 200 OK") == 2
    assert reply.index(first) < reply.index(second)


def test_malformed_and_oversized_heads_are_refused(app):
    with SlicerServer(app) as server:
        assert raw_exchange(server, b"garbage\r\n\r\n").startswith(
            b"HTTP/1.1 400 Bad Request\r\n"
        )
        huge = b"GET / HTTP/1.1\r\nX: " + b"a" * (MAX_HEAD_BYTES + 1)
        assert raw_exchange(server, huge).startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n"
        )
        # a POST's unread body must not be parsed as the next request
        reply = raw_exchange(
            server,
            b"POST /node/0 HTTP/1.1\r\nContent-Length: 24\r\n\r\n"
            b"GET /node/0 HTTP/1.1\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 405 Method Not Allowed\r\n")
        assert reply.count(b"HTTP/1.1") == 1
        # and the server still serves
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        assert get(connection, "/node/0")[0] == 200
        connection.close()


def test_a_failing_request_answers_500_and_the_worker_survives(
    app, monkeypatch, capsys
):
    def broken(target):
        raise KeyError("a bug")

    with SlicerServer(app) as server:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        monkeypatch.setattr(app, "respond", broken)
        assert get(connection, "/node/0")[0] == 500
        monkeypatch.undo()
        assert get(connection, "/node/0")[0] == 200
        connection.close()
    assert "KeyError" in capsys.readouterr().err


def test_an_idle_connection_is_closed_without_a_reply(app, monkeypatch, capsys):
    from repro.server import http as front

    monkeypatch.setattr(front, "IDLE_TIMEOUT", 0.05)
    with SlicerServer(app) as server:
        # a client that connects, and one that stops mid-head
        assert raw_exchange(server, b"") == b""
        assert raw_exchange(server, b"GET /node/0 HTT") == b""
        stats = wsgi_get(app, "/stats")[1]
    assert json.loads(stats)["connections"] == 2
    assert capsys.readouterr().err == ""  # a timeout is not a bug


def test_large_bodies_over_keep_alive_do_not_stall(app):
    # Headers and body written separately without TCP_NODELAY stall
    # ~40 ms a request on Nagle + delayed ACK: 100 fetches would take
    # four seconds.  The test cube's answers are a few KB, so the app is
    # stubbed to return a body of the size the benchmark's cube serves.
    with SlicerServer(app) as server:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        big = b'{"rows":"' + b"x" * 45_000 + b'"}'
        app.respond = lambda target: ("200 OK", big)
        assert get(connection, "/node/0") == (200, big)
        started = time.perf_counter()
        for _ in range(100):
            assert get(connection, "/node/0") == (200, big)
        elapsed = time.perf_counter() - started
        connection.close()
    assert elapsed < 1.0, f"100 keep-alive fetches took {elapsed:.2f} s"


def test_more_connections_than_one_are_served_concurrently(app):
    with SlicerServer(app) as server:
        connections = [
            http.client.HTTPConnection(server.host, server.port, timeout=10)
            for _ in range(8)
        ]
        # every connection is open and idle at once, then each is used
        for connection in connections:
            connection.connect()
        for connection in connections:
            assert get(connection, "/node/0")[0] == 200
        stats = json.loads(get(connections[0], "/stats")[1])
        assert stats["connections"] == 8
        assert len(slicer_threads()) <= 1 + WORKERS
        for connection in connections:
            connection.close()


def test_shutdown_joins_every_thread_even_with_open_clients(app):
    server = SlicerServer(app)
    with server:
        idle = http.client.HTTPConnection(server.host, server.port, timeout=10)
        assert get(idle, "/node/0")[0] == 200
        never_spoke = socket.create_connection((server.host, server.port))
        assert get(idle, "/node/0")[0] == 200
        assert "slicer-server" in slicer_threads()
        # neither client closes its connection before the server exits
    assert slicer_threads() == []
    # the server closed its end of both
    never_spoke.settimeout(5)
    assert never_spoke.recv(1) == b""
    never_spoke.close()
    idle.close()
    server.shutdown()  # idempotent


def test_shutdown_lets_a_request_in_flight_finish(app):
    entered, release = threading.Event(), threading.Event()
    real = app.respond

    def slow(target):
        entered.set()
        assert release.wait(10)
        return real(target)

    app.respond = slow
    server = SlicerServer(app).start()
    replies = []

    def client():
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        replies.append(get(connection, "/node/0"))
        connection.close()

    asking = threading.Thread(target=client)
    asking.start()
    assert entered.wait(10)
    stopping = threading.Thread(target=server.shutdown)
    stopping.start()
    time.sleep(0.05)
    assert stopping.is_alive()  # shutdown waits for the request
    release.set()
    stopping.join(10)
    asking.join(10)
    assert not stopping.is_alive() and not asking.is_alive()
    assert replies == [(200, plain_body(app, "/node/0"))]
    assert slicer_threads() == []


def test_shutdown_before_start_and_double_start(app):
    server = SlicerServer(app)
    server.shutdown()
    assert slicer_threads() == []
    server = SlicerServer(app).start()
    with pytest.raises(RuntimeError):
        server.start()
    server.shutdown()
    assert slicer_threads() == []
