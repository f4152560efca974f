"""The HTTP/1.1 front for :class:`~repro.server.app.SlicerApp`.

Pure standard library, sockets and threads only.  One accept loop hands
every connection to a bounded pool of worker threads (started as
connections need them, never more than ``WORKERS``); a worker owns a
connection for as long as the client keeps it open — HTTP/1.1
keep-alive is the default, so a client that reuses its connection costs
neither a TCP handshake nor a thread start per request — and hands
each request's raw target to :meth:`SlicerApp.respond`, which answers a
cached request by that target alone and parses the rest.  That is the
concurrency model the app's shared caches are built (and
property-tested) for: many threads inside ``respond`` at once.

A reply is one ``sendall`` of status line, headers and body on a
``TCP_NODELAY`` socket.  Written as two segments on a default socket,
the second waits for the client's delayed ACK of the first (Nagle):
44 ms a request, measured.

:class:`SlicerServer` owns the listening socket.  ``port=0`` binds an
ephemeral port (the resolved one is on ``.port``), ``start()`` serves
from a background thread (tests, benchmarks), ``serve_forever()`` serves
in the calling thread (the CLI).  :meth:`SlicerServer.shutdown` returns
only after every thread it started has been joined — callers close the
mmap-backed bundle right after, and no request may still be reading it.

Only what the slicer's clients send is understood: ``GET`` without a
body.  Anything else is answered (405, 400, 431) and the connection
closed, so an unread request body can never be parsed as a request.
"""

from __future__ import annotations

import selectors
import socket
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor

from repro.server.app import SlicerApp
from repro.server.encoding import canonical_json

#: Connections served at once; further ones wait, accepted, for a worker.
WORKERS = 32
#: Seconds a connection may sit without sending a request before its
#: worker closes it and takes the next one.
IDLE_TIMEOUT = 15.0
#: Largest request head (request line + headers) accepted.
MAX_HEAD_BYTES = 65536

_HEAD_END = b"\r\n\r\n"


class _BadRequest(Exception):
    """The bytes on the connection are not a request this front serves."""

    def __init__(self, status: str, message: str) -> None:
        super().__init__(message)
        self.status = status


class SlicerServer:
    """A running (or startable) HTTP server around one ``SlicerApp``."""

    def __init__(
        self,
        app: SlicerApp,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ) -> None:
        self.app = app
        self.quiet = quiet
        self._listener = socket.create_server((host, port), backlog=128)
        self._listener.setblocking(False)
        self._address = self._listener.getsockname()
        # shutdown() writes here to wake the accept loop out of select().
        self._wake_r, self._wake_w = socket.socketpair()
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self._stopping = False
        self._serving = False
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return str(self._address[0])

    @property
    def port(self) -> int:
        return int(self._address[1])

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve in the calling thread until :meth:`shutdown`.

        Returns once the listener is closed and every worker has
        finished its connection and exited.
        """
        with self._lock:
            if self._serving:
                raise RuntimeError("server already started")
            self._serving = True
            if self._stopping:  # shut down before it ever served
                self._stopped.set()
                return
        try:
            with ThreadPoolExecutor(
                max_workers=WORKERS, thread_name_prefix="slicer-worker"
            ) as pool:
                self._accept_until_woken(pool)
                self._listener.close()
                self._end_connections()
                # Leaving the block joins the workers.
        finally:
            self._stopped.set()

    def _accept_until_woken(self, pool: ThreadPoolExecutor) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            while True:
                for key, _events in selector.select():
                    if key.fileobj is self._wake_r:
                        return
                    try:
                        connection, _peer = self._listener.accept()
                    except OSError:
                        continue  # the client gave up before accept()
                    with self._lock:
                        self._open.add(connection)
                    self.app.connection_opened()
                    pool.submit(self._serve, connection)

    def _end_connections(self) -> None:
        """Shut the read side of every open connection.

        A worker waiting on an idle keep-alive connection sees
        end-of-stream at once; one in the middle of a request still
        writes its reply before it does.  Either way the worker then
        closes the socket, whether or not the client ever closed its end.
        """
        with self._lock:
            for connection in self._open:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # already reset by the peer

    def start(self) -> "SlicerServer":
        """Serve from a background daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="slicer-server", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting, let requests in flight finish, join every thread."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            serving = self._serving
        self._wake_w.send(b"x")
        if serving:
            self._stopped.wait()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._listener.close()
        self._wake_r.close()
        self._wake_w.close()

    def __enter__(self) -> "SlicerServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- workers ------------------------------------------------------------

    def _serve(self, connection: socket.socket) -> None:
        """A pool task: serve one connection, then close it."""
        try:
            self.serve_connection(connection)
        except OSError:
            # Idle for IDLE_TIMEOUT, or reset by the peer: there is
            # nobody left to answer.
            pass
        except Exception:  # noqa: BLE001 - nobody reads the task's future
            traceback.print_exc()
        finally:
            with self._lock:
                self._open.discard(connection)
            connection.close()

    def serve_connection(self, connection: socket.socket) -> None:
        """Answer the requests of one connection until either side ends it.

        The per-connection entry point of the pool (audited by lint R12
        like ``dispatch_request``): many of these run at once over the
        one shared app.
        """
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection.settimeout(IDLE_TIMEOUT)
        unread = b""
        keep_alive = True
        while keep_alive and not self._stopping:
            head = b""
            try:
                received = _read_head(connection, unread)
                if received is None:
                    return  # closed by the client, or by shutdown()
                head, unread = received
                method, target, keep_alive = _parse_head(head)
                if method != "GET":
                    raise _BadRequest(
                        "405 Method Not Allowed", "only GET is supported"
                    )
                try:
                    status, body = self.app.respond(target)
                except Exception:  # noqa: BLE001 - a bug must not cost the pool a thread
                    traceback.print_exc()
                    keep_alive = False
                    status = "500 Internal Server Error"
                    body = canonical_json({"error": "internal server error"})
            except _BadRequest as error:
                # What follows on the connection (a request body, the
                # rest of an oversized head) is not a request: close.
                keep_alive = False
                status = error.status
                body = canonical_json({"error": str(error)})
            _send(connection, status, body, keep_alive)
            if not self.quiet:
                request_line = head.partition(b"\r\n")[0].decode("iso-8859-1")
                sys.stderr.write(
                    f"{connection.getpeername()[0]} "
                    f'"{request_line}" {status[:3]} {len(body)}\n'
                )


def _read_head(
    connection: socket.socket, unread: bytes
) -> tuple[bytes, bytes] | None:
    """The next request head and the bytes read beyond it.

    ``unread`` is what the previous call read too far.  ``None`` when
    the stream ended first.
    """
    end = unread.find(_HEAD_END)
    while end < 0:
        if len(unread) > MAX_HEAD_BYTES:
            raise _BadRequest(
                "431 Request Header Fields Too Large",
                f"request head exceeds {MAX_HEAD_BYTES} bytes",
            )
        received = connection.recv(65536)
        if not received:
            return None
        unread += received
        end = unread.find(_HEAD_END)
    return unread[:end], unread[end + len(_HEAD_END) :]


def _parse_head(head: bytes) -> tuple[str, str, bool]:
    """``(method, request target, keep connection open)`` of one request."""
    lines = head.decode("iso-8859-1").split("\r\n")
    words = lines[0].split(" ")
    if len(words) != 3 or not words[2].startswith("HTTP/1."):
        raise _BadRequest(
            "400 Bad Request", f"malformed request line {lines[0]!r}"
        )
    method, target, version = words
    # HTTP/1.1 connections persist unless told otherwise; 1.0 ones the
    # other way round.
    keep_alive = version != "HTTP/1.0"
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "connection":
            tokens = {token.strip() for token in value.lower().split(",")}
            if "close" in tokens:
                keep_alive = False
            elif "keep-alive" in tokens:
                keep_alive = True
    return method, target, keep_alive


def _send(
    connection: socket.socket, status: str, body: bytes, keep_alive: bool
) -> None:
    """Status line, headers and body as one write (see module docstring)."""
    connection.sendall(
        b"HTTP/1.1 %s\r\n"
        b"Content-Type: application/json; charset=utf-8\r\n"
        b"Content-Length: %d\r\n"
        b"Connection: %s\r\n\r\n%s"
        % (
            status.encode("ascii"),
            len(body),
            b"keep-alive" if keep_alive else b"close",
            body,
        )
    )
