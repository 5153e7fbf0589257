"""TCP ingestion gateway and publishing client.

The gateway accepts any number of concurrent node connections and hands
each line to protocol.classify_line, which appends accepted readings to
the store and picks the ACK or ERR reply. Per-frame errors never drop the
connection or the server.
"""

from __future__ import annotations

import collections
import socket
import socketserver
import sys
import threading
import time

from soilnet.core import RawReading
from soilnet.protocol import (
    PROTO_VERSION,
    Ack,
    Err,
    Frame,
    GatewayState,
    Hello,
    Malformed,
    Pub,
    classify_line,
    parse_frame,
    render_frame,
)
from soilnet.store import Store

BUFFER_MAX = 10000  # readings a GatewayClient queues; beyond it the oldest is dropped
CHECKPOINT_INTERVAL_S = 60.0  # a running gateway saves the store's checkpoint this often


class BindFailure(OSError):
    pass


class TransportClosed(ConnectionError):
    pass


_READ_CAP = 4096


class _Handler(socketserver.StreamRequestHandler):
    # TCP_NODELAY: each reply leaves at once. With Nagle's algorithm, a node
    # that sends a tick's PUBs in one write got the first ACK, and each
    # further one only when its delayed TCP ACK came, ~40 ms later.
    disable_nagle_algorithm = True

    def handle(self):
        handle_line = self.server.handle_line
        # sendall, as wfile.write (unbuffered) would call it, one call fewer.
        readline, sendall = self.rfile.readline, self.connection.sendall
        while line := readline(_READ_CAP):
            # Drop the rest of an over-long line, so that it is answered as
            # one (malformed) frame, not as several.
            rest = line
            while len(rest) == _READ_CAP and not rest.endswith(b"\n"):
                rest = readline(_READ_CAP)
            reply = handle_line(line)
            if reply is not None:
                sendall(render_frame(reply))


class Gateway(socketserver.ThreadingTCPServer):
    """Threaded line-protocol server feeding a Store, for one site.

    Dedup state is seeded from the store on startup, so replaying a whole
    session after a restart appends nothing.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, listen_addr: tuple[str, int], store: Store, site: str = "site"):
        self.store = store
        # Channel is a str enum, so the store's keys, which hold the
        # channel's value, are the keys validate_and_order looks up.
        self.state = GatewayState(site, store.last_seqs())
        self._state_lock = threading.Lock()
        self._saved_at = time.monotonic()
        try:
            super().__init__(listen_addr, _Handler)
        except OSError as e:
            raise BindFailure(str(e)) from e

    def service_actions(self) -> None:
        """Run by serve_forever on every poll: save the checkpoint every
        CHECKPOINT_INTERVAL_S, so that after a crash the next start reads
        at most that long's appends."""
        if time.monotonic() - self._saved_at >= CHECKPOINT_INTERVAL_S:
            self._save_checkpoint()

    def server_close(self) -> None:
        """Save the store's checkpoint (see soilnet.store), so the next
        start need not read what this gateway appended, then close the
        socket. A checkpoint that cannot be saved is reported on stderr;
        the gateway stops all the same."""
        try:
            self._save_checkpoint()
        finally:
            super().server_close()

    def _save_checkpoint(self) -> None:
        self._saved_at = time.monotonic()  # a failed save, too, waits for the next interval
        try:
            with self._state_lock:
                self.store.checkpoint()
        except OSError as e:
            print(f"checkpoint not saved: {type(e).__name__}: {e}", file=sys.stderr)

    @property
    def bound_addr(self) -> tuple[str, int]:
        return self.server_address[:2]

    def handle_line(self, line: bytes) -> Frame | None:
        """Process one inbound frame line; returns the reply frame."""
        # Append inside the lock: per-stream seq order in the store then
        # matches accept order.
        with self._state_lock:
            try:
                return classify_line(self.state, line, self._store_pub)[1]
            except OSError as e:  # not stored, not counted: the node retries
                return Err("store", f"append failed: {type(e).__name__}")

    def _store_pub(self, pub: Pub) -> None:
        pub.reading.recv_timestamp = int(time.time())
        self.store.append(pub.reading)

    def counters(self) -> dict:
        with self._state_lock:
            s = self.state
            return {
                "accepted": s.accepted,
                "duplicate": s.duplicate,
                "out_of_range": s.out_of_range,
                "malformed": s.malformed,
                "foreign_site": s.foreign_site,
                "pub_total": s.pub_total,
            }


def serve(listen_addr: tuple[str, int], store: Store, site: str = "site") -> Gateway:
    """Start a gateway in a background thread that polls every 0.05 s, so
    .shutdown() returns within that; then call .server_close()."""
    gw = Gateway(listen_addr, store, site)
    threading.Thread(target=gw.serve_forever, args=(0.05,), daemon=True).start()
    return gw


class GatewayClient:
    """Single-connection sequential publisher with at-least-once retry.

    Each reading's PUB is rendered once, by ``publish``, and its line
    queues in ``buffer``; the queue goes out front-first, so each stream
    reaches the gateway in seq order. On transport failure the client
    reconnects with exponential backoff (base 1 s, cap 60 s by default);
    unsent readings wait for the next ``publish``, which resends their
    lines as rendered. A full queue (BUFFER_MAX) drops its oldest reading
    (counted, never raising).
    """

    def __init__(
        self,
        addr: tuple[str, int],
        node_id: str,
        site: str = "site",
        ack_timeout_s: float = 5.0,
        backoff_base_s: float = 1.0,
        backoff_cap_s: float = 60.0,
        max_attempts: int = 8,
    ):
        self.addr = addr
        self.node_id = node_id
        self.site = site
        self.ack_timeout_s = ack_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.max_attempts = max_attempts
        self.buffer = collections.deque(maxlen=BUFFER_MAX)
        self.counters = {"acked": 0, "rejected": 0, "dropped_overflow": 0, "retries": 0}
        self._sock: socket.socket | None = None
        self._rfile = None

    def connect(self) -> None:
        self.close()
        sock = socket.create_connection(self.addr, timeout=self.ack_timeout_s)
        sock.settimeout(self.ack_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # see _Handler
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._send(render_frame(Hello(self.node_id, PROTO_VERSION)))
        reply = self._recv()
        if not isinstance(reply, Ack):
            raise TransportClosed(f"handshake rejected: {reply!r}")

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _send(self, data: bytes) -> None:
        if self._sock is None:
            raise TransportClosed("not connected")
        try:
            self._sock.sendall(data)
        except OSError as e:
            raise TransportClosed(str(e)) from e

    def _recv(self) -> Frame:
        try:
            line = self._rfile.readline(4096)
        except OSError as e:
            raise TransportClosed(str(e)) from e
        if not line:
            raise TransportClosed("connection closed by gateway")
        return parse_frame(line)

    def _publish_once(self, line: bytes) -> str:
        self._send(line)
        reply = self._recv()
        if isinstance(reply, Ack):
            return "acknowledged"
        if isinstance(reply, Err):
            if reply.code == "store":  # the gateway could not store it: retry
                raise TransportClosed(f"gateway store failed: {reply.message}")
            return "rejected"
        raise TransportClosed(f"unexpected reply {reply!r}")

    def publish(self, reading: RawReading) -> str:
        """Queue one reading, then send the queue front-first; returns this
        reading's status: acknowledged | rejected | buffered. A reading no
        PUB can carry is rejected at once, never queued."""
        try:
            line = render_frame(Pub(self.site, reading))
        except ValueError:
            self.counters["rejected"] += 1
            return "rejected"
        if len(self.buffer) == self.buffer.maxlen:
            self.counters["dropped_overflow"] += 1
        self.buffer.append(line)
        for attempt in range(self.max_attempts):
            try:
                if self._sock is None:
                    self.connect()
                while self.buffer:
                    status = self._publish_once(self.buffer[0])
                    self.buffer.popleft()
                    self.counters["acked" if status == "acknowledged" else "rejected"] += 1
                return status  # of the last reading sent, this one
            except (TransportClosed, OSError, Malformed):
                self.close()
                self.counters["retries"] += 1
                if attempt < self.max_attempts - 1:
                    time.sleep(min(self.backoff_base_s * 2**attempt, self.backoff_cap_s))
        return "buffered"
