import csv
import dataclasses
import hashlib
import io
import os
import random
import socket
import socketserver
import tempfile
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from soilnet import gateway as gateway_module, store as store_module
from soilnet.core import FIELD_CALIBRATION, Channel, RawReading
from soilnet.gateway import BindFailure, Gateway, GatewayClient, TransportClosed, serve
from soilnet.protocol import (MAX_FRAME_BYTES, PROTO_VERSION, Ack, Err, Pub, parse_frame,
                              render_frame)
from soilnet.sim import ProfileConfig, default_field_model, run_node, step, tick_times
from soilnet.store import CHECKPOINT, Store, export_csv

T0 = 1700000000


@pytest.fixture
def gw(tmp_path):
    store = Store(str(tmp_path / "data"))
    gateway = serve(("127.0.0.1", 0), store, site="s")
    yield gateway
    gateway.shutdown()
    gateway.server_close()


def make_client(gw, node_id="n1", **kw):
    kw.setdefault("backoff_base_s", 0.01)
    kw.setdefault("max_attempts", 3)
    client = GatewayClient(gw.bound_addr, node_id=node_id, site="s", **kw)
    client.connect()
    return client


def reading(seq=1, depth=5, channel=Channel.MOISTURE_VOLTAGE, value=1.30, profile="p1"):
    return RawReading(profile, depth, channel, value, T0 + 900 * (seq - 1), seq)


class TestPublish:
    def test_publish_persists_and_acks(self, gw):
        client = make_client(gw)
        assert client.publish(reading()) == "acknowledged"
        client.close()
        (row,) = gw.store.query()
        assert (row.profile_id, row.depth_cm, row.seq, row.value) == ("p1", 5, 1, 1.30)

    def test_duplicate_acked_not_reappended(self, gw):
        client = make_client(gw)
        r = reading()
        assert client.publish(r) == "acknowledged"
        assert client.publish(r) == "acknowledged"
        client.close()
        assert len(gw.store.query()) == 1
        assert gw.counters()["duplicate"] == 1

    def test_out_of_range_rejected_connection_stays_open(self, gw):
        client = make_client(gw)
        assert client.publish(reading(value=5.0)) == "rejected"
        assert client.publish(reading(seq=2)) == "acknowledged"
        client.close()
        assert len(gw.store.query()) == 1

    def test_malformed_line_gets_err_and_connection_survives(self, gw):
        sock = socket.create_connection(gw.bound_addr, timeout=5)
        f = sock.makefile("rwb")
        f.write(b"PUB complete junk\n")
        f.flush()
        assert f.readline().startswith(b"ERR malformed")
        pub = Pub("s", reading(seq=1))
        f.write(render_frame(pub))
        f.flush()
        assert f.readline() == b"ACK 1\n"
        sock.close()

    def test_seq_zero_is_malformed_not_a_duplicate(self, gw):
        before = gw.counters()
        reply = gw.handle_line(b"PUB site/s/profile/p1/depth/5/moisture 0 1700000000 1.3\n")
        assert isinstance(reply, Err) and reply.code == "malformed"
        after = gw.counters()
        assert after["malformed"] == before["malformed"] + 1
        assert after["duplicate"] == before["duplicate"]
        assert gw.state.counters_consistent()
        assert gw.store.query() == []

    def test_timestamps_the_store_cannot_hold_are_malformed(self, gw, tmp_path):
        topic = "site/s/profile/p1/depth/5/moisture"
        for ts in (-30610224001, 999999999999999):
            reply = gw.handle_line(f"PUB {topic} 1 {ts} 1.5\n".encode())
            assert isinstance(reply, Err) and reply.code == "malformed"
        assert gw.counters()["malformed"] == 2
        assert gw.counters()["accepted"] == 0
        assert gw.state.counters_consistent()
        assert not (tmp_path / "data" / "p1").exists()
        assert gw.store.query() == []
        # The range's ends are stored and read back.
        for seq, ts in enumerate((-30610224000, 253402300799), start=1):
            assert gw.handle_line(f"PUB {topic} {seq} {ts} 1.5\n".encode()) == Ack(seq)
        assert [r.timestamp for r in gw.store.query()] == [-30610224000, 253402300799]

    def test_profile_ids_no_directory_can_hold_are_malformed(self, gw, tmp_path):
        # ".." would store the reading beside the data root, "." in the
        # root itself, where no query or last_seqs finds it; no path can
        # hold a NUL.
        for profile in ("..", ".", "p\x00"):
            line = f"PUB site/s/profile/{profile}/depth/5/moisture 1 {T0} 1.0\n".encode()
            reply = gw.handle_line(line)
            assert isinstance(reply, Err) and reply.code == "malformed"
        assert (gw.counters()["malformed"], gw.counters()["accepted"]) == (3, 0)
        assert [p.name for p in tmp_path.iterdir()] == ["data"]
        assert list((tmp_path / "data").iterdir()) == []

    def test_hello_version_mismatch_is_rejected(self, gw):
        sock = socket.create_connection(gw.bound_addr, timeout=5)
        with sock, sock.makefile("rwb") as f:
            f.write(f"HELLO n1 {PROTO_VERSION + 1}\n".encode())
            f.flush()
            assert f.readline().startswith(b"ERR version")
            f.write(f"HELLO n1 {PROTO_VERSION}\n".encode())
            f.flush()
            assert f.readline() == b"ACK 0\n"

    def test_oversized_line_is_one_malformed_frame(self, gw):
        sock = socket.create_connection(gw.bound_addr, timeout=5)
        pub = Pub("s", reading(seq=1))
        with sock, sock.makefile("rwb") as f:
            f.write(b"PUB " + b"x" * 10000 + b"\n" + render_frame(pub))
            f.flush()
            assert f.readline().startswith(b"ERR malformed")
            assert f.readline() == b"ACK 1\n"
        counters = gw.counters()
        assert (counters["malformed"], counters["accepted"], counters["pub_total"]) == (1, 1, 2)
        assert gw.state.counters_consistent()

    def test_overlong_err_reason_still_renders(self, gw):
        bad_topic = "site/s/profile/" + "x" * 480  # 495 bytes, no depth or channel
        line = f"PUB {bad_topic} 1 2 3\n".encode()
        assert len(line) <= MAX_FRAME_BYTES
        sock = socket.create_connection(gw.bound_addr, timeout=5)
        with sock, sock.makefile("rwb") as f:
            f.write(line)
            f.flush()
            assert f.readline().startswith(b"ERR malformed")
            f.write(f"HELLO n1 {PROTO_VERSION}\n".encode())
            f.flush()
            assert f.readline() == b"ACK 0\n"
        assert gw.counters()["malformed"] == 1

    def test_unreachable_gateway_buffers(self, tmp_path):
        client = GatewayClient(("127.0.0.1", 1), node_id="n1", site="s",
                               backoff_base_s=0.001, max_attempts=2)
        assert client.publish(reading()) == "buffered"
        assert len(client.buffer) == 1
        assert client.counters["retries"] >= 1


class TestSite:
    def test_foreign_site_is_refused_and_never_stored(self, tmp_path):
        root = str(tmp_path / "data")
        lines = [f"PUB site/B/profile/p1/depth/5/moisture {seq} {T0 + 900 * seq} 1.3\n".encode()
                 for seq in (1, 2, 3)]
        for _ in range(2):  # first session, then restart plus full replay
            gw = Gateway(("127.0.0.1", 0), Store(root), site="A")
            try:
                replies = [gw.handle_line(line) for line in lines]
            finally:
                gw.server_close()
            assert [(type(r), r.code) for r in replies] == [(Err, "site")] * 3
            counters = gw.counters()
            assert (counters["foreign_site"], counters["accepted"]) == (3, 0)
            assert gw.state.counters_consistent()
        assert Store(root).query() == []


class InProcessClient(GatewayClient):
    """A GatewayClient whose connection is a direct call into ``gw``'s
    ``handle_line``. A connect fails while ``reachable`` is false, and each
    ``_publish_once`` takes the next of ``faults``: None, "pub_lost" (fails
    before the gateway sees the PUB) or "ack_lost" (fails after)."""

    def __init__(self, gw, faults=()):
        super().__init__(gw.bound_addr, node_id="n1", site="s", max_attempts=3)
        self.gw = gw
        self.faults = iter(faults)
        self.reachable = True
        self.sent = []  # every PUB line the gateway was handed, in order
        self._reply = None

    def connect(self):
        if not self.reachable:
            raise ConnectionRefusedError("gateway down")
        self._sock = "in-process"

    def close(self):
        self._sock = None

    def _send(self, data):
        self.sent.append(data)
        self._reply = self.gw.handle_line(data)

    def _recv(self):
        return self._reply

    def _publish_once(self, line):
        fault = next(self.faults, None)
        if fault == "pub_lost":
            raise TransportClosed("PUB lost")
        status = super()._publish_once(line)
        if fault == "ack_lost":
            raise TransportClosed("ACK lost")
        return status


class TestClientQueue:
    def test_outage_delivers_every_reading_in_order(self, tmp_path, monkeypatch):
        gw = Gateway(("127.0.0.1", 0), Store(str(tmp_path / "data")), site="s")
        try:
            client = InProcessClient(gw)
            client.reachable = False
            monkeypatch.setattr(time, "sleep", lambda s: None)
            assert client.publish(reading(seq=1)) == "buffered"
            # The gateway comes back during seq 2's first backoff.
            monkeypatch.setattr(time, "sleep", lambda s: setattr(client, "reachable", True))
            assert client.publish(reading(seq=2)) == "acknowledged"
            assert client.publish(reading(seq=3)) == "acknowledged"
            counters = gw.counters()
        finally:
            gw.server_close()
        assert [r.seq for r in gw.store.query()] == [1, 2, 3]
        assert (counters["accepted"], counters["duplicate"]) == (3, 0)
        assert client.counters["acked"] == 3
        assert not client.buffer

    def test_pub_lines_of_a_simulated_day_bytes_pinned(self, monkeypatch):
        # What a node sends for one seeded day, queued while the gateway is
        # unreachable: 97 ticks of 8 PUB lines, as the client first rendered them.
        client = GatewayClient(("127.0.0.1", 1), node_id="n1", site="farm", max_attempts=1)
        monkeypatch.setattr(client, "connect", mock.Mock(side_effect=TransportClosed("offline")))
        profile, fieldm = ProfileConfig("p1", seed=7), default_field_model()
        for t_s in tick_times(86400, 900):
            for r in step(profile, fieldm, FIELD_CALIBRATION, t_s, start_ts=T0):
                assert client.publish(r) == "buffered"
        data = b"".join(client.buffer)
        assert (len(client.buffer), len(data)) == (776, 55384)
        assert data.startswith(b"PUB site/farm/profile/p1/depth/5/moisture 1 1700000000 ")
        assert (hashlib.sha256(data).hexdigest()
                == "af7a4afa69c73bb6c0f88a1fba23fbfb45dfb9134ca424191a2e6c449936fdee")

    @pytest.mark.parametrize("profile", ["p 1", "p\u00e9", "p" * 600],
                             ids=["space", "non-ascii", "oversized"])
    def test_unrenderable_reading_is_rejected_and_never_queued(self, tmp_path, monkeypatch,
                                                               profile):
        # No PUB can carry the reading, so it must not hold up the queue.
        monkeypatch.setattr(time, "sleep", lambda s: None)
        gw = Gateway(("127.0.0.1", 0), Store(str(tmp_path / "data")), site="s")
        try:
            client = InProcessClient(gw)
            assert client.publish(reading(seq=1, profile=profile)) == "rejected"
            assert not client.buffer
            assert client.publish(reading(seq=2)) == "acknowledged"
        finally:
            gw.server_close()
        assert [r.seq for r in gw.store.query()] == [2]
        assert (client.counters["rejected"], client.counters["acked"]) == (1, 1)
        assert client.counters["retries"] == 0

    def test_each_reading_is_rendered_once_and_resent_as_rendered(self, tmp_path, monkeypatch):
        gw = Gateway(("127.0.0.1", 0), Store(str(tmp_path / "data")), site="s")
        try:
            # A refused connect, then the PUB reaches the gateway but its ACK
            # is lost, so the reading goes out twice.
            client = InProcessClient(gw, faults=["ack_lost"])
            client.reachable = False
            monkeypatch.setattr(time, "sleep", lambda s: setattr(client, "reachable", True))
            with mock.patch.object(gateway_module, "render_frame",
                                   wraps=render_frame) as render:
                assert client.publish(reading(seq=1)) == "acknowledged"
            counters = gw.counters()
        finally:
            gw.server_close()
        assert render.call_count == 1
        r = reading(seq=1)
        line = render_frame(Pub("s", r))
        assert client.sent == [line, line]
        assert (counters["accepted"], counters["duplicate"]) == (1, 1)
        assert client.counters["retries"] == 2

    def test_full_buffer_drops_and_counts_its_oldest(self, monkeypatch):
        monkeypatch.setattr(gateway_module, "BUFFER_MAX", 2)
        client = GatewayClient(("127.0.0.1", 1), node_id="n1", site="s", max_attempts=1)
        assert [client.publish(reading(seq=seq)) for seq in (1, 2, 3)] == ["buffered"] * 3
        assert [parse_frame(line).reading.seq for line in client.buffer] == [2, 3]
        assert client.counters["dropped_overflow"] == 1

    @settings(max_examples=100, deadline=None)
    @given(n_ticks=st.integers(1, 8), buffer_max=st.integers(1, 6),
           faults=st.lists(st.sampled_from([None, None, "pub_lost", "ack_lost"]), max_size=40))
    def test_streams_arrive_in_order_and_no_reading_is_lost_unsaid(self, n_ticks, buffer_max,
                                                                   faults):
        published = [reading(seq=seq, depth=depth) for seq in range(1, n_ticks + 1)
                     for depth in (5, 15)]
        with tempfile.TemporaryDirectory() as root, \
                mock.patch.object(gateway_module, "BUFFER_MAX", buffer_max), \
                mock.patch.object(time, "sleep"):
            gw = Gateway(("127.0.0.1", 0), Store(root), site="s")
            try:
                client = InProcessClient(gw, faults)
                for r in published:
                    client.publish(r)
                stored = gw.store.query()
            finally:
                gw.server_close()
        seen = {}
        for pub in map(parse_frame, client.sent):
            seen.setdefault(pub.reading.depth_cm, []).append(pub.reading.seq)
        for seqs in seen.values():
            assert seqs == sorted(seqs)
        stored_keys = [(r.depth_cm, r.seq) for r in stored]
        assert len(set(stored_keys)) == len(stored_keys)
        unaccounted = {(r.depth_cm, r.seq) for r in published} - set(stored_keys) - {
            (pub.reading.depth_cm, pub.reading.seq) for pub in map(parse_frame, client.buffer)}
        dropped = client.counters["dropped_overflow"]
        assert len(unaccounted) <= dropped
        sent_once = len(published) - len(client.buffer) - dropped
        assert client.counters["acked"] + client.counters["rejected"] == sent_once


class FailingStore(Store):
    """A store whose next ``failures`` appends raise OSError."""

    def __init__(self, root, failures):
        super().__init__(root)
        self.failures = failures

    def append(self, row):
        if self.failures:
            self.failures -= 1
            raise OSError(28, "No space left on device")
        super().append(row)


class TestStoreFailure:
    def test_failed_append_is_retried_and_stored_once(self, tmp_path):
        gw = serve(("127.0.0.1", 0), FailingStore(str(tmp_path / "data"), failures=1), site="s")
        try:
            client = make_client(gw)
            try:
                assert client.publish(reading(seq=1)) == "acknowledged"
                assert client.publish(reading(seq=2)) == "acknowledged"
            finally:
                client.close()
            counters = gw.counters()
        finally:
            gw.shutdown()
            gw.server_close()
        assert client.counters == {"acked": 2, "rejected": 0, "dropped_overflow": 0, "retries": 1}
        assert [r.seq for r in gw.store.query()] == [1, 2]
        assert (counters["accepted"], counters["duplicate"], counters["pub_total"]) == (2, 0, 2)
        assert gw.state.counters_consistent()

    def test_failed_append_changes_no_state(self, tmp_path):
        gw = Gateway(("127.0.0.1", 0), FailingStore(str(tmp_path / "data"), failures=0), site="s")
        try:
            topic = "site/s/profile/p1/depth/5/moisture"
            assert gw.handle_line(f"PUB {topic} 3 {T0} 1.3\n".encode()) == Ack(3)
            before = (dict(gw.state.last_seen), gw.counters())
            gw.store.failures = 1
            reply = gw.handle_line(f"PUB {topic} 5 {T0 + 900} 1.3\n".encode())
            assert isinstance(reply, Err) and reply.code == "store"
            assert render_frame(reply)
            assert (dict(gw.state.last_seen), gw.counters()) == before
            # Seq 4 was never seen, and seq 5 was never stored.
            assert gw.handle_line(f"PUB {topic} 4 {T0 + 450} 1.3\n".encode()) == Ack(4)
            assert gw.handle_line(f"PUB {topic} 5 {T0 + 900} 1.3\n".encode()) == Ack(5)
            assert gw.state.counters_consistent()
        finally:
            gw.server_close()
        assert [r.seq for r in gw.store.query()] == [3, 4, 5]

    def test_half_written_row_is_cut_before_the_retry(self, tmp_path):
        # The disk fills up in the middle of a row: ERR store, then the
        # node's retry must not be appended to the torn half.
        def write_half(fd, data):
            os.write(fd, data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        root = str(tmp_path / "data")
        gw = Gateway(("127.0.0.1", 0), Store(root), site="s")
        topic = "site/s/profile/p1/depth/5/moisture"
        try:
            assert gw.handle_line(f"PUB {topic} 1 {T0} 1.3\n".encode()) == Ack(1)
            with mock.patch.object(store_module, "_write_all", write_half):
                reply = gw.handle_line(f"PUB {topic} 2 {T0 + 900} 1.3\n".encode())
            assert isinstance(reply, Err) and reply.code == "store"
            assert gw.handle_line(f"PUB {topic} 2 {T0 + 900} 1.3\n".encode()) == Ack(2)
        finally:
            gw.server_close()
        (path,) = (tmp_path / "data" / "p1").glob("*.csv")
        assert path.read_bytes() == export_csv(Store(root).query())
        assert [r.seq for r in Store(root).query()] == [1, 2]


class TestCheckpointOnStop:
    def test_stop_saves_what_the_next_start_reads(self, tmp_path):
        root = str(tmp_path / "data")
        gw = Gateway(("127.0.0.1", 0), Store(root), site="s")
        topic = "site/s/profile/p1/depth/5/moisture"
        try:
            for seq in (1, 2, 3):
                assert gw.handle_line(f"PUB {topic} {seq} {T0 + 900 * seq} 1.3\n".encode()) == Ack(seq)
        finally:
            gw.server_close()
        # The next gateway starts from the checkpoint and reads no partition.
        with mock.patch.object(store_module, "_read_covered", side_effect=AssertionError):
            gw = Gateway(("127.0.0.1", 0), Store(root), site="s")
        try:
            assert gw.state.last_seen == {("p1", 5, "moisture"): 3}
        finally:
            gw.server_close()

    def test_unsaved_checkpoint_is_reported_and_the_gateway_stops(self, tmp_path, capsys):
        gw = Gateway(("127.0.0.1", 0), Store(str(tmp_path / "data")), site="s")
        with mock.patch.object(gw.store, "checkpoint", side_effect=OSError(28, "No space left")):
            gw.server_close()
        assert capsys.readouterr().err == "checkpoint not saved: OSError: [Errno 28] No space left\n"
        assert gw.socket.fileno() == -1


class TestPeriodicCheckpoint:
    """serve_forever runs service_actions on every poll; here it is called
    by hand, on a clock that the test moves."""

    @pytest.fixture
    def clock(self):
        now = [1000.0]
        with mock.patch.object(gateway_module.time, "monotonic", lambda: now[0]):
            yield now

    def test_saved_after_the_interval_and_read_after_a_crash(self, tmp_path, clock):
        root = str(tmp_path / "data")
        gw = Gateway(("127.0.0.1", 0), Store(root), site="s")
        topic = "site/s/profile/p1/depth/5/moisture"
        try:
            for seq in (1, 2):
                assert gw.handle_line(f"PUB {topic} {seq} {T0 + 900 * seq} 1.3\n".encode()) == Ack(seq)
            clock[0] += gateway_module.CHECKPOINT_INTERVAL_S - 0.5
            gw.service_actions()
            assert not os.path.exists(os.path.join(root, CHECKPOINT))
            clock[0] += 0.5
            gw.service_actions()
            assert os.path.exists(os.path.join(root, CHECKPOINT))
        finally:  # a crash: the socket closes, and nothing more is saved
            socketserver.TCPServer.server_close(gw)
        with mock.patch.object(store_module, "_read_covered", side_effect=AssertionError):
            gw = Gateway(("127.0.0.1", 0), Store(root), site="s")
        try:
            assert gw.state.last_seen == {("p1", 5, "moisture"): 2}
        finally:
            gw.server_close()

    def test_unsaved_checkpoint_is_reported_once_an_interval(self, tmp_path, clock, capsys):
        gw = Gateway(("127.0.0.1", 0), Store(str(tmp_path / "data")), site="s")
        try:
            with mock.patch.object(gw.store, "checkpoint", side_effect=OSError(28, "No space left")):
                clock[0] += gateway_module.CHECKPOINT_INTERVAL_S
                gw.service_actions()
                clock[0] += gateway_module.CHECKPOINT_INTERVAL_S - 0.5
                gw.service_actions()
                assert capsys.readouterr().err == (
                    "checkpoint not saved: OSError: [Errno 28] No space left\n")
        finally:
            gw.server_close()


class TestSessionReplay:
    def test_full_session_replay_appends_nothing(self, gw):
        profile = ProfileConfig("p1", seed=3, cadence_s=900)
        field = default_field_model()

        def session():
            client = make_client(gw)
            for t in tick_times(4 * 3600, 900):
                for r in step(profile, field, FIELD_CALIBRATION, t, T0):
                    client.publish(r)
            client.close()

        session()
        n = len(gw.store.query())
        assert n == 17 * 8
        session()  # byte-identical replay
        assert len(gw.store.query()) == n
        counters = gw.counters()
        assert counters["duplicate"] == n
        assert gw.state.counters_consistent()

    def test_dedup_survives_restart(self, tmp_path):
        store = Store(str(tmp_path / "data"))
        gw1 = serve(("127.0.0.1", 0), store, site="s")
        client = make_client(gw1)
        for seq in (1, 2, 3):
            client.publish(reading(seq=seq))
        client.close()
        gw1.shutdown()
        gw1.server_close()

        gw2 = serve(("127.0.0.1", 0), Store(str(tmp_path / "data")), site="s")
        client = make_client(gw2)
        for seq in (1, 2, 3, 4):
            client.publish(reading(seq=seq))
        client.close()
        rows = gw2.store.query()
        gw2.shutdown()
        gw2.server_close()
        assert [r.seq for r in rows] == [1, 2, 3, 4]

    def test_restart_on_torn_row_stores_the_reading_once(self, tmp_path):
        def pub_line(seq):
            return render_frame(Pub("s", reading(seq=seq)))

        root = str(tmp_path / "data")
        gw1 = Gateway(("127.0.0.1", 0), Store(root), site="s")
        try:
            assert [gw1.handle_line(pub_line(seq)) for seq in (1, 2)] == [Ack(1), Ack(2)]
        finally:
            gw1.server_close()
        # The gateway died in mid-append of seq 3: half its row, no newline.
        (path,) = (tmp_path / "data" / "p1").glob("*.csv")
        torn = export_csv([dataclasses.replace(reading(seq=3), recv_timestamp=T0)]).split(b"\n")[1]
        path.write_bytes(path.read_bytes() + torn[:len(torn) // 2])

        gw2 = Gateway(("127.0.0.1", 0), Store(root), site="s")
        try:
            replies = [gw2.handle_line(pub_line(seq)) for seq in (1, 2, 3, 3)]
            counters = gw2.counters()
        finally:
            gw2.server_close()
        assert replies == [Ack(1), Ack(2), Ack(3), Ack(3)]
        assert (counters["accepted"], counters["duplicate"]) == (1, 3)
        text = path.read_text()
        assert text.endswith("\n")
        assert [int(rec["seq"]) for rec in csv.DictReader(io.StringIO(text))] == [1, 2, 3]
        assert [r.seq for r in Store(root).query()] == [1, 2, 3]


class TestConcurrency:
    def test_eight_concurrent_publishers_keep_stream_order(self, gw):
        field = default_field_model()
        n_ticks = 9

        def run_one(i):
            profile = ProfileConfig(f"p{i}", seed=i, cadence_s=900)
            client = make_client(gw, node_id=f"n{i}")
            run_node(profile, field, FIELD_CALIBRATION, client, duration_s=(n_ticks - 1) * 900,
                     start_ts=T0)
            client.close()

        threads = [threading.Thread(target=run_one, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        rows = gw.store.query()
        assert len(rows) == 8 * n_ticks * 8
        streams = {}
        for row in rows:
            streams.setdefault((row.profile_id, row.depth_cm, row.channel), []).append(row.seq)
        assert len(streams) == 8 * 8
        for seqs in streams.values():
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs) == n_ticks
        assert gw.state.counters_consistent()
        assert gw.counters()["accepted"] == len(rows)


class TestFuzz:
    def _random_line(self, rng):
        choice = rng.random()
        if choice < 0.3:
            return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80))) + b"\n"
        pieces = ["PUB", "HELLO", "ACK", "ERR", "site/s/profile/p/depth/5/moisture",
                  "1", "-1", "1.3", "nan", "inf", "xx yy", "", " ", "\t",
                  "site/s/profile/p/depth/0/temperature", "9" * 40]
        n = rng.randrange(0, 7)
        return (" ".join(rng.choice(pieces) for _ in range(n)) + "\n").encode()

    def test_ten_thousand_fuzz_lines_never_crash(self, gw):
        rng = random.Random(1234)
        for _ in range(10000):
            reply = gw.handle_line(self._random_line(rng))
            assert reply is None or reply.__class__.__name__ in ("Ack", "Err")
            assert gw.state.counters_consistent()

    def test_every_reply_renders(self, gw):
        # Frames up to the size cap with one long token in any field (its
        # repr may escape every character); the gateway keeps its state
        # from one line to the next.
        topic = "site/s/profile/p/depth/5/moisture"
        templates = ["{}", "PUB {} 1 2 3", "PUB site/{} 1 2 3", "PUB site/s/profile/{}/depth/5/x 1 2 3",
                     "PUB site/s/profile/p/depth/{}/moisture 1 2 3",
                     "PUB site/s/profile/p/depth/5/{} 1 2 3", f"PUB {topic} {{}} 2 3",
                     f"PUB {topic} 1 {{}} 3", f"PUB {topic} 1 2 {{}}", "HELLO {} 1", "HELLO n {}",
                     "ACK {}"]
        long_lines = st.builds(lambda t, c, n: t.format(c * n).encode(), st.sampled_from(templates),
                               st.sampled_from(["x", "9", "'", "\\", "\x7f", "/"]),
                               st.integers(0, MAX_FRAME_BYTES))

        @settings(max_examples=300, deadline=None)
        @given(long_lines | st.binary(max_size=MAX_FRAME_BYTES))
        def check(line):
            reply = gw.handle_line(line[:MAX_FRAME_BYTES - 1] + b"\n")
            if reply is not None:
                assert len(render_frame(reply)) <= MAX_FRAME_BYTES

        check()

    def test_fuzz_over_socket_connection_survives(self, gw):
        rng = random.Random(99)
        sock = socket.create_connection(gw.bound_addr, timeout=5)
        sock_f = sock.makefile("rwb")
        for _ in range(200):
            sock_f.write(self._random_line(rng))
        sock_f.flush()
        # Connection still serves a valid frame afterwards.
        pub = Pub("s", reading(seq=1, profile="pz"))
        sock_f.write(render_frame(pub))
        sock_f.flush()
        deadline = 400
        line = sock_f.readline()
        while line and line != b"ACK 1\n" and deadline:
            line = sock_f.readline()
            deadline -= 1
        assert line == b"ACK 1\n"
        sock.close()
        assert gw.state.counters_consistent()


def test_bind_failure(tmp_path):
    store = Store(str(tmp_path / "data"))
    taken = socket.socket()
    taken.bind(("127.0.0.1", 0))
    taken.listen(1)
    port = taken.getsockname()[1]
    try:
        with pytest.raises(BindFailure):
            Gateway(("127.0.0.1", port), store)
    finally:
        taken.close()
