"""The names perfbench's traced runs (``perfbench/launch.py`` and the read
round of ``perfbench/phases.py``) replace by module or class attribute.
Each must be the one the program calls, once per PUB, per tick or per
calibrated row, or a traced run would count nothing."""

import socket

from soilnet import gateway, sim, store
from soilnet.cli import main
from soilnet.core import FIELD_CALIBRATION, Channel, RawReading
from soilnet.protocol import Ack

PUB = b"PUB site/s/profile/p1/depth/5/moisture 1 1700000000 1.3\n"
VERDICTS = {"accept", "duplicate", "out_of_range", "malformed", "foreign_site"}


def _recording(calls, fn):
    def wrapper(*args):
        result = fn(*args)
        calls.append((args, result))
        return result
    return wrapper


def test_one_pub_classifies_and_appends_once_through_the_patched_names(tmp_path, monkeypatch):
    classified, appended = [], []
    monkeypatch.setattr(gateway, "classify_line", _recording(classified, gateway.classify_line))
    monkeypatch.setattr(store.Store, "append", _recording(appended, store.Store.append))
    gw = gateway.Gateway(("127.0.0.1", 0), store.Store(str(tmp_path / "data")), site="s")
    try:
        assert gw.handle_line(PUB) == Ack(1)
    finally:
        gw.server_close()
    [(_, (verdict, _))] = classified
    assert verdict.value in VERDICTS
    [((_, row), _)] = appended
    assert (row.profile_id, row.depth_cm, row.seq) == ("p1", 5, 1)


def test_perfbench_client_reads_each_reply_once_through_socketio(tmp_path, monkeypatch):
    # Built and connected as perfbench/phases.py's _client is; its read
    # round counts SocketIO.readinto calls as round trips.
    gw = gateway.serve(("127.0.0.1", 0), store.Store(str(tmp_path / "data")))
    client = gateway.GatewayClient(gw.bound_addr, node_id="perfbench", ack_timeout_s=10.0,
                                   backoff_base_s=0.05, backoff_cap_s=0.2, max_attempts=3)
    reads = []
    readinto = socket.SocketIO.readinto

    def counting(sio, buf):
        # The gateway's own reads go through SocketIO too: count the client's.
        if client._rfile is not None and sio is client._rfile.raw:
            reads.append(len(buf))
        return readinto(sio, buf)

    monkeypatch.setattr(socket.SocketIO, "readinto", counting)
    n = 20
    try:
        client.connect()
        assert len(reads) == 1  # the HELLO's ACK
        statuses = [client.publish(RawReading("p1", 5, Channel.MOISTURE_VOLTAGE, 1.3,
                                              1700000000 + 900 * seq, seq))
                    for seq in range(1, n + 1)]
    finally:
        client.close()
        gw.shutdown()
        gw.server_close()
    assert statuses == ["acknowledged"] * n
    assert len(reads) == 1 + n


def test_simulate_offline_steps_once_per_tick_through_the_patched_name(tmp_path, monkeypatch):
    stepped = []
    monkeypatch.setattr(sim, "step", _recording(stepped, sim.step))
    assert main(["simulate", "--offline", "--data-root", str(tmp_path / "data"),
                 "--duration", "2h", "--start", "1700000000"]) == 0
    assert [args[3] for args, _ in stepped] == list(sim.tick_times(7200, 900))


def test_rows_with_vwc_calibrates_each_moisture_row_through_the_patched_name(monkeypatch):
    calibrated = []
    monkeypatch.setattr(store, "apply_calibration",
                        _recording(calibrated, store.apply_calibration))
    rows = [RawReading("p1", depth, channel, 1.25 + seq / 100, 1700000000 + 900 * seq, seq,
                       1700000000 + 900 * seq)
            for seq in (1, 2) for depth in (5, 50) for channel in Channel]
    out = store.rows_with_vwc(rows, FIELD_CALIBRATION)
    moisture = [r.value for r in rows if r.channel is Channel.MOISTURE_VOLTAGE]
    assert [args[1] for args, _ in calibrated] == moisture
    assert [r.vwc_percent for r in out if r.channel is Channel.MOISTURE_VOLTAGE] == [
        result for _, result in calibrated]


def test_report_calibrates_only_the_compared_series_through_the_patched_name(tmp_path,
                                                                              monkeypatch):
    root = str(tmp_path / "data")
    assert main(["simulate", "--offline", "--data-root", root, "--duration", "2h",
                 "--start", "1700000000"]) == 0
    calibrated = []
    monkeypatch.setattr(store, "apply_calibration",
                        _recording(calibrated, store.apply_calibration))
    assert main(["report", "--data-root", root]) == 0
    rows = store.Store(root).query()
    shallowest = min(r.depth_cm for r in rows)
    assert [args[1] for args, _ in calibrated] == [
        r.value for r in rows if r.depth_cm == shallowest and r.channel is Channel.MOISTURE_VOLTAGE]


def test_perfbench_read_round_gets_a_list_of_readings_that_export_and_calibrate_take(tmp_path):
    # perfbench/phases.py's read round times Store(root).query over a
    # one-day window of one profile, then hands the list it returns to
    # store.export, once per format, and to store.rows_with_vwc.
    root = str(tmp_path / "data")
    assert main(["simulate", "--offline", "--data-root", root, "--nodes", "2",
                 "--duration", "2d", "--start", "1700000000"]) == 0
    start = 1700000000 + 43200  # mid-day: the window cuts two partitions
    rows = store.Store(root).query("p1", start, start + 86400)
    assert type(rows) is list
    assert {r.timestamp // 86400 for r in rows} == {start // 86400, start // 86400 + 1}
    assert all(type(r) is RawReading and r.profile_id == "p1" and r.recv_timestamp is not None
               and start <= r.timestamp < start + 86400 for r in rows)
    assert len(rows) == 96 * 8
    order = [(r.timestamp, r.profile_id, r.depth_cm, r.channel.value, r.seq) for r in rows]
    assert order == sorted(order)
    for fmt in ("csv", "json", "xml"):
        assert type(store.export(rows, fmt)) is bytes
    assert len(store.rows_with_vwc(rows, FIELD_CALIBRATION)) == len(rows)
