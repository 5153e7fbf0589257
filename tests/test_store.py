import csv
import io
import json
import random
from datetime import datetime, timezone
from xml.etree import ElementTree as ET

import pytest
from hypothesis import example, given, strategies as st

from soilnet.core import FIELD_CALIBRATION, Channel, RawReading, apply_calibration
from soilnet.store import (
    EXPORT_FIELDS,
    Store,
    StoredRow,
    UnknownProfile,
    export,
    export_csv,
    iso_utc,
    parse_iso_utc,
    rows_with_vwc,
)

T0 = 1700000000  # mid-partition UTC instant


def make_row(seq=1, ts=T0, depth=5, channel=Channel.MOISTURE_VOLTAGE,
             value=1.30, profile="p1", vwc=None, recv=None):
    return StoredRow(profile, depth, channel, value, ts, seq,
                     recv_timestamp=ts if recv is None else recv, vwc_percent=vwc)


@pytest.fixture
def store(tmp_path):
    return Store(str(tmp_path / "data"))


class TestTimestamps:
    def test_iso_round_trip(self):
        assert parse_iso_utc(iso_utc(T0)) == T0

    def test_utc_z_suffix(self):
        assert iso_utc(0) == "1970-01-01T00:00:00Z"

    # Whole datetime range (years 1..9999), before and after the epoch, and
    # every second around a day boundary.
    @given(st.integers(-62135596800, 253402300799)
           | st.builds(lambda day, s: day * 86400 + s,
                       st.integers(-719161, 2932895), st.integers(-2, 2)))
    @example(-1)
    @example(-86400)
    @example(-62135596800)
    @example(253402300799)
    def test_iso_utc_is_strftime_form(self, ts):
        expected = datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        assert iso_utc(ts) == expected


class TestAppendQuery:
    def test_empty_store_empty_query(self, store):
        assert store.query() == []
        assert store.query(profile_id="p1") == []

    def test_round_trip_all_fields(self, store):
        row = make_row(vwc=40.25)
        store.append(row)
        assert store.query() == [row]

    def test_eight_rows_in_order(self, store):
        rows = [make_row(seq=i + 1, ts=T0 + 900 * i) for i in range(8)]
        for row in reversed(rows):
            store.append(row)
        assert store.query() == rows

    def test_time_range_half_open(self, store):
        for i in range(193):
            store.append(make_row(seq=i + 1, ts=T0 + 900 * i))
        half = store.query(start_ts=T0, end_ts=T0 + 24 * 3600)
        assert len(half) == 96
        full = store.query(start_ts=T0, end_ts=T0 + 48 * 3600 + 1)
        assert len(full) == 193

    def test_depth_and_channel_filters(self, store):
        store.append(make_row(seq=1, depth=5))
        store.append(make_row(seq=1, depth=50))
        store.append(make_row(seq=1, depth=5, channel=Channel.TEMPERATURE_C, value=20.0))
        assert len(store.query(depths={5})) == 2
        assert len(store.query(channels={Channel.TEMPERATURE_C})) == 1

    def test_unknown_profile_only_when_store_nonempty(self, store):
        store.append(make_row(profile="p1"))
        with pytest.raises(UnknownProfile):
            store.query(profile_id="p2")

    def test_durable_across_reopen(self, store):
        rows = [make_row(seq=i + 1, ts=T0 + i) for i in range(5)]
        for row in rows:
            store.append(row)
        again = Store(store.root)
        assert again.query() == rows

    def test_partitions_by_profile_and_day(self, store, tmp_path):
        store.append(make_row(profile="p1", recv=0))
        store.append(make_row(profile="p1", recv=86400, seq=2))
        store.append(make_row(profile="p2", recv=0))
        root = tmp_path / "data"
        assert (root / "p1" / "1970-01-01.csv").exists()
        assert (root / "p1" / "1970-01-02.csv").exists()
        assert (root / "p2" / "1970-01-01.csv").exists()

    def test_one_header_per_partition(self, store, tmp_path):
        header = ",".join(EXPORT_FIELDS)
        path = tmp_path / "data" / "p1" / "2023-11-14.csv"
        # Another instance writes the partition's first row and header ...
        Store(store.root).append(make_row(seq=1))
        # ... then this one and a third instance append to it.
        store.append(make_row(seq=2))
        store.append(make_row(seq=3))
        Store(store.root).append(make_row(seq=4))
        lines = path.read_text().splitlines()
        assert lines.count(header) == 1 and lines[0] == header
        assert [r.seq for r in store.query()] == [1, 2, 3, 4]

    def test_existing_partition_file_gets_no_second_header(self, store, tmp_path):
        pdir = tmp_path / "data" / "p1"
        pdir.mkdir()
        (pdir / "2023-11-14.csv").write_bytes(export_csv([make_row(seq=1)]))
        store.append(make_row(seq=2))
        assert [r.seq for r in store.query()] == [1, 2]

    def test_empty_or_removed_partition_gets_header(self, store, tmp_path):
        pdir = tmp_path / "data" / "p1"
        pdir.mkdir()
        path = pdir / "2023-11-14.csv"
        path.write_bytes(b"")
        store.append(make_row(seq=1))
        path.unlink()
        store.append(make_row(seq=2))
        assert path.read_bytes() == export_csv([make_row(seq=2)])

    def test_last_seqs(self, store):
        store.append(make_row(seq=3))
        store.append(make_row(seq=7, ts=T0 + 900))
        store.append(make_row(seq=2, channel=Channel.TEMPERATURE_C, value=19.0))
        assert store.last_seqs() == {
            ("p1", 5, "moisture"): 7,
            ("p1", 5, "temperature"): 2,
        }

    def test_invalid_range_rejected(self, store):
        with pytest.raises(ValueError):
            store.query(start_ts=10, end_ts=5)


class TestSkewFlag:
    def test_receive_after_send_not_skewed(self):
        assert not make_row(ts=T0, recv=T0 + 100).skewed()

    def test_large_node_clock_lead_flagged(self):
        assert make_row(ts=T0 + 1000, recv=T0).skewed()
        assert not make_row(ts=T0 + 200, recv=T0).skewed()


def _parse_back_csv(data: bytes):
    rows = list(csv.DictReader(io.StringIO(data.decode("ascii"))))
    return [_normalize(r) for r in rows]


def _parse_back_json(data: bytes):
    return [_normalize(r) for r in json.loads(data)]


def _parse_back_xml(data: bytes):
    root = ET.fromstring(data.decode("ascii"))
    assert root.tag == "readings"
    return [_normalize(dict(el.attrib)) for el in root]


def _normalize(rec: dict):
    vwc = rec.get("vwc_percent")
    return {
        "timestamp": rec["timestamp"],
        "recv_timestamp": rec["recv_timestamp"],
        "profile": rec["profile"],
        "depth_cm": int(rec["depth_cm"]),
        "channel": rec["channel"],
        "seq": int(rec["seq"]),
        "value": float(rec["value"]),
        "vwc_percent": None if vwc in (None, "") else float(vwc),
    }


class TestExport:
    def test_empty_csv_is_header_only(self):
        assert export([], "csv") == (",".join(EXPORT_FIELDS) + "\n").encode()

    def test_csv_golden_row(self):
        data = export([make_row(vwc=40.25)], "csv")
        lines = data.decode().split("\n")
        assert lines[0] == "timestamp,recv_timestamp,profile,depth_cm,channel,seq,value,vwc_percent"
        assert lines[1] == "2023-11-14T22:13:20Z,2023-11-14T22:13:20Z,p1,5,moisture,1,1.3,40.25"

    def test_absent_vwc_is_empty_csv_field(self):
        data = export([make_row()], "csv")
        assert data.decode().split("\n")[1].endswith(",1.3,")

    def test_deterministic_bytes(self):
        rows = [make_row(seq=i + 1, ts=T0 + i, value=1.2 + i * 0.01) for i in range(5)]
        for fmt in ("csv", "json", "xml"):
            assert export(rows, fmt) == export(rows, fmt)

    def test_cross_format_equivalence(self):
        rng = random.Random(5)
        rows = []
        for i in range(30):
            ch = rng.choice(list(Channel))
            rows.append(make_row(
                seq=i + 1, ts=T0 + i * 60,
                depth=rng.choice([5, 15, 50, 100]),
                channel=ch,
                value=rng.uniform(1.2, 1.7) if ch is Channel.MOISTURE_VOLTAGE else rng.uniform(14, 24),
                vwc=rng.choice([None, rng.uniform(29, 44)]),
            ))
        got_csv = _parse_back_csv(export(rows, "csv"))
        got_json = _parse_back_json(export(rows, "json"))
        got_xml = _parse_back_xml(export(rows, "xml"))
        assert got_csv == got_json == got_xml
        assert len(got_csv) == 30

    def test_csv_parse_back_matches_rows_exactly(self, store):
        rows = [make_row(seq=i + 1, ts=T0 + i, value=1.0 + i / 7.0) for i in range(10)]
        for row in rows:
            store.append(row)
        queried = store.query()
        parsed = _parse_back_csv(export_csv(queried))
        assert [r["value"] for r in parsed] == [r.value for r in rows]
        assert [r["seq"] for r in parsed] == [r.seq for r in rows]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export([], "parquet")

    def test_shortest_round_trip_float_rendering(self):
        value = 1.0 + 1.0 / 3.0
        data = export([make_row(value=value)], "csv")
        text = data.decode().split("\n")[1].split(",")[6]
        assert float(text) == value
        assert text == repr(value)


class TestRowsWithVwc:
    def test_fills_moisture_only(self):
        rows = [make_row(value=1.30),
                make_row(channel=Channel.TEMPERATURE_C, value=20.0)]
        out = rows_with_vwc(rows, FIELD_CALIBRATION)
        assert out[0].vwc_percent == pytest.approx(apply_calibration(FIELD_CALIBRATION, 1.30))
        assert out[1].vwc_percent is None

    def test_originals_untouched(self):
        rows = [make_row(value=1.30)]
        rows_with_vwc(rows, FIELD_CALIBRATION)
        assert rows[0].vwc_percent is None


def test_store_registered_model_fills_vwc(tmp_path):
    store = Store(str(tmp_path), model=FIELD_CALIBRATION)
    reading = RawReading("p1", 5, Channel.MOISTURE_VOLTAGE, 1.30, T0, 1)
    store.append_reading(reading, recv_timestamp=T0)
    (row,) = store.query()
    assert row.vwc_percent == pytest.approx(apply_calibration(FIELD_CALIBRATION, 1.30))
