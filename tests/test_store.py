import csv
import errno
import io
import json
import multiprocessing
import os
import random
import shutil
import tempfile
from dataclasses import fields, replace
from datetime import datetime, timezone
from unittest import mock
from xml.etree import ElementTree as ET

import pytest
from hypothesis import example, given, settings, strategies as st

from soilnet import store as store_module
from soilnet.core import (FIELD_CALIBRATION, TS_RANGE, CalibrationModel, Channel, RawReading,
                          Transform, ZeroVoltage, apply_calibration)
from soilnet.store import (
    CHECKPOINT,
    EXPORT_FIELDS,
    Store,
    UnknownProfile,
    export,
    export_chunks,
    export_csv,
    export_json,
    export_xml,
    iso_utc,
    parse_iso_utc,
    rows_with_vwc,
)

from oracles import (
    naive_csv_line,
    naive_json_export,
    naive_last_seqs,
    naive_query,
    naive_store_last_seqs,
    naive_xml_export,
)

T0 = 1700000000  # mid-partition UTC instant
DAY0 = 19675 * 86400  # 2023-11-14T00:00:00Z, the UTC midnight before T0


# Whole datetime range (years 1..9999), before and after the epoch, and
# every second around a day boundary.
datetime_range = (st.integers(-62135596800, 253402300799)
                  | st.builds(lambda day, s: day * 86400 + s,
                              st.integers(-719161, 2932895), st.integers(-2, 2)))


def make_row(seq=1, ts=T0, depth=5, channel=Channel.MOISTURE_VOLTAGE,
             value=1.30, profile="p1", vwc=None, recv=None):
    return RawReading(profile, depth, channel, value, ts, seq,
                      recv_timestamp=ts if recv is None else recv, vwc_percent=vwc)


@pytest.fixture
def store(tmp_path):
    return Store(str(tmp_path / "data"))


class TestTimestamps:
    def test_iso_round_trip(self):
        assert parse_iso_utc(iso_utc(T0)) == T0

    def test_utc_z_suffix(self):
        assert iso_utc(0) == "1970-01-01T00:00:00Z"

    @given(datetime_range)
    @example(-1)
    @example(-86400)
    @example(-62135596800)
    @example(253402300799)
    def test_iso_utc_is_strftime_form(self, ts):
        expected = datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        assert iso_utc(ts) == expected


class TestParseIsoUtc:
    @staticmethod
    def outcome(parse, s):
        try:
            return parse(s)
        except Exception as e:  # the exception type is part of the outcome
            return type(e)

    def assert_as_strptime(self, s):
        def strptime_form(text):
            return int(datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
                       .replace(tzinfo=timezone.utc).timestamp())
        assert self.outcome(parse_iso_utc, s) == self.outcome(strptime_form, s)

    # Below year 1000 iso_utc writes no 4-digit year, which strptime
    # rejects, and so must parse_iso_utc.
    @given(datetime_range)
    @example(-62135596800)
    @example(-30610224000)  # 1000-01-01T00:00:00Z
    @example(253402300799)
    def test_every_iso_utc_form(self, ts):
        self.assert_as_strptime(iso_utc(ts))
        if ts >= -30610224000:
            assert parse_iso_utc(iso_utc(ts)) == ts

    @given(st.from_regex(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", fullmatch=True)
           | st.from_regex(r"\d{1,5}-[ \d]{1,3}-[ \d]{1,3}[T ][ \d]{1,3}:\d{1,3}:\d{1,3}Z?\n?",
                           fullmatch=True)
           | st.text(max_size=24))
    @example("2024-1-1T0:0:0Z")
    @example("2024-01- 1T00:00:00Z")
    @example("2024-01-01T24:00:00Z")
    @example("2024-02-30T00:00:00Z")
    @example("2024-02-29T00:00:00Z")
    @example("2023-02-29T00:00:00Z")
    @example("2024-01-01T00:00:60Z")
    @example("2024-01-01T00:00:61Z")
    @example("2024-01-01T00:60:00Z")
    @example("2024-13-01T00:00:00Z")
    @example("0000-01-01T00:00:00Z")
    @example("2024-01-01T00:00:00Z\n")
    @example("\u0662\u0660\u0662\u0664-01-01T00:00:00Z")
    def test_any_string(self, s):
        self.assert_as_strptime(s)


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
        # The node timestamp's UTC day names the partition, whatever the
        # receive day: a late row and a node clock ahead of the gateway.
        store.append(make_row(profile="p1", ts=0, recv=5 * 86400))
        store.append(make_row(profile="p1", ts=86400, recv=0, seq=2))
        store.append(make_row(profile="p2", ts=86399, recv=86400))
        root = tmp_path / "data"
        assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*.csv")) == [
            "p1/1970-01-01.csv", "p1/1970-01-02.csv", "p2/1970-01-01.csv"]

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

    # A crash in mid-append leaves a final line without its newline: in a
    # row, or in the header of a partition's first write.
    @pytest.mark.parametrize("complete, torn", [
        ([make_row(seq=1)], b"2023-11-14T22:28:20Z,2023-11-"),
        ([], b"timestamp,recv"),
    ], ids=["row", "header"])
    def test_torn_final_line_ignored_then_cut(self, store, tmp_path, complete, torn):
        path = tmp_path / "data" / "p1" / "2023-11-14.csv"
        path.parent.mkdir(parents=True)
        path.write_bytes((export_csv(complete) if complete else b"") + torn)
        assert store.query() == complete
        assert store.last_seqs() == {("p1", 5, "moisture"): r.seq for r in complete}
        later = make_row(seq=2, ts=T0 + 900)
        store.append(later)
        assert path.read_bytes() == export_csv(complete + [later])

    def test_another_stores_half_written_row_is_cut(self, store):
        # Two writers on one store, a gateway and an offline backfill, say:
        # A's write fails half-way, then B, which has appended to the same
        # partition before, appends again.
        def write_half(fd, data):
            os.write(fd, data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        other = Store(store.root)
        store.append(make_row(seq=1))
        other.append(make_row(seq=2, ts=T0 + 1))
        with mock.patch.object(store_module, "_write_all", write_half), pytest.raises(OSError):
            store.append(make_row(seq=3, ts=T0 + 2))
        other.append(make_row(seq=4, ts=T0 + 3))
        assert [r.seq for r in Store(store.root).query()] == [1, 2, 4]
        assert Store(store.root).last_seqs() == naive_store_last_seqs(store.root) == {
            ("p1", 5, "moisture"): 4}

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


class TestCheckpoint:
    @staticmethod
    def reads(root):
        """last_seqs of a new Store, and the (file name, first byte) of
        each partition read it made."""
        calls = []
        real = store_module._rows

        def spy(data, start, day):
            calls.append((data[:9], start))
            return real(data, start, day)

        with mock.patch.object(store_module, "_rows", spy):
            seqs = Store(root).last_seqs()
        return seqs, calls

    def test_reads_only_bytes_the_checkpoint_does_not_cover(self, store):
        store.append_rows([make_row(seq=1), make_row(seq=1, profile="p2")])
        store.checkpoint()
        assert self.reads(store.root) == ({("p1", 5, "moisture"): 1, ("p2", 5, "moisture"): 1}, [])
        # Another writer appends to p1's partition and saves nothing.
        path = os.path.join(store.root, "p1", "2023-11-14.csv")
        covered = os.path.getsize(path)
        Store(store.root).append_rows([make_row(seq=2, ts=T0 + 900)])
        seqs, calls = self.reads(store.root)
        assert seqs == {("p1", 5, "moisture"): 2, ("p2", 5, "moisture"): 1}
        assert calls == [(b"timestamp", covered)]
        # That read saved a checkpoint covering it.
        assert self.reads(store.root)[1] == []

    def test_written_only_when_something_changed(self, store, tmp_path):
        checkpoint = tmp_path / "data" / CHECKPOINT
        store.last_seqs()
        store.checkpoint()
        assert not checkpoint.exists()  # an empty store
        store.append(make_row(seq=1))
        store.checkpoint()
        before = checkpoint.stat()
        store.checkpoint()
        assert Store(store.root).last_seqs() == {("p1", 5, "moisture"): 1}
        after = checkpoint.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert sorted(os.listdir(tmp_path / "data")) == [CHECKPOINT, "p1"]

    @staticmethod
    def rewrite_seqs(path, seq):
        """Delete the partition and write it again with every row's seq
        replaced by ``seq`` (as many digits): other rows, the same length."""
        with open(path, "rb") as f:
            lines = f.read().split(b"\n")
        for k in range(1, len(lines) - 1):
            fields = lines[k].split(b",")
            fields[5] = b"%d" % seq
            lines[k] = b",".join(fields)
        os.remove(path)
        with open(path, "wb") as f:
            f.write(b"\n".join(lines))

    def test_partition_rewritten_to_the_same_length_is_read_again(self, store):
        store.append_rows([make_row(seq=3), make_row(seq=4, ts=T0 + 1)])
        store.checkpoint()
        self.rewrite_seqs(os.path.join(store.root, "p1", "2023-11-14.csv"), 1)
        assert Store(store.root).last_seqs() == naive_store_last_seqs(store.root) == {
            ("p1", 5, "moisture"): 1}

    def test_save_skips_a_partition_rewritten_since_the_append(self, store):
        store.append_rows([make_row(seq=3), make_row(seq=4, ts=T0 + 1)])
        self.rewrite_seqs(os.path.join(store.root, "p1", "2023-11-14.csv"), 1)
        store.checkpoint()
        assert Store(store.root).last_seqs() == naive_store_last_seqs(store.root) == {
            ("p1", 5, "moisture"): 1}

    def test_removed_partition_written_again_longer_is_read_whole(self, store):
        # The new file may well get the old inode back.
        store.append_rows([make_row(seq=9)])
        store.checkpoint()
        os.remove(os.path.join(store.root, "p1", "2023-11-14.csv"))
        Store(store.root).append_rows([make_row(seq=1), make_row(seq=2, ts=T0 + 1)])
        assert Store(store.root).last_seqs() == naive_store_last_seqs(store.root) == {
            ("p1", 5, "moisture"): 2}

    def test_entry_resumed_past_another_writers_rows(self, store):
        # Another Store appends before this one's next append and after it:
        # the save reads past this Store's entry and records the whole file.
        other = Store(store.root)
        store.append(make_row(seq=1))
        other.append(make_row(seq=2, ts=T0 + 1))
        store.append(make_row(seq=3, ts=T0 + 2))
        other.append(make_row(seq=4, ts=T0 + 3))
        store.checkpoint()
        expected = naive_store_last_seqs(store.root)
        assert expected == {("p1", 5, "moisture"): 4}
        with mock.patch.object(store_module, "_read_covered",
                               side_effect=AssertionError("a partition was read")):
            assert Store(store.root).last_seqs() == expected

    def test_entry_counts_its_skipped_lines(self, store):
        # A partition holding lines that are no rows has an entry like any
        # other, with their count: the next start reads no partition, names
        # the count and leaves the checkpoint as it was.
        store.append_rows([make_row(seq=1), make_row(seq=2, profile="p2"),
                           make_row(seq=3, ts=T0 + 86400)])
        paths = [os.path.join(store.root, "p1", "2023-11-14.csv"),
                 os.path.join(store.root, "p1", "2023-11-15.csv"),
                 os.path.join(store.root, "p2", "2023-11-14.csv")]
        foreign = [b"garbage", b"\xff", b"a,b,c,d,e,f,g,h"]
        for k, path in enumerate(paths):
            with open(path, "ab") as f:
                f.write(b"".join(line + b"\n" for line in foreign[:k + 1]))
        Store(store.root).last_seqs()
        checkpoint = os.path.join(store.root, CHECKPOINT)
        before = os.stat(checkpoint)
        again = Store(store.root)
        with mock.patch.object(store_module, "_read_covered",
                               side_effect=AssertionError("a partition was read")):
            assert again.last_seqs() == naive_store_last_seqs(store.root, foreign)
        assert again.skipped == {path: k + 1 for k, path in enumerate(paths)}
        after = os.stat(checkpoint)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_entry_with_skipped_lines_is_resumed(self, store):
        path = os.path.join(store.root, "p1", "2023-11-14.csv")
        store.append(make_row(seq=1))
        with open(path, "ab") as f:
            f.write(b"garbage\n")
        store.checkpoint()
        covered = os.path.getsize(path)
        Store(store.root).append(make_row(seq=2, ts=T0 + 900))
        with open(path, "ab") as f:
            f.write(b"\xff\n")
        seqs, calls = self.reads(store.root)
        assert seqs == naive_store_last_seqs(store.root, {b"garbage", b"\xff"})
        assert calls == [(b"timestamp", covered)]
        # That read's count, one line in the entry and one past it, is saved.
        again = Store(store.root)
        with mock.patch.object(store_module, "_read_covered",
                               side_effect=AssertionError("a partition was read")):
            again.last_seqs()
        assert again.skipped == {path: 2}

    def test_altered_checkpoint_is_not_trusted(self, store, tmp_path):
        store.append_rows([make_row(seq=7)])
        store.checkpoint()
        checkpoint = tmp_path / "data" / CHECKPOINT
        data = checkpoint.read_bytes()
        assert data.count(b'"moisture",7]') == 1
        checkpoint.unlink()
        checkpoint.write_bytes(data.replace(b'"moisture",7]', b'"moisture",8]'))
        assert Store(store.root).last_seqs() == {("p1", 5, "moisture"): 7}

    def test_unwritable_checkpoint_costs_no_seq(self, store, tmp_path):
        # A directory in the checkpoint's place: it can be neither read
        # nor replaced.
        (tmp_path / "data" / CHECKPOINT).mkdir()
        store.append(make_row(seq=4))
        with pytest.raises(OSError):
            store.checkpoint()
        assert Store(store.root).last_seqs() == {("p1", 5, "moisture"): 4}
        assert sorted(os.listdir(tmp_path / "data")) == [CHECKPOINT, "p1"]


# Node timestamps on, next to and between UTC midnights of four days.
node_ts = st.builds(lambda day, off: DAY0 + day * 86400 + off, st.integers(0, 3),
                    st.sampled_from([0, 1, 86399]) | st.integers(0, 86399))
# Receive minus node time: on time, days late (a buffered node) or the node
# clock ahead of the gateway.
recv_skew = st.sampled_from([0, 1, -1, -86400]) | st.integers(-3 * 86400, 10 * 86400)
instants = node_ts | st.integers(DAY0 - 86400, DAY0 + 5 * 86400)


@settings(max_examples=60, deadline=None)
@given(readings=st.lists(st.tuples(st.sampled_from(["p1", "p2"]), st.sampled_from([5, 50]),
                                   st.sampled_from(list(Channel)), node_ts, recv_skew),
                         min_size=1, max_size=30),
       data=st.data())
def test_windowed_query_matches_naive_oracle(readings, data):
    rows = [RawReading(p, depth, ch, 1.25 + i / 64, ts, i + 1, ts + skew)
            for i, (p, depth, ch, ts, skew) in enumerate(readings)]
    with tempfile.TemporaryDirectory() as root:
        store = Store(root)
        for row in rows:
            store.append(row)
        # Window ends on, or a second either side of, a stored timestamp.
        near_row = st.builds(lambda r, d: r.timestamp + d,
                             st.sampled_from(rows), st.sampled_from([-1, 0, 1]))
        edges = st.one_of(st.none(), instants, near_row)
        profiles = sorted({r.profile_id for r in rows})
        for _ in range(5):
            start, end = data.draw(edges), data.draw(edges)
            if start is not None and end is not None and start > end:
                start, end = end, start
            kw = {
                "profile_id": data.draw(st.sampled_from([None, *profiles])),
                "start_ts": start,
                "end_ts": end,
            }
            assert store.query(**kw) == naive_query(rows, **kw)


def test_windows_at_day_boundaries_match_naive_oracle(store):
    around = [DAY0 + k * 86400 + d for k in (0, 1, 2) for d in (-1, 0, 1)]
    rows = [make_row(seq=i + 1, ts=ts, recv=ts + 86400 * (i % 3 - 1))
            for i, ts in enumerate(around)]
    for row in rows:
        store.append(row)
    for start in (None, *around):
        for end in (None, *around):
            if start is None or end is None or start <= end:
                assert (store.query(start_ts=start, end_ts=end)
                        == naive_query(rows, start_ts=start, end_ts=end))


HEADER = (",".join(EXPORT_FIELDS) + "\n").encode()

# Profile ids that need CSV quoting; floats whose repr and CSV forms are
# easy to get wrong.
csv_profiles = st.sampled_from(["p1", "p2", "a,b", 'q"r', 'x", y'])
# Export-only ids too: spaces, and line breaks, which no partition may hold.
export_profiles = csv_profiles | st.sampled_from(["a b", " p", "e\nf", 'g",\nh'])
tricky_floats = st.sampled_from([0.0, -0.0, 3.0, -7.0, 1e16, 1e22, 1.7976931348623157e308,
                                 -1.7976931348623157e308, 5e-324, 2.2250738585072014e-308,
                                 1 / 3, float("inf"), float("nan")]) | st.floats()


def _tree(root) -> dict:
    """Every directory and file under ``root``, with each file's bytes."""
    out = {}
    for d, dirs, files in os.walk(root):
        for name in dirs:
            out[os.path.relpath(os.path.join(d, name), root)] = None
        for name in files:
            with open(os.path.join(d, name), "rb") as f:
                out[os.path.relpath(os.path.join(d, name), root)] = f.read()
    return out


@settings(max_examples=80, deadline=None)
@given(fields=st.lists(st.tuples(csv_profiles, st.integers(1, 200), st.sampled_from(list(Channel)),
                                 tricky_floats, node_ts, st.integers(1, 2**40), recv_skew,
                                 st.none() | tricky_floats),
                       min_size=1, max_size=40),
       data=st.data())
def test_append_rows_writes_the_naive_lines_in_order(fields, data):
    rows = [RawReading(p, depth, ch, value, ts, seq, ts + skew, vwc)
            for p, depth, ch, value, ts, seq, skew, vwc in fields]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    batches = [rows[a:b] for a, b in zip([0, *cuts], [*cuts, len(rows)])]
    expected = {}
    for row in rows:
        day = datetime.fromtimestamp(row.timestamp, tz=timezone.utc).strftime("%Y-%m-%d")
        path = os.path.join(row.profile_id, f"{day}.csv")
        expected[path] = expected.get(path, HEADER) + naive_csv_line(row)
    expected.update({p: None for p in {r.profile_id for r in rows}})
    # As cut, then every row its own one-row batch, as the gateway appends.
    for batching in (batches, [[row] for row in rows]):
        with tempfile.TemporaryDirectory() as root:
            store = Store(root)
            for batch in batching:
                store.append_rows(iter(batch))
            assert _tree(root) == expected
    # export_csv writes the same lines.
    exported = rows + [replace(row, profile_id=data.draw(export_profiles)) for row in rows]
    assert export_csv(exported) == HEADER + b"".join(map(naive_csv_line, exported))


# What may follow a partition's last whole row: nothing, or half a row.
TORN_TAILS = [b"", b"2023-11-14T22:28:20Z,2023-11-", b"2023-11-14T22:28:20Z,"]


@settings(max_examples=60, deadline=None)
@given(fields=st.lists(st.tuples(csv_profiles, st.sampled_from([5, 50]), st.sampled_from(list(Channel)),
                                 tricky_floats, node_ts, st.integers(1, 2**40), recv_skew,
                                 st.none() | tricky_floats),
                       min_size=1, max_size=30),
       # A partition before the appends: none, a torn header, a header, a row and a tail.
       before=st.sampled_from([None, b"timestamp,recv", HEADER]
                              + [HEADER + naive_csv_line(make_row(seq=7)) + tail
                                 for tail in TORN_TAILS]),
       scanned=st.booleans())
@example(fields=[("p1", 5, Channel.MOISTURE_VOLTAGE, 1.3, DAY0 + 7, 9, 0, None)],
         before=HEADER + naive_csv_line(make_row(seq=7)) + TORN_TAILS[1], scanned=True)
def test_one_row_appends_match_one_batch(fields, before, scanned):
    # Store.append, the gateway's one-row path, and append_rows share one
    # write routine: appending rows one at a time, or all in one batch,
    # gives the same partitions, checkpoint entries and seqs, a torn last
    # line cut off alike.
    rows = [RawReading(p, depth, ch, value, ts, seq, ts + skew, vwc)
            for p, depth, ch, value, ts, seq, skew, vwc in fields]
    rows.append(make_row(seq=8, ts=T0 + 1))  # so that the partition ``before`` holds grows
    prior = [make_row(seq=7)] if before and naive_csv_line(make_row(seq=7)) in before else []
    results = []
    for one_by_one in (True, False):
        with tempfile.TemporaryDirectory() as root:
            if before is not None:  # the partition of node day 0 for p1
                os.makedirs(os.path.join(root, "p1"))
                with open(os.path.join(root, "p1", "2023-11-14.csv"), "wb") as f:
                    f.write(before)
            store = Store(root)
            if scanned:  # entries known before the appends, as a gateway's are
                store.last_seqs()
            if one_by_one:
                for row in rows:
                    store.append(row)
            else:
                store.append_rows(rows)
            partitions = {path: data for path, data in _tree(root).items()
                          if path.endswith(".csv")}
            # An entry's stat names this root's files: only whether it is set compares.
            entries = {os.path.relpath(path, root): (e.size, e.crc, e.seqs, e.stat is None, e.skipped)
                       for path, e in store._covered.items()}
            results.append((partitions, entries, store.last_seqs()))
    assert results[0] == results[1]
    partitions, _, seqs = results[0]
    assert all(data.endswith(b"\n") for data in partitions.values())
    assert seqs == naive_last_seqs(prior + rows)


# A profile id names the partition's directory: "" or "." would put a
# partition in the root, where no query or last_seqs finds it, ".." beside
# the root; no path can hold a NUL. It is also a CSV field: a line break
# would split its row (csv.writer leaves CR unquoted), and no id holds a
# tab or any other character that is not printable.
@pytest.mark.parametrize("bad", [make_row(seq=9, ts=10**15), make_row(seq=9, recv=-10**15),
                                 make_row(seq=9, ts=10**30), make_row(seq=9, profile="p\u00e9")]
                         + [make_row(seq=9, profile=p) for p in ("", ".", "..", "a/b", "../p1", "p\x00",
                                                                 "e\nf", "c\rd", "a\tb")],
                         ids=["ts", "recv", "overflow", "non-ascii", "empty", "dot", "dotdot",
                              "slash", "parent-path", "nul", "newline", "cr", "tab"])
def test_unencodable_row_leaves_every_partition_unchanged(tmp_path, store, bad):
    store.append_rows([make_row(seq=1), make_row(seq=1, profile="p2")])
    before = _tree(tmp_path)
    batch = [make_row(seq=2), make_row(seq=1, profile="p3"), bad,
             make_row(seq=3, ts=T0 + 86400)]
    with pytest.raises((ValueError, OverflowError)):
        store.append_rows(batch)
    assert _tree(tmp_path) == before
    store.append_rows([make_row(seq=2)])
    assert [r.seq for r in store.query(profile_id="p1")] == [1, 2]


def test_reading_without_receive_time_stores_nothing(tmp_path, store):
    # A reading the gateway has not received has no receive clock: the
    # batch raises while it is encoded, before a byte is written.
    store.append_rows([make_row(seq=1), make_row(seq=1, profile="p2")])
    seqs = store.last_seqs()
    before = _tree(tmp_path)
    unreceived = RawReading("p1", 5, Channel.TEMPERATURE_C, 21.5, T0, 2)
    assert unreceived.recv_timestamp is None
    with pytest.raises(TypeError):
        store.append_rows([make_row(seq=2, profile="p2"), unreceived])
    assert _tree(tmp_path) == before
    assert store.last_seqs() == Store(store.root).last_seqs() == seqs


@pytest.mark.parametrize("clocks", [(TS_RANGE[0] - 1, T0), (T0, TS_RANGE[0] - 1),
                                    (TS_RANGE[1] + 1, T0), (T0, TS_RANGE[1] + 1)],
                         ids=["ts-year-999", "recv-year-999", "ts-year-10000", "recv-year-10000"])
def test_clock_outside_ts_range_stores_nothing(tmp_path, store, clocks):
    # Year 999 encodes, as "999-12-31", but no reader reads it back: the
    # batch raises before a byte is written.
    store.append_rows([make_row(seq=1), make_row(seq=1, profile="p2")])
    seqs = store.last_seqs()
    before = _tree(tmp_path)
    ts, recv = clocks
    with pytest.raises(ValueError):
        store.append_rows([make_row(seq=2, profile="p2"), make_row(seq=2, ts=ts, recv=recv)])
    assert _tree(tmp_path) == before
    assert store.last_seqs() == Store(store.root).last_seqs() == seqs
    # The range's ends are stored and read back.
    ends = [make_row(seq=3, ts=TS_RANGE[0], recv=TS_RANGE[1]),
            make_row(seq=4, ts=TS_RANGE[1], recv=TS_RANGE[0])]
    store.append_rows(ends)
    assert store.query(profile_id="p1", start_ts=TS_RANGE[0], end_ts=T0) == ends[:1]
    assert store.query(profile_id="p1", start_ts=T0 + 1) == ends[1:]


def _append_one_row_at_a_time(root, depth, count, barrier):
    store = Store(root)
    barrier.wait(timeout=60)
    for seq in range(1, count + 1):
        store.append(make_row(seq=seq, ts=T0 + seq, depth=depth))


def test_two_processes_append_to_one_partition(tmp_path):
    # Each append holds the partition's flock, which orders processes too:
    # the partition gets one header and every row whole, once.
    root = str(tmp_path / "data")
    count = 2000
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_append_one_row_at_a_time, args=(root, depth, count, barrier))
             for depth in (5, 50)]
    for proc in procs:
        proc.start()
    try:
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0]
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join()
            proc.close()
    (path,) = (tmp_path / "data" / "p1").iterdir()
    data = path.read_bytes()
    assert data.startswith(HEADER) and data.endswith(b"\n")
    lines = data[len(HEADER):].splitlines(keepends=True)
    for depth in (5, 50):
        expected = [naive_csv_line(make_row(seq=seq, ts=T0 + seq, depth=depth))
                    for seq in range(1, count + 1)]
        mine = set(expected)
        assert [line for line in lines if line in mine] == expected
    assert len(lines) == 2 * count
    assert Store(root).last_seqs() == {("p1", 5, "moisture"): count, ("p1", 50, "moisture"): count}


def test_partitions_removed_between_batches_are_recreated(store, tmp_path):
    root = tmp_path / "data"
    store.append_rows([make_row(seq=1), make_row(seq=1, profile="p2"),
                       make_row(seq=2, ts=T0 + 86400)])
    (root / "p1" / "2023-11-14.csv").unlink()
    shutil.rmtree(root / "p2")
    later = [make_row(seq=3, ts=T0 + 86401), make_row(seq=2, ts=T0 + 1),
             make_row(seq=2, ts=T0 + 2, profile="p2")]
    store.append_rows(later)
    assert (root / "p1" / "2023-11-14.csv").read_bytes() == HEADER + naive_csv_line(later[1])
    assert (root / "p2" / "2023-11-14.csv").read_bytes() == HEADER + naive_csv_line(later[2])
    assert (root / "p1" / "2023-11-15.csv").read_bytes() == (
        HEADER + naive_csv_line(make_row(seq=2, ts=T0 + 86400)) + naive_csv_line(later[0]))


# Lines that no Store could write, as another program might append them:
# garbage, blank lines, a second header, rows cut short or run long, rows
# holding a byte that is not ASCII, and rows with one field spoiled.
GOOD_LINE = b"2023-11-14T22:13:20Z,2023-11-14T22:13:20Z,p1,5,moisture,1,1.3,"
SPOILED_FIELDS = [
    (0, b"x"), (0, b"2023-02-30T00:00:00Z"), (1, b""), (1, b"22:13:20"), (2, b'"'), (2, b'a"b'),
    (2, b'"a'), (2, "p\u00e9".encode()), (3, b"x"), (3, b"1.5"), (4, b"wind"), (4, b""),
    (5, b"x"), (5, b""), (6, b"one"), (6, b""), (7, b"x"),
]


def _spoil_field(k, bad):
    fields = GOOD_LINE.split(b",")
    fields[k] = bad
    return b",".join(fields)


FOREIGN_LINES = [
    b"", b"\r", b"garbage", b"\xff", b"a,b,c,d,e,f,g,h", HEADER[:-1], HEADER[:-1] + b"x",
    GOOD_LINE + b",x", *(b",".join(GOOD_LINE.split(b",")[:k]) for k in range(1, 8)),
    *(_spoil_field(k, bad) for k, bad in SPOILED_FIELDS),
]
foreign_lines = st.sampled_from(FOREIGN_LINES) | st.builds(
    lambda k: GOOD_LINE[:k] + b"\xff" + GOOD_LINE[k:], st.integers(0, len(GOOD_LINE)))


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(
    st.tuples(st.just("store"), st.lists(st.tuples(csv_profiles, st.sampled_from(list(Channel)),
                                                   node_ts), min_size=1, max_size=4))
    | st.tuples(st.just("foreign"), st.tuples(csv_profiles, st.integers(0, 3), foreign_lines))
    | st.tuples(st.just("checkpoint"), st.none()),
    max_size=12))
# Every listed line between two appends, then one as a partition's first line.
@example(ops=[("store", [("p1", Channel.MOISTURE_VOLTAGE, T0)]),
              *(("foreign", ("p1", 0, line)) for line in FOREIGN_LINES),
              ("store", [("p1", Channel.MOISTURE_VOLTAGE, T0 + 1)]),
              ("foreign", ("p2", 1, b"garbage")), ("checkpoint", None),
              ("store", [("p2", Channel.TEMPERATURE_C, T0 + 86400)])])
def test_foreign_lines_are_skipped_and_counted(ops):
    # A line no Store wrote stops no read: each is skipped and counted, and
    # every row a Store wrote is read back exactly once. A foreign line
    # that is a partition's first line takes the header's place, so a
    # header there is no foreign line.
    with tempfile.TemporaryDirectory() as root:
        store = Store(root)
        written, injected = [], 0
        for op, arg in ops:
            if op == "store":
                rows = [RawReading(p, 5, ch, 1.25, ts, len(written) + i + 1, ts)
                        for i, (p, ch, ts) in enumerate(arg)]
                store.append_rows(rows)
                written += rows
            elif op == "checkpoint":
                store.checkpoint()
            else:
                pid, day, line = arg
                path = os.path.join(root, pid, iso_utc(DAY0 + day * 86400)[:10] + ".csv")
                os.makedirs(os.path.dirname(path), exist_ok=True)
                if line == HEADER[:-1] and not os.path.exists(path):
                    continue
                with open(path, "ab") as f:
                    f.write(line + b"\n")
                injected += 1
        expected = naive_last_seqs(written)
        reader = Store(root)
        rows = reader.query()
        assert rows == naive_query(written)
        assert sum(reader.skipped.values()) == injected
        for fmt in ("csv", "json", "xml"):
            export(rows, fmt)
        assert store.last_seqs() == expected
        store.checkpoint()
        assert sum(store.skipped.values()) == injected
        # The checkpoint entry of a partition with skipped lines records
        # their count, so a start that trusts the entry counts them too.
        again = Store(root)
        assert again.last_seqs() == expected
        assert sum(again.skipped.values()) == injected


@pytest.mark.parametrize("repeats", [1, 2])
def test_parse_memo_takes_no_value_from_a_line_that_is_no_row(store, repeats):
    # The reader reuses a profile field or a timestamp that repeats the last
    # line's: a line that fails, on either field, must leave no value behind
    # for the lines after it, a line repeating that field among them.
    path = os.path.join(store.root, "p1", "2023-11-14.csv")
    os.makedirs(os.path.dirname(path))
    ts, later, recv = "2023-11-14T22:13:20Z", "2023-11-14T22:28:20Z", "2023-11-15T01:00:00Z"
    off = "2023-11-15T22:13:20Z"
    with open(path, "wb") as f:
        f.write(HEADER + "".join([
            f"{ts},{ts},p1,5,moisture,1,1.3,\n",
            f"{ts},{ts},p1,5,temperature,1,20.5,\n",
            f'{ts},{ts},",15,moisture,1,1.4,\n' * repeats,  # a lone quote: no profile id
            f"2023-11-14T25:13:20Z,{ts},p1,15,moisture,1,1.4,\n" * repeats,  # no such hour
            f"{off},{off},p1,15,moisture,1,1.4,\n" * repeats,  # not the partition's day
            f"{later},{later},p2,5,moisture,1,1.5,\n",
            f'{later},{later},"a,b",5,moisture,1,1.6,\n',
            f"{later},{recv},p1,5,moisture,2,1.35,\n",
            f"{later},{later},p1,15,moisture,1,1.45,\n",
        ]).encode("ascii"))
    t, t2 = parse_iso_utc(ts), parse_iso_utc(later)
    assert store.query() == [
        RawReading("p1", 5, Channel.MOISTURE_VOLTAGE, 1.3, t, 1, t),
        RawReading("p1", 5, Channel.TEMPERATURE_C, 20.5, t, 1, t),
        RawReading("a,b", 5, Channel.MOISTURE_VOLTAGE, 1.6, t2, 1, t2),
        RawReading("p1", 5, Channel.MOISTURE_VOLTAGE, 1.35, t2, 2, parse_iso_utc(recv)),
        RawReading("p1", 15, Channel.MOISTURE_VOLTAGE, 1.45, t2, 1, t2),
        RawReading("p2", 5, Channel.MOISTURE_VOLTAGE, 1.5, t2, 1, t2),
    ]
    assert store.skipped == {path: 3 * repeats}


BEFORE_YEAR_1000 = "0999-06-01T00:00:00Z"


@pytest.mark.parametrize("name, line", [
    # Both clocks before year 1000, in the partition of its day and in another.
    ("0999-06-01.csv", f"{BEFORE_YEAR_1000},{BEFORE_YEAR_1000},p1,5,moisture,1,1.3,"),
    ("2023-11-14.csv", f"{BEFORE_YEAR_1000},{BEFORE_YEAR_1000},p1,5,moisture,1,1.3,"),
    # A receive time before year 1000 on a row of its partition's day.
    ("2023-11-14.csv", f"2023-11-14T22:13:20Z,{BEFORE_YEAR_1000},p1,5,moisture,1,1.3,"),
    # A node time of another day than its partition's, in range or not.
    ("2023-11-14.csv", "2023-11-15T00:00:00Z,2023-11-15T00:00:00Z,p1,5,moisture,1,1.3,"),
    ("2023-11-14.csv", "2023-11-13T23:59:59Z,2023-11-14T00:00:00Z,p1,5,moisture,1,1.3,"),
    # A file whose name is no partition day holds no row.
    ("notes.csv", "2023-11-14T22:13:20Z,2023-11-14T22:13:20Z,p1,5,moisture,1,1.3,"),
    ("2023-1-14.csv", "2023-01-14T22:13:20Z,2023-01-14T22:13:20Z,p1,5,moisture,1,1.3,"),
])
def test_line_off_its_partition_day_or_ts_range_is_no_row(store, name, line):
    # Such a line is skipped and counted by the query and by the checkpoint
    # scan alike, and no seq of it reaches last_seqs.
    path = os.path.join(store.root, "p1", name)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as f:
        f.write(HEADER + line.encode("ascii") + b"\n")
    assert store.query() == []
    assert store.skipped == {path: 1}
    for fmt in ("csv", "json", "xml"):
        assert export(store.query(), fmt) == export([], fmt)
    scanner = Store(store.root)
    assert scanner.last_seqs() == {}
    assert scanner.skipped == {path: 1}
    assert Store(store.root).last_seqs() == {}  # from the saved checkpoint


def test_query_days_checks_its_arguments_before_it_reads(store):
    store.append(make_row())
    with mock.patch.object(store_module, "_rows", side_effect=AssertionError("read")):
        with pytest.raises(UnknownProfile):
            store.query_days("p9")
        with pytest.raises(ValueError):
            store.query_days(start_ts=T0 + 1, end_ts=T0)
        days = store.query_days()  # reads nothing until its first list is taken
    assert list(days) == [[make_row()]]


# Ids that a partition may hold and that CSV must quote, or JSON or XML escape.
stream_profiles = csv_profiles | st.sampled_from(["a&b", "<p>", "x'y", "b\\c"])
stream_vwc = st.none() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 41.5])
# Few node and receive times, so that rows of several profiles share a tick.
stream_ts = st.builds(lambda day, s: DAY0 + day * 86400 + s, st.integers(0, 2),
                      st.sampled_from([0, 1, 900, 86399]))
stream_skew = st.sampled_from([0, 1, -86400, 3 * 86400])


@settings(max_examples=80, deadline=None)
@given(fields=st.lists(st.tuples(stream_profiles, st.booleans(), st.sampled_from([5, 50]),
                                 st.sampled_from(list(Channel)), tricky_floats, stream_ts,
                                 st.integers(1, 2**40), stream_skew, stream_vwc),
                       max_size=24),
       data=st.data())
@example(fields=[], data=None)
@example(fields=[("a,b", True, 5, Channel.MOISTURE_VOLTAGE, 1.25, DAY0, 1, 0, None)], data=None)
@example(fields=[(pid, pid != "p1", 5, Channel.MOISTURE_VOLTAGE, 1.25, DAY0, 1, 0, vwc)
                 for pid, vwc in (("p1", None), ('q"r', 1.5), ("a&b", float("nan")))], data=None)
@example(fields=[("p1", False, depth, Channel.MOISTURE_VOLTAGE, 1.25, DAY0, 1, skew, None)
                 for depth, skew in ((5, 0), (50, 1))], data=None)
def test_streamed_days_match_one_export_and_naive_oracles(fields, data):
    # Rows written by hand to partitions of their node day, some to another
    # profile's directory (as another program might), each read back and
    # exported day by day: whatever the chunk edges, the bytes are those of
    # one export of every row and of the naive oracles.
    by_dir = {}
    for pid, elsewhere, depth, ch, value, ts, seq, skew, vwc in fields:
        row = RawReading(pid, depth, ch, value, ts, seq, ts + skew, vwc)
        by_dir.setdefault("p-other" if elsewhere else pid, []).append(row)
    with tempfile.TemporaryDirectory() as root:
        for pdir, dir_rows in by_dir.items():
            for row in dir_rows:
                day = datetime.fromtimestamp(row.timestamp, tz=timezone.utc).strftime("%Y-%m-%d")
                path = os.path.join(root, pdir, f"{day}.csv")
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "ab") as f:
                    f.write((b"" if f.tell() else HEADER) + naive_csv_line(row))
        store = Store(root)
        windows = [(None, None)]
        if data is not None:
            edges = st.one_of(st.none(), instants, st.builds(lambda d, s: DAY0 + d * 86400 + s,
                                                             st.integers(0, 4),
                                                             st.sampled_from([-1, 0, 1])))
            for _ in range(2):
                start, end = data.draw(edges), data.draw(edges)
                if start is not None and end is not None and start > end:
                    start, end = end, start
                windows.append((start, end))
        # Rows of one query key keep the store's read order: directory, then
        # append order.
        in_dir_order = [row for pdir in sorted(by_dir) for row in by_dir[pdir]]
        for pdir in (None, *sorted(by_dir)):
            for start, end in windows:
                want = naive_query(in_dir_order if pdir is None else by_dir[pdir],
                                   start_ts=start, end_ts=end)
                got = store.query(pdir, start, end)
                assert [_exact(r) for r in got] == [_exact(r) for r in want]
                days = store.query_days(pdir, start, end)
                assert [_exact(r) for day in days for r in day] == [_exact(r) for r in want]
                for fmt, oracle in (("csv", lambda rs: HEADER + b"".join(map(naive_csv_line, rs))),
                                    ("json", naive_json_export), ("xml", naive_xml_export)):
                    whole = export(list(got), fmt)
                    assert whole == oracle(want)
                    assert b"".join(export_chunks(store.query_days(pdir, start, end), fmt)) == whole
                    # A chunk edge at every position of the whole store's rows,
                    # then a drawn chunking, empty chunks among others.
                    for k in range(len(got) + 1 if pdir is start is end is None else 0):
                        assert b"".join(export_chunks([got[:k], got[k:]], fmt)) == whole
                    if data is not None:
                        cuts = sorted(data.draw(st.lists(st.integers(0, len(got)), max_size=6)))
                        chunks = [got[a:b] for a, b in zip([0, *cuts], [*cuts, len(got)])]
                        assert b"".join(export_chunks(chunks, fmt)) == whole


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


# Ids that JSON or XML must escape, and one letter that ASCII cannot hold;
# floats that neither writes as their repr, or whose repr is easy to get wrong.
markup_profiles = st.sampled_from(["p1", "p2"]) | st.text(
    st.sampled_from("p&<>\"'\\ \n\r\t\u00e9"), min_size=1, max_size=5)
special_floats = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
                                  3.0, 1e16]) | st.floats()


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.builds(RawReading, markup_profiles, st.integers(1, 200),
                                st.sampled_from(list(Channel)), special_floats, node_ts,
                                st.integers(1, 2**40), node_ts, st.none() | special_floats),
                     max_size=6))
@example(rows=[])
def test_json_and_xml_exports_match_naive_oracles(rows):
    for exporter, oracle in ((export_json, naive_json_export), (export_xml, naive_xml_export)):
        try:
            expected = oracle(rows)
        except Exception as e:
            with pytest.raises(type(e)):
                exporter(rows)
        else:
            assert exporter(rows) == expected


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


def _replace_oracle(rows, model):
    # rows_with_vwc as dataclasses.replace writes it: a copy of each moisture
    # row the model maps, with vwc_percent set; every other row as it is.
    out = []
    for row in rows:
        if row.channel is Channel.MOISTURE_VOLTAGE:
            try:
                row = replace(row, vwc_percent=apply_calibration(model, row.value))
            except ZeroVoltage:
                pass
        out.append(row)
    return out


def _exact(row):
    # Each field with its type; a float by its hex, so -0.0 and NaN compare.
    return [(type(v), v.hex() if isinstance(v, float) else v)
            for v in (getattr(row, f.name) for f in fields(RawReading))]


volts = st.sampled_from([0.0, -0.0, -1.2, 1.3, 3.3, float("nan")]) | st.floats()
models = st.sampled_from([FIELD_CALIBRATION,
                          CalibrationModel(0.5, -2.0, 40.0, Transform.IDENTITY)]) | st.builds(
    CalibrationModel, st.floats(-100, 100), st.floats(-200, 200), st.floats(-100, 100),
    st.sampled_from(list(Transform)))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.builds(RawReading, st.sampled_from(["p1", "a,b"]), st.sampled_from([5, 50]),
                               st.sampled_from(list(Channel)), volts, node_ts,
                               st.integers(1, 2**40), st.none() | node_ts,
                               st.none() | st.floats()),
                     max_size=8),
       model=models)
@example(rows=[make_row(value=0.0), make_row(value=0.0, vwc=5.0),
               RawReading("p1", 5, Channel.MOISTURE_VOLTAGE, 1.3, T0, 2),
               make_row(channel=Channel.TEMPERATURE_C, value=-0.0, vwc=12.5)],
         model=FIELD_CALIBRATION)
def test_rows_with_vwc_matches_replace_oracle(rows, model):
    before = [_exact(r) for r in rows]
    expected = _replace_oracle(rows, model)
    got = rows_with_vwc(rows, model)
    assert [_exact(r) for r in got] == [_exact(r) for r in expected]
    # The same rows passed through as they are, the same ones new.
    assert [g is r for g, r in zip(got, rows)] == [e is r for e, r in zip(expected, rows)]
    assert [_exact(r) for r in rows] == before
