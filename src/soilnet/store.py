"""Append-only time-series storage partitioned by profile and UTC day,
with range queries and bit-exact CSV/JSON/XML export.

On-disk layout: {root}/{profile_id}/{YYYY-MM-DD}.csv, one header line per
file, rows appended in receive order and never rewritten.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import threading
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from xml.etree import ElementTree as ET

from soilnet.core import CalibrationModel, Channel, RawReading, apply_calibration

EXPORT_FIELDS = (
    "timestamp", "recv_timestamp", "profile", "depth_cm",
    "channel", "seq", "value", "vwc_percent",
)

DEFAULT_ALLOWED_SKEW_S = 300

DAY_S = 86400


class UnknownProfile(KeyError):
    pass


@functools.lru_cache(maxsize=1024)
def _utc_date(day: int) -> str:
    """YYYY-MM-DD of the UTC day ``day`` days after the epoch."""
    return datetime.fromtimestamp(day * DAY_S, tz=timezone.utc).strftime("%Y-%m-%d")


def iso_utc(ts: int) -> str:
    """``ts`` as YYYY-MM-DDTHH:MM:SSZ (UTC), the strftime form."""
    day, s = divmod(ts, DAY_S)
    h, s = divmod(s, 3600)
    m, s = divmod(s, 60)
    return f"{_utc_date(day)}T{h:02d}:{m:02d}:{s:02d}Z"


def parse_iso_utc(s: str) -> int:
    return int(datetime.strptime(s, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc).timestamp())


@dataclass(frozen=True)
class StoredRow:
    profile_id: str
    depth_cm: int
    channel: Channel
    value: float
    timestamp: int       # node clock, unix seconds UTC
    seq: int
    recv_timestamp: int  # gateway clock, unix seconds UTC
    vwc_percent: float | None = None

    def skewed(self, allowed_skew_s: int = DEFAULT_ALLOWED_SKEW_S) -> bool:
        # Flagged, never dropped: gateway clock lags the node clock by more
        # than the allowed skew.
        return self.recv_timestamp < self.timestamp - allowed_skew_s

    @classmethod
    def from_reading(cls, reading: RawReading, recv_timestamp: int,
                     model: CalibrationModel | None = None) -> "StoredRow":
        vwc = None
        if model is not None and reading.channel is Channel.MOISTURE_VOLTAGE:
            vwc = apply_calibration(model, reading.value)
        return cls(
            profile_id=reading.profile_id,
            depth_cm=reading.depth_cm,
            channel=reading.channel,
            value=reading.value,
            timestamp=reading.timestamp,
            seq=reading.seq,
            recv_timestamp=recv_timestamp,
            vwc_percent=vwc,
        )


def _row_record(row: StoredRow) -> dict:
    return {
        "timestamp": iso_utc(row.timestamp),
        "recv_timestamp": iso_utc(row.recv_timestamp),
        "profile": row.profile_id,
        "depth_cm": row.depth_cm,
        "channel": row.channel.value,
        "seq": row.seq,
        "value": row.value,
        "vwc_percent": row.vwc_percent,
    }


def _row_from_record(rec: dict) -> StoredRow:
    vwc = rec.get("vwc_percent")
    if vwc in (None, ""):
        vwc = None
    else:
        vwc = float(vwc)
    return StoredRow(
        profile_id=rec["profile"],
        depth_cm=int(rec["depth_cm"]),
        channel=Channel(rec["channel"]),
        value=float(rec["value"]),
        timestamp=parse_iso_utc(rec["timestamp"]),
        seq=int(rec["seq"]),
        recv_timestamp=parse_iso_utc(rec["recv_timestamp"]),
        vwc_percent=vwc,
    )


class Store:
    """Append-only store. One serialized writer per partition, any number
    of readers; queries only ever see fully appended rows.

    Durability: each append opens the partition file, hands the row to the
    operating system in one write() and closes the file, so no handle stays
    open and a crash of the writing process loses no appended row. There is
    no fsync: a crash of the host can lose rows still in its page cache."""

    def __init__(self, root: str, model: CalibrationModel | None = None):
        self.root = root
        self.model = model
        # Partitions this instance has opened, each with its writer lock.
        self._locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        os.makedirs(root, exist_ok=True)

    def register_model(self, model: CalibrationModel) -> None:
        """Moisture rows appended after this call carry a vwc_percent."""
        self.model = model

    def _partition_path(self, profile_id: str, recv_ts: int) -> str:
        return os.path.join(self.root, profile_id, f"{_utc_date(recv_ts // DAY_S)}.csv")

    def _lock_for(self, path: str) -> threading.Lock:
        """The partition's writer lock. The first call per path creates the
        partition (directory, file, and header if the file is empty), so
        later appends skip every existence check."""
        lock = self._locks.get(path)
        if lock is None:
            with self._locks_guard:
                lock = self._locks.get(path)
                if lock is None:
                    _create_partition(path)
                    lock = self._locks[path] = threading.Lock()
        return lock

    def append(self, row: StoredRow) -> int:
        """Append one row (see the class docstring for durability); returns
        its end offset within the partition."""
        path = self._partition_path(row.profile_id, row.recv_timestamp)
        data = _csv_line(_csv_values(_row_record(row))).encode("ascii")
        with self._lock_for(path):
            try:
                fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            except FileNotFoundError:  # removed since this instance created it
                _create_partition(path)
                fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            try:
                _write_all(fd, data)
                return os.lseek(fd, 0, os.SEEK_CUR)
            finally:
                os.close(fd)

    def append_reading(self, reading: RawReading, recv_timestamp: int) -> int:
        return self.append(StoredRow.from_reading(reading, recv_timestamp, self.model))

    def profiles(self) -> list[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            d for d in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, d))
        )

    def _partition_files(self, profile_id: str) -> list[str]:
        pdir = os.path.join(self.root, profile_id)
        if not os.path.isdir(pdir):
            return []
        return sorted(
            os.path.join(pdir, f) for f in os.listdir(pdir) if f.endswith(".csv")
        )

    def query(
        self,
        profile_id: str | None = None,
        start_ts: int | None = None,
        end_ts: int | None = None,
        depths: set[int] | None = None,
        channels: set[Channel] | None = None,
    ) -> list[StoredRow]:
        """Rows in [start_ts, end_ts) on the node clock, sorted by node
        timestamp then seq. Raises UnknownProfile only when the store holds
        other profiles but not the requested one; an empty store yields []."""
        if start_ts is not None and end_ts is not None and start_ts > end_ts:
            raise ValueError("start_ts > end_ts")
        known = self.profiles()
        if profile_id is None:
            targets = known
        elif profile_id in known:
            targets = [profile_id]
        elif not known:
            return []
        else:
            raise UnknownProfile(profile_id)

        rows: list[StoredRow] = []
        for pid in targets:
            for path in self._partition_files(pid):
                with open(path, newline="", encoding="ascii") as f:
                    for rec in csv.DictReader(f):
                        row = _row_from_record(rec)
                        if start_ts is not None and row.timestamp < start_ts:
                            continue
                        if end_ts is not None and row.timestamp >= end_ts:
                            continue
                        if depths is not None and row.depth_cm not in depths:
                            continue
                        if channels is not None and row.channel not in channels:
                            continue
                        rows.append(row)
        rows.sort(key=lambda r: (r.timestamp, r.profile_id, r.depth_cm,
                                 r.channel.value, r.seq))
        return rows

    def last_seqs(self) -> dict[tuple[str, int, str], int]:
        """Highest stored seq per (profile, depth, channel); lets the
        gateway keep dedup across restarts."""
        out: dict[tuple[str, int, str], int] = {}
        for row in self.query():
            key = (row.profile_id, row.depth_cm, row.channel.value)
            if row.seq > out.get(key, 0):
                out[key] = row.seq
        return out


def _csv_line(values: list | tuple) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(values)
    return buf.getvalue()


_HEADER = _csv_line(EXPORT_FIELDS).encode("ascii")


def _write_all(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _create_partition(path: str) -> None:
    """Make the partition's directory and file; write the header iff the
    file is empty, so a partition another writer created keeps its one."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        if os.lseek(fd, 0, os.SEEK_END) == 0:
            _write_all(fd, _HEADER)
    finally:
        os.close(fd)


def _csv_values(rec: dict) -> list:
    vals = []
    for name in EXPORT_FIELDS:
        v = rec[name]
        if v is None:
            vals.append("")
        elif isinstance(v, float):
            vals.append(repr(v))
        else:
            vals.append(v)
    return vals


def export_csv(rows: list[StoredRow]) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(EXPORT_FIELDS)
    for row in rows:
        w.writerow(_csv_values(_row_record(row)))
    return buf.getvalue().encode("ascii")


def export_json(rows: list[StoredRow]) -> bytes:
    return json.dumps([_row_record(r) for r in rows], indent=2).encode("ascii") + b"\n"


def export_xml(rows: list[StoredRow]) -> bytes:
    root = ET.Element("readings")
    for row in rows:
        rec = _row_record(row)
        attrs = {}
        for name in EXPORT_FIELDS:
            v = rec[name]
            if v is None:
                continue
            attrs[name] = repr(v) if isinstance(v, float) else str(v)
        ET.SubElement(root, "reading", attrs)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode").encode("ascii") + b"\n"


_EXPORTERS = {"csv": export_csv, "json": export_json, "xml": export_xml}


def export(rows: list[StoredRow], fmt: str) -> bytes:
    """Serialize query-ordered rows; csv/json/xml carry identical data."""
    try:
        exporter = _EXPORTERS[fmt.lower()]
    except KeyError:
        raise ValueError(f"unknown export format {fmt!r}") from None
    return exporter(rows)


def rows_with_vwc(rows: list[StoredRow], model: CalibrationModel) -> list[StoredRow]:
    """Copy of ``rows`` with vwc_percent filled on moisture rows; store
    files themselves are never rewritten."""
    out = []
    for row in rows:
        if row.channel is Channel.MOISTURE_VOLTAGE:
            row = replace(row, vwc_percent=apply_calibration(model, row.value))
        out.append(row)
    return out
