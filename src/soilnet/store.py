"""Append-only time-series storage partitioned by profile and UTC day,
with range queries and bit-exact CSV/JSON/XML export. One encoder,
``_csv_line``, writes every CSV row, to a partition or an export alike,
and one reader, ``_rows``, reads every partition. Each exporter is one
per-row template over ``_row_values``, joined once: JSON gives the bytes
of ``json.dumps(records, indent=2)``, XML those of ElementTree's indented
``<readings>`` tree.

On-disk layout: {root}/{profile_id}/{YYYY-MM-DD}.csv, one header line per
file, rows appended in receive order and never rewritten. A row's
partition is the UTC day of its node timestamp, the clock queries filter
on, so a query reads only the partitions its window overlaps; a receive
day would bound nothing, since a buffered node can deliver rows days
late. Stores written when partitions were keyed by receive day must be
rebuilt: their windowed queries can miss rows whose two days differ.

A row is an ASCII line of ``_csv_line``'s eight fields, with a known
channel, the profile field ``_csv_field`` writes for its id, and dates
and numbers that ``parse_iso_utc``, ``int`` and ``float`` accept, in
canonical form or not. Any other line is skipped, and counted per
partition in ``Store.skipped`` and in the partition's checkpoint entry.
Read back, a row is a reading, ``core.RawReading`` with both clocks set,
its fields in the reading's order. Both clocks lie in ``core.TS_RANGE``,
the years whose dates the rows and partition names round-trip.

A final line without its newline is a torn write (a crash or a failed
write in mid-append): readers ignore it, and every append cuts it off
first, under an exclusive flock(2) on the partition that it holds until
its write is done. flock locks conflict between open file descriptions,
so writers in one process or in several may share a store on a local
file system: a gateway and ``simulate --offline``, say.

Checkpoint: {root}/last_seqs.json (no partition, as its name does not end
in .csv) records, per partition, the bytes up to the last newline that a
scan or an appending Store has seen: their length, the file's st_mtime_ns
and st_ino when it held just them, their crc32, how many of their lines
are no rows, and the highest seq of each stream among them. ``last_seqs``
and ``Store.checkpoint`` run one scan, which stats every partition,
trusts an entry whose file still has that length, mtime and inode, reads
only the bytes past the entry in a file whose first bytes still have that
length and crc32, and every other file whole. So a gateway start stats
the partitions instead of reading every row. The file is a cache, guarded
by a crc32 of its own: a missing, stale, corrupt, foreign or older-format
one costs a full read, never a wrong seq, and deleting it is always safe.
Appending Stores keep their entries in memory, for ``Store.checkpoint``
to save (``simulate --offline`` at its end, the gateway every minute and
when it stops); an entry whose file another writer appended to is resumed
past those rows by the next scan.
The validator assumes that every write gives the file a new mtime, as
file systems with fine-grained timestamps do; where the clock is coarse,
a partition deleted and rewritten to the same length within one tick of
its last write goes unseen. Partitions are append-only: after editing
one by hand, delete the checkpoint.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import json
import os
import re
import threading
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

from soilnet.core import (TS_RANGE, CalibrationModel, Channel, RawReading, ZeroVoltage,
                          apply_calibration, plain_segment)

EXPORT_FIELDS = (
    "timestamp", "recv_timestamp", "profile", "depth_cm",
    "channel", "seq", "value", "vwc_percent",
)

DAY_S = 86400

CHECKPOINT = "last_seqs.json"  # at the store root; see the module docstring


class UnknownProfile(KeyError):
    pass


@functools.lru_cache(maxsize=1024)
def _utc_date(day: int) -> str:
    """YYYY-MM-DD of the UTC day ``day`` days after the epoch."""
    return datetime.fromtimestamp(day * DAY_S, tz=timezone.utc).strftime("%Y-%m-%d")


# Rows come in runs that share a second: the 8 streams of one node tick,
# the gateway's receive second, an export's rows in time order.
@functools.lru_cache(maxsize=1024)
def iso_utc(ts: int) -> str:
    """``ts`` as YYYY-MM-DDTHH:MM:SSZ (UTC), the strftime form."""
    day, s = divmod(ts, DAY_S)
    h, s = divmod(s, 3600)
    m, s = divmod(s, 60)
    return f"{_utc_date(day)}T{h:02d}:{m:02d}:{s:02d}Z"


_ISO_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
_ISO_CANONICAL = re.compile(r"(\d{4}-\d\d-\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)


def _strptime_utc(s: str) -> int:
    return int(datetime.strptime(s, _ISO_FORMAT).replace(tzinfo=timezone.utc).timestamp())


@functools.lru_cache(maxsize=1024)
def _date_start(date: str) -> int:
    """Unix seconds at 00:00:00Z of the YYYY-MM-DD ``date``."""
    return _strptime_utc(date + "T00:00:00Z")


# Cached: the 8 streams of a stored node tick share its timestamp.
@functools.lru_cache(maxsize=1024)
def parse_iso_utc(s: str) -> int:
    """Unix seconds of a YYYY-MM-DDTHH:MM:SSZ (UTC) string, the inverse of
    ``iso_utc``. The canonical form is read as a cached date plus
    HH:MM:SS; any other string takes the strptime path, so exactly the
    strings strptime accepts are accepted."""
    m = _ISO_CANONICAL.fullmatch(s)
    if m is not None:
        date, h, mi, sec = m.groups()
        h, mi, sec = int(h), int(mi), int(sec)
        if h < 24 and mi < 60 and sec < 60:
            try:
                return _date_start(date) + h * 3600 + mi * 60 + sec
            except ValueError:  # no such date; strptime raises it below
                pass
    return _strptime_utc(s)


@functools.lru_cache(maxsize=4096)
def _file_day(name: str) -> int | None:
    """Days since the epoch of a partition file name, None for a name that
    is no date."""
    try:
        return parse_iso_utc(name[:-len(".csv")] + "T00:00:00Z") // DAY_S
    except ValueError:
        return None


# A second name for the reading, which a stored row is, both clocks set;
# perfbench/tests/test_perfbench.py imports it.
StoredRow = RawReading


def _row_values(row: RawReading) -> tuple:
    """The fields of ``row`` in EXPORT_FIELDS order, as every exporter
    fills them in: floats in shortest round-trip form, an absent
    vwc_percent as an empty field."""
    ts = iso_utc(row.timestamp)
    recv = ts if row.recv_timestamp == row.timestamp else iso_utc(row.recv_timestamp)
    vwc = row.vwc_percent
    return (ts, recv, row.profile_id, row.depth_cm, row.channel.value, row.seq,
            repr(row.value), "" if vwc is None else repr(vwc))


@functools.lru_cache(maxsize=1024)
def _csv_field(text: str) -> str:
    """``text`` as a CSV field, quoted where the csv module quotes it (with
    a "\\n" line terminator): where it holds a comma, a quote or a newline."""
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(row: RawReading) -> str:
    """``row`` as a CSV line; its profile id is the one field to quote, the
    others being dates, numbers and channel names."""
    ts, recv, pid, depth, chan, seq, value, vwc = _row_values(row)
    return f"{ts},{recv},{_csv_field(pid)},{depth},{chan},{seq},{value},{vwc}\n"


class Store:
    """Append-only store. Any number of writers, in this process or
    others, and of readers; each append holds an exclusive flock on its
    partition, and queries only ever see fully appended rows.

    Durability: ``append_rows`` opens each partition file of its batch,
    hands that partition's rows to the operating system in one write() and
    closes the file, so no handle stays open and a crash of the writing
    process loses no row of a batch that has returned. The gateway appends
    one row per batch, before its ACK; ``simulate --offline`` one profile's
    node day, so a crash loses at most that day's unwritten rows. There is
    no fsync: a crash of the host can lose rows still in its page cache."""

    def __init__(self, root: str):
        self.root = root
        # Per (profile, day since the epoch): the partition path.
        self._paths: dict[tuple[str, int], str] = {}
        # Per partition path, its checkpoint entry as this instance knows it.
        self._covered: dict[str, _Covered] = {}
        # Per partition path read or vouched for, its lines that are no rows.
        self.skipped: dict[str, int] = {}
        os.makedirs(root, exist_ok=True)

    def append(self, row: RawReading) -> None:
        """Append one row (see the class docstring for durability)."""
        self.append_rows([row])

    def append_rows(self, rows: Iterable[RawReading]) -> None:
        """Append ``rows``, in order within each partition, with one write()
        per partition. Rows are encoded, and their clocks (``core.TS_RANGE``)
        and profile ids (``core.plain_segment``) checked, before any byte is
        written, so a row that cannot be stored leaves every partition as it was.
        Each written partition's checkpoint entry is kept up to date in memory,
        for ``checkpoint`` to save, unless the size shows another writer's rows:
        then the entry stays as it was, and the save reads past it."""
        lo, hi = TS_RANGE
        batches: dict[tuple[str, int], list[RawReading]] = {}
        for row in rows:
            if not (lo <= row.timestamp <= hi and lo <= row.recv_timestamp <= hi):
                raise ValueError(f"clock outside years 1000-9999: timestamp {row.timestamp},"
                                 f" recv_timestamp {row.recv_timestamp}")
            key = (row.profile_id, row.timestamp // DAY_S)
            batch = batches.get(key)
            if batch is None:
                batch = batches[key] = []
            batch.append(row)
        encoded = []
        for key, batch in batches.items():
            path = self._paths.get(key)
            if path is None:
                pid = key[0]
                if not plain_segment(pid):
                    raise ValueError(f"profile id {pid!r} is not a printable directory name")
                path = self._paths[key] = os.path.join(self.root, pid, f"{_utc_date(key[1])}.csv")
            encoded.append((path, "".join(map(_csv_line, batch)).encode("ascii"), batch))
        for path, data, batch in encoded:
            try:
                fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            except FileNotFoundError:  # the profile's first partition
                os.makedirs(os.path.dirname(path), exist_ok=True)
                fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)  # until close: see the module docstring
                size = os.lseek(fd, 0, os.SEEK_END)
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    size = os.pread(fd, size, 0).rfind(b"\n") + 1
                    os.ftruncate(fd, size)
                if size == 0:
                    _write_all(fd, _HEADER)
                    size = len(_HEADER)
                if size == len(_HEADER):  # no row yet (its bytes are checked at save)
                    entry = self._covered[path] = _Covered(size, _HEADER_CRC, {}, None, 0)
                else:
                    entry = self._covered.get(path)
                _write_all(fd, data)
                if entry is not None and entry.size == size:  # else another writer was here
                    entry.size += len(data)
                    entry.crc = zlib.crc32(data, entry.crc)
                    entry.stat = None
                    seqs = entry.seqs
                    for row in batch:
                        stream = (row.profile_id, row.depth_cm, row.channel.value)
                        if row.seq > seqs.get(stream, 0):
                            seqs[stream] = row.seq
            finally:
                os.close(fd)

    def profiles(self) -> list[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(e.name for e in os.scandir(self.root) if e.is_dir())

    def _partition_files(self, profile_id: str, first_day: int | None = None,
                         last_day: int | None = None) -> list[str]:
        """The profile's partition files in day order, without those whose
        day lies outside [first_day, last_day] (days since the epoch)."""
        pdir = os.path.join(self.root, profile_id)
        if not os.path.isdir(pdir):
            return []
        bounded = first_day is not None or last_day is not None
        paths = []
        for f in os.listdir(pdir):
            if not f.endswith(".csv"):
                continue
            # Only when bounded: the first date parsed costs ~2 ms (strptime's set-up).
            day = _file_day(f) if bounded else None
            if day is not None and (first_day is not None and day < first_day
                                    or last_day is not None and day > last_day):
                continue
            paths.append(os.path.join(pdir, f))
        return sorted(paths)

    def query(
        self,
        profile_id: str | None = None,
        start_ts: int | None = None,
        end_ts: int | None = None,
    ) -> list[RawReading]:
        """Rows in [start_ts, end_ts) on the node clock, sorted by node
        timestamp then seq; only the partitions of the window's days are
        read. Raises UnknownProfile only when the store holds other
        profiles but not the requested one; an empty store yields []."""
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

        first_day = None if start_ts is None else start_ts // DAY_S
        last_day = None if end_ts is None else (end_ts - 1) // DAY_S
        rows: list[RawReading] = []
        for pid in targets:
            for path in self._partition_files(pid, first_day, last_day):
                with open(path, "rb") as f:
                    found, self.skipped[path] = _rows(f.read(), 0)
                for fields in found:
                    ts = fields[4]
                    if (start_ts is None or ts >= start_ts) and (end_ts is None or ts < end_ts):
                        rows.append(RawReading(*fields))
        rows.sort(key=lambda r: (r.timestamp, r.profile_id, r.depth_cm,
                                 r.channel.value, r.seq))
        return rows

    def last_seqs(self) -> dict[tuple[str, int, str], int]:
        """Highest stored seq per (profile, depth, channel); lets the
        gateway keep dedup across restarts. Reads only the partition bytes
        the checkpoint does not cover (see the module docstring) and, if
        it read any, saves a new checkpoint; one it cannot write is
        skipped."""
        read = self._scan()
        out: dict[tuple[str, int, str], int] = {}
        for entry in self._covered.values():
            for key, seq in entry.seqs.items():
                if seq > out.get(key, 0):
                    out[key] = seq
        if read:
            with contextlib.suppress(OSError):
                self._save()
        return out

    def checkpoint(self) -> None:
        """Save the checkpoint, if the scan that ``last_seqs`` runs had to
        read any partition, as it does each one this instance appended to
        since its last save. Not to be called during this instance's
        appends; raises OSError when the checkpoint cannot be written."""
        if self._scan():
            self._save()

    def _scan(self) -> bool:
        """Vouch for an entry of every partition, keep them as this
        instance's and their counts in ``skipped``. Its own entry, or else
        the saved one, is trusted while the file's size, mtime and inode
        match it (an append clears that stat); any other is resumed or
        rebuilt by ``_read_covered``. Returns whether it read any partition."""
        saved = None
        covered = {}
        read = False
        for pid in self.profiles():
            for path in self._partition_files(pid):
                entry = self._covered.get(path)
                if entry is None:
                    if saved is None:
                        saved = _load_checkpoint(self.root)
                    entry = saved.get((pid, os.path.basename(path)))
                st = os.stat(path)
                if (entry is None or entry.size != st.st_size
                        or entry.stat != (st.st_mtime_ns, st.st_ino)):
                    entry = _read_covered(path, entry)
                    read = True
                covered[path] = entry
                self.skipped[path] = entry.skipped
        self._covered = covered
        return read

    def _save(self) -> None:
        """Write the checkpoint of this instance's entries: a crc32 line of
        the JSON that follows it, to a temp file, which is then renamed to
        the checkpoint's name once the old checkpoint is removed. A reader
        never sees a partial checkpoint; between the two steps it finds
        none, and reads every partition. (On ext4, renaming over the old
        file makes the kernel write the new one to disk first, which took
        60-200 ms a save on a virtual disk; renaming to a free name takes
        0.01 ms.)"""
        partitions: dict[str, dict] = {}
        for path, e in self._covered.items():
            pdir, name = os.path.split(path)
            partitions.setdefault(os.path.basename(pdir), {})[name] = [
                e.size, *e.stat, e.crc, e.skipped, [[*key, seq] for key, seq in e.seqs.items()]]
        body = json.dumps({"format": _CHECKPOINT_FORMAT, "partitions": partitions},
                          separators=(",", ":")).encode("ascii")
        path = os.path.join(self.root, CHECKPOINT)
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "wb") as f:
                f.write(b"%08x\n" % zlib.crc32(body) + body)
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


_CHECKPOINT_FORMAT = 2


@dataclass(slots=True)
class _Covered:
    """A partition's checkpoint entry: its first ``size`` bytes (up to a
    newline), their ``crc``, the highest seq of each stream and the count
    of lines that are no rows among them, and ``stat``, the (st_mtime_ns,
    st_ino) of the file when it held just those bytes, None after an append."""
    size: int
    crc: int
    seqs: dict[tuple[str, int, str], int]
    stat: tuple[int, int] | None
    skipped: int


def _load_checkpoint(root: str) -> dict[tuple[str, str], _Covered]:
    """The saved entries, keyed by (profile directory, file name); {} for
    a missing, unreadable, corrupt or other-format checkpoint."""
    try:
        with open(os.path.join(root, CHECKPOINT), "rb") as f:
            head, _, body = f.read().partition(b"\n")
        if int(head, 16) != zlib.crc32(body):
            return {}
        doc = json.loads(body)
        if doc["format"] != _CHECKPOINT_FORMAT:
            return {}
        return {(pid, name): _Covered(size, crc, {(p, d, c): seq for p, d, c, seq in streams},
                                      (mtime_ns, ino), skipped)
                for pid, files in doc["partitions"].items()
                for name, (size, mtime_ns, ino, crc, skipped, streams) in files.items()}
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return {}


def _read_covered(path: str, entry: _Covered | None) -> _Covered:
    """The checkpoint entry of the partition file ``path``, from the bytes
    past ``entry`` if its first bytes still have the length and crc32 that
    ``entry`` records, else from all of them. (Not the inode: a partition
    deleted and written again often gets the old one back.)"""
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        data = f.read()
    start, crc, seqs, skipped = 0, 0, {}, 0
    if (entry is not None and entry.size <= len(data)
            and zlib.crc32(memoryview(data)[:entry.size]) == entry.crc):
        start, crc, seqs, skipped = entry.size, entry.crc, dict(entry.seqs), entry.skipped
    rows, more = _rows(data, start)
    for profile, depth, chan, _, _, seq, _, _ in rows:
        key = (profile, depth, chan.value)
        if seq > seqs.get(key, 0):
            seqs[key] = seq
    end = data.rfind(b"\n") + 1
    return _Covered(end, zlib.crc32(memoryview(data)[start:end], crc), seqs,
                    (st.st_mtime_ns, st.st_ino), skipped + more)


def _rows(data: bytes, start: int) -> tuple[list[tuple], int]:
    """The rows (see the module docstring) of the partition bytes ``data``
    from byte ``start`` (0: the header) to the last newline, each its
    fields in the reading's order (``core.RawReading``), and how many
    lines are no rows, a first line other than the header too."""
    end = data.rfind(b"\n") + 1
    skipped = 0
    if start == 0 and end:
        start = data.find(b"\n") + 1
        skipped = data[:start] != _HEADER
    lines = data[start:end - 1].decode("latin-1").split("\n") if start < end else []
    rows = []
    for line in lines:
        try:
            ts, recv, rest = line.split(",", 2)
            pid, depth, chan, seq, value, vwc = rest.rsplit(",", 5)
            profile = pid[1:-1].replace('""', '"') if pid[:1] == '"' else pid
            t = parse_iso_utc(ts)
            fields = (profile, int(depth), _CHANNELS[chan], float(value), t, int(seq),
                      t if recv == ts else parse_iso_utc(recv), float(vwc) if vwc else None)
            if line.isascii() and _csv_field(profile) == pid:
                rows.append(fields)
        except (ValueError, KeyError):
            pass
    return rows, skipped + len(lines) - len(rows)


_HEADER = (",".join(EXPORT_FIELDS) + "\n").encode("ascii")
_HEADER_CRC = zlib.crc32(_HEADER)
_CHANNELS = {c.value: c for c in Channel}


def _write_all(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def export_csv(rows: list[RawReading]) -> bytes:
    return _HEADER + "".join(map(_csv_line, rows)).encode("ascii")


# One record of json.dumps(records, indent=2), with its id and numbers as JSON text.
_JSON_ROW = ('  {\n    "timestamp": "%s",\n    "recv_timestamp": "%s",\n    "profile": %s,\n'
             '    "depth_cm": %s,\n    "channel": "%s",\n    "seq": %s,\n    "value": %s,\n'
             '    "vwc_percent": %s\n  }')


def _json_number(text: str, x: float | None) -> str:
    """The repr ``text`` of ``x`` as json.dumps writes ``x``: a repr ending in
    a digit is JSON already, None is null, json.dumps writes NaN and infinities."""
    if text[-1:].isdigit():
        return text
    return "null" if x is None else json.dumps(x)


def _json_record(row: RawReading) -> str:
    ts, recv, pid, depth, chan, seq, value, vwc = _row_values(row)
    # The id as json.dumps writes a string, by the function it calls.
    return _JSON_ROW % (ts, recv, encode_basestring_ascii(pid), depth, chan, seq,
                        _json_number(value, row.value), _json_number(vwc, row.vwc_percent))


def export_json(rows: list[RawReading]) -> bytes:
    """The bytes of json.dumps(records, indent=2) plus a newline."""
    if not rows:
        return b"[]\n"
    return ("[\n" + ",\n".join(map(_json_record, rows)) + "\n]\n").encode("ascii")


# One <reading> line of ElementTree's indented tree; the last %s is vwc_percent or nothing.
_XML_ROW = ('  <reading timestamp="%s" recv_timestamp="%s" profile="%s" depth_cm="%s"'
            ' channel="%s" seq="%s" value="%s"%s />')


@functools.lru_cache(maxsize=1024)
def _xml_attr(text: str) -> str:
    """``text`` escaped as ElementTree escapes an attribute value."""
    for c, ref in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
                   ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;")):
        text = text.replace(c, ref)
    return text


def _xml_reading(row: RawReading) -> str:
    ts, recv, pid, depth, chan, seq, value, vwc = _row_values(row)
    return _XML_ROW % (ts, recv, _xml_attr(pid), depth, chan, seq, value,
                       vwc and f' vwc_percent="{vwc}"')


def export_xml(rows: list[RawReading]) -> bytes:
    """The bytes of ElementTree's indented <readings> tree plus a newline;
    an id that is not ASCII raises UnicodeEncodeError."""
    if not rows:
        return b"<readings />\n"
    return ("<readings>\n" + "\n".join(map(_xml_reading, rows)) + "\n</readings>\n").encode("ascii")


_EXPORTERS = {"csv": export_csv, "json": export_json, "xml": export_xml}


def export(rows: list[RawReading], fmt: str) -> bytes:
    """Serialize query-ordered rows; csv/json/xml carry identical data."""
    try:
        exporter = _EXPORTERS[fmt.lower()]
    except KeyError:
        raise ValueError(f"unknown export format {fmt!r}") from None
    return exporter(rows)


def rows_with_vwc(rows: list[RawReading], model: CalibrationModel) -> list[RawReading]:
    """Copy of ``rows`` with vwc_percent filled on moisture rows. This is
    the one place a model applies: the store holds raw readings and is
    never rewritten, so a refit model reaches all stored history. A
    voltage the model cannot map (0 V under the reciprocal transform, a
    reading the gateway accepts) keeps vwc_percent None."""
    out = []
    for row in rows:
        if row.channel is Channel.MOISTURE_VOLTAGE:
            try:
                row = replace(row, vwc_percent=apply_calibration(model, row.value))
            except ZeroVoltage:
                pass
        out.append(row)
    return out
