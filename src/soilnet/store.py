"""Append-only time-series storage partitioned by profile and UTC day,
with range queries and bit-exact CSV/JSON/XML export. There is one
encoder per format and one reader, ``_rows``, of every partition. The CSV
encoder, ``_csv_rows``, writes every CSV row, to a partition or an export
alike; JSON gives the bytes of ``json.dumps(records, indent=2)``, XML
those of ElementTree's indented ``<readings>`` tree. Each encoder walks
its rows in order and writes the fields that a run of rows shares (node
time, receive time and profile: the 8 streams of a node tick) once per
run. ``Store.query_days`` reads the store one node day at a time, and
``export_chunks`` encodes what it yields chunk by chunk, so an export of
the whole study period holds one day's rows at a time.

On-disk layout: {root}/{profile_id}/{YYYY-MM-DD}.csv, one header line per
file, rows appended in receive order and never rewritten. A row's
partition is the UTC day of its node timestamp, the clock queries filter
on, so a query reads only the partitions its window overlaps; a receive
day would bound nothing, since a buffered node can deliver rows days
late. Stores written when partitions were keyed by receive day must be
rebuilt (README has a recipe): a read skips a row whose two days differ.

A partition's name is the YYYY-MM-DD of a day in ``core.TS_RANGE``, the
years whose dates the rows and partition names round-trip. A row is an
ASCII line of ``_csv_rows``'s eight fields, with a known channel, the
profile field ``_csv_field`` writes for its id, dates and numbers that
``parse_iso_utc``, ``int`` and ``float`` accept, in canonical form or
not, a node time on its partition's day and a receive time in
``core.TS_RANGE``. Any other line is skipped, and counted per partition
in ``Store.skipped`` and in the partition's checkpoint entry; so is every
line of a ``.csv`` file whose name is no such date. Only a file written
by hand holds such lines. Read back, a row is a reading,
``core.RawReading`` with both clocks set, its fields in the reading's
order.

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
import operator
import os
import re
import threading
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import date, datetime, timezone
from json.encoder import encode_basestring_ascii

from soilnet.core import (_MOISTURE, TS_RANGE, CalibrationModel, Channel, RawReading,
                          ZeroVoltage, apply_calibration, plain_segment)

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


_EPOCH_ORDINAL = 719163  # date(1970, 1, 1).toordinal()


@functools.lru_cache(maxsize=1024)
def _date_start(d: str) -> int:
    """Unix seconds at 00:00:00Z of the YYYY-MM-DD ``d``; ValueError for
    no such date. By arithmetic: strptime's first call costs ~2 ms of
    set-up (its import and locale regexes)."""
    return (date.fromisoformat(d).toordinal() - _EPOCH_ORDINAL) * DAY_S


# Cached: the 8 streams of a stored node tick share its timestamp.
@functools.lru_cache(maxsize=1024)
def parse_iso_utc(s: str) -> int:
    """Unix seconds of a YYYY-MM-DDTHH:MM:SSZ (UTC) string, the inverse of
    ``iso_utc``. The canonical form is read as its date's midnight plus
    HH:MM:SS; any other string takes the strptime path, so exactly the
    strings strptime accepts are accepted."""
    m = _ISO_CANONICAL.fullmatch(s)
    if m is not None:
        ymd, h, mi, sec = m.groups()
        h, mi, sec = int(h), int(mi), int(sec)
        if h < 24 and mi < 60 and sec < 60:
            try:
                return _date_start(ymd) + h * 3600 + mi * 60 + sec
            except ValueError:  # no such date; strptime raises it below
                pass
    return _strptime_utc(s)


@functools.lru_cache(maxsize=4096)
def _file_day(name: str) -> int | None:
    """Days since the epoch of a partition file name, the YYYY-MM-DD.csv of
    a day in ``core.TS_RANGE`` that ``Store`` writes; None for any other name."""
    try:
        day = _date_start(name[:-len(".csv")]) // DAY_S
    except ValueError:
        return None
    lo, hi = TS_RANGE
    if lo <= day * DAY_S and day * DAY_S + DAY_S - 1 <= hi and _utc_date(day) + ".csv" == name:
        return day
    return None


# A second name for the reading, which a stored row is, both clocks set;
# perfbench/tests/test_perfbench.py imports it.
StoredRow = RawReading


@functools.lru_cache(maxsize=1024)
def _csv_field(text: str) -> str:
    """``text`` as a CSV field, quoted where the csv module quotes it (with
    a "\\n" line terminator): where it holds a comma, a quote or a newline."""
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _check_clocks(row: RawReading) -> None:
    """ValueError unless both clocks of ``row`` lie in ``core.TS_RANGE``."""
    lo, hi = TS_RANGE
    if not (lo <= row.timestamp <= hi and lo <= row.recv_timestamp <= hi):
        raise ValueError(f"clock outside years 1000-9999: timestamp {row.timestamp},"
                         f" recv_timestamp {row.recv_timestamp}")


# The encoders, this one and ``_json_rows`` and ``_xml_rows`` by the
# exporters below. Each writes a row's fields in EXPORT_FIELDS order, floats
# in shortest round-trip form (repr). Rows come in runs that share node
# time, receive time and profile (the 8 streams of a node tick), so each
# encoder builds the text of those three fields once per run, and per row
# only that of depth, channel, seq, value and vwc_percent. ``_value_`` is
# the channel's string, without the call of Enum.value's property.


def _csv_rows(rows: Iterable[RawReading]) -> str:
    """``rows`` as CSV lines, each ending in a newline: the lines of a
    partition and of a CSV export. The profile id is the one field to
    quote, the others being dates, numbers and channel names; an absent
    vwc_percent is an empty field."""
    out = []
    ts = recv = pid = head = None
    for row in rows:
        if row.timestamp != ts or row.recv_timestamp != recv or row.profile_id != pid:
            ts, recv, pid = row.timestamp, row.recv_timestamp, row.profile_id
            t = iso_utc(ts)
            head = f"{t},{t if recv == ts else iso_utc(recv)},{_csv_field(pid)},"
        vwc = row.vwc_percent
        out.append(f"{head}{row.depth_cm},{row.channel._value_},{row.seq},{row.value!r},"
                   f"{'' if vwc is None else repr(vwc)}\n")
    return "".join(out)


class Store:
    """Append-only store. Any number of writers, in this process or
    others, and of readers; each append holds an exclusive flock on its
    partition, and queries only ever see fully appended rows.

    Durability: ``append_rows`` opens each partition file of its batch,
    hands that partition's rows to the operating system in one write() and
    closes the file, so no handle stays open and a crash of the writing
    process loses no row of a batch that has returned. ``append``, the
    gateway's path (one row before each ACK), is a batch of one row without
    the batch's grouping; both go through one per-partition write routine,
    ``_append_partition``. ``simulate --offline`` appends one profile's node
    day per batch, so a crash loses at most that day's unwritten rows. There
    is no fsync: a crash of the host can lose rows still in its page cache."""

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
        """Append one row, as ``append_rows([row])`` does, without its
        per-batch grouping: the gateway's path, one row before each ACK."""
        _check_clocks(row)
        key = (row.profile_id, row.timestamp // DAY_S)
        path = self._paths.get(key) or self._path(key)
        self._append_partition(path, _csv_rows((row,)).encode("ascii"), (row,))

    def append_rows(self, rows: Iterable[RawReading]) -> None:
        """Append ``rows``, in order within each partition, with one write()
        per partition. Rows are encoded, and their clocks (``core.TS_RANGE``)
        and profile ids (``core.plain_segment``) checked, before any byte is
        written, so a row that cannot be stored leaves every partition as it was.
        Each written partition's checkpoint entry is kept up to date in memory,
        for ``checkpoint`` to save, unless the size shows another writer's rows:
        then the entry stays as it was, and the save reads past it."""
        batches: dict[tuple[str, int], list[RawReading]] = {}
        for row in rows:
            _check_clocks(row)
            key = (row.profile_id, row.timestamp // DAY_S)
            batch = batches.get(key)
            if batch is None:
                batch = batches[key] = []
            batch.append(row)
        encoded = [(self._paths.get(key) or self._path(key),
                    _csv_rows(batch).encode("ascii"), batch)
                   for key, batch in batches.items()]
        for path, data, batch in encoded:
            self._append_partition(path, data, batch)

    def _path(self, key: tuple[str, int]) -> str:
        """The path of the partition ``key`` (profile, day since the epoch),
        kept in ``_paths``; ValueError for a profile id that cannot name a
        directory."""
        pid, day = key
        if not plain_segment(pid):
            raise ValueError(f"profile id {pid!r} is not a printable directory name")
        path = self._paths[key] = os.path.join(self.root, pid, f"{_utc_date(day)}.csv")
        return path

    def _append_partition(self, path: str, data: bytes, rows: Iterable[RawReading]) -> None:
        """Append ``data``, the encoded ``rows``, to the partition ``path``
        under its flock: cut a torn last line, write the header into an
        empty file, write, and update the partition's checkpoint entry."""
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
                for row in rows:
                    stream = (row.profile_id, row.depth_cm, row.channel._value_)
                    if row.seq > seqs.get(stream, 0):
                        seqs[stream] = row.seq
        finally:
            os.close(fd)

    def profiles(self) -> list[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(e.name for e in os.scandir(self.root) if e.is_dir())

    def _partition_files(self, profile_id: str, first_day: int | None = None,
                         last_day: int | None = None) -> list[tuple[int | None, str]]:
        """The profile's .csv files as (day since the epoch, path), those
        whose name is no partition day (``_file_day``) with day None; a
        bound leaves out the partitions of days outside [first_day,
        last_day]."""
        pdir = os.path.join(self.root, profile_id)
        if not os.path.isdir(pdir):
            return []
        files = []
        for f in sorted(os.listdir(pdir)):
            if not f.endswith(".csv"):
                continue
            day = _file_day(f)
            if day is not None and (first_day is not None and day < first_day
                                    or last_day is not None and day > last_day):
                continue
            files.append((day, os.path.join(pdir, f)))
        return files

    def query(
        self,
        profile_id: str | None = None,
        start_ts: int | None = None,
        end_ts: int | None = None,
    ) -> list[RawReading]:
        """The rows of ``query_days``, in its order, as one list."""
        rows: list[RawReading] = []
        for day_rows in self.query_days(profile_id, start_ts, end_ts):
            rows += day_rows
        return rows

    def query_days(
        self,
        profile_id: str | None = None,
        start_ts: int | None = None,
        end_ts: int | None = None,
    ) -> Iterator[list[RawReading]]:
        """The rows in [start_ts, end_ts) on the node clock, one list per
        node day, in day order, each sorted by node timestamp then profile,
        depth, channel and seq: taken in turn, query order. Reads one day's
        partitions at a time, only those of the window's days, as the
        lists are taken; each row is built once, as ``_rows`` reads its
        partition, and those outside the window are then dropped.
        Checks its arguments at once: ValueError for a reversed window,
        UnknownProfile only when the store holds other profiles but not the
        requested one; an empty store yields nothing."""
        if start_ts is not None and end_ts is not None and start_ts > end_ts:
            raise ValueError("start_ts > end_ts")
        known = self.profiles()
        if profile_id is None:
            targets = known
        elif profile_id in known:
            targets = [profile_id]
        elif not known:
            targets = []
        else:
            raise UnknownProfile(profile_id)

        first_day = None if start_ts is None else start_ts // DAY_S
        last_day = None if end_ts is None else (end_ts - 1) // DAY_S
        by_day: dict[int | None, list[str]] = {}
        for pid in targets:
            for day, path in self._partition_files(pid, first_day, last_day):
                by_day.setdefault(day, []).append(path)
        return self._days(by_day, start_ts, end_ts)

    def _days(self, by_day: dict[int | None, list[str]], start_ts: int | None,
              end_ts: int | None) -> Iterator[list[RawReading]]:
        """``query_days``'s lists, from its partition paths per day. A file
        whose name is no day holds no row; it is read first, for its count
        of skipped lines."""
        for path in by_day.pop(None, ()):
            self._read(path, None)
        for day in sorted(by_day):
            rows: list[RawReading] = []
            for path in by_day[day]:
                rows += self._read(path, day)
            if (start_ts is not None and start_ts > day * DAY_S
                    or end_ts is not None and end_ts < day * DAY_S + DAY_S):
                rows = [r for r in rows
                        if (start_ts is None or r.timestamp >= start_ts)
                        and (end_ts is None or r.timestamp < end_ts)]
            if rows:
                rows.sort(key=_QUERY_ORDER)
                yield rows

    def _read(self, path: str, day: int | None) -> list[RawReading]:
        """The rows of the partition ``path`` of day ``day``; its count of
        skipped lines goes to ``skipped``."""
        with open(path, "rb") as f:
            rows, self.skipped[path] = _rows(f.read(), 0, day)
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
            for day, path in self._partition_files(pid):
                entry = self._covered.get(path)
                if entry is None:
                    if saved is None:
                        saved = _load_checkpoint(self.root)
                    entry = saved.get((pid, os.path.basename(path)))
                st = os.stat(path)
                if (entry is None or entry.size != st.st_size
                        or entry.stat != (st.st_mtime_ns, st.st_ino)):
                    entry = _read_covered(path, day, entry)
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


def _read_covered(path: str, day: int | None, entry: _Covered | None) -> _Covered:
    """The checkpoint entry of the partition file ``path`` of day ``day``
    (None: a name that is no day), from the bytes
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
    rows, more = _rows(data, start, day)
    for row in rows:
        key = (row.profile_id, row.depth_cm, row.channel._value_)
        if row.seq > seqs.get(key, 0):
            seqs[key] = row.seq
    end = data.rfind(b"\n") + 1
    return _Covered(end, zlib.crc32(memoryview(data)[start:end], crc), seqs,
                    (st.st_mtime_ns, st.st_ino), skipped + more)


def _rows(data: bytes, start: int, day: int | None) -> tuple[list[RawReading], int]:
    """The rows (see the module docstring) of the bytes ``data`` of the
    partition of day ``day`` (None: a file whose name is no day, which
    holds no row), from byte ``start`` (0: the header) to the last newline,
    each line made straight into a ``core.RawReading``, and how many lines
    are no rows, a first line other than the header too. ``data`` is
    checked for ASCII once, and line by line only when some byte is not.
    Runs of lines share a profile field (a partition is one profile's) and
    a timestamp (the streams of one tick), so each of those two fields,
    when equal to the last one that parsed and passed its checks, reuses
    its parsed value: a node time is checked against the day once per run."""
    end = data.rfind(b"\n") + 1
    skipped = 0
    if start == 0 and end:
        start = data.find(b"\n") + 1
        skipped = data[:start] != _HEADER
    if start >= end:
        return [], skipped
    ascii_only = data.isascii()  # if not, each line is checked
    lines = data[start:end - 1].decode("latin-1").split("\n")
    rows = []
    append = rows.append
    # The node times of the day; every one of them lies in TS_RANGE (_file_day).
    first, after = (0, 0) if day is None else (day * DAY_S, day * DAY_S + DAY_S)
    lo, hi = TS_RANGE
    # Memos, each set only from a field that parsed and passed its checks.
    last_pid = last_ts = profile = t = None
    for line in lines:
        if not (ascii_only or line.isascii()):
            continue
        try:
            ts, recv, rest = line.split(",", 2)
            pid, depth, chan, seq, value, vwc = rest.rsplit(",", 5)
            if pid != last_pid:
                unquoted = pid[1:-1].replace('""', '"') if pid[:1] == '"' else pid
                if _csv_field(unquoted) != pid:
                    continue
                last_pid, profile = pid, unquoted
            if ts != last_ts:
                node = parse_iso_utc(ts)
                if not first <= node < after:
                    continue
                t, last_ts = node, ts
            if recv == ts:
                r = t
            else:
                r = parse_iso_utc(recv)
                if not lo <= r <= hi:
                    continue
            append(RawReading(profile, int(depth), _CHANNELS[chan], float(value), t, int(seq), r,
                              float(vwc) if vwc else None))
        except (ValueError, KeyError):
            pass
    return rows, skipped + len(lines) - len(rows)


_HEADER = (",".join(EXPORT_FIELDS) + "\n").encode("ascii")
_HEADER_CRC = zlib.crc32(_HEADER)
_CHANNELS = {c.value: c for c in Channel}
# Query order; a str enum member orders as its value, without Enum.value's property.
_QUERY_ORDER = operator.attrgetter("timestamp", "profile_id", "depth_cm", "channel", "seq")


def _write_all(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _json_number(x: float) -> str:
    """``x`` as json.dumps writes it: a finite float as its repr, NaN and
    the infinities as json.dumps spells them."""
    text = repr(x)
    return text if text[-1].isdigit() else json.dumps(x)


def _json_rows(rows: Iterable[RawReading]) -> str:
    """``rows`` as the items of json.dumps(records, indent=2) for their
    records, joined by ",\n"; the id as json.dumps writes a string, by the
    function it calls."""
    out = []
    ts = recv = pid = head = None
    for row in rows:
        if row.timestamp != ts or row.recv_timestamp != recv or row.profile_id != pid:
            ts, recv, pid = row.timestamp, row.recv_timestamp, row.profile_id
            t = iso_utc(ts)
            head = (f'  {{\n    "timestamp": "{t}",\n'
                    f'    "recv_timestamp": "{t if recv == ts else iso_utc(recv)}",\n'
                    f'    "profile": {encode_basestring_ascii(pid)},\n    "depth_cm": ')
        vwc = row.vwc_percent
        out.append(f'{head}{row.depth_cm},\n    "channel": "{row.channel._value_}",\n'
                   f'    "seq": {row.seq},\n    "value": {_json_number(row.value)},\n'
                   f'    "vwc_percent": {"null" if vwc is None else _json_number(vwc)}\n  }}')
    return ",\n".join(out)


@functools.lru_cache(maxsize=1024)
def _xml_attr(text: str) -> str:
    """``text`` escaped as ElementTree escapes an attribute value."""
    for c, ref in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
                   ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;")):
        text = text.replace(c, ref)
    return text


def _xml_rows(rows: Iterable[RawReading]) -> str:
    """``rows`` as the <reading> lines of ElementTree's indented
    <readings> tree, joined by "\n"; no vwc_percent attribute where it
    is absent."""
    out = []
    ts = recv = pid = head = None
    for row in rows:
        if row.timestamp != ts or row.recv_timestamp != recv or row.profile_id != pid:
            ts, recv, pid = row.timestamp, row.recv_timestamp, row.profile_id
            t = iso_utc(ts)
            head = (f'  <reading timestamp="{t}" recv_timestamp="{t if recv == ts else iso_utc(recv)}"'
                    f' profile="{_xml_attr(pid)}" depth_cm="')
        vwc = row.vwc_percent
        vwc_attr = "" if vwc is None else f' vwc_percent="{vwc!r}"'
        out.append(f'{head}{row.depth_cm}" channel="{row.channel._value_}" seq="{row.seq}"'
                   f' value="{row.value!r}"{vwc_attr} />')
    return "\n".join(out)


# Per format: its encoder, then the text before the first chunk of rows,
# between two chunks and after the last, and the whole export of no rows.
_FORMATS = {
    "csv": (_csv_rows, _HEADER.decode("ascii"), "", "", _HEADER.decode("ascii")),
    "json": (_json_rows, "[\n", ",\n", "\n]\n", "[]\n"),
    "xml": (_xml_rows, "<readings>\n", "\n", "\n</readings>\n", "<readings />\n"),
}


def export_chunks(chunks: Iterable[list[RawReading]], fmt: str) -> Iterator[bytes]:
    """The export of the rows of ``chunks``, lists of query-ordered rows
    taken in turn, as one bytes object per chunk and one at the end: the
    bytes of ``export`` of all the rows, whatever the chunk edges. The XML
    of an id that is not ASCII raises UnicodeEncodeError. An unknown
    format raises ValueError at once."""
    try:
        encoding = _FORMATS[fmt.lower()]
    except KeyError:
        raise ValueError(f"unknown export format {fmt!r}") from None
    return _encode_chunks(chunks, *encoding)


def _encode_chunks(chunks, encode, before, between, after, empty) -> Iterator[bytes]:
    wrote = False
    for rows in chunks:
        if rows:
            yield ((between if wrote else before) + encode(rows)).encode("ascii")
            wrote = True
    yield (after if wrote else empty).encode("ascii")


def export(rows: list[RawReading], fmt: str) -> bytes:
    """Serialize query-ordered rows; csv/json/xml carry identical data.
    The JSON is the bytes of json.dumps(records, indent=2) plus a newline,
    the XML those of ElementTree's indented <readings> tree plus a newline;
    the XML of an id that is not ASCII raises UnicodeEncodeError."""
    return b"".join(export_chunks((rows,), fmt))


def export_csv(rows: list[RawReading]) -> bytes:
    return export(rows, "csv")


def rows_with_vwc(rows: list[RawReading], model: CalibrationModel) -> list[RawReading]:
    """``rows`` in order, each moisture row replaced by a new row with
    vwc_percent filled in, other rows as they are; no row of ``rows`` is
    changed. This is the one place a model applies: the store holds raw
    readings and is never rewritten, so a refit model reaches all stored
    history. A voltage the model cannot map (0 V under the reciprocal
    transform, a reading the gateway accepts) keeps its row, vwc_percent
    None. ``apply_calibration`` is looked up in this module at each call,
    so that a traced run can replace it."""
    out = []
    append = out.append
    for row in rows:
        if row.channel is _MOISTURE:
            value = row.value
            try:
                row = RawReading(row.profile_id, row.depth_cm, _MOISTURE, value, row.timestamp,
                                 row.seq, row.recv_timestamp, apply_calibration(model, value))
            except ZeroVoltage:
                pass
        append(row)
    return out
