"""The last_seqs checkpoint is a cache: whatever state the store and the
checkpoint file are in, ``Store(root).last_seqs()`` equals a full csv read
of the partitions (``naive_store_last_seqs``).

A Hypothesis state machine mixes appends through two Store instances,
checkpoint saves, gateway-like restarts that read last_seqs, torn tails,
removed partitions, partitions rewritten with other rows of the same
byte length, writes that fail half-way, lines that another program
appends, and a checkpoint that is deleted, stale, truncated, not JSON,
byte-flipped or copied from another store.
Both instances go on after a torn tail or a failed write, either's own
or the other's, as a gateway and an offline backfill on one store would:
each append must cut what it finds torn. After every step a fresh
Store's last_seqs is compared with the oracle, and the lines it skipped
with those of the partitions that the machine made another program
append (``naive_store_skipped``): a count the checkpoint records must
never be trusted for bytes it does not describe. The checkpoint that
this check may rewrite is then put back, so that stale states last
across steps. The oracle leaves out the foreign lines: no Store wrote
them, so they take no part in last_seqs.
"""

import errno
import os
import shutil
import tempfile
from unittest import mock

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from soilnet import store as store_mod
from soilnet.core import Channel
from soilnet.store import CHECKPOINT, Store, StoredRow

from oracles import naive_store_last_seqs, naive_store_skipped

DAY0 = 19675 * 86400  # 2023-11-14T00:00:00Z
STREAMS = [(profile, depth, channel) for profile in ("p1", "p2") for depth in (5, 50)
           for channel in Channel]
# (stream, day, seq): seqs of a stream need not rise, so the max is tested.
readings = st.lists(st.tuples(st.sampled_from(STREAMS), st.integers(0, 1), st.integers(1, 120)),
                    min_size=1, max_size=6)


def rows_of(readings):
    return [StoredRow(profile, depth, channel, 1.25, DAY0 + day * 86400 + seq * 60, seq,
                      DAY0 + day * 86400 + seq * 60)
            for (profile, depth, channel), day, seq in readings]


def read_or_none(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def put(path, data):
    """Make ``path`` hold ``data`` (None: no file), as a new file."""
    if os.path.exists(path):
        os.remove(path)
    if data is not None:
        with open(path, "wb") as f:
            f.write(data)


JUNK = [b"", b"not json\n", b"00000000\n{}", b"\xff" * 40]

# Lines no Store could write. Each is appended after whatever torn bytes
# the partition ends with, which cannot make it a row: a blank line could
# (after all of a row but its newline), so there is none.
FOREIGN = [b"garbage", b"\xff", b"a,b,c,d,e,f,g,h",
           b"2023-11-14T00:01:00Z,2023-11-14T00:01:00Z,p1,5,moisture,x,1.25,",
           b'2023-11-14T00:01:00Z,2023-11-14T00:01:00Z,",5,moisture,7,1.25,']


def spoil(old, kind, at, step):
    """Checkpoint bytes ``old`` cut at place ``at``, or with the digit there
    moved on by ``step`` (still JSON: a seq, size, mtime or inode that is
    off), or junk. Their bytes hold inode numbers and mtimes, which differ
    from run to run, so the place is a number taken modulo their length:
    each run then draws the same choices."""
    digits = [k for k, c in enumerate(old) if chr(c).isdigit()]
    if kind == "truncate" and old:
        return old[:at % len(old)]
    if kind == "digit" and digits:
        k = digits[at % len(digits)]
        return old[:k] + bytes([ord("0") + (old[k] - ord("0") + step) % 10]) + old[k + 1:]
    return JUNK[at % len(JUNK)]


class CheckpointMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp()
        self.stores = [Store(self.root), Store(self.root)]
        self.seen = []  # every checkpoint's bytes so far, for a stale copy
        self.foreign = set()  # every line another program wrote, with its torn prefix

    def teardown(self):
        shutil.rmtree(self.root)

    @property
    def checkpoint_path(self):
        return os.path.join(self.root, CHECKPOINT)

    def partitions(self):
        return sorted(os.path.join(self.root, pid, name)
                      for pid in os.listdir(self.root)
                      if os.path.isdir(os.path.join(self.root, pid))
                      for name in os.listdir(os.path.join(self.root, pid)))

    @rule(i=st.integers(0, 1), readings=readings)
    def append(self, i, readings):
        self.stores[i].append_rows(rows_of(readings))

    @rule(i=st.integers(0, 1))
    def checkpoint(self, i):
        self.stores[i].checkpoint()
        data = read_or_none(self.checkpoint_path)
        if data is not None:
            self.seen.append(data)

    @rule(i=st.integers(0, 1))
    def start(self, i):
        # As a gateway starts: a new Store whose last_seqs seeds dedup.
        self.stores[i] = Store(self.root)
        assert self.stores[i].last_seqs() == naive_store_last_seqs(self.root, self.foreign)

    @rule(i=st.integers(0, 1), readings=readings, cut=st.integers(0, 10**6))
    def failed_write(self, i, readings, cut):
        # The disk fills up in mid-write: part of the data reaches the
        # file. Both instances go on.
        def write_part(fd, data):
            os.write(fd, data[:cut % len(data)])
            raise OSError(errno.ENOSPC, "No space left on device")

        with mock.patch.object(store_mod, "_write_all", write_part):
            try:
                self.stores[i].append_rows(rows_of(readings))
            except OSError:
                pass
            else:
                raise AssertionError("append_rows did not raise")

    @precondition(lambda self: self.partitions())
    @rule(data=st.data(), cut=st.integers(1, 60))
    def torn_tail(self, data, cut):
        path = data.draw(st.sampled_from(self.partitions()))
        with open(path, "ab") as f:
            f.write(b"2023-11-14T00:01:00Z,2023-11-14T00:01:00Z,p1,5,moisture,99,1.25,\n"[:cut])

    @precondition(lambda self: self.partitions())
    @rule(data=st.data(), line=st.sampled_from(FOREIGN))
    def foreign_line(self, data, line):
        # Another program appends a line, without cutting a torn tail first.
        path = data.draw(st.sampled_from(self.partitions()))
        with open(path, "rb") as f:
            torn = f.read().rpartition(b"\n")[2]
        with open(path, "ab") as f:
            f.write(line + b"\n")
        self.foreign.add(torn + line)

    @precondition(lambda self: self.partitions())
    @rule(data=st.data())
    def remove_partition(self, data):
        os.remove(data.draw(st.sampled_from(self.partitions())))

    @precondition(lambda self: self.partitions())
    @rule(data=st.data())
    def rewrite_partition(self, data):
        # Deleted and written again, each row's seq replaced by another of
        # as many digits: other rows, the same byte length.
        path = data.draw(st.sampled_from(self.partitions()))
        with open(path, "rb") as f:
            lines = f.read().split(b"\n")
        for k in range(1, len(lines) - 1):
            fields = lines[k].split(b",")
            if len(fields) == 8 and lines[k] not in self.foreign:
                n = len(fields[5])
                fields[5] = b"%d" % data.draw(st.integers(10 ** (n - 1), 10 ** n - 1))
                lines[k] = b",".join(fields)
        put(path, b"\n".join(lines))

    @rule(data=st.data(), kind=st.sampled_from(["delete", "stale", "foreign", "truncate", "digit",
                                                "junk"]), at=st.integers(0, 10**6),
          step=st.integers(1, 9))
    def spoil_checkpoint(self, data, kind, at, step):
        if kind == "delete" or kind == "stale" and not self.seen:
            new = None
        elif kind == "stale":
            new = data.draw(st.sampled_from(self.seen))
        elif kind == "foreign":
            other = tempfile.mkdtemp()
            try:
                store = Store(other)
                store.append_rows(rows_of(data.draw(readings)))
                store.checkpoint()
                new = read_or_none(os.path.join(other, CHECKPOINT))
            finally:
                shutil.rmtree(other)
        else:
            new = spoil(read_or_none(self.checkpoint_path) or b"", kind, at, step)
        put(self.checkpoint_path, new)

    @invariant()
    def last_seqs_is_the_oracle(self):
        before = read_or_none(self.checkpoint_path)
        store = Store(self.root)
        assert store.last_seqs() == naive_store_last_seqs(self.root, self.foreign)
        assert sum(store.skipped.values()) == naive_store_skipped(self.root, self.foreign)
        if read_or_none(self.checkpoint_path) != before:
            put(self.checkpoint_path, before)


CheckpointMachine.TestCase.settings = settings(max_examples=120, stateful_step_count=30,
                                               deadline=None)
TestCheckpoint = CheckpointMachine.TestCase
