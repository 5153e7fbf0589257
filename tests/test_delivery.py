"""Model-based test of the gateway's delivery contract.

A Hypothesis state machine drives one Gateway and its Store through
``handle_line``, as nodes would, with restarts (a clean stop saves the
store's last_seqs checkpoint, a crash does not), torn writes, failing
appends and a checkpoint that is deleted or corrupt in between. It keeps
a model of the replies, the counters and the rows that must be stored,
and checks after every step that:

- the counters match the model and the conservation identity holds;
- every reading ACKed as new is stored exactly once, and nothing else is;
- ``Store.last_seqs()`` equals a naive max over ``Store.query()``;

and, at each restart, that replaying every ACKed frame appends nothing.
The checkpoint that the last_seqs check may rewrite is put back after
it, so a restart sees the one the gateways left.
"""

import collections
import os
import shutil
import socketserver
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from soilnet.core import Channel
from soilnet.gateway import Gateway
from soilnet.protocol import Ack, Err, Pub, Topic, render_frame
from soilnet.store import CHECKPOINT, Store, StoredRow, iso_utc

from oracles import naive_last_seqs
from test_checkpoint import put, read_or_none, spoil
from test_gateway import FailingStore

SITE = "A"
# Two hours before a UTC midnight, so that streams cross into a second
# day partition after 8 seqs.
T0 = 1700006400 - 7200
STREAMS = [(profile, depth, channel) for profile in ("p1", "p2") for depth in (5, 50)
           for channel in Channel]
IN_RANGE = {Channel.MOISTURE_VOLTAGE: 1.3, Channel.TEMPERATURE_C: 21.5}
OUT_OF_RANGE = {Channel.MOISTURE_VOLTAGE: 5.0, Channel.TEMPERATURE_C: 130.0}
COUNTERS = ("accepted", "duplicate", "out_of_range", "malformed", "foreign_site")


def pub_line(stream, seq, value, site=SITE):
    profile, depth, channel = stream
    pub = Pub(Topic(site, profile, depth, channel), seq, T0 + 900 * seq, value)
    return render_frame(pub)


TOPIC = "site/A/profile/p1/depth/5/moisture"
MALFORMED = [
    f"PUB {TOPIC} 0 {T0} 1.3\n",  # seq starts at 1
    f"PUB {TOPIC} 1 253402300800 1.3\n",  # after year 9999
    f"PUB {TOPIC} 1 -30610224001 1.3\n",  # before year 1000
    f"PUB {TOPIC} 1 {T0} nan\n",
    f"PUB {TOPIC} 1 {T0}\n",
    f"PUB {TOPIC}  1 {T0} 1.3\n",
    f"PUB site/A/profile/p1/depth/0/moisture 1 {T0} 1.3\n",
    f"PUB {TOPIC} 1 {T0} 1.3 " + "x" * 512 + "\n",
    "PUB junk\n",
    "PUB\n",
]


class DeliveryMachine(RuleBasedStateMachine):
    acked = Bundle("acked")  # (stream, seq) of each reading ACKed as new

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp()
        self.gw = None
        self.stored = {}  # (stream, seq) -> value, of every reading ACKed as new
        self.last = {}  # stream -> highest seq ACKed as new
        self.acked_lines = []  # every PUB line ACKed: what a node would replay
        self.start()

    def start(self, crash=False):
        if crash:  # the socket closes, and the store's checkpoint is not saved
            socketserver.TCPServer.server_close(self.gw)
        elif self.gw is not None:
            self.gw.server_close()
        self.gw = Gateway(("127.0.0.1", 0), FailingStore(self.root, failures=0), site=SITE)
        self.counts = collections.Counter()

    @property
    def checkpoint_path(self):
        return os.path.join(self.root, CHECKPOINT)

    def teardown(self):
        self.gw.server_close()
        shutil.rmtree(self.root)

    def send(self, line, counter):
        reply = self.gw.handle_line(line)
        if counter is not None:
            self.counts[counter] += 1
        if isinstance(reply, Ack):
            self.acked_lines.append(line)
        return reply

    def next_seq(self, stream, gap):
        return self.last.get(stream, 0) + gap

    def files(self):
        out = {}
        for dirpath, _, names in os.walk(self.root):
            for name in names:
                with open(os.path.join(dirpath, name), "rb") as f:
                    out[os.path.join(dirpath, name)] = f.read()
        return out

    @rule(target=acked, stream=st.sampled_from(STREAMS), gap=st.integers(1, 3))
    def publish_new(self, stream, gap):
        seq = self.next_seq(stream, gap)
        assert self.send(pub_line(stream, seq, IN_RANGE[stream[2]]), "accepted") == Ack(seq)
        self.last[stream] = seq
        self.stored[(stream, seq)] = IN_RANGE[stream[2]]
        return stream, seq

    @rule(key=acked, back=st.integers(0, 2), in_range=st.booleans())
    def publish_duplicate(self, key, back, in_range):
        # Dedup comes before the range check, so any value is a duplicate.
        stream, seq = key
        seq = max(1, seq - back)
        value = (IN_RANGE if in_range else OUT_OF_RANGE)[stream[2]]
        assert self.send(pub_line(stream, seq, value), "duplicate") == Ack(seq)

    @rule(stream=st.sampled_from(STREAMS), gap=st.integers(1, 3))
    def publish_out_of_range(self, stream, gap):
        line = pub_line(stream, self.next_seq(stream, gap), OUT_OF_RANGE[stream[2]])
        reply = self.send(line, "out_of_range")
        assert isinstance(reply, Err) and reply.code == "out_of_range"

    @rule(stream=st.sampled_from(STREAMS), seq=st.integers(1, 12), site=st.sampled_from(["B", "a"]))
    def publish_foreign_site(self, stream, seq, site):
        reply = self.send(pub_line(stream, seq, IN_RANGE[stream[2]], site=site), "foreign_site")
        assert isinstance(reply, Err) and reply.code == "site"

    @rule(line=st.sampled_from(MALFORMED))
    def publish_malformed(self, line):
        reply = self.send(line.encode("ascii"), "malformed")
        assert isinstance(reply, Err) and reply.code == "malformed"

    @rule(stream=st.sampled_from(STREAMS), gap=st.integers(1, 3))
    def failing_append(self, stream, gap):
        # Nothing is counted: the node retries, and the retry is counted.
        self.gw.store.failures = 1
        reply = self.send(pub_line(stream, self.next_seq(stream, gap), IN_RANGE[stream[2]]), None)
        assert isinstance(reply, Err) and reply.code == "store"

    def restart_and_replay(self, crash):
        self.start(crash)
        before = self.files()
        # Not through send: a replayed line joins acked_lines once only.
        for line in self.acked_lines:
            assert isinstance(self.gw.handle_line(line), Ack)
            self.counts["duplicate"] += 1
        assert self.files() == before

    @rule()
    def restart(self):
        self.restart_and_replay(crash=False)

    @rule()
    def crash_restart(self):
        self.restart_and_replay(crash=True)

    @rule()
    def delete_checkpoint(self):
        put(self.checkpoint_path, None)

    @rule(kind=st.sampled_from(["truncate", "digit", "junk"]), at=st.integers(0, 10**6),
          step=st.integers(1, 9))
    def corrupt_checkpoint(self, kind, at, step):
        put(self.checkpoint_path, spoil(read_or_none(self.checkpoint_path) or b"", kind, at, step))

    @rule(stream=st.sampled_from(STREAMS), gap=st.integers(1, 3))
    def torn_write(self, stream, gap):
        # The gateway dies in mid-append of a new reading: half of its row
        # reaches the partition, no ACK goes out, and a new gateway starts.
        seq = self.next_seq(stream, gap)
        row = StoredRow(*stream, IN_RANGE[stream[2]], T0 + 900 * seq, seq, T0)
        Store(self.root).append(row)
        path = os.path.join(self.root, row.profile_id, iso_utc(row.timestamp)[:10] + ".csv")
        with open(path, "rb+") as f:
            data = f.read()
            f.truncate((data.rfind(b"\n", 0, len(data) - 1) + 1 + len(data)) // 2)
        self.start()

    @invariant()
    def counters_are_conserved(self):
        counters = self.gw.counters()
        assert self.gw.state.counters_consistent()
        assert {k: counters[k] for k in COUNTERS} == {k: self.counts[k] for k in COUNTERS}

    @invariant()
    def store_matches_the_model(self):
        # Every reading ACKed as new is stored once, and nothing else is.
        # last_seqs equals a naive max over query().
        rows = Store(self.root).query()
        got = sorted((((r.profile_id, r.depth_cm, r.channel), r.seq), r.value, r.timestamp)
                     for r in rows)
        want = sorted((key, value, T0 + 900 * key[1]) for key, value in self.stored.items())
        assert got == want
        before = read_or_none(self.checkpoint_path)
        assert Store(self.root).last_seqs() == naive_last_seqs(rows)
        if read_or_none(self.checkpoint_path) != before:
            put(self.checkpoint_path, before)


DeliveryMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=40,
                                             deadline=None)
TestDeliveryContract = DeliveryMachine.TestCase
