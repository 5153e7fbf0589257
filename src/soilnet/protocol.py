"""Line-based publish wire protocol and the gateway's reply to each line.

Frames are ASCII bytes, LF-terminated, single-space separated, <= 512 bytes:

    HELLO <node_id> <proto_version>
    PUB <topic> <seq> <unix_ts_seconds> <value_decimal>    (seq >= 1, ts in core.TS_RANGE)
    ACK <seq>
    ERR <code> <message>

Topics are MQTT-style paths: site/{site}/profile/{p}/depth/{cm}/{moisture|temperature}

``classify_line`` is the one place a line gets its verdict, its counter,
its dedup move and its reply.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from soilnet.core import TS_RANGE, Channel, RawReading, plain_segment, value_in_range

MAX_FRAME_BYTES = 512
PROTO_VERSION = 1


class Malformed(ValueError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


_QUOTE_MAX = 40


def _quote(tok: str) -> str:
    """``tok`` quoted for a Malformed reason, cut to its first _QUOTE_MAX
    characters, so that the ERR frame quoting it fits MAX_FRAME_BYTES."""
    return ascii(tok[:_QUOTE_MAX]) + ("..." if len(tok) > _QUOTE_MAX else "")


def _check_segment(seg: str, what: str) -> str:
    # A plain segment (see core.plain_segment) without spaces, which would
    # split the frame into more tokens.
    if " " in seg or not plain_segment(seg):
        raise Malformed(f"{what}: bad segment {_quote(seg)}")
    return seg


# One cache per gateway process. It assumes a gateway sees at most 1024
# distinct topics (8 per profile, so 128 profiles); past that, topics
# interleaved round-robin would miss every time. A raised Malformed is not
# cached, so a bad topic is checked again each time.
@functools.lru_cache(maxsize=1024)
def parse_topic(s: str) -> tuple[str, str, int, Channel]:
    """The (site, profile_id, depth_cm, channel) a topic string names."""
    parts = s.split("/")
    if len(parts) != 7 or parts[0] != "site" or parts[2] != "profile" or parts[4] != "depth":
        raise Malformed(f"topic: {_quote(s)}")
    site, profile_id, depth_s, chan_s = parts[1], parts[3], parts[5], parts[6]
    _check_segment(site, "topic")
    _check_segment(profile_id, "topic")
    if not depth_s.isdigit() or int(depth_s) <= 0:
        raise Malformed(f"topic depth: {_quote(depth_s)}")
    try:
        channel = Channel(chan_s)
    except ValueError:
        raise Malformed(f"topic channel: {_quote(chan_s)}") from None
    return site, profile_id, int(depth_s), channel


@dataclass(slots=True)
class Hello:
    node_id: str
    proto_version: int


@dataclass(slots=True)
class Pub:
    """The site a PUB's topic names and the reading it carries, whose
    recv_timestamp stays None until the gateway stores it."""

    site: str
    reading: RawReading


@dataclass(slots=True)
class Ack:
    seq: int


@dataclass(slots=True)
class Err:
    code: str
    message: str


Frame = Hello | Pub | Ack | Err


def _parse_int(tok: str, what: str) -> int:
    if not tok or not (tok.isdigit() or (tok[0] == "-" and tok[1:].isdigit())):
        raise Malformed(f"{what}: {_quote(tok)}")
    return int(tok)


def _parse_value(tok: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise Malformed(f"value: {_quote(tok)}") from None
    if not math.isfinite(v):
        raise Malformed(f"value not finite: {_quote(tok)}")
    return v


def parse_frame(data: bytes) -> Frame:
    """Total parse of one frame line; raises Malformed with a reason."""
    if len(data) > MAX_FRAME_BYTES:
        raise Malformed("frame exceeds 512 bytes")
    try:
        line = data.decode("ascii")
    except UnicodeDecodeError:
        raise Malformed("non-ascii frame") from None
    if line.endswith("\n"):
        line = line[:-1]
    if not line or line != line.strip() or "\r" in line:
        raise Malformed("bad framing")
    toks = line.split(" ")
    if "" in toks:
        raise Malformed("empty token (double space?)")
    kind = toks[0]
    if kind == "PUB":
        if len(toks) != 5:
            raise Malformed(f"PUB wants 4 fields, got {len(toks) - 1}")
        site, profile_id, depth_cm, channel = parse_topic(toks[1])
        seq = _parse_int(toks[2], "seq")
        ts = _parse_int(toks[3], "timestamp")
        if seq < 1:  # dedup starts every stream at last-seen 0
            raise Malformed(f"seq must be >= 1: {seq}")
        if not TS_RANGE[0] <= ts <= TS_RANGE[1]:
            raise Malformed("timestamp outside years 1000-9999")
        return Pub(site, RawReading(profile_id, depth_cm, channel, _parse_value(toks[4]), ts, seq))
    if kind == "ACK":
        if len(toks) != 2:
            raise Malformed("ACK wants 1 field")
        return Ack(_parse_int(toks[1], "seq"))
    if kind == "HELLO":
        if len(toks) != 3:
            raise Malformed("HELLO wants 2 fields")
        return Hello(_check_segment(toks[1], "node_id"), _parse_int(toks[2], "proto_version"))
    if kind == "ERR":
        if len(toks) < 3:
            raise Malformed("ERR wants code and message")
        return Err(toks[1], " ".join(toks[2:]))
    raise Malformed(f"unknown frame type {_quote(kind)}")


# One cache per process, like parse_topic's: a node renders 8 streams, the
# benchmark's client 32. The key holds the depth as rendered, so depths
# that compare equal but render apart (5, 5.0 and True; 0.0 and -0.0) never
# share a prefix; typed=True keeps apart the other segments' types too, a
# str channel from a Channel. A raised Malformed, or any other error, is not
# cached, so a bad segment is checked again each time.
@functools.lru_cache(maxsize=1024, typed=True)
def _pub_prefix(site: str, profile_id: str, depth: str, channel: Channel) -> str:
    """A stream's PUB line up to its seq: the frame type and the topic."""
    return (f"PUB site/{_check_segment(site, 'site')}"
            f"/profile/{_check_segment(profile_id, 'profile')}/depth/{depth}/{channel.value} ")


def render_frame(frame: Frame) -> bytes:
    """The frame's line; ValueError if it is not ASCII or over 512 bytes."""
    if isinstance(frame, Pub):
        r = frame.reading
        line = (f"{_pub_prefix(frame.site, r.profile_id, f'{r.depth_cm}', r.channel)}"
                f"{r.seq} {r.timestamp} {r.value!r}\n")
    elif isinstance(frame, Ack):
        line = f"ACK {frame.seq}\n"
    elif isinstance(frame, Hello):
        line = f"HELLO {frame.node_id} {frame.proto_version}\n"
    elif isinstance(frame, Err):
        line = f"ERR {frame.code} {frame.message}\n"
    else:
        raise TypeError(f"not a frame: {frame!r}")
    data = line.encode("ascii")
    if len(data) > MAX_FRAME_BYTES:
        raise ValueError("rendered frame exceeds 512 bytes")
    return data


class Verdict(Enum):
    ACCEPT = "accept"
    DUPLICATE = "duplicate"
    OUT_OF_RANGE = "out_of_range"
    MALFORMED = "malformed"
    FOREIGN_SITE = "foreign_site"


# The per-verdict counters of GatewayState, in the order the gateway reports them.
COUNTERS = ("accepted", "duplicate", "out_of_range", "malformed", "foreign_site")


@dataclass
class GatewayState:
    """The gateway's site, per-stream dedup state and frame counters.

    Invariant: the COUNTERS sum to pub_total, the number of PUB-typed
    frames received.
    """

    site: str
    last_seen: dict[tuple, int] = field(default_factory=dict)  # (profile, depth, channel) -> seq
    accepted: int = 0
    duplicate: int = 0
    out_of_range: int = 0
    malformed: int = 0
    foreign_site: int = 0
    pub_total: int = 0

    def counters_consistent(self) -> bool:
        return sum(getattr(self, name) for name in COUNTERS) == self.pub_total


def classify_line(state: GatewayState, line: bytes, store: Callable[[Pub], None],
                  ) -> tuple[Verdict | None, Frame | None]:
    """Parse, classify and answer one inbound line as the gateway does.
    Returns (verdict, reply): verdict is None for a frame that is no PUB,
    reply None for a stray ACK or ERR.

    A PUB is accepted iff its topic names the gateway's site (the store
    keeps no site), its seq is beyond the stream's last-seen AND its value
    is within the channel's physical range. An accepted PUB is first
    handed to ``store``; last-seen and the counters move only once it has
    returned, so a PUB whose store raises is not counted at all and its
    retry is classified afresh. A line that looks like a PUB but fails to
    parse counts as malformed, so the conservation identity holds."""
    try:
        frame = parse_frame(line)
    except Malformed as e:
        reply = Err("malformed", e.reason)
        if line.strip(b"\n").split(b" ", 1)[0] != b"PUB":
            return None, reply
        state.malformed += 1
        verdict = Verdict.MALFORMED
    else:
        if not isinstance(frame, Pub):
            if isinstance(frame, Hello):
                if frame.proto_version != PROTO_VERSION:
                    return None, Err("version", f"unsupported proto_version, want {PROTO_VERSION}")
                return None, Ack(0)
            return None, None
        r = frame.reading
        key = (r.profile_id, r.depth_cm, r.channel)
        if frame.site != state.site:
            state.foreign_site += 1
            verdict = Verdict.FOREIGN_SITE
            reply = Err("site", "topic names a site this gateway does not serve")
        elif r.seq <= state.last_seen.get(key, 0):
            state.duplicate += 1
            verdict = Verdict.DUPLICATE
            reply = Ack(r.seq)
        elif not value_in_range(r.channel, r.value):
            state.out_of_range += 1
            verdict = Verdict.OUT_OF_RANGE
            reply = Err("out_of_range", f"value {r.value!r} outside channel range")
        else:
            store(frame)
            state.last_seen[key] = r.seq
            state.accepted += 1
            verdict = Verdict.ACCEPT
            reply = Ack(r.seq)
    state.pub_total += 1
    return verdict, reply
