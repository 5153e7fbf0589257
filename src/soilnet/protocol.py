"""Line-based publish wire protocol and gateway-side frame classification.

Grammar (ASCII, LF-terminated, single-space separators, frames <= 512 bytes):

    HELLO <node_id> <proto_version>
    PUB <topic> <seq> <unix_ts_seconds> <value_decimal>
    ACK <seq>
    ERR <code> <message>

Topics are MQTT-style paths: site/{site}/profile/{p}/depth/{cm}/{moisture|temperature}
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from soilnet.core import Channel, RawReading, value_in_range

MAX_FRAME_BYTES = 512
PROTO_VERSION = 1


class Malformed(ValueError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _check_segment(seg: str, what: str) -> str:
    if not seg or "/" in seg or any(ch.isspace() for ch in seg):
        raise Malformed(f"{what}: bad segment {seg!r}")
    return seg


@dataclass(frozen=True)
class Topic:
    site: str
    profile_id: str
    depth_cm: int
    channel: Channel

    def render(self) -> str:
        return (
            f"site/{_check_segment(self.site, 'site')}"
            f"/profile/{_check_segment(self.profile_id, 'profile')}"
            f"/depth/{self.depth_cm}/{self.channel.value}"
        )

    @classmethod
    def parse(cls, s: str) -> "Topic":
        parts = s.split("/")
        if len(parts) != 7 or parts[0] != "site" or parts[2] != "profile" or parts[4] != "depth":
            raise Malformed(f"topic: {s!r}")
        site, profile_id, depth_s, chan_s = parts[1], parts[3], parts[5], parts[6]
        _check_segment(site, "topic")
        _check_segment(profile_id, "topic")
        if not depth_s.isdigit() or int(depth_s) <= 0:
            raise Malformed(f"topic depth: {depth_s!r}")
        try:
            channel = Channel(chan_s)
        except ValueError:
            raise Malformed(f"topic channel: {chan_s!r}") from None
        return cls(site, profile_id, int(depth_s), channel)


@dataclass(frozen=True)
class Hello:
    node_id: str
    proto_version: int


@dataclass(frozen=True)
class Pub:
    topic: Topic
    seq: int
    timestamp: int
    value: float

    def stream_key(self) -> tuple:
        t = self.topic
        return (t.site, t.profile_id, t.depth_cm, t.channel)

    def to_reading(self) -> RawReading:
        return RawReading(
            profile_id=self.topic.profile_id,
            depth_cm=self.topic.depth_cm,
            channel=self.topic.channel,
            value=self.value,
            timestamp=self.timestamp,
            seq=self.seq,
        )


@dataclass(frozen=True)
class Ack:
    seq: int


@dataclass(frozen=True)
class Err:
    code: str
    message: str


Frame = Hello | Pub | Ack | Err


def _parse_int(tok: str, what: str) -> int:
    if not tok or not (tok.isdigit() or (tok[0] == "-" and tok[1:].isdigit())):
        raise Malformed(f"{what}: {tok!r}")
    return int(tok)


def _parse_value(tok: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise Malformed(f"value: {tok!r}") from None
    if not math.isfinite(v):
        raise Malformed(f"value not finite: {tok!r}")
    return v


def parse_frame(line: str | bytes) -> Frame:
    """Total parse of one frame line; raises Malformed with a reason."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise Malformed("frame exceeds 512 bytes")
        try:
            line = line.decode("ascii")
        except UnicodeDecodeError:
            raise Malformed("non-ascii frame") from None
    elif len(line.encode("ascii", "replace")) > MAX_FRAME_BYTES:
        raise Malformed("frame exceeds 512 bytes")
    if line.endswith("\n"):
        line = line[:-1]
    if not line or line != line.strip() or "\r" in line:
        raise Malformed("bad framing")
    toks = line.split(" ")
    if any(t == "" for t in toks):
        raise Malformed("empty token (double space?)")
    kind = toks[0]
    if kind == "PUB":
        if len(toks) != 5:
            raise Malformed(f"PUB wants 4 fields, got {len(toks) - 1}")
        topic = Topic.parse(toks[1])
        seq = _parse_int(toks[2], "seq")
        ts = _parse_int(toks[3], "timestamp")
        if seq < 0:
            raise Malformed(f"seq must be >= 0: {seq}")
        return Pub(topic, seq, ts, _parse_value(toks[4]))
    if kind == "HELLO":
        if len(toks) != 3:
            raise Malformed("HELLO wants 2 fields")
        return Hello(_check_segment(toks[1], "node_id"), _parse_int(toks[2], "proto_version"))
    if kind == "ACK":
        if len(toks) != 2:
            raise Malformed("ACK wants 1 field")
        return Ack(_parse_int(toks[1], "seq"))
    if kind == "ERR":
        if len(toks) < 3:
            raise Malformed("ERR wants code and message")
        return Err(toks[1], " ".join(toks[2:]))
    raise Malformed(f"unknown frame type {kind!r}")


def render_frame(frame: Frame) -> str:
    if isinstance(frame, Pub):
        line = f"PUB {frame.topic.render()} {frame.seq} {frame.timestamp} {frame.value!r}\n"
    elif isinstance(frame, Hello):
        line = f"HELLO {frame.node_id} {frame.proto_version}\n"
    elif isinstance(frame, Ack):
        line = f"ACK {frame.seq}\n"
    elif isinstance(frame, Err):
        line = f"ERR {frame.code} {frame.message}\n"
    else:
        raise TypeError(f"not a frame: {frame!r}")
    if len(line.encode("ascii")) > MAX_FRAME_BYTES:
        raise ValueError("rendered frame exceeds 512 bytes")
    return line


class Verdict(Enum):
    ACCEPT = "accept"
    DUPLICATE = "duplicate"
    OUT_OF_RANGE = "out_of_range"
    MALFORMED = "malformed"


@dataclass
class GatewayState:
    """Per-stream dedup state and frame counters.

    Invariant: accepted + duplicate + out_of_range + malformed equals the
    number of PUB-typed frames received.
    """

    last_seen: dict[tuple, int] = field(default_factory=dict)
    accepted: int = 0
    duplicate: int = 0
    out_of_range: int = 0
    malformed: int = 0
    pub_total: int = 0

    def counters_consistent(self) -> bool:
        return self.accepted + self.duplicate + self.out_of_range + self.malformed == self.pub_total


def validate_and_order(state: GatewayState, pub: Pub) -> Verdict:
    """Classify one parsed PUB frame and update dedup state/counters.

    Accept iff seq is beyond the stream's last-seen AND the value is within
    the channel's physical range; last-seen advances only on accept.
    """
    state.pub_total += 1
    key = pub.stream_key()
    if pub.seq <= state.last_seen.get(key, 0):
        state.duplicate += 1
        return Verdict.DUPLICATE
    if not value_in_range(pub.topic.channel, pub.value):
        state.out_of_range += 1
        return Verdict.OUT_OF_RANGE
    state.last_seen[key] = pub.seq
    state.accepted += 1
    return Verdict.ACCEPT


def classify_line(state: GatewayState, line: str | bytes) -> tuple[Verdict | None, Frame | None, str | None]:
    """Parse + classify one inbound line the way the gateway does.

    Returns (verdict, frame, error_reason). Verdict is None for valid
    non-PUB frames. Lines that look like PUB but fail to parse count
    against the malformed counter so the conservation identity holds.
    """
    head = line.strip(b"\n") if isinstance(line, bytes) else line.strip("\n")
    first = (head.split(b" ", 1) if isinstance(head, bytes) else head.split(" ", 1))[0]
    looks_pub = first in ("PUB", b"PUB")
    try:
        frame = parse_frame(line)
    except Malformed as e:
        if looks_pub:
            state.pub_total += 1
            state.malformed += 1
            return Verdict.MALFORMED, None, e.reason
        return None, None, e.reason
    if isinstance(frame, Pub):
        return validate_and_order(state, frame), frame, None
    return None, frame, None
