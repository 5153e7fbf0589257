from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from soilnet.core import TS_RANGE, Channel, RawReading
from soilnet.protocol import (
    Ack,
    Err,
    GatewayState,
    Hello,
    Malformed,
    Pub,
    Verdict,
    classify_line,
    parse_frame,
    parse_topic,
    render_frame,
    validate_and_order,
)

from oracles import naive_looks_pub

segment = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127),
    min_size=1,
    max_size=12,
)

pubs = st.builds(
    Pub,
    site=segment,
    reading=st.builds(
        RawReading,
        profile_id=segment,
        depth_cm=st.integers(1, 500),
        channel=st.sampled_from(list(Channel)),
        value=st.floats(allow_nan=False, allow_infinity=False, width=64),
        timestamp=st.integers(0, 2**32),
        seq=st.integers(1, 2**31),
    ),
)

frames = st.one_of(
    pubs,
    st.builds(Hello, node_id=segment, proto_version=st.integers(0, 99)),
    st.builds(Ack, seq=st.integers(0, 2**31)),
    st.builds(Err, code=segment, message=segment),
)


def _moisture(site="farm", profile="p1"):
    return Pub(site, RawReading(profile, 5, Channel.MOISTURE_VOLTAGE, 1.23, 1700000000, 42))


class TestTopic:
    def test_render(self):
        assert (render_frame(_moisture())
                == b"PUB site/farm/profile/p1/depth/5/moisture 42 1700000000 1.23\n")

    @given(pubs)
    def test_render_parse_bijection(self, pub):
        topic = render_frame(pub).split(b" ")[1].decode()
        r = pub.reading
        assert parse_topic(topic) == (pub.site, r.profile_id, r.depth_cm, r.channel)

    @pytest.mark.parametrize(
        "bad",
        [
            "site/farm/profile/p1/depth/5",
            "site/farm/profile/p1/depth/5/voltage",
            "site/farm/profile/p1/depth/-5/moisture",
            "site/farm/profile/p1/depth/0/moisture",
            "plot/farm/profile/p1/depth/5/moisture",
            "site//profile/p1/depth/5/moisture",
            "site/farm/profile/../depth/5/moisture",
            "site/farm/profile/./depth/5/moisture",
            "site/farm/profile/p\x00/depth/5/moisture",
            "site/./profile/p1/depth/5/moisture",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(Malformed):
            parse_topic(bad)

    def test_parse_cache_is_bounded_and_returns_equal_topics(self):
        s = "site/farm/profile/p1/depth/5/moisture"
        assert parse_topic(s) == parse_topic(s) == ("farm", "p1", 5, Channel.MOISTURE_VOLTAGE)
        assert parse_topic.cache_info().maxsize is not None

    def test_render_rejects_bad_segment(self):
        with pytest.raises(Malformed):
            render_frame(_moisture(site="a/b"))
        with pytest.raises(Malformed):
            render_frame(_moisture(profile="p 1"))


def _uncached_pub_line(pub):
    """A PUB's line written field by field, with no cached part: the bytes
    render_frame must give for a reading whose segments are plain."""
    r = pub.reading
    return (f"PUB site/{pub.site}/profile/{r.profile_id}/depth/{r.depth_cm}/{r.channel.value}"
            f" {r.seq} {r.timestamp} {r.value!r}\n").encode("ascii")


class TestPubPrefixCache:
    """render_frame keeps each stream's line up to its seq; a later PUB of
    that stream must render, or raise, as if nothing had been kept."""

    @pytest.mark.parametrize("first, later", [
        (5, 5.0), (5.0, 5), (1, True), (True, 1), (0.0, -0.0), (5, Decimal("5")),
        (Decimal("5"), Decimal("5.0")), (Decimal("5.0"), Decimal("5")),
    ])
    def test_depths_that_compare_equal_render_as_themselves(self, first, later):
        for depth in (first, later, first):
            pub = Pub("farm", RawReading("p1", depth, Channel.MOISTURE_VOLTAGE, 1.23, 1700000000, 42))
            assert render_frame(pub) == _uncached_pub_line(pub)

    def test_str_channel_raises_as_without_the_cache(self):
        def with_channel(channel):
            return Pub("farm", RawReading("p1", 5, channel, 1.23, 1700000000, 42))

        render_frame(with_channel(Channel.MOISTURE_VOLTAGE))
        for _ in range(3):
            # "moisture" == Channel.MOISTURE_VOLTAGE, with the same hash.
            with pytest.raises(AttributeError):
                render_frame(with_channel("moisture"))
        assert render_frame(with_channel(Channel.MOISTURE_VOLTAGE)) == _uncached_pub_line(
            with_channel(Channel.MOISTURE_VOLTAGE))

    @pytest.mark.parametrize("site, profile", [("a/b", "p1"), ("farm", "p 1"), ("farm", ""),
                                               ("f\x00", "p1"), ("farm", "..")])
    def test_bad_segment_raises_on_every_call(self, site, profile):
        for _ in range(3):
            with pytest.raises(ValueError):
                render_frame(_moisture(site=site, profile=profile))
        assert render_frame(_moisture()) == _uncached_pub_line(_moisture())

    def test_non_ascii_segment_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(UnicodeEncodeError):
                render_frame(_moisture(profile="p\u00e9"))

    @given(st.lists(pubs, min_size=1, max_size=20), st.data())
    def test_any_sequence_renders_as_uncached(self, seq, data):
        # Streams repeat, so later PUBs take their prefix from the cache.
        for pub in seq + [data.draw(st.sampled_from(seq)) for _ in seq]:
            assert render_frame(pub) == _uncached_pub_line(pub)


class TestParseFrame:
    def test_pub_example(self):
        f = parse_frame(b"PUB site/farm/profile/p1/depth/5/moisture 42 1700000000 1.23\n")
        assert f == _moisture()
        assert f.reading.recv_timestamp is None

    def test_hello_ack_err(self):
        assert parse_frame(b"HELLO node7 1\n") == Hello("node7", 1)
        assert parse_frame(b"ACK 42\n") == Ack(42)
        assert parse_frame(b"ERR malformed bad topic\n") == Err("malformed", "bad topic")

    @pytest.mark.parametrize(
        "bad",
        [
            b"PUB bad topic 1 2 3\n",
            b"PUB site/a/profile/b/depth/5/moisture 1 2\n",
            b"PUB site/a/profile/b/depth/5/moisture 1 2 nan\n",
            b"PUB site/a/profile/b/depth/5/moisture 1 2 inf\n",
            b"PUB site/a/profile/b/depth/5/moisture -1 2 1.0\n",
            b"PUB site/a/profile/b/depth/5/moisture 0 2 1.0\n",
            b"PUB site/a/profile/b/depth/5/moisture 1 -30610224001 1.0\n",
            b"PUB site/a/profile/b/depth/5/moisture 1 253402300800 1.0\n",
            b"PUB  site/a/profile/b/depth/5/moisture 1 2 1.0\n",
            b"pub site/a/profile/b/depth/5/moisture 1 2 1.0\n",
            b"\n",
            b" PUB x 1 2 3\n",
            b"PUB " + b"x" * 600 + b" 1 2 3\n",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(Malformed):
            parse_frame(bad)

    def test_timestamp_range_ends_accepted(self):
        for ts in TS_RANGE:
            line = f"PUB site/a/profile/b/depth/5/moisture 1 {ts} 1.0\n".encode()
            assert parse_frame(line).reading.timestamp == ts

    def test_bytes_input(self):
        f = parse_frame(b"ACK 7\n")
        assert f == Ack(7)
        with pytest.raises(Malformed):
            parse_frame(b"\xff\xfe\n")

    @given(frames)
    def test_render_parse_round_trip(self, frame):
        assert parse_frame(render_frame(frame)) == frame

    @given(frames)
    def test_round_trip_is_canonical(self, frame):
        line = render_frame(frame)
        assert render_frame(parse_frame(line)) == line


def _pub(seq=1, value=1.30, depth=5, channel=Channel.MOISTURE_VOLTAGE):
    return Pub("s", RawReading("p1", depth, channel, value, 1700000000, seq))


class TestValidateAndOrder:
    def test_fresh_stream_accepts(self):
        state = GatewayState("s")
        assert validate_and_order(state, _pub(seq=1)) is Verdict.ACCEPT
        assert state.accepted == 1

    def test_replay_is_duplicate(self):
        state = GatewayState("s")
        validate_and_order(state, _pub(seq=1))
        assert validate_and_order(state, _pub(seq=1)) is Verdict.DUPLICATE
        assert validate_and_order(state, _pub(seq=0)) is Verdict.DUPLICATE

    def test_out_of_range_moisture(self):
        state = GatewayState("s")
        assert validate_and_order(state, _pub(value=5.0)) is Verdict.OUT_OF_RANGE
        # last-seen not advanced: the same seq with a good value is accepted
        assert validate_and_order(state, _pub(value=1.0)) is Verdict.ACCEPT

    def test_temperature_range(self):
        state = GatewayState("s")
        ok = _pub(channel=Channel.TEMPERATURE_C, value=-54.0)
        bad = _pub(seq=2, channel=Channel.TEMPERATURE_C, value=130.0)
        assert validate_and_order(state, ok) is Verdict.ACCEPT
        assert validate_and_order(state, bad) is Verdict.OUT_OF_RANGE

    def test_streams_independent(self):
        state = GatewayState("s")
        assert validate_and_order(state, _pub(seq=5, depth=5)) is Verdict.ACCEPT
        assert validate_and_order(state, _pub(seq=5, depth=15)) is Verdict.ACCEPT

    def test_counter_conservation(self):
        state = GatewayState("s")
        for pub in [_pub(1), _pub(1), _pub(2, value=9.9), _pub(3), _pub(2)]:
            validate_and_order(state, pub)
        assert state.counters_consistent()
        assert (state.accepted, state.duplicate, state.out_of_range) == (2, 2, 1)

    def test_foreign_site_is_refused_before_dedup(self):
        state = GatewayState("A")
        foreign = Pub("B", RawReading("p1", 5, Channel.MOISTURE_VOLTAGE, 1.3, 1700000000, 1))
        assert validate_and_order(state, foreign, store=pytest.fail) is Verdict.FOREIGN_SITE
        assert (state.foreign_site, state.pub_total, state.last_seen) == (1, 1, {})
        assert state.counters_consistent()


class TestClassifyLine:
    def test_valid_pub(self):
        state, stored = GatewayState("s"), []
        verdict, reply = classify_line(
            state, b"PUB site/s/profile/p1/depth/5/moisture 1 1700000000 1.3\n", stored.append
        )
        assert verdict is Verdict.ACCEPT and reply == Ack(1)
        assert isinstance(stored[0], Pub)

    def test_broken_pub_counts_malformed(self):
        state = GatewayState("s")
        verdict, reply = classify_line(state, b"PUB junk\n", pytest.fail)
        assert verdict is Verdict.MALFORMED and reply.code == "malformed" and reply.message
        assert state.malformed == 1 and state.counters_consistent()

    def test_malformed_topic_sent_twice_is_answered_and_counted_twice(self):
        # A failed parse_topic is not cached, so the repeat is checked again.
        state = GatewayState("s")
        line = b"PUB site/s/profile/p1/depth/0/moisture 1 1700000000 1.3\n"
        replies = [classify_line(state, line, pytest.fail) for _ in range(2)]
        assert replies == [(Verdict.MALFORMED, Err("malformed", "topic depth: '0'"))] * 2
        assert (state.malformed, state.pub_total) == (2, 2) and state.counters_consistent()

    def test_non_pub_garbage_not_counted(self):
        state = GatewayState("s")
        verdict, reply = classify_line(state, b"GARBAGE\n", pytest.fail)
        assert verdict is None and reply.code == "malformed" and reply.message
        assert state.pub_total == 0 and state.counters_consistent()

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_never_raise(self, data):
        state = GatewayState("s")
        classify_line(state, data + b"\n", [].append)
        assert state.counters_consistent()

    @given(st.one_of(
        st.binary(max_size=64),
        st.text(max_size=64).map(str.encode),
        st.builds(lambda head, tail: head + tail,
                  st.sampled_from([b"PUB", b"PUB ", b"\nPUB ", b"\n\nPUB", b" PUB ", b"PUBX ",
                                   b"PUB\r ", b"PUB site/s/profile/p1/depth/5/moisture "]),
                  st.binary(max_size=32)),
    ))
    def test_malformed_pub_exactly_when_the_old_rule_says_pub(self, line):
        # The first-token test runs only on lines that fail to parse; it
        # must count the lines the old pre-split counted.
        state = GatewayState("s")
        verdict, reply = classify_line(state, line, [].append)
        malformed = isinstance(reply, Err) and reply.code == "malformed"
        assert (verdict is Verdict.MALFORMED) == (malformed and naive_looks_pub(line))
        assert state.pub_total == naive_looks_pub(line)
