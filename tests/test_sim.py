import dataclasses
import math
import random
import statistics
import sys
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import naive_rain_events
from soilnet import core, sim, store
from soilnet.core import FIELD_CALIBRATION, Channel, apply_calibration
from soilnet.sim import (
    NotInvertible,
    ProfileConfig,
    UnknownDepth,
    default_field_model,
    ground_truth,
    run_node,
    step,
    tick_times,
    vwc_to_voltage,
)

FIELD = default_field_model()
PROFILE = ProfileConfig("p1", seed=42)
DAY_S = 86400


class TestGroundTruth:
    def test_deterministic(self):
        for t in (0, 900, 86400 * 3 + 1800):
            assert ground_truth(FIELD, 42, t, 5) == ground_truth(FIELD, 42, t, 5)

    def test_temperature_amplitude_attenuates_with_depth(self):
        assert FIELD.response(100).temp_amp_factor < FIELD.response(5).temp_amp_factor
        factors = [FIELD.response(d).temp_amp_factor for d in (5, 15, 50, 100)]
        assert factors == sorted(factors, reverse=True)

    def test_unknown_depth(self):
        with pytest.raises(UnknownDepth):
            ground_truth(FIELD, 42, 0, 33)

    def test_surface_temperature_more_variable_over_ten_days(self):
        times = range(0, 10 * 86400, 900)
        surf = [ground_truth(FIELD, 42, t, 5)[1] for t in times]
        deep = [ground_truth(FIELD, 42, t, 100)[1] for t in times]
        assert statistics.stdev(surf) > statistics.stdev(deep)

    def test_vwc_bands_nested_and_within_surface_range(self):
        times = range(0, 10 * 86400, 900)
        lo, hi = FIELD.vwc_surface_range
        surf = [ground_truth(FIELD, 42, t, 5)[0] for t in times]
        deep = [ground_truth(FIELD, 42, t, 100)[0] for t in times]
        assert lo <= min(surf) and max(surf) <= hi
        assert min(surf) <= min(deep) and max(deep) <= max(surf)

    def test_subsurface_mean_vwc_at_least_surface_in_dry_down(self):
        # Seed 42 has no rain in the first days; pure dry-down window.
        times = range(0, 4 * 86400, 900)
        surf = [ground_truth(FIELD, 42, t, 5)[0] for t in times]
        deep = [ground_truth(FIELD, 42, t, 100)[0] for t in times]
        assert statistics.mean(deep) >= statistics.mean(surf)

    def test_temperature_within_sensor_range(self):
        for t in range(0, 5 * 86400, 3600):
            for d in (5, 15, 50, 100):
                _, temp = ground_truth(FIELD, 42, t, d)
                assert -55.0 <= temp <= 125.0


def _hex(pair):
    return tuple(v.hex() for v in pair)


def naive_ground_truth(fieldm, seed, t_s, depth_cm):
    """ground_truth with every day's rain events redrawn by the oracle."""
    with mock.patch.object(sim, "_rain_events", naive_rain_events):
        return ground_truth(fieldm, seed, t_s, depth_cm)


def _matches_oracle(fieldm, seed, t_s):
    for depth in fieldm.depth_responses:
        assert _hex(ground_truth(fieldm, seed, t_s, depth)) == \
            _hex(naive_ground_truth(fieldm, seed, t_s, depth)), (seed, t_s, depth)


@pytest.fixture
def fresh_rain_cache(monkeypatch):
    monkeypatch.setattr(sim, "_RAIN_LOGS", {})


# Instants on and around UTC day boundaries, and anywhere within a day.
near_day_boundary = st.builds(
    lambda day, offset: day * DAY_S + offset,
    st.integers(0, 40),
    st.sampled_from([-900, -1, 0, 1, 900]) | st.integers(0, DAY_S - 1),
)


class TestRainEventCache:
    """ground_truth over the per-process rain-event cache against the
    naive oracle that redraws every day on each call, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(-3, 10**6), t_s=near_day_boundary,
           rate=st.sampled_from([0.3, 2.5]))
    @example(seed=0, t_s=-1, rate=0.3)
    def test_ground_truth_matches_oracle(self, seed, t_s, rate):
        _matches_oracle(dataclasses.replace(FIELD, rain_event_rate_per_day=rate), seed, t_s)

    def test_out_of_time_order_calls(self, fresh_rain_cache):
        for day in (20, 1, 35, 0, 20):
            for offset in (0, DAY_S // 2, DAY_S - 1):
                _matches_oracle(FIELD, 7, day * DAY_S + offset)
        assert list(sim._rain_events(7, FIELD.rain_event_rate_per_day, 35 * DAY_S)) == \
            naive_rain_events(7, FIELD.rain_event_rate_per_day, 35 * DAY_S)

    def test_threads_on_one_seed(self, monkeypatch):
        fieldm = dataclasses.replace(FIELD, rain_event_rate_per_day=2.5)
        # Latest first: every thread extends the same log from day 0 at once.
        times = range(30 * DAY_S, 0, -3 * 3600)
        expected = [_hex(naive_ground_truth(fieldm, 11, t, 5)) for t in times]

        def race():
            results, errors = [], []
            start = threading.Barrier(4)

            def run():
                try:
                    start.wait(timeout=10)
                    results.append([_hex(ground_truth(fieldm, 11, t, 5)) for t in times])
                except Exception as e:  # surfaced by the assertion below
                    errors.append(e)

            threads = [threading.Thread(target=run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads) and errors == []
            return results

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(sim, "_RAIN_LOGS", {})
                results = race()
                assert len(results) == 4 and all(r == expected for r in results)
        finally:
            sys.setswitchinterval(old)

    def test_random_constructions_per_reading_flat_in_run_length(self, monkeypatch,
                                                                 fresh_rain_cache):
        built = 0

        class CountingRandom(random.Random):
            def __init__(self, *args):
                nonlocal built
                built += 1
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", CountingRandom)

        def per_reading(days):
            nonlocal built
            built = readings = 0
            for t in tick_times(days * DAY_S, PROFILE.cadence_s):
                readings += len(step(PROFILE, FIELD, FIELD_CALIBRATION, t))
            return built / readings

        # One noise draw per reading plus one rain draw per simulated day.
        short, long = per_reading(2), per_reading(30)
        assert abs(long - short) < 0.01, (short, long)


class TestVoltageInversion:
    def test_round_trip_at_known_voltage(self):
        vwc = apply_calibration(FIELD_CALIBRATION, 1.30)
        assert vwc_to_voltage(FIELD_CALIBRATION, vwc) == pytest.approx(1.30, abs=1e-9)

    def test_table_row_inverts(self):
        assert vwc_to_voltage(FIELD_CALIBRATION, 43.21) == pytest.approx(1.23, abs=0.01)

    def test_not_invertible_outside_branch(self):
        with pytest.raises(NotInvertible):
            vwc_to_voltage(FIELD_CALIBRATION, 200.0)


class TestStep:
    def test_one_tick_emits_pair_per_depth(self):
        readings = step(PROFILE, FIELD, FIELD_CALIBRATION, 0)
        assert len(readings) == 8
        by_channel = {}
        for r in readings:
            by_channel.setdefault(r.channel, []).append(r.depth_cm)
        assert sorted(by_channel[Channel.MOISTURE_VOLTAGE]) == [5, 15, 50, 100]
        assert sorted(by_channel[Channel.TEMPERATURE_C]) == [5, 15, 50, 100]

    def test_seq_increments_by_one_per_stream(self):
        first = step(PROFILE, FIELD, FIELD_CALIBRATION, 0)
        second = step(PROFILE, FIELD, FIELD_CALIBRATION, 900)
        for a, b in zip(first, second):
            assert (a.profile_id, a.depth_cm, a.channel) == (b.profile_id, b.depth_cm, b.channel)
            assert b.seq == a.seq + 1

    def test_48h_grid_has_193_ticks(self):
        assert len(tick_times(48 * 3600, 900)) == 193

    def test_unaligned_time_rejected(self):
        with pytest.raises(ValueError):
            step(PROFILE, FIELD, FIELD_CALIBRATION, 450)

    def test_voltages_within_physical_range(self):
        for t in tick_times(48 * 3600, 900):
            for r in step(PROFILE, FIELD, FIELD_CALIBRATION, t):
                if r.channel is Channel.MOISTURE_VOLTAGE:
                    assert 0.0 < r.value <= 3.3

    def test_temperature_quantized_to_sixteenth(self):
        for r in step(PROFILE, FIELD, FIELD_CALIBRATION, 0):
            if r.channel is Channel.TEMPERATURE_C:
                assert r.value * 16 == pytest.approx(round(r.value * 16), abs=1e-9)

    def test_run_determinism_byte_identical(self):
        def run():
            out = []
            for t in tick_times(24 * 3600, 900):
                out.extend(step(PROFILE, FIELD, FIELD_CALIBRATION, t))
            return out

        assert run() == run()

    def test_different_seeds_differ(self):
        other = ProfileConfig("p1", seed=43)
        assert step(PROFILE, FIELD, FIELD_CALIBRATION, 0) != step(other, FIELD, FIELD_CALIBRATION, 0)


def test_one_reading_record_as_perfbench_uses_it():
    # perfbench builds six-field readings, seven-field stored rows, and
    # calls dataclasses.replace on sim.step's output.
    reading = core.RawReading("p1", 5, Channel.TEMPERATURE_C, 21.5, 1700000000, 3)
    assert (reading.recv_timestamp, reading.vwc_percent) == (None, None)
    assert store.StoredRow is core.RawReading
    row = store.StoredRow("p1", 5, Channel.MOISTURE_VOLTAGE, 1.3, 1700000000, 3, 1700000060, 40.5)
    assert (row.recv_timestamp, row.vwc_percent) == (1700000060, 40.5)
    readings = step(PROFILE, FIELD, FIELD_CALIBRATION, 900, start_ts=1700000000)
    assert all(r.recv_timestamp == r.timestamp == 1700000900 for r in readings)
    changed = dataclasses.replace(readings[0], value=2.0)
    assert (changed.value, changed.recv_timestamp) == (2.0, readings[0].recv_timestamp)


class _ListTransport:
    def __init__(self):
        self.sent = []

    def publish(self, reading):
        self.sent.append(reading)


def test_run_node_publishes_every_tick():
    transport = _ListTransport()
    counters = run_node(PROFILE, FIELD, FIELD_CALIBRATION, transport, duration_s=4 * 3600)
    assert counters["published"] == len(transport.sent) == 17 * 8


def test_profile_config_validation():
    with pytest.raises(ValueError):
        ProfileConfig("p", depths_cm=())
    with pytest.raises(ValueError):
        ProfileConfig("p", depths_cm=(15, 5))
    with pytest.raises(ValueError):
        ProfileConfig("p", cadence_s=0)


@pytest.mark.parametrize("clock_scale", [0.0, -900.0, math.nan])
def test_profile_config_rejects_non_positive_clock_scale(clock_scale):
    # run_node paces on cadence_s / clock_scale
    with pytest.raises(ValueError):
        ProfileConfig("p", clock_scale=clock_scale)
