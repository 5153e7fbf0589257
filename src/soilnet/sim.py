"""Deterministic sensor-profile simulator.

Ground truth is a diurnal sinusoid for temperature and an exponential
dry-down with seeded rain events for moisture. Amplitudes attenuate and
phase/response lags grow with depth, so surface series are more variable
than subsurface ones and subsurface moisture sits higher and smoother.

Everything is a pure function of (config, field model, seed, time), so two
runs with the same inputs produce byte-identical reading sequences.
"""

from __future__ import annotations

import math
import random
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice

from soilnet.core import CalibrationModel, Channel, RawReading

DAY_S = 86400


class UnknownDepth(KeyError):
    pass


class NotInvertible(ValueError):
    pass


# Voltage window the capacitive probe can physically produce.
VOLTAGE_WINDOW = (0.5, 3.3)


@dataclass(frozen=True)
class ProfileConfig:
    profile_id: str
    depths_cm: tuple[int, ...] = (5, 15, 50, 100)
    cadence_s: int = 900
    seed: int = 0
    clock_scale: float = math.inf

    def __post_init__(self):
        if not self.depths_cm:
            raise ValueError("depths_cm must be non-empty")
        if list(self.depths_cm) != sorted(set(self.depths_cm)) or self.depths_cm[0] <= 0:
            raise ValueError("depths_cm must be strictly increasing and positive")
        if self.cadence_s <= 0:
            raise ValueError("cadence_s must be > 0")
        if not self.clock_scale > 0:
            raise ValueError("clock_scale must be > 0")


@dataclass(frozen=True)
class DepthResponse:
    """Per-depth attenuation/lag parameters."""

    temp_amp_factor: float      # diurnal temperature amplitude multiplier, <= 1
    temp_phase_lag_h: float     # hours of diurnal phase lag
    vwc_floor: float            # dry-down asymptote, %VWC
    vwc_amp: float              # max wetting excursion above the floor, %VWC
    rain_lag_h: float           # hours before a rain event reaches this depth
    drying_time_constant_h: float


def _default_depth_response(depth_cm: int, vwc_range: tuple[float, float]) -> DepthResponse:
    # vwc_range is the band at depth 0; deeper layers sit on a higher,
    # narrower band with slower dynamics.
    lo, hi = vwc_range
    att = math.exp(-depth_cm / 35.0)
    return DepthResponse(
        temp_amp_factor=math.exp(-depth_cm / 30.0),
        temp_phase_lag_h=depth_cm * 0.06,
        vwc_floor=lo + 6.6 * (1.0 - math.exp(-depth_cm / 40.0)),
        vwc_amp=(hi - lo) * att,
        rain_lag_h=depth_cm * 0.1,
        drying_time_constant_h=48.0 + depth_cm * 1.5,
    )


@dataclass(frozen=True)
class SoilFieldModel:
    vwc_surface_range: tuple[float, float] = (29.46, 43.31)
    temp_range: tuple[float, float] = (14.98, 23.79)
    rain_event_rate_per_day: float = 0.3
    diurnal_temp_amplitude_c: float = (23.79 - 14.98) / 2.0
    noise_sigma_voltage: float = 0.005
    noise_sigma_temp_c: float = 0.05
    depth_responses: dict[int, DepthResponse] = field(default_factory=dict)

    def __post_init__(self):
        if self.vwc_surface_range[0] >= self.vwc_surface_range[1]:
            raise ValueError("vwc_surface_range must be ordered min < max")
        if self.temp_range[0] >= self.temp_range[1]:
            raise ValueError("temp_range must be ordered min < max")
        amps = [r.temp_amp_factor for _, r in sorted(self.depth_responses.items())]
        if any(a2 >= a1 for a1, a2 in zip(amps, amps[1:])):
            raise ValueError("amplitude attenuation must strictly decrease with depth")

    def response(self, depth_cm: int) -> DepthResponse:
        try:
            return self.depth_responses[depth_cm]
        except KeyError:
            raise UnknownDepth(depth_cm) from None


def default_field_model(depths_cm: tuple[int, ...] = ProfileConfig.depths_cm,
                        **params) -> SoilFieldModel:
    """The field model with ``params`` (SoilFieldModel fields other than
    ``depth_responses``) over its defaults, and a response for each of
    ``depths_cm`` whose moisture band derives from ``vwc_surface_range``.
    A ``temp_range`` given without ``diurnal_temp_amplitude_c`` sets the
    amplitude to half its width, so the temperature stays in the band."""
    vwc_range = params.get("vwc_surface_range", SoilFieldModel.vwc_surface_range)
    if "temp_range" in params and "diurnal_temp_amplitude_c" not in params:
        band = params["temp_range"]
        params["diurnal_temp_amplitude_c"] = (band[1] - band[0]) / 2.0
    return SoilFieldModel(
        depth_responses={d: _default_depth_response(d, vwc_range) for d in depths_cm}, **params
    )


class _RainLog:
    """Rain arrivals of one (seed, rate), built one day at a time and only
    ever extended. ``events`` holds (time_s, strength in (0,1]) in time
    order; ``ends[day]`` is the number of events in days 0..day."""

    def __init__(self, seed: int, rate_per_day: float):
        self.seed = seed
        self.rate_per_day = rate_per_day
        self.events: list[tuple[int, float]] = []
        self.ends: list[int] = []

    def extend_to(self, day: int) -> None:
        target = math.exp(-self.rate_per_day)
        for d in range(len(self.ends), day + 1):
            rng = random.Random(f"rain:{self.seed}:{d}")
            # Poisson count by inversion (rate is small, so the loop is short).
            n, p = 0, rng.random()
            while p > target:
                n += 1
                p *= rng.random()
            day_events = [(d * DAY_S + int(rng.random() * DAY_S), 0.5 + 0.5 * rng.random())
                          for _ in range(n)]
            # Days do not overlap, so sorting each day keeps the whole list sorted.
            self.events.extend(sorted(day_events))
            self.ends.append(len(self.events))  # last: readers check ends first


# One log per (seed, rate) for the life of the process: a few events per
# simulated day. Readers go lock-free through the append-only lists; the
# lock only serialises extension (online simulate runs a thread per profile).
_RAIN_LOGS: dict[tuple[int, float], _RainLog] = {}
_RAIN_LOCK = threading.Lock()


def _rain_events(seed: int, rate_per_day: float, upto_s: int) -> Iterable[tuple[int, float]]:
    """Deterministic Poisson rain arrivals as (time_s, strength in (0,1])
    for every day up to and including the day containing ``upto_s``, in
    time order. Each day is drawn once per process."""
    day = upto_s // DAY_S
    if day < 0:
        return ()
    log = _RAIN_LOGS.get((seed, rate_per_day))
    if log is None or len(log.ends) <= day:
        with _RAIN_LOCK:
            log = _RAIN_LOGS.setdefault((seed, rate_per_day), _RainLog(seed, rate_per_day))
            log.extend_to(day)
    return islice(log.events, log.ends[day])


def ground_truth(
    model: SoilFieldModel, seed: int, t_s: int, depth_cm: int
) -> tuple[float, float]:
    """Noise-free (vwc_percent, temperature_c) at simulated time ``t_s``
    (seconds from run start) and the given depth."""
    r = model.response(depth_cm)

    t_mid = (model.temp_range[0] + model.temp_range[1]) / 2.0
    amp = model.diurnal_temp_amplitude_c * r.temp_amp_factor
    phase = 2.0 * math.pi * (t_s / DAY_S) - r.temp_phase_lag_h * 2.0 * math.pi / 24.0
    temperature = t_mid + amp * math.sin(phase)

    tau_s = r.drying_time_constant_h * 3600.0
    # Initial wetness decays from mid-band toward the floor.
    level = 0.6 * math.exp(-t_s / tau_s)
    for ev_t, strength in _rain_events(seed, model.rain_event_rate_per_day, t_s):
        dt = t_s - (ev_t + r.rain_lag_h * 3600.0)
        if dt >= 0:
            level += strength * math.exp(-dt / tau_s)
    vwc = r.vwc_floor + r.vwc_amp * min(level, 1.0)
    return vwc, temperature


def vwc_to_voltage(model: CalibrationModel, vwc_percent: float) -> float:
    """Invert the calibration quadratic, selecting the root on the physical
    branch (voltage in (0.5, 3.3], higher voltage = drier soil)."""
    a, b, c = model.a, model.b, model.c
    lo, hi = VOLTAGE_WINDOW
    if a == 0.0:
        if b == 0.0:
            raise NotInvertible("constant calibration cannot be inverted")
        roots = [(vwc_percent - c) / b]
    else:
        disc = b * b - 4.0 * a * (c - vwc_percent)
        if disc < 0:
            raise NotInvertible(f"no real root for vwc={vwc_percent}")
        sq = math.sqrt(disc)
        roots = [(-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)]
    if model.transform.value == "reciprocal":
        candidates = [1.0 / x for x in roots if x > 0]
    else:
        candidates = roots
    candidates = [v for v in candidates if lo < v <= hi]
    if not candidates:
        raise NotInvertible(f"no root in voltage window for vwc={vwc_percent}")
    return max(candidates)


def _noise(seed: int, t_s: int, depth_cm: int, channel: Channel, sigma: float) -> float:
    if sigma <= 0:
        return 0.0
    rng = random.Random(f"noise:{seed}:{t_s}:{depth_cm}:{channel.value}")
    return rng.gauss(0.0, sigma)


def step(
    profile: ProfileConfig,
    fieldm: SoilFieldModel,
    cal: CalibrationModel,
    t_s: int,
    start_ts: int = 0,
) -> list[RawReading]:
    """Readings for one cadence tick: a moisture-voltage and a temperature
    reading per configured depth. ``t_s`` is seconds from run start and must
    lie on the cadence grid; timestamps are ``start_ts + t_s``, on the node
    clock and, as ``simulate --offline`` stores them, the receive clock."""
    if t_s % profile.cadence_s != 0:
        raise ValueError(f"t={t_s} not aligned to cadence {profile.cadence_s}")
    seq = t_s // profile.cadence_s + 1
    readings = []
    for depth in profile.depths_cm:
        vwc, temp = ground_truth(fieldm, profile.seed, t_s, depth)
        volts = vwc_to_voltage(cal, vwc)
        volts += _noise(profile.seed, t_s, depth, Channel.MOISTURE_VOLTAGE,
                        fieldm.noise_sigma_voltage)
        volts = min(max(volts, 1e-6), 3.3)
        temp += _noise(profile.seed, t_s, depth, Channel.TEMPERATURE_C,
                       fieldm.noise_sigma_temp_c)
        temp = round(temp * 16.0) / 16.0  # probe quantizes to 1/16 degC
        ts = start_ts + t_s
        readings.append(RawReading(profile.profile_id, depth,
                                   Channel.MOISTURE_VOLTAGE, volts, ts, seq, ts))
        readings.append(RawReading(profile.profile_id, depth,
                                   Channel.TEMPERATURE_C, temp, ts, seq, ts))
    return readings


def tick_times(duration_s: int, cadence_s: int) -> range:
    """Cadence grid covering [0, duration_s], endpoints inclusive."""
    return range(0, duration_s + 1, cadence_s)


def run_node(
    profile: ProfileConfig,
    fieldm: SoilFieldModel,
    cal: CalibrationModel,
    transport,
    duration_s: int,
    start_ts: int = 0,
) -> dict:
    """Generate and publish every tick's readings through ``transport``
    (an object with a ``publish(reading)`` method, see gateway.GatewayClient).

    Paced by ``profile.clock_scale``: after each tick the node sleeps
    ``cadence_s / clock_scale`` wall seconds, so 1.0 is real time and 900
    one 15-minute tick a second; an infinite scale (the default) runs as
    fast as possible. Returns counters.
    """
    published = 0
    for t_s in tick_times(duration_s, profile.cadence_s):
        for reading in step(profile, fieldm, cal, t_s, start_ts):
            transport.publish(reading)
            published += 1
        if math.isfinite(profile.clock_scale):
            time.sleep(profile.cadence_s / profile.clock_scale)
    counters = {"published": published}
    if hasattr(transport, "counters"):
        counters.update(transport.counters)
    return counters
