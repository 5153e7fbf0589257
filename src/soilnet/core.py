"""Domain types and numerics: the reading record and the rules every layer
applies to it, gravimetric water content, sensor calibration.

All functions here are pure; no I/O, no shared state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum


class Channel(str, Enum):
    MOISTURE_VOLTAGE = "moisture"
    TEMPERATURE_C = "temperature"


# The member itself, so that a test per reading skips the lookup through the
# enum class.
_MOISTURE = Channel.MOISTURE_VOLTAGE


# Physical sensor ranges used for gateway-side validation.
MOISTURE_VOLT_RANGE = (0.0, 3.3)
TEMPERATURE_C_RANGE = (-55.0, 125.0)


def value_in_range(channel: Channel, value: float) -> bool:
    lo, hi = MOISTURE_VOLT_RANGE if channel is _MOISTURE else TEMPERATURE_C_RANGE
    return math.isfinite(value) and lo <= value <= hi


# Unix seconds of years 1000-9999 (UTC), the range the store's ISO-8601
# rows and day partitions round-trip: the protocol accepts, and the store
# appends, only timestamps within it.
TS_RANGE = (-30610224000, 253402300799)


def plain_segment(seg: str) -> bool:
    """Whether ``seg`` can name one path segment: a topic's site or
    profile, a store's profile directory. isprintable() is False for NUL,
    which no path holds, and for line breaks, tabs and every other
    whitespace character but " ", which no CSV reader reads back as written."""
    return seg not in ("", ".", "..") and "/" not in seg and seg.isprintable()


@dataclass(slots=True)
class RawReading:
    """One timestamped sensor sample (volts for moisture, °C for temperature),
    from the node to the store: the one reading record of the pipeline.

    It holds both clocks, in unix seconds, UTC, second resolution:
    ``timestamp`` is the node's, ``recv_timestamp`` the gateway's, None
    until the reading is received (``sim.step`` sets it to the node time, as
    ``simulate --offline`` stores it). ``seq`` increases strictly within
    each (profile_id, depth_cm, channel) stream. ``vwc_percent`` is filled
    only by ``store.rows_with_vwc``.
    """

    profile_id: str
    depth_cm: int
    channel: Channel
    value: float
    timestamp: int
    seq: int
    recv_timestamp: int | None = None
    vwc_percent: float | None = None


class NonPositiveDryMass(ValueError):
    pass


class NegativeWater(ValueError):
    pass


@dataclass(frozen=True)
class GravimetricSample:
    """Oven-dry calibration sample: wet/dry masses plus densities."""

    mass_wet_g: float
    mass_dry_g: float
    bulk_density_g_cm3: float
    water_density_g_cm3: float = 1.0
    site_tag: str = ""
    depth_cm: int = 0


def gravimetric_vwc(sample: GravimetricSample) -> float:
    """Volumetric water content (dimensionless fraction) from an oven-dried
    soil sample: ((m_wet - m_dry) / m_dry) * (rho_bulk / rho_water).

    Multiply by 100 for percent.
    """
    if sample.mass_dry_g <= 0:
        raise NonPositiveDryMass(f"dry mass must be > 0, got {sample.mass_dry_g}")
    if sample.mass_wet_g < sample.mass_dry_g:
        raise NegativeWater(
            f"wet mass {sample.mass_wet_g} < dry mass {sample.mass_dry_g}"
        )
    if sample.bulk_density_g_cm3 <= 0 or sample.water_density_g_cm3 <= 0:
        raise ValueError("densities must be strictly positive")
    return (
        (sample.mass_wet_g - sample.mass_dry_g)
        / sample.mass_dry_g
        * (sample.bulk_density_g_cm3 / sample.water_density_g_cm3)
    )


class Transform(str, Enum):
    """Input transform applied to the sensor voltage before the quadratic."""

    RECIPROCAL = "reciprocal"
    IDENTITY = "identity"


class ZeroVoltage(ValueError):
    pass


class InsufficientPoints(ValueError):
    pass


class SingularSystem(ValueError):
    pass


@dataclass(frozen=True)
class CalibrationModel:
    """Quadratic voltage-to-VWC calibration: vwc% = a*x^2 + b*x + c where
    x is 1/voltage (RECIPROCAL) or the raw voltage (IDENTITY)."""

    a: float
    b: float
    c: float
    transform: Transform = Transform.RECIPROCAL
    fit_rmse: float = 0.0
    fit_r2: float = 1.0
    n_points: int = 0

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "transform": self.transform.value,
            "fit_rmse": self.fit_rmse,
            "fit_r2": self.fit_r2,
            "n_points": self.n_points,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationModel":
        return cls(
            a=float(d["a"]),
            b=float(d["b"]),
            c=float(d["c"]),
            transform=Transform(d.get("transform", "reciprocal")),
            fit_rmse=float(d.get("fit_rmse", 0.0)),
            fit_r2=float(d.get("fit_r2", 1.0)),
            n_points=int(d.get("n_points", 0)),
        )


# Field calibration of the capacitive probes against gravimetric samples.
FIELD_CALIBRATION = CalibrationModel(a=-71.789, b=158.04, c=-37.711, transform=Transform.RECIPROCAL)


def _transform_voltage(transform: Transform, voltage: float) -> float:
    if transform is Transform.RECIPROCAL:
        if voltage <= 0:
            raise ZeroVoltage(f"voltage must be > 0 for reciprocal transform, got {voltage}")
        return 1.0 / voltage
    return voltage


def apply_calibration(model: CalibrationModel, voltage: float) -> float:
    """Convert a sensor voltage to volumetric water content in percent.

    Returns the raw polynomial value without clamping; callers attach a
    [0, 100] validity flag downstream if they need one.
    """
    x = _transform_voltage(model.transform, voltage)
    return model.a * x * x + model.b * x + model.c


def _dot(p: list[float], q: list[float]) -> float:
    return math.fsum(map(operator.mul, p, q))


def fit_calibration(
    points: list[tuple[float, float]],
    transform: Transform = Transform.RECIPROCAL,
) -> CalibrationModel:
    """Ordinary least-squares quadratic fit of VWC% on transformed voltage.

    Solves the normal equations on a mean-centered design for conditioning.
    Requires at least 3 distinct transformed x values.
    """
    if len(points) < 3:
        raise InsufficientPoints(f"need >= 3 points, got {len(points)}")
    xs = [_transform_voltage(transform, v) for v, _ in points]
    ys = [vwc for _, vwc in points]
    if len(set(xs)) < 3:
        raise InsufficientPoints("need >= 3 distinct transformed x values")

    # Center the x^2 and x columns; the intercept is recovered afterwards.
    n = len(points)
    u_mean = math.fsum(x * x for x in xs) / n
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    uc = [x * x - u_mean for x in xs]
    xc = [x - x_mean for x in xs]
    yc = [y - y_mean for y in ys]
    suu, sux, sxx = _dot(uc, uc), _dot(uc, xc), _dot(xc, xc)
    # The Gram matrix [[suu, sux], [sux, sxx]] is symmetric, so its 2-norm
    # condition number is lmax / lmin = lmax**2 / det (lmin = det / lmax).
    det = suu * sxx - sux * sux
    lmax = (suu + sxx) / 2 + math.hypot((suu - sxx) / 2, sux)
    if det <= 0 or lmax * lmax / det > 1e12:
        raise SingularSystem("design matrix is rank-deficient or near-singular")
    suy, sxy = _dot(uc, yc), _dot(xc, yc)
    a = (sxx * suy - sux * sxy) / det
    b = (suu * sxy - sux * suy) / det
    c = y_mean - a * u_mean - b * x_mean

    resid = [y - (a * x * x + b * x + c) for x, y in zip(xs, ys)]
    ss_res = _dot(resid, resid)
    ss_tot = _dot(yc, yc)
    fit_rmse = math.sqrt(ss_res / n)
    fit_r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return CalibrationModel(
        a=a, b=b, c=c, transform=transform,
        fit_rmse=fit_rmse, fit_r2=fit_r2, n_points=len(points),
    )

