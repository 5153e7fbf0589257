"""Validation analytics: RMSE, Pearson correlation, min/max summaries,
per-depth variability, surface/subsurface contrast and report rendering.

All computations are pure functions over immutable snapshots. Undefined
statistics (zero variance, zero mean, n < 2) are returned as None rather
than raised.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_left
from dataclasses import dataclass

from soilnet.core import Channel
from soilnet.store import StoredRow, iso_utc

SURFACE_BOUNDARY_CM = 30  # active / sub-active layer split


class LengthMismatch(ValueError):
    pass


class EmptySeries(ValueError):
    pass


class MissingLayer(ValueError):
    pass


class NoOverlap(ValueError):
    pass


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def rmse(a, b) -> float:
    """Root of the mean squared difference between two equal-length series."""
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)}")
    if len(a) == 0:
        raise EmptySeries("rmse of empty series")
    return math.dist(a, b) / math.sqrt(len(a))


def pearson(a, b) -> float | None:
    """Sample Pearson correlation; None when either series is constant."""
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)}")
    if len(a) < 2:
        raise EmptySeries("pearson needs length >= 2")
    ma, mb = _mean(a), _mean(b)
    sx = math.dist(a, [ma] * len(a))
    sy = math.dist(b, [mb] * len(b))
    if sx == 0.0 or sy == 0.0:
        return None
    return math.fsum((x - ma) * (y - mb) for x, y in zip(a, b)) / (sx * sy)


def sample_std(values) -> float | None:
    """Sample (n-1) standard deviation; None for n < 2."""
    n = len(values)
    if n < 2:
        return None
    return math.dist(values, [_mean(values)] * n) / math.sqrt(n - 1)


def coefficient_of_variation(values) -> float | None:
    std = sample_std(values)
    if std is None:
        return None
    mean = _mean(values)
    if mean == 0.0:
        return None
    return std / mean


@dataclass(frozen=True)
class ChannelExtrema:
    minimum: float
    maximum: float
    mean: float


@dataclass(frozen=True)
class DepthStats:
    depth_cm: int
    channel: Channel
    n: int
    mean: float
    std: float | None
    cv: float | None


@dataclass(frozen=True)
class Summary:
    extrema: dict[Channel, ChannelExtrema]
    depth_stats: list[DepthStats]


def summarize(rows: list[StoredRow]) -> Summary:
    """Min/max/mean per channel plus per-(depth, channel) std and CV."""
    if not rows:
        raise EmptySeries("summarize of no rows")
    by_channel: dict[Channel, list[float]] = {}
    by_depth: dict[tuple[int, Channel], list[float]] = {}
    for row in rows:
        by_channel.setdefault(row.channel, []).append(row.value)
        by_depth.setdefault((row.depth_cm, row.channel), []).append(row.value)
    extrema = {
        ch: ChannelExtrema(min(vals), max(vals), _mean(vals))
        for ch, vals in by_channel.items()
    }
    depth_stats = [
        DepthStats(d, ch, len(vals), _mean(vals),
                   sample_std(vals), coefficient_of_variation(vals))
        for (d, ch), vals in sorted(by_depth.items(),
                                    key=lambda kv: (kv[0][0], kv[0][1].value))
    ]
    return Summary(extrema=extrema, depth_stats=depth_stats)


@dataclass(frozen=True)
class LayerContrast:
    channel: Channel
    surface_std: float
    subsurface_std: float

    @property
    def surface_more_variable(self) -> bool:
        return self.surface_std > self.subsurface_std


def layer_contrast(
    rows: list[StoredRow], boundary_cm: int = SURFACE_BOUNDARY_CM
) -> dict[Channel, LayerContrast]:
    """Pooled sample std of surface (< boundary) vs subsurface (>= boundary)
    values, per channel."""
    groups: dict[tuple[Channel, bool], list[float]] = {}
    channels = set()
    for row in rows:
        channels.add(row.channel)
        groups.setdefault((row.channel, row.depth_cm < boundary_cm), []).append(row.value)
    out = {}
    for ch in sorted(channels, key=lambda c: c.value):
        surface = groups.get((ch, True), [])
        subsurface = groups.get((ch, False), [])
        if len(surface) < 2 or len(subsurface) < 2:
            raise MissingLayer(f"{ch.value}: need data on both sides of {boundary_cm} cm")
        out[ch] = LayerContrast(ch, sample_std(surface), sample_std(subsurface))
    return out


def align_nearest(
    sensor: list[tuple[int, float]],
    reference: list[tuple[int, float]],
    tolerance_s: float,
) -> list[tuple[float, float]]:
    """Pair each reference point with the nearest-in-time sensor point
    within ``tolerance_s``; unmatched reference points are dropped. The
    sensor series must be time-ordered; of equally near points, the
    earliest wins."""
    if not sensor:
        return []
    times = [t for t, _ in sensor]
    values = [v for _, v in sensor]
    pairs = []
    for rt, rv in reference:
        i = bisect_left(times, rt)
        if i == len(times) or (i and rt - times[i - 1] <= times[i] - rt):
            i = bisect_left(times, times[i - 1], 0, i)
        if abs(times[i] - rt) <= tolerance_s:
            pairs.append((values[i], rv))
    return pairs


@dataclass(frozen=True)
class ReferenceRow:
    label: str
    rmse: float
    correlation: float | None
    n_pairs: int


@dataclass(frozen=True)
class ValidationReport:
    reference_rows: list[ReferenceRow]
    summary: Summary
    contrasts: dict[Channel, LayerContrast]
    boundary_cm: int = SURFACE_BOUNDARY_CM
    std_convention: str = "sample (n-1)"


def validation_report(
    rows: list[StoredRow],
    sensor_series: list[tuple[int, float]],
    references: list[tuple[str, list[tuple[int, float]]]],
    cadence_s: int = 900,
) -> ValidationReport:
    """Compare a sensor series against labeled reference series (aligned by
    nearest timestamp within half the cadence) and summarize the stored rows."""
    ref_rows = []
    for label, series in references:
        pairs = align_nearest(sensor_series, series, cadence_s / 2.0)
        if len(pairs) < 2:
            raise NoOverlap(f"reference {label!r}: {len(pairs)} aligned pairs")
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        ref_rows.append(ReferenceRow(label, rmse(a, b), pearson(a, b), len(pairs)))
    return ValidationReport(
        reference_rows=ref_rows,
        summary=summarize(rows),
        contrasts=layer_contrast(rows),
    )


def _fmt(v, nd=4):
    if v is None:
        return "undefined"
    return f"{v:.{nd}f}"


def render_report(report: ValidationReport) -> str:
    """Plain-text tables: per-reference RMSE/correlation, channel extrema,
    per-depth variability, layer contrast."""
    lines = []
    lines.append("RMSE AND CORRELATION AGAINST REFERENCE SERIES")
    lines.append(f"{'DATA SET':<24}{'RMSE (%VWC)':>14}{'RMSE (fraction)':>18}{'CORRELATION':>14}")
    for row in report.reference_rows:
        lines.append(
            f"{row.label.upper():<24}{_fmt(row.rmse, 4):>14}"
            f"{_fmt(row.rmse / 100.0, 6):>18}{_fmt(row.correlation, 4):>14}"
        )
    lines.append("")
    lines.append("MIN AND MAX VALUES OVER THE STUDY PERIOD")
    for ch, ex in sorted(report.summary.extrema.items(), key=lambda kv: kv[0].value):
        unit = "V" if ch is Channel.MOISTURE_VOLTAGE else "degC"
        lines.append(f"MINIMUM {ch.value.upper()} ({unit})  {_fmt(ex.minimum)}")
        lines.append(f"MAXIMUM {ch.value.upper()} ({unit})  {_fmt(ex.maximum)}")
    lines.append("")
    lines.append(f"PER-DEPTH VARIABILITY (std convention: {report.std_convention})")
    lines.append(f"{'DEPTH(CM)':<11}{'CHANNEL':<13}{'N':>7}{'MEAN':>12}{'STD':>12}{'CV':>12}")
    for ds in report.summary.depth_stats:
        lines.append(
            f"{ds.depth_cm:<11}{ds.channel.value:<13}{ds.n:>7}"
            f"{_fmt(ds.mean):>12}{_fmt(ds.std):>12}{_fmt(ds.cv):>12}"
        )
    lines.append("")
    lines.append(f"LAYER CONTRAST AT {report.boundary_cm} CM")
    for ch, lc in sorted(report.contrasts.items(), key=lambda kv: kv[0].value):
        lines.append(
            f"{ch.value:<13} surface_std={_fmt(lc.surface_std)} "
            f"subsurface_std={_fmt(lc.subsurface_std)} "
            f"surface_more_variable={lc.surface_more_variable}"
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: ValidationReport) -> bytes:
    doc = {
        "references": [
            {"label": r.label, "rmse_percent": r.rmse, "rmse_fraction": r.rmse / 100.0,
             "correlation": r.correlation, "n_pairs": r.n_pairs}
            for r in report.reference_rows
        ],
        "extrema": {
            ch.value: {"min": ex.minimum, "max": ex.maximum, "mean": ex.mean}
            for ch, ex in sorted(report.summary.extrema.items(), key=lambda kv: kv[0].value)
        },
        "depth_stats": [
            {"depth_cm": d.depth_cm, "channel": d.channel.value, "n": d.n,
             "mean": d.mean, "std": d.std, "cv": d.cv}
            for d in report.summary.depth_stats
        ],
        "layer_contrast": {
            ch.value: {"surface_std": lc.surface_std,
                       "subsurface_std": lc.subsurface_std,
                       "surface_more_variable": lc.surface_more_variable}
            for ch, lc in sorted(report.contrasts.items(), key=lambda kv: kv[0].value)
        },
        "boundary_cm": report.boundary_cm,
        "std_convention": report.std_convention,
    }
    return json.dumps(doc, indent=2).encode("ascii") + b"\n"


def plot_series_csv(rows: list[StoredRow], channel: Channel) -> bytes:
    """Plot-ready per-depth time series for one channel:
    timestamp,depth_cm,value rows in query order."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["timestamp", "depth_cm", "value"])
    for row in rows:
        if row.channel is channel:
            w.writerow([iso_utc(row.timestamp), row.depth_cm, repr(row.value)])
    return buf.getvalue().encode("ascii")
