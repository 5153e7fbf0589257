"""Validation analytics: RMSE, Pearson correlation, min/max summaries,
per-depth variability, surface/subsurface contrast and report rendering.

All computations are pure functions over immutable snapshots. Undefined
statistics (zero variance, zero mean, n < 2) are returned as None rather
than raised.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left

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


def _constant(values) -> bool:
    # Exact, where deviations from an fsum mean can miss zero by an ulp;
    # one count() pass costs a third of min() == max().
    return values.count(values[0]) == len(values)


def pearson(a, b) -> float | None:
    """Sample Pearson correlation; None when either series is constant."""
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)}")
    if len(a) < 2:
        raise EmptySeries("pearson needs length >= 2")
    if _constant(a) or _constant(b):
        return None
    ma, mb = _mean(a), _mean(b)
    sx = math.dist(a, [ma] * len(a))
    sy = math.dist(b, [mb] * len(b))
    return math.fsum((x - ma) * (y - mb) for x, y in zip(a, b)) / (sx * sy)


def sample_std(values) -> float | None:
    """Sample (n-1) standard deviation; None for n < 2, 0.0 for a
    constant series."""
    return _std(values, _mean(values)) if values else None


def _std(values, mean: float) -> float | None:
    # sample_std of ``values``, whose mean the caller has already.
    n = len(values)
    if n < 2:
        return None
    if _constant(values):
        return 0.0
    return math.dist(values, [mean] * n) / math.sqrt(n - 1)


def coefficient_of_variation(values) -> float | None:
    if not values:
        return None
    mean = _mean(values)
    std = _std(values, mean)
    return None if std is None else _cv(std, mean)


def _cv(std: float, mean: float) -> float | None:
    # None for a zero mean; not -0.0 under a negative mean.
    return None if mean == 0.0 else std / mean if std else 0.0


def summarize(rows: list[StoredRow]) -> dict:
    """The report's ``extrema`` (min/max/mean per channel) and
    ``depth_stats`` (n/mean/std/CV per depth and channel) entries."""
    if not rows:
        raise EmptySeries("summarize of no rows")
    by_channel: dict[Channel, list[float]] = {}
    by_depth: dict[tuple[int, Channel], list[float]] = {}
    for row in rows:
        by_channel.setdefault(row.channel, []).append(row.value)
        by_depth.setdefault((row.depth_cm, row.channel), []).append(row.value)
    depth_stats = []
    for (d, ch), vals in sorted(by_depth.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        mean = _mean(vals)
        std = _std(vals, mean)
        depth_stats.append({"depth_cm": d, "channel": ch.value, "n": len(vals), "mean": mean,
                            "std": std, "cv": None if std is None else _cv(std, mean)})
    return {
        "extrema": {
            ch.value: {"min": min(vals), "max": max(vals), "mean": _mean(vals)}
            for ch, vals in sorted(by_channel.items(), key=lambda kv: kv[0].value)
        },
        "depth_stats": depth_stats,
    }


def layer_contrast(rows: list[StoredRow], boundary_cm: int = SURFACE_BOUNDARY_CM) -> dict:
    """The report's ``layer_contrast`` entry: pooled sample std of surface
    (< boundary) vs subsurface (>= boundary) values, per channel."""
    groups: dict[tuple[Channel, bool], list[float]] = {}
    for row in rows:
        groups.setdefault((row.channel, row.depth_cm < boundary_cm), []).append(row.value)
    out = {}
    for ch in sorted({ch for ch, _ in groups}, key=lambda c: c.value):
        surface = groups.get((ch, True), [])
        subsurface = groups.get((ch, False), [])
        if len(surface) < 2 or len(subsurface) < 2:
            raise MissingLayer(f"{ch.value}: need data on both sides of {boundary_cm} cm")
        surface_std, subsurface_std = sample_std(surface), sample_std(subsurface)
        out[ch.value] = {"surface_std": surface_std, "subsurface_std": subsurface_std,
                         "surface_more_variable": surface_std > subsurface_std}
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


def validation_report(
    rows: list[StoredRow],
    sensor_series: list[tuple[int, float]],
    references: list[tuple[str, list[tuple[int, float]]]],
    cadence_s: int = 900,
) -> dict:
    """The report document: each labeled reference series compared with the
    sensor series (aligned by nearest timestamp within half the cadence),
    then the summaries of the stored rows. ``report_to_json`` writes it as
    it is; README's "Report JSON" section lists its keys."""
    compared = []
    for label, series in references:
        pairs = align_nearest(sensor_series, series, cadence_s / 2.0)
        if len(pairs) < 2:
            raise NoOverlap(f"reference {label!r}: {len(pairs)} aligned pairs")
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        error = rmse(a, b)
        compared.append({"label": label, "rmse_percent": error, "rmse_fraction": error / 100.0,
                         "correlation": pearson(a, b), "n_pairs": len(pairs)})
    return {
        "references": compared,
        **summarize(rows),
        "layer_contrast": layer_contrast(rows),
        "boundary_cm": SURFACE_BOUNDARY_CM,
        "std_convention": "sample (n-1)",
    }


def _fmt(v, nd=4):
    if v is None:
        return "undefined"
    return f"{v:.{nd}f}"


def render_report(doc: dict) -> str:
    """Plain-text tables: per-reference RMSE/correlation, channel extrema,
    per-depth variability, layer contrast."""
    lines = []
    lines.append("RMSE AND CORRELATION AGAINST REFERENCE SERIES")
    lines.append(f"{'DATA SET':<24}{'RMSE (%VWC)':>14}{'RMSE (fraction)':>18}{'CORRELATION':>14}")
    for ref in doc["references"]:
        lines.append(
            f"{ref['label'].upper():<24}{_fmt(ref['rmse_percent'], 4):>14}"
            f"{_fmt(ref['rmse_fraction'], 6):>18}{_fmt(ref['correlation'], 4):>14}"
        )
    lines.append("")
    lines.append("MIN AND MAX VALUES OVER THE STUDY PERIOD")
    for ch, ex in doc["extrema"].items():
        unit = "V" if ch == Channel.MOISTURE_VOLTAGE else "degC"
        lines.append(f"MINIMUM {ch.upper()} ({unit})  {_fmt(ex['min'])}")
        lines.append(f"MAXIMUM {ch.upper()} ({unit})  {_fmt(ex['max'])}")
    lines.append("")
    lines.append(f"PER-DEPTH VARIABILITY (std convention: {doc['std_convention']})")
    lines.append(f"{'DEPTH(CM)':<11}{'CHANNEL':<13}{'N':>7}{'MEAN':>12}{'STD':>12}{'CV':>12}")
    for ds in doc["depth_stats"]:
        lines.append(
            f"{ds['depth_cm']:<11}{ds['channel']:<13}{ds['n']:>7}"
            f"{_fmt(ds['mean']):>12}{_fmt(ds['std']):>12}{_fmt(ds['cv']):>12}"
        )
    lines.append("")
    lines.append(f"LAYER CONTRAST AT {doc['boundary_cm']} CM")
    for ch, lc in doc["layer_contrast"].items():
        lines.append(
            f"{ch:<13} surface_std={_fmt(lc['surface_std'])} "
            f"subsurface_std={_fmt(lc['subsurface_std'])} "
            f"surface_more_variable={lc['surface_more_variable']}"
        )
    return "\n".join(lines) + "\n"


def report_to_json(doc: dict) -> bytes:
    return json.dumps(doc, indent=2).encode("ascii") + b"\n"


def plot_series_csv(rows: list[StoredRow], channel: Channel) -> bytes:
    """Plot-ready per-depth time series for one channel:
    timestamp,depth_cm,value rows in query order. No field needs CSV
    quoting: each is a date, an int or a float repr."""
    return ("timestamp,depth_cm,value\n" + "".join(
        f"{iso_utc(row.timestamp)},{row.depth_cm},{row.value!r}\n"
        for row in rows if row.channel is channel)).encode("ascii")
