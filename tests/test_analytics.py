import math
import random

import pytest
from hypothesis import given, strategies as st

from soilnet.analytics import (
    Channel,
    EmptySeries,
    LengthMismatch,
    MissingLayer,
    NoOverlap,
    align_nearest,
    coefficient_of_variation,
    layer_contrast,
    pearson,
    plot_series_csv,
    render_report,
    report_to_json,
    rmse,
    sample_std,
    summarize,
    validation_report,
)
from soilnet.store import StoredRow
from oracles import (naive_align_nearest, naive_pearson, naive_rmse, naive_sample_std,
                     sort_extrema)

T0 = 1700000000


def row(seq, ts, depth, channel, value, vwc=None):
    return StoredRow("p1", depth, channel, value, ts, seq, ts, vwc)


class TestRmse:
    def test_identical_series_zero(self):
        a = [1.0, 2.0, 3.0]
        assert rmse(a, a) == 0.0

    def test_hand_arithmetic(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(12.5), abs=1e-15)

    def test_symmetry(self):
        rng = random.Random(1)
        a = [rng.random() for _ in range(50)]
        b = [rng.random() for _ in range(50)]
        assert rmse(a, b) == rmse(b, a)

    def test_triangle_inequality(self):
        rng = random.Random(2)
        for _ in range(20):
            a = [rng.random() for _ in range(30)]
            b = [rng.random() for _ in range(30)]
            c = [rng.random() for _ in range(30)]
            assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-12

    def test_matches_naive_oracle(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 1000)
            a = [rng.uniform(-100, 100) for _ in range(n)]
            b = [rng.uniform(-100, 100) for _ in range(n)]
            assert rmse(a, b) == pytest.approx(naive_rmse(a, b), abs=1e-12)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            rmse([1], [1, 2])
        with pytest.raises(EmptySeries):
            rmse([], [])


class TestPearson:
    def test_perfect_positive_linear(self):
        a = [1.0, 2.0, 5.0, 9.0]
        b = [2 * x + 5 for x in a]
        assert pearson(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        a = [1.0, 2.0, 5.0, 9.0]
        assert pearson(a, [-x for x in a]) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_series_undefined(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None

    def test_affine_invariance(self):
        rng = random.Random(4)
        a = [rng.random() for _ in range(100)]
        b = [rng.random() for _ in range(100)]
        base = pearson(a, b)
        for alpha, beta in [(2.0, 0.0), (0.5, -3.0), (10.0, 100.0)]:
            scaled = [alpha * x + beta for x in b]
            assert pearson(a, scaled) == pytest.approx(base, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 1000)
            a = [rng.uniform(-10, 10) for _ in range(n)]
            b = [rng.uniform(-10, 10) for _ in range(n)]
            assert pearson(a, b) == pytest.approx(naive_pearson(a, b), abs=1e-12)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(EmptySeries):
            pearson([1], [1])


class TestSummarize:
    def test_single_row(self):
        s = summarize([row(1, T0, 5, Channel.MOISTURE_VOLTAGE, 1.30)])
        ex = s["extrema"][Channel.MOISTURE_VOLTAGE]
        assert ex["min"] == ex["max"] == 1.30
        (ds,) = s["depth_stats"]
        assert ds["std"] is None and ds["cv"] is None and ds["n"] == 1

    def test_extrema_match_table_bounds(self):
        values = [29.46, 35.0, 43.31, 40.0]
        rows = [row(i + 1, T0 + i, 5, Channel.MOISTURE_VOLTAGE, v) for i, v in enumerate(values)]
        ex = summarize(rows)["extrema"][Channel.MOISTURE_VOLTAGE]
        assert (ex["min"], ex["max"]) == (29.46, 43.31)

    def test_extrema_match_sort_oracle(self):
        rng = random.Random(6)
        for _ in range(30):
            values = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 200))]
            rows = [row(i + 1, T0 + i, 5, Channel.TEMPERATURE_C, v)
                    for i, v in enumerate(values)]
            ex = summarize(rows)["extrema"][Channel.TEMPERATURE_C]
            assert (ex["min"], ex["max"]) == sort_extrema(values)

    def test_std_and_cv_match_naive_oracle(self):
        rng = random.Random(7)
        values = [rng.uniform(1, 10) for _ in range(500)]
        rows = [row(i + 1, T0 + i, 15, Channel.MOISTURE_VOLTAGE, v)
                for i, v in enumerate(values)]
        (ds,) = summarize(rows)["depth_stats"]
        expected_std = naive_sample_std(values)
        assert ds["std"] == pytest.approx(expected_std, abs=1e-12)
        assert ds["cv"] == pytest.approx(expected_std / (sum(values) / len(values)), abs=1e-12)

    @given(st.one_of(st.sampled_from([0.1, 0.3, 1e-300, -0.7]),
                     st.floats(-1e6, 1e6)),
           st.integers(2, 50))
    def test_constant_series_exact(self, c, n):
        # fsum(values) / n can miss c by an ulp; a constant is still constant.
        values = [c] * n
        assert sample_std(values) == 0.0
        assert pearson(values, list(range(n))) is None
        cv = coefficient_of_variation(values)
        if c == 0.0:
            assert cv is None
        else:
            assert cv == 0.0 and math.copysign(1.0, cv) == 1.0

    def test_cv_undefined_for_zero_mean(self):
        assert coefficient_of_variation([-1.0, 1.0]) is None
        assert sample_std([3.0]) is None

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            summarize([])


class TestLayerContrast:
    def _rows(self, surface_values, subsurface_values, channel=Channel.MOISTURE_VOLTAGE):
        rows = []
        for i, v in enumerate(surface_values):
            rows.append(row(i + 1, T0 + i, 5, channel, v))
        for i, v in enumerate(subsurface_values):
            rows.append(row(i + 1, T0 + i, 50, channel, v))
        return rows

    def test_surface_more_variable(self):
        rng = random.Random(8)
        rows = self._rows(
            [1.5 + rng.gauss(0, 0.2) for _ in range(100)],
            [1.5 + rng.gauss(0, 0.01) for _ in range(100)],
        )
        (lc,) = layer_contrast(rows).values()
        assert lc["surface_more_variable"]
        assert lc["surface_std"] > lc["subsurface_std"]

    def test_identical_constants_not_more_variable(self):
        rows = self._rows([1.5] * 10, [1.5] * 10)
        (lc,) = layer_contrast(rows).values()
        assert lc["surface_std"] == lc["subsurface_std"] == 0.0
        assert not lc["surface_more_variable"]

    def test_different_constants_not_more_variable(self):
        rows = self._rows([0.1] * 3, [1.5] * 10)
        (lc,) = layer_contrast(rows).values()
        assert lc["surface_std"] == lc["subsurface_std"] == 0.0
        assert not lc["surface_more_variable"]

    def test_missing_layer(self):
        rows = [row(i + 1, T0 + i, 5, Channel.MOISTURE_VOLTAGE, 1.5) for i in range(5)]
        with pytest.raises(MissingLayer):
            layer_contrast(rows)

    def test_boundary_at_30cm(self):
        rng = random.Random(9)
        rows = []
        for i in range(50):
            rows.append(row(i + 1, T0 + i, 15, Channel.MOISTURE_VOLTAGE, rng.uniform(1, 2)))
            rows.append(row(i + 1, T0 + i, 50, Channel.MOISTURE_VOLTAGE, rng.uniform(1, 2)))
        # 15 cm is surface, 50 cm subsurface
        layer_contrast(rows)  # does not raise MissingLayer


class TestAlignment:
    def test_exact_timestamps_align(self):
        sensor = [(T0 + 900 * i, float(i)) for i in range(10)]
        reference = [(T0 + 900 * i, float(i) + 0.5) for i in range(0, 10, 3)]
        pairs = align_nearest(sensor, reference, 450)
        assert pairs == [(0.0, 0.5), (3.0, 3.5), (6.0, 6.5), (9.0, 9.5)]

    def test_outside_tolerance_dropped(self):
        sensor = [(T0, 1.0)]
        reference = [(T0 + 1000, 2.0)]
        assert align_nearest(sensor, reference, 450) == []

    @given(st.data())
    def test_matches_linear_scan_oracle(self, data):
        # Few distinct times, so many duplicates; each value is its index,
        # so a pair shows which of equally near points was taken.
        times = sorted(data.draw(st.lists(st.integers(0, 30), max_size=20), label="times"))
        sensor = [(T0 + t, float(i)) for i, t in enumerate(times)]
        tolerance = data.draw(st.sampled_from([0, 1, 2.5, 4, 450]), label="tolerance")
        anywhere = st.integers(-10, 40).map(lambda k: T0 + k)
        if sensor:
            last = len(sensor) - 1
            index = st.integers(0, last)
            # Exactly midway between neighbours, or at or just past the
            # tolerance on either side of a point.
            midway = index.map(lambda i: (sensor[i][0] + sensor[min(i + 1, last)][0]) / 2)
            edge = st.builds(lambda i, side, past: sensor[i][0] + side * (tolerance + past),
                             index, st.sampled_from([-1, 1]), st.sampled_from([0, 0.5, 1]))
            anywhere = st.one_of(anywhere, midway, edge)
        points = data.draw(st.lists(anywhere, max_size=10), label="reference")
        reference = [(rt, -float(j)) for j, rt in enumerate(points)]
        assert align_nearest(sensor, reference, tolerance) == naive_align_nearest(
            sensor, reference, tolerance)


class TestValidationReport:
    def _rows_and_series(self):
        rng = random.Random(10)
        rows = []
        series = []
        for i in range(200):
            ts = T0 + 900 * i
            vwc = 35.0 + 5.0 * math.sin(i / 20.0)
            rows.append(row(i + 1, ts, 5, Channel.MOISTURE_VOLTAGE, 1.4, vwc))
            rows.append(row(i + 1, ts, 50, Channel.MOISTURE_VOLTAGE,
                            1.45 + rng.gauss(0, 0.001)))
            rows.append(row(i + 1, ts, 5, Channel.TEMPERATURE_C,
                            20.0 + 3 * math.sin(i / 10.0)))
            rows.append(row(i + 1, ts, 50, Channel.TEMPERATURE_C,
                            19.0 + rng.gauss(0, 0.05)))
            series.append((ts, vwc))
        return rows, series

    def test_self_reference_perfect(self):
        rows, series = self._rows_and_series()
        report = validation_report(rows, series, [("self", series)])
        (ref,) = report["references"]
        assert ref["rmse_percent"] == 0.0
        assert ref["correlation"] == pytest.approx(1.0, abs=1e-12)

    def test_injected_noise_recovered(self):
        rows, series = self._rows_and_series()
        rng = random.Random(11)
        sigma = 3.0  # percent VWC, i.e. 0.03 as a fraction
        noisy = [(t, v + rng.gauss(0, sigma)) for t, v in series]
        report = validation_report(rows, series, [("noisy", noisy)])
        (ref,) = report["references"]
        assert ref["rmse_percent"] == pytest.approx(sigma, rel=0.2)
        assert ref["rmse_percent"] / 100.0 == pytest.approx(0.03, rel=0.2)

    def test_disjoint_windows_no_overlap(self):
        rows, series = self._rows_and_series()
        far = [(T0 + 10**7 + i, 1.0) for i in range(10)]
        with pytest.raises(NoOverlap):
            validation_report(rows, series, [("far", far)])

    def test_render_layout(self):
        rows, series = self._rows_and_series()
        report = validation_report(rows, series, [("low cost sensor", series)])
        text = render_report(report)
        assert "RMSE AND CORRELATION AGAINST REFERENCE SERIES" in text
        assert "LOW COST SENSOR" in text
        assert "MIN AND MAX VALUES OVER THE STUDY PERIOD" in text
        assert "RMSE (%VWC)" in text and "RMSE (fraction)" in text
        assert "LAYER CONTRAST AT 30 CM" in text
        assert "sample (n-1)" in text

    def test_json_export_shape(self):
        import json

        rows, series = self._rows_and_series()
        report = validation_report(rows, series, [("ref", series)])
        doc = json.loads(report_to_json(report))
        assert doc["references"][0]["label"] == "ref"
        assert doc["references"][0]["rmse_fraction"] == doc["references"][0]["rmse_percent"] / 100.0
        assert set(doc["extrema"]) == {"moisture", "temperature"}
        assert doc["boundary_cm"] == 30

    def test_plot_csv(self):
        rows, _ = self._rows_and_series()
        data = plot_series_csv(rows, Channel.TEMPERATURE_C).decode()
        lines = data.strip().split("\n")
        assert lines[0] == "timestamp,depth_cm,value"
        assert len(lines) == 1 + 400  # two depths x 200 ticks
