import math
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from soilnet.core import (
    FIELD_CALIBRATION,
    TS_RANGE,
    CalibrationModel,
    GravimetricSample,
    InsufficientPoints,
    NegativeWater,
    NonPositiveDryMass,
    SingularSystem,
    Transform,
    ZeroVoltage,
    apply_calibration,
    fit_calibration,
    gravimetric_vwc,
    plain_segment,
)
from oracles import normal_equations_quadratic

TABLE_VOLT_VWC = [
    (1.23, 43.21),
    (1.24, 42.96),
    (1.26, 42.40),
    (1.32, 40.68),
    (1.36, 39.65),
    (1.38, 39.07),
    (1.40, 38.62),
    (1.42, 38.09),
    (1.45, 37.28),
]


class TestGravimetric:
    def test_wet_equals_dry_is_zero(self):
        s = GravimetricSample(mass_wet_g=100, mass_dry_g=100, bulk_density_g_cm3=1.3)
        assert gravimetric_vwc(s) == 0.0

    def test_hand_computed_example(self):
        s = GravimetricSample(mass_wet_g=120, mass_dry_g=100, bulk_density_g_cm3=1.3)
        assert gravimetric_vwc(s) == 0.26

    def test_negative_water_rejected(self):
        s = GravimetricSample(mass_wet_g=90, mass_dry_g=100, bulk_density_g_cm3=1.3)
        with pytest.raises(NegativeWater):
            gravimetric_vwc(s)

    def test_nonpositive_dry_mass_rejected(self):
        s = GravimetricSample(mass_wet_g=10, mass_dry_g=0, bulk_density_g_cm3=1.3)
        with pytest.raises(NonPositiveDryMass):
            gravimetric_vwc(s)

    @given(
        dry=st.floats(1.0, 1e3),
        water=st.floats(0.0, 1e3),
        rho=st.floats(0.1, 3.0),
        rho_w=st.floats(0.5, 1.5),
    )
    def test_linear_in_water_mass(self, dry, water, rho, rho_w):
        one = gravimetric_vwc(GravimetricSample(dry + water, dry, rho, rho_w))
        two = gravimetric_vwc(GravimetricSample(dry + 2 * water, dry, rho, rho_w))
        assert two == pytest.approx(2 * one, abs=1e-12)


class TestApplyCalibration:
    @pytest.mark.parametrize("voltage,expected", TABLE_VOLT_VWC)
    def test_field_table_conformance(self, voltage, expected):
        assert apply_calibration(FIELD_CALIBRATION, voltage) == pytest.approx(expected, abs=0.2)

    def test_constant_model(self):
        m = CalibrationModel(0.0, 0.0, 37.0, Transform.RECIPROCAL)
        for v in (0.5, 1.0, 2.5):
            assert apply_calibration(m, v) == 37.0

    def test_zero_voltage_rejected_under_reciprocal(self):
        with pytest.raises(ZeroVoltage):
            apply_calibration(FIELD_CALIBRATION, 0.0)
        with pytest.raises(ZeroVoltage):
            apply_calibration(FIELD_CALIBRATION, -1.0)

    def test_identity_transform_uses_raw_voltage(self):
        m = CalibrationModel(1.0, 2.0, 3.0, Transform.IDENTITY)
        assert apply_calibration(m, 2.0) == 1.0 * 4 + 2.0 * 2 + 3.0

    def test_strictly_decreasing_over_working_band(self):
        vs = [1.20 + i * 0.001 for i in range(301)]
        out = [apply_calibration(FIELD_CALIBRATION, v) for v in vs]
        assert all(b < a for a, b in zip(out, out[1:]))


class TestFitCalibration:
    def test_noiseless_exact_recovery(self):
        pts = [(v, 2.0 * (1 / v) ** 2 + 3.0 * (1 / v) + 1.0) for v in (1.0, 1.25, 2.0, 4.0)]
        m = fit_calibration(pts, Transform.RECIPROCAL)
        assert m.a == pytest.approx(2.0, abs=1e-9)
        assert m.b == pytest.approx(3.0, abs=1e-9)
        assert m.c == pytest.approx(1.0, abs=1e-9)
        assert m.fit_rmse == pytest.approx(0.0, abs=1e-9)
        assert m.fit_r2 == pytest.approx(1.0, abs=1e-12)
        for v, y in pts:
            assert apply_calibration(m, v) == pytest.approx(y, abs=1e-9)

    def test_two_points_insufficient(self):
        with pytest.raises(InsufficientPoints):
            fit_calibration([(1.0, 1.0), (2.0, 2.0)])

    def test_three_points_only_two_distinct_insufficient(self):
        with pytest.raises(InsufficientPoints):
            fit_calibration([(1.0, 1.0), (1.0, 1.5), (2.0, 2.0)])

    def test_degenerate_design_singular(self):
        pts = [(1.0, 1.0), (1.0 + 1e-9, 1.0), (1.0 + 2e-9, 1.0), (1.0 + 3e-9, 1.0)]
        with pytest.raises(SingularSystem):
            fit_calibration(pts, Transform.IDENTITY)

    def test_noisy_fit_matches_normal_equations_oracle(self):
        rng = random.Random(7)
        pts = []
        for _ in range(50):
            v = 0.8 + 1.4 * rng.random()
            x = 1.0 / v
            pts.append((v, -30.0 * x * x + 80.0 * x - 10.0 + rng.gauss(0.0, 0.1)))
        m = fit_calibration(pts, Transform.RECIPROCAL)
        xs = [1.0 / v for v, _ in pts]
        ys = [y for _, y in pts]
        a, b, c = normal_equations_quadratic(xs, ys)
        assert m.a == pytest.approx(a, abs=1e-9)
        assert m.b == pytest.approx(b, abs=1e-9)
        assert m.c == pytest.approx(c, abs=1e-9)

    def test_residuals_orthogonal_to_design(self):
        rng = random.Random(11)
        pts = [(v, 5.0 * v * v - 2.0 * v + 0.5 + rng.gauss(0, 0.2))
               for v in [0.5 + 0.05 * i for i in range(40)]]
        m = fit_calibration(pts, Transform.IDENTITY)
        resid = [y - apply_calibration(m, v) for v, y in pts]
        scale = math.sqrt(sum(r * r for r in resid)) or 1.0
        for col in ([v * v for v, _ in pts], [v for v, _ in pts], [1.0] * len(pts)):
            dot = sum(r * c for r, c in zip(resid, col))
            colnorm = math.sqrt(sum(c * c for c in col))
            assert abs(dot) / (scale * colnorm) < 1e-8

    def test_diagnostics_populated(self):
        m = fit_calibration(TABLE_VOLT_VWC, Transform.RECIPROCAL)
        assert m.n_points == 9
        assert m.fit_rmse >= 0.0
        assert m.fit_r2 <= 1.0
        # Rounded table inputs: predictions stay close even though the
        # individual coefficients are poorly conditioned.
        for v, y in TABLE_VOLT_VWC:
            assert apply_calibration(m, v) == pytest.approx(y, abs=0.1)


# The bad ids of the protocol's and the store's tests: both refuse them by
# this rule.
@pytest.mark.parametrize("seg", ["", ".", "..", "a/b", "../p1", "p\x00", "e\nf", "c\rd", "a\tb"])
def test_plain_segment_refuses(seg):
    assert not plain_segment(seg)


@pytest.mark.parametrize("seg", ["p1", "farm", "...", ".p", "p 1", "p\u00e9", 'a,"b'])
def test_plain_segment_accepts(seg):
    # A space is the protocol's own rule, non-ASCII the store's encoding.
    assert plain_segment(seg)


def test_ts_range_is_years_1000_to_9999():
    lo, hi = (datetime.fromtimestamp(ts, tz=timezone.utc) for ts in TS_RANGE)
    assert (lo.isoformat(), hi.isoformat()) == ("1000-01-01T00:00:00+00:00",
                                                "9999-12-31T23:59:59+00:00")


def test_model_json_round_trip():
    m = fit_calibration(TABLE_VOLT_VWC, Transform.RECIPROCAL)
    again = CalibrationModel.from_dict(m.to_dict())
    assert again == m
