"""Soil moisture/temperature telemetry pipeline.

Simulated multi-depth sensor profiles publish readings over a line-based
publish protocol to an ingestion gateway with append-only storage,
multi-format export, a gravimetric/quadratic calibration engine and a
validation-analytics engine.
"""

from soilnet.core import (
    CalibrationModel,
    Channel,
    GravimetricSample,
    RawReading,
    Transform,
    FIELD_CALIBRATION,
    apply_calibration,
    fit_calibration,
    gravimetric_vwc,
)

__all__ = [
    "CalibrationModel",
    "Channel",
    "GravimetricSample",
    "RawReading",
    "Transform",
    "FIELD_CALIBRATION",
    "apply_calibration",
    "fit_calibration",
    "gravimetric_vwc",
]

__version__ = "0.1.0"
