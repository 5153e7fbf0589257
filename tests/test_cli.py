import csv
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from soilnet.cli import main, parse_addr, parse_duration, parse_instant
from soilnet.core import FIELD_CALIBRATION
from soilnet.store import Store, iso_utc

TABLE_VOLT_VWC = [
    (1.23, 43.21), (1.24, 42.96), (1.26, 42.40), (1.32, 40.68), (1.36, 39.65),
    (1.38, 39.07), (1.40, 38.62), (1.42, 38.09), (1.45, 37.28),
]


class TestArgHelpers:
    def test_durations(self):
        assert parse_duration("48h") == 172800
        assert parse_duration("2d") == 172800
        assert parse_duration("30m") == 1800
        assert parse_duration("900s") == 900
        assert parse_duration("900") == 900

    def test_instants(self):
        assert parse_instant("1700000000") == 1700000000
        assert parse_instant("2023-11-14T22:13:20Z") == 1700000000

    def test_addr(self):
        assert parse_addr("127.0.0.1:1884") == ("127.0.0.1", 1884)

    def test_usage_errors_exit_1(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1


def run_cli(args):
    return main(args)


@pytest.fixture
def offline_store(tmp_path):
    root = str(tmp_path / "data")
    rc = run_cli([
        "simulate", "--offline", "--data-root", root, "--nodes", "2",
        "--duration", "6h", "--seed", "5", "--start", "1700000000",
    ])
    assert rc == 0
    return root


class TestSimulateOffline:
    def test_row_count(self, offline_store):
        rows = Store(offline_store).query()
        assert len(rows) == 2 * 8 * 25  # 2 profiles x 8 sensors x (6h/15min + 1)

    def test_deterministic_per_seed(self, tmp_path, offline_store):
        other = str(tmp_path / "data2")
        rc = run_cli([
            "simulate", "--offline", "--data-root", other, "--nodes", "2",
            "--duration", "6h", "--seed", "5", "--start", "1700000000",
        ])
        assert rc == 0
        assert Store(other).query() == Store(offline_store).query()


class TestCalibrate:
    def _pairs_csv(self, tmp_path, rows):
        path = tmp_path / "pairs.csv"
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["voltage", "vwc_percent"])
            w.writerows(rows)
        return str(path)

    def test_fit_and_apply_round_trip(self, tmp_path, capsys):
        pairs = self._pairs_csv(tmp_path, TABLE_VOLT_VWC)
        out = str(tmp_path / "model.json")
        assert run_cli(["calibrate", "--pairs", pairs, "--out", out]) == 0
        with open(out) as f:
            doc = json.load(f)
        assert set(doc) == {"a", "b", "c", "transform", "fit_rmse", "fit_r2", "n_points"}
        assert doc["n_points"] == 9
        from soilnet.core import CalibrationModel, apply_calibration

        model = CalibrationModel.from_dict(doc)
        for v, expected in TABLE_VOLT_VWC:
            assert apply_calibration(model, v) == pytest.approx(expected, abs=0.25)

    def test_insufficient_points_exit_2(self, tmp_path, capsys):
        pairs = self._pairs_csv(tmp_path, TABLE_VOLT_VWC[:2])
        assert run_cli(["calibrate", "--pairs", pairs]) == 2
        assert "InsufficientPoints" in capsys.readouterr().err


class TestExport:
    def test_empty_range_header_only(self, offline_store, capsys):
        rc = run_cli(["export", "--data-root", offline_store, "--format", "csv",
                      "--start", "0", "--end", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "timestamp,recv_timestamp,profile,depth_cm,channel,seq,value,vwc_percent\n"

    def test_formats_decode_identically(self, offline_store, tmp_path, capsys):
        import xml.etree.ElementTree as ET

        paths = {}
        for fmt in ("csv", "json", "xml"):
            paths[fmt] = str(tmp_path / f"out.{fmt}")
            assert run_cli(["export", "--data-root", offline_store,
                            "--format", fmt, "--out", paths[fmt]]) == 0
        with open(paths["csv"]) as f:
            n_csv = len(list(csv.DictReader(f)))
        with open(paths["json"]) as f:
            n_json = len(json.load(f))
        n_xml = len(ET.parse(paths["xml"]).getroot())
        assert n_csv == n_json == n_xml == 2 * 8 * 25

    def test_apply_fills_vwc(self, offline_store, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        with open(model_path, "w") as f:
            json.dump(FIELD_CALIBRATION.to_dict(), f)
        out = str(tmp_path / "out.csv")
        assert run_cli(["apply", "--data-root", offline_store, "--model", model_path,
                        "--format", "csv", "--out", out]) == 0
        with open(out) as f:
            recs = list(csv.DictReader(f))
        moisture = [r for r in recs if r["channel"] == "moisture"]
        assert moisture and all(r["vwc_percent"] != "" for r in moisture)
        temps = [r for r in recs if r["channel"] == "temperature"]
        assert temps and all(r["vwc_percent"] == "" for r in temps)
        # store files untouched
        assert all(r.vwc_percent is None for r in Store(offline_store).query())


class TestReport:
    def test_report_includes_minmax_block(self, offline_store, tmp_path, capsys):
        out_json = str(tmp_path / "report.json")
        plot_dir = str(tmp_path / "plots")
        rc = run_cli(["report", "--data-root", offline_store,
                      "--out-json", out_json, "--plot-csv-dir", plot_dir])
        assert rc == 0
        text = capsys.readouterr().out
        assert "MIN AND MAX VALUES OVER THE STUDY PERIOD" in text
        assert "LAYER CONTRAST AT 30 CM" in text
        with open(out_json) as f:
            doc = json.load(f)
        assert doc["layer_contrast"]["moisture"]["surface_more_variable"] is True
        assert doc["layer_contrast"]["temperature"]["surface_more_variable"] is True
        for name in ("moisture.csv", "temperature.csv"):
            assert os.path.exists(os.path.join(plot_dir, name))

    def test_report_with_reference_series(self, offline_store, tmp_path, capsys):
        rows = Store(offline_store).query()
        from soilnet.core import Channel, apply_calibration

        ref_path = str(tmp_path / "gravimetric.csv")
        with open(ref_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["timestamp", "vwc_percent"])
            for r in rows:
                if r.profile_id == "p1" and r.depth_cm == 5 and r.channel is Channel.MOISTURE_VOLTAGE:
                    w.writerow([iso_utc(r.timestamp), apply_calibration(FIELD_CALIBRATION, r.value)])
        rc = run_cli(["report", "--data-root", offline_store, "--profile", "p1",
                      "--reference", f"gravimetric={ref_path}"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "GRAVIMETRIC" in text

    def test_empty_range_exit_2(self, offline_store, capsys):
        assert run_cli(["report", "--data-root", offline_store,
                        "--start", "0", "--end", "1"]) == 2


class TestServePipeline:
    def test_serve_simulate_export_pipeline(self, tmp_path, capsys):
        root = str(tmp_path / "data")
        store = Store(root)
        from soilnet.gateway import serve

        gw = serve(("127.0.0.1", 0), store, site="site")
        addr = f"127.0.0.1:{gw.bound_addr[1]}"
        try:
            args = ["simulate", "--connect", addr, "--nodes", "1",
                    "--duration", "1h", "--seed", "9", "--start", "1700000000",
                    "--backoff-base", "0.01", "--max-attempts", "2"]
            assert run_cli(args) == 0
            rows = Store(root).query()
            assert len(rows) == 5 * 8
            # replay: same simulate run adds nothing
            assert run_cli(args) == 0
            assert len(Store(root).query()) == 5 * 8
        finally:
            gw.shutdown()
            gw.server_close()

    def test_unreachable_gateway_exit_2(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--connect", "127.0.0.1:1", "--nodes", "1",
                      "--duration", "1h", "--backoff-base", "0.001",
                      "--max-attempts", "2", "--data-root", str(tmp_path)])
        assert rc == 2

    def test_serve_clean_shutdown_subprocess(self, tmp_path):
        root = str(tmp_path / "data")
        proc = subprocess.Popen(
            [sys.executable, "-m", "soilnet.cli", "serve",
             "--listen", "127.0.0.1:0", "--data-root", root],
            stderr=subprocess.PIPE, text=True,
        )
        with proc.stderr:
            line = proc.stderr.readline()
            assert "listening on" in line
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        assert Store(root).query() == []

    def test_bad_data_root_exit_nonzero(self, tmp_path):
        # a plain file where a directory is needed fails even when running as root
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        rc = run_cli(["simulate", "--offline", "--duration", "1h",
                      "--data-root", str(blocked / "data")])
        assert rc == 2
