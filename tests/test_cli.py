import csv
import hashlib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import time

import pytest

from soilnet.cli import build_parser, main, parse_addr, parse_duration, parse_instant
from soilnet.core import FIELD_CALIBRATION, apply_calibration
from soilnet.gateway import Gateway, serve
from soilnet.protocol import Ack
from soilnet.store import Store, export_csv, iso_utc, rows_with_vwc

from oracles import naive_store_last_seqs

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A soilnet subprocess runs this checkout's package, installed or not.
SRC_ENV = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}

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

    def test_readme_cli_block_parses(self):
        # Every command README's CLI block shows is one this parser accepts.
        with open(os.path.join(REPO, "README.md")) as f:
            block = f.read().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("soilnet ")]
        assert len(commands) >= 6
        parser = build_parser()
        for command in commands:
            parser.parse_args(shlex.split(command)[1:])

    def test_readme_names_every_err_code(self):
        # Every ERR code the gateway sends is one README's wire-protocol
        # section documents. protocol.py chooses each line's reply;
        # gateway.py adds ERR store.
        with open(os.path.join(REPO, "README.md")) as f:
            section = f.read().split("\n## Wire protocol\n", 1)[1].split("\n## ", 1)[0]
        codes = set()
        for module in ("protocol.py", "gateway.py"):
            with open(os.path.join(REPO, "src", "soilnet", module)) as f:
                codes |= set(re.findall(r'\bErr\("([^"]+)"', f.read()))
        assert len(codes) >= 5
        assert {code for code in codes if f"ERR {code}" not in section} == set()

    def test_readme_names_every_report_key(self, offline_store, tmp_path):
        # README's "Report JSON" section names each top-level key of a real
        # report, in order, and the keys of each entry; nothing more.
        with open(os.path.join(REPO, "README.md")) as f:
            section = f.read().split("\n## Report JSON\n", 1)[1].split("\n## ", 1)[0]
        bullets = [" ".join(b.split()) for b in section.split("\n- ")[1:]]
        named = {re.match(r"`(\w+)`", b)[1]: re.findall(r"`(\w+)`", b.partition("with keys")[2])
                 for b in bullets}
        reference = tmp_path / "gravimetric.csv"
        reference.write_text("".join(f"{1700000000 + 900 * i},{30 + i % 3}\n" for i in range(25)))
        out_json = tmp_path / "report.json"
        assert run_cli(["report", "--data-root", offline_store, "--profile", "p1",
                        "--reference", f"gravimetric={reference}",
                        "--out-json", str(out_json)]) == 0

        def entry_keys(value):
            # The keys of a list's items or of a mapping's values; each has
            # the same ones.
            if not isinstance(value, (list, dict)):
                return []
            items = value if isinstance(value, list) else list(value.values())
            assert items and all(list(item) == list(items[0]) for item in items)
            return list(items[0])

        doc = json.loads(out_json.read_bytes())
        emitted = {key: entry_keys(value) for key, value in doc.items()}
        assert named == emitted and list(named) == list(emitted)


def run_cli(args):
    return main(args)


def test_help_bytes_pinned(monkeypatch, capsys):
    # Each command's help, and the list of commands, as they were when the
    # parser added every command's arguments on each start.
    monkeypatch.setenv("COLUMNS", "80")
    got = {}
    for command in ("", "serve", "simulate", "calibrate", "export", "report"):
        with pytest.raises(SystemExit) as exited:
            main([*command.split(), "--help"])
        assert exited.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        got[command or "soilnet"] = hashlib.sha256(out.encode()).hexdigest()
    assert got == {
        "soilnet": "47bebc5e28fe953798f89ec45b32f57a768cc9d3e118aa3c3c00706fbcdcb4f0",
        "serve": "a6a24ab6e988f01a44422b847e2e3adc39c7d967301833b4048d95cc76d33ec8",
        "simulate": "8f89b87838d8febb2913754e75e4f0d3afd92419a1c0525309cce39aaa1c28c0",
        "calibrate": "e258bc2a2d0418e632b6e625d3d03e4a27ef69b3428967be60e6640d7efa2017",
        "export": "e4e2ec369f630b59eecd913c187b7d8249770bc0c99639550efd083443e76c18",
        "report": "e146772a9f7c9707bb8fe6b0046f08ac499ad36f6e775b065761c1cbe10ad790",
    }
    assert main(["bogus"]) == 1
    assert capsys.readouterr().err == (
        "usage error: argument command: invalid choice: 'bogus' "
        "(choose from 'serve', 'simulate', 'calibrate', 'export', 'report')\n")


def test_bad_seed_in_environment_fails_simulate_alone(offline_store, tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setenv("SOILNET_SEED", "abc")
    build_parser()
    out = tmp_path / "out.csv"
    assert run_cli(["export", "--data-root", offline_store, "--out", str(out)]) == 0
    assert out.stat().st_size > 0
    new = tmp_path / "new"
    assert run_cli(["simulate", "--offline", "--duration", "1h", "--data-root", str(new)]) == 1
    assert capsys.readouterr().err == "usage error: argument --seed: invalid int value: 'abc'\n"
    assert not new.exists()
    assert run_cli(["simulate", "--offline", "--duration", "1h", "--data-root", str(new),
                    "--seed", "3"]) == 0


@pytest.fixture
def offline_store(tmp_path):
    root = str(tmp_path / "data")
    rc = run_cli([
        "simulate", "--offline", "--data-root", root, "--nodes", "2",
        "--duration", "6h", "--seed", "5", "--start", "1700000000",
    ])
    assert rc == 0
    return root


def test_no_command_needs_numpy(tmp_path):
    # soilnet is stdlib only. With sys.modules["numpy"] = None any import
    # of numpy raises, so each command below would fail if it needed it.
    root, model = str(tmp_path / "data"), str(tmp_path / "model.json")
    pairs, reference = tmp_path / "pairs.csv", tmp_path / "gravimetric.csv"
    pairs.write_text("".join(f"{v},{vwc}\n" for v, vwc in TABLE_VOLT_VWC))
    reference.write_text("".join(f"{1700000000 + 3600 * h},{30 + h}\n" for h in range(6)))
    commands = [
        ["simulate", "--offline", "--data-root", root, "--duration", "6h",
         "--start", "1700000000"],
        *(["export", "--data-root", root, "--format", fmt, "--out", str(tmp_path / f"out.{fmt}")]
          for fmt in ("csv", "json", "xml")),
        ["calibrate", "--pairs", str(pairs), "--out", model],
        ["export", "--data-root", root, "--model", model, "--out", str(tmp_path / "vwc.csv")],
        ["report", "--data-root", root, "--reference", f"gravimetric={reference}",
         "--out-json", str(tmp_path / "report.json")],
    ]
    code = ("import json, sys; sys.modules['numpy'] = None; import soilnet.gateway; "
            "from soilnet.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if main(argv) != 0: sys.exit(f'failed: {argv}')")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=SRC_ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "report.json") as f:
        assert json.load(f)["references"][0]["n_pairs"] == 6


def test_each_command_loads_only_its_modules(tmp_path):
    # A start compiles and imports only what its command runs; in a fresh
    # interpreter, which of the modules below each step has loaded.
    root = str(tmp_path / "data")
    watched = ["soilnet.sim", "soilnet.gateway", "soilnet.protocol", "soilnet.analytics",
               "socketserver", "_strptime"]
    steps = [
        ["simulate", "--offline", "--data-root", root, "--duration", "1d",
         "--start", "2024-01-01T00:00:00Z"],
        ["export", "--data-root", root, "--start", "2024-01-01T00:00:00Z",
         "--end", "2024-01-02T00:00:00Z", "--out", str(tmp_path / "out.csv")],
    ]
    code = ("import json, sys\n"
            "watched = json.loads(sys.argv[1])\n"
            "def loaded(): return [m for m in watched if m in sys.modules]\n"
            "from soilnet.cli import main\n"
            "seen = [loaded()]\n"
            "for argv in json.loads(sys.argv[2]):\n"
            "    if main(argv) != 0: sys.exit(f'failed: {argv}')\n"
            "    seen.append(loaded())\n"
            "print(json.dumps(seen))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(watched), json.dumps(steps)],
                          env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    after_import, after_simulate, after_export = json.loads(proc.stdout)
    assert after_import == []
    assert after_simulate == ["soilnet.sim"]
    assert after_export == ["soilnet.sim"]  # export itself loads none of them
    assert os.path.getsize(tmp_path / "out.csv") > 0


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

    def test_start_before_year_1000_exit_2_and_stores_nothing(self, tmp_path, capsys):
        # Year 999 would be written as a "999-12-31" partition that no
        # reader reads back.
        root = tmp_path / "data"
        assert run_cli(["simulate", "--offline", "--data-root", str(root), "--duration", "1h",
                        "--start", "0999-12-31T22:00:00Z"]) == 2
        assert list(root.iterdir()) == []
        assert "years 1000-9999" in capsys.readouterr().err

    def test_partition_bytes_pinned(self, tmp_path):
        # Starts at 06:00, so each profile's first and last day are partial.
        root = tmp_path / "data"
        assert run_cli([
            "simulate", "--offline", "--data-root", str(root), "--nodes", "2",
            "--duration", "2d", "--seed", "7", "--start", "2024-01-04T06:00:00Z",
        ]) == 0
        # The checkpoint holds inode numbers and mtimes, so its bytes are not
        # pinned: the gateway's next start must read it and no partition.
        files = {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
        got = {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in root.rglob("*.csv")}
        assert files == set(got) | {"last_seqs.json"}
        checkpoint = os.stat(root / "last_seqs.json")
        assert Store(str(root)).last_seqs() == naive_store_last_seqs(str(root))
        after = os.stat(root / "last_seqs.json")
        assert (after.st_ino, after.st_mtime_ns) == (checkpoint.st_ino, checkpoint.st_mtime_ns)
        assert got == {
            "p1/2024-01-04.csv": "5fb90f7ffd7768b17ad104696383d0f391988e3a2c2c6c4d4025b6a155ff572d",
            "p1/2024-01-05.csv": "937a991b582fb6e53b83ff2c3019c0881231045755c0d9fa669b9c4463b5b998",
            "p1/2024-01-06.csv": "c50106b2fde43cc49d71cd8e9c2d63c4d3c78c4cb01307901fb16e29c18685a4",
            "p2/2024-01-04.csv": "ab55709bcb1660e35a962e5d27ecfd03f2e9a8fce1fa77f8fedb6e2850ea93df",
            "p2/2024-01-05.csv": "0d3f06006b929785860e0bccc2aaaef01c0cf2e0c32e636df439eae51bdf1135",
            "p2/2024-01-06.csv": "d848ce4800141a41f3b5b7e81d0148c25cc84eb986ca0a40bc8d71a831f868a9",
        }

    def test_export_bytes_pinned(self, tmp_path):
        # The store of test_partition_bytes_pinned, exported raw in every
        # format, then with vwc_percent filled by a --model.
        root = str(tmp_path / "data")
        assert run_cli([
            "simulate", "--offline", "--data-root", root, "--nodes", "2",
            "--duration", "2d", "--seed", "7", "--start", "2024-01-04T06:00:00Z",
        ]) == 0
        model = tmp_path / "model.json"
        model.write_text(json.dumps(FIELD_CALIBRATION.to_dict()))
        got = {}
        for fmt in ("csv", "json", "xml"):
            for extra in ([], ["--model", str(model)]):
                out = tmp_path / f"out.{fmt}"
                assert run_cli(["export", "--data-root", root, "--format", fmt,
                                "--out", str(out), *extra]) == 0
                got[" ".join([fmt, *extra[:1]])] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert got == {
            "csv": "15207667411ca6d032e64141d15338d2ba6cf8a55a8173796a7b08e122adc000",
            "csv --model": "9be097580a1500b06091506e7a6b1c96174f17243ed77a683b05924dcd3e65b8",
            "json": "a0a4f73797b09082ad0154bb091ab19e261733cbb9096bb0a0f14eaf3e8e7a0c",
            "json --model": "bbbc175e581922ec272ebc16f2f4d6b6053656917b3cd695329e203156e7139a",
            "xml": "fd749670a0a45fa16940a789f9034fc2a95bef9d790861bd81bdf67fd124edd2",
            "xml --model": "aa4e30e36223f2e6515005b03700cd2d0d844e5bbf5b4df66f7be43d52d20223",
        }

    def test_report_bytes_pinned(self, tmp_path, capsys):
        root = str(tmp_path / "data")
        assert run_cli([
            "simulate", "--offline", "--data-root", root, "--nodes", "2",
            "--duration", "2d", "--seed", "7", "--start", "2024-01-04T06:00:00Z",
        ]) == 0
        capsys.readouterr()
        # Every 8th 5 cm moisture reading of p1, calibrated, a minute late
        # and off by a fixed zigzag: a reference with a non-zero RMSE.
        moisture = [r for r in Store(root).query(profile_id="p1")
                    if r.depth_cm == 5 and r.channel.value == "moisture"]
        reference = tmp_path / "gravimetric.csv"
        reference.write_text("timestamp,vwc_percent\n" + "".join(
            f"{iso_utc(r.timestamp + 60)},"
            f"{apply_calibration(FIELD_CALIBRATION, r.value) + (i % 5 - 2) * 0.75!r}\n"
            for i, r in enumerate(moisture[::8])))
        out_json, plots = tmp_path / "report.json", tmp_path / "plots"
        assert run_cli(["report", "--data-root", root, "--profile", "p1",
                        "--reference", f"gravimetric={reference}",
                        "--out-json", str(out_json), "--plot-csv-dir", str(plots)]) == 0
        p1_text = capsys.readouterr().out
        assert run_cli(["report", "--data-root", root]) == 0
        all_text = capsys.readouterr().out

        def sha(data):
            return hashlib.sha256(data).hexdigest()

        assert {
            "p1 stdout": sha(p1_text.encode()),
            "p1 json": sha(out_json.read_bytes()),
            "moisture.csv": sha((plots / "moisture.csv").read_bytes()),
            "temperature.csv": sha((plots / "temperature.csv").read_bytes()),
            "all stdout": sha(all_text.encode()),
        } == {
            "p1 stdout": "1d2c30a788f38ffeddf1ef2b9956cf0267b8ed04457a62d9a971cdc8d6f7b737",
            "p1 json": "0e7fcefa95ee056433040d1113f8550b084f96ccd1b1aec15b09c21a121c21e7",
            "moisture.csv": "9eb2687dacd081041c28a2b8a814481fca64c999af0c8d5dbab4e38b8d4086c4",
            "temperature.csv": "adc5e3eba40b2b21d2af8d064c9618014200883d6c144abb4a9f2d1fd812722e",
            "all stdout": "e5a4d0ee9879d81186fc752e6f5e83e4a920f922fbf479da24498139fcf4039f",
        }


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

    def test_one_field_row_exit_2_naming_its_line(self, tmp_path, capsys):
        pairs = self._pairs_csv(tmp_path, [*TABLE_VOLT_VWC[:3], ("1.5",), *TABLE_VOLT_VWC[3:]])
        assert run_cli(["calibrate", "--pairs", pairs]) == 2
        assert capsys.readouterr().err == (
            f"error: ValueError: {pairs}, line 5: want 2 fields, got 1\n")


class TestExport:
    @pytest.mark.parametrize("window, error", [
        (["--profile", "p9"], "error: UnknownProfile: 'p9'\n"),
        (["--start", "1700003600", "--end", "1700000000"], "error: ValueError: start_ts > end_ts\n"),
    ], ids=["unknown-profile", "reversed-range"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_bad_window_exits_2_before_any_byte(self, offline_store, tmp_path, capsys, window,
                                                error, to_file):
        out = tmp_path / "out.json"
        assert run_cli(["export", "--data-root", offline_store, "--format", "json", *window,
                        *(["--out", str(out)] if to_file else [])]) == 2
        assert capsys.readouterr() == ("", error)
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json", "xml"])
    def test_streamed_export_names_skipped_lines(self, offline_store, tmp_path, capsys, fmt):
        # A foreign line in the first and in the last partition of the
        # stream: the bytes are the clean store's, and both are named.
        out = tmp_path / f"out.{fmt}"
        argv = ["export", "--data-root", offline_store, "--format", fmt, "--out", str(out)]
        assert run_cli(argv) == 0
        clean = out.read_bytes()
        paths = [os.path.join(offline_store, "p1", "2023-11-14.csv"),
                 os.path.join(offline_store, "p2", "2023-11-15.csv")]
        for path in paths:
            with open(path, "ab") as f:
                f.write(b"garbage\n")
        capsys.readouterr()
        assert run_cli(argv) == 0
        assert out.read_bytes() == clean
        assert capsys.readouterr() == ("", "".join(
            f"skipped 1 line(s) that are no rows: {path}\n" for path in paths))

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

    def test_export_model_fills_vwc(self, offline_store, tmp_path, capsys, monkeypatch):
        model_path = str(tmp_path / "model.json")
        with open(model_path, "w") as f:
            json.dump(FIELD_CALIBRATION.to_dict(), f)
        out = str(tmp_path / "out.csv")
        assert run_cli(["export", "--data-root", offline_store, "--model", model_path,
                        "--format", "csv", "--out", out]) == 0
        with open(out) as f:
            recs = list(csv.DictReader(f))
        moisture = [r for r in recs if r["channel"] == "moisture"]
        assert moisture and all(r["vwc_percent"] != "" for r in moisture)
        temps = [r for r in recs if r["channel"] == "temperature"]
        assert temps and all(r["vwc_percent"] == "" for r in temps)
        with open(out, "rb") as f:
            assert f.read() == export_csv(rows_with_vwc(Store(offline_store).query(),
                                                        FIELD_CALIBRATION))
        # store files untouched
        assert all(r.vwc_percent is None for r in Store(offline_store).query())
        # a plain export stays raw, whatever SOILNET_MODEL says
        monkeypatch.setenv("SOILNET_MODEL", model_path)
        plain = str(tmp_path / "plain.csv")
        assert run_cli(["export", "--data-root", offline_store, "--out", plain]) == 0
        with open(plain) as f:
            assert all(r["vwc_percent"] == "" for r in csv.DictReader(f))


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

    @pytest.fixture
    def temperature_store(self, tmp_path):
        # The gateway accepts temperature PUBs alone.
        root = str(tmp_path / "temperatures")
        gw = Gateway(("127.0.0.1", 0), Store(root), site="site")
        try:
            for seq in range(1, 5):
                for depth, value in ((5, 20.0 + seq), (50, 18.0 + seq / 10)):
                    line = (f"PUB site/site/profile/p1/depth/{depth}/temperature "
                            f"{seq} {1700000000 + 900 * seq} {value}\n")
                    assert gw.handle_line(line.encode()) == Ack(seq)
        finally:
            gw.server_close()
        return root

    def test_report_without_moisture_rows(self, temperature_store, tmp_path, capsys):
        out_json = str(tmp_path / "report.json")
        assert run_cli(["report", "--data-root", temperature_store, "--out-json", out_json]) == 0
        assert "MAXIMUM TEMPERATURE (degC)  24.0000" in capsys.readouterr().out
        with open(out_json) as f:
            doc = json.load(f)
        assert (doc["references"], list(doc["extrema"])) == ([], ["temperature"])

    def test_report_with_surface_depths_only(self, tmp_path, capsys):
        # No depth at or below 30 cm: the subsurface std and the comparison
        # are undefined, null in the JSON, and the rest of the report stands.
        root, cfg = str(tmp_path / "data"), tmp_path / "site.json"
        cfg.write_text(json.dumps({"profiles": [{"profile_id": "a", "depths_cm": [5, 15]}]}))
        assert run_cli(["simulate", "--offline", "--config", str(cfg), "--data-root", root,
                        "--duration", "1d", "--start", "1700000000"]) == 0
        moisture = [r for r in Store(root).query() if r.depth_cm == 5
                    and r.channel.value == "moisture"]
        ref_path = tmp_path / "gravimetric.csv"
        ref_path.write_text("".join(
            f"{r.timestamp},{apply_calibration(FIELD_CALIBRATION, r.value) + 1.0!r}\n"
            for r in moisture[::8]))
        capsys.readouterr()
        out_json = tmp_path / "report.json"
        assert run_cli(["report", "--data-root", root, "--reference", f"gravimetric={ref_path}",
                        "--out-json", str(out_json)]) == 0
        text = capsys.readouterr().out
        doc = json.loads(out_json.read_bytes())
        assert doc["references"][0]["n_pairs"] == len(moisture[::8])
        assert [(d["depth_cm"], d["channel"]) for d in doc["depth_stats"]] == [
            (5, "moisture"), (5, "temperature"), (15, "moisture"), (15, "temperature")]
        for channel in ("moisture", "temperature"):
            contrast = doc["layer_contrast"][channel]
            assert contrast["surface_std"] > 0
            assert (contrast["subsurface_std"], contrast["surface_more_variable"]) == (None, None)
            assert (f"{channel:<13} surface_std={contrast['surface_std']:.4f} "
                    "subsurface_std=undefined surface_more_variable=undefined\n") in text
        assert "MINIMUM MOISTURE (V)" in text

    def test_reference_without_moisture_rows_has_no_overlap(self, temperature_store, tmp_path,
                                                             capsys):
        ref_path = tmp_path / "gravimetric.csv"
        ref_path.write_text("".join(f"{1700000000 + 900 * i},30.0\n" for i in range(1, 5)))
        assert run_cli(["report", "--data-root", temperature_store,
                        "--reference", f"gravimetric={ref_path}"]) == 2
        assert capsys.readouterr().err == (
            "error: NoOverlap: reference 'gravimetric': 0 aligned pairs\n")

    def test_report_ignores_model_environment(self, offline_store, tmp_path, capsys,
                                              monkeypatch):
        ref_path = tmp_path / "gravimetric.csv"
        ref_path.write_text("".join(f"{1700000000 + 900 * i},30.0\n" for i in range(25)))
        out_json = tmp_path / "report.json"
        argv = ["report", "--data-root", offline_store, "--profile", "p1",
                "--reference", f"gravimetric={ref_path}", "--out-json", str(out_json)]
        assert run_cli(argv) == 0
        plain = (capsys.readouterr().out, out_json.read_bytes())
        assert "GRAVIMETRIC" in plain[0]
        model_path = tmp_path / "other-model.json"
        model_path.write_text(json.dumps({"a": 1.0, "b": 2.0, "c": 3.0, "transform": "identity"}))
        monkeypatch.setenv("SOILNET_MODEL", str(model_path))
        assert run_cli(argv) == 0
        assert (capsys.readouterr().out, out_json.read_bytes()) == plain

    def test_empty_range_exit_2(self, offline_store, capsys):
        assert run_cli(["report", "--data-root", offline_store,
                        "--start", "0", "--end", "1"]) == 2

    def test_one_field_reference_row_exit_2_naming_its_line(self, offline_store, tmp_path,
                                                            capsys):
        ref_path = tmp_path / "gravimetric.csv"
        ref_path.write_text("timestamp,vwc_percent\n1700000000,30.0\n1700000900\n")
        assert run_cli(["report", "--data-root", offline_store,
                        "--reference", f"gravimetric={ref_path}"]) == 2
        assert capsys.readouterr().err == (
            f"error: ValueError: {ref_path}, line 3: want 2 fields, got 1\n")

    def test_stored_zero_volt_reading_leaves_report_and_export_working(
            self, offline_store, tmp_path, capsys):
        # The gateway accepts 0 V, the low end of the moisture range, but
        # the reciprocal calibration cannot map it: that row gets no VWC.
        gw = Gateway(("127.0.0.1", 0), Store(offline_store), site="site")
        try:
            line = b"PUB site/site/profile/p1/depth/5/moisture 26 1700000450 0.0\n"
            assert gw.handle_line(line) == Ack(26)
        finally:
            gw.server_close()
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(FIELD_CALIBRATION.to_dict()))
        out = str(tmp_path / "vwc.csv")
        assert run_cli(["export", "--data-root", offline_store, "--model", str(model_path),
                        "--out", out]) == 0
        with open(out) as f:
            moisture = [r for r in csv.DictReader(f) if r["channel"] == "moisture"]
        assert [r["vwc_percent"] for r in moisture if r["value"] == "0.0"] == [""]
        assert sum(r["vwc_percent"] != "" for r in moisture) == 2 * 4 * 25

        ref_path = tmp_path / "gravimetric.csv"
        ref_path.write_text("".join(f"{1700000000 + 900 * i},30.0\n" for i in range(25)))
        out_json = str(tmp_path / "report.json")
        assert run_cli(["report", "--data-root", offline_store, "--profile", "p1",
                        "--reference", f"gravimetric={ref_path}", "--out-json", out_json]) == 0
        assert "GRAVIMETRIC" in capsys.readouterr().out
        with open(out_json) as f:
            doc = json.load(f)
        assert doc["references"][0]["n_pairs"] == 25
        assert doc["extrema"]["moisture"]["min"] == 0.0


@pytest.mark.parametrize("argv", [["export", "--model", "bad.json"],
                                  ["report", "--model", "bad.json"],
                                  ["report", "--reference", "x=missing.csv"]],
                         ids=["export-model", "report-model", "report-reference"])
def test_bad_input_file_exits_2_before_the_query(offline_store, tmp_path, capsys, monkeypatch,
                                                argv):
    (tmp_path / "bad.json").write_text("not json\n")
    monkeypatch.chdir(tmp_path)
    # Store.query reads through query_days, as export does.
    calls = []
    query_days = Store.query_days

    def recording_query_days(self, *args, **kwargs):
        calls.append((args, kwargs))
        return query_days(self, *args, **kwargs)

    monkeypatch.setattr(Store, "query_days", recording_query_days)
    assert run_cli([*argv, "--data-root", offline_store]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: ")


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

    def test_serve_takes_site_from_config(self, tmp_path, capsys):
        # The config names a site other than serve's default, as simulate
        # reads it; a restart plus a full replay must append nothing.
        root = str(tmp_path / "data")
        cfg = tmp_path / "site.json"
        cfg.write_text(json.dumps({"site": "iitm"}))
        for _ in range(2):  # first session, then restart plus full replay
            proc = subprocess.Popen(
                [sys.executable, "-m", "soilnet.cli", "serve", "--listen", "127.0.0.1:0",
                 "--data-root", root, "--config", str(cfg)],
                stderr=subprocess.PIPE, text=True, env=SRC_ENV,
            )
            with proc.stderr:
                try:
                    line = proc.stderr.readline()
                    assert "listening on" in line
                    assert run_cli(["simulate", "--connect", line.split()[-1],
                                    "--config", str(cfg), "--nodes", "1", "--duration", "1h",
                                    "--seed", "9", "--start", "1700000000",
                                    "--backoff-base", "0.01", "--max-attempts", "2"]) == 0
                finally:
                    proc.send_signal(signal.SIGTERM)
                    assert proc.wait(timeout=10) == 0
            assert len(Store(root).query()) == 5 * 8

    def test_simulate_paces_on_config_clock_scale(self, tmp_path, monkeypatch):
        # A profile's clock_scale in --config paces its node; no flag needed.
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        cfg = tmp_path / "paced.json"
        cfg.write_text(json.dumps({"profiles": [{"profile_id": "p1", "clock_scale": 900}]}))
        gw = serve(("127.0.0.1", 0), Store(str(tmp_path / "data")))
        try:
            assert run_cli(["simulate", "--connect", f"127.0.0.1:{gw.bound_addr[1]}",
                            "--config", str(cfg), "--duration", "1h",
                            "--start", "1700000000", "--max-attempts", "1"]) == 0
        finally:
            gw.shutdown()
            gw.server_close()
        assert sleeps == [1.0] * 5  # one 900 s tick per wall second, 5 ticks

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
            stderr=subprocess.PIPE, text=True, env=SRC_ENV,
        )
        with proc.stderr:
            line = proc.stderr.readline()
            assert "listening on" in line
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        assert Store(root).query() == []

    def test_serve_prints_its_address_and_counters(self, tmp_path):
        # The two lines a supervisor reads: where the gateway listens, and
        # its counters once SIGTERM has stopped it.
        proc = subprocess.Popen(
            [sys.executable, "-m", "soilnet.cli", "serve",
             "--listen", "127.0.0.1:0", "--data-root", str(tmp_path / "data")],
            stderr=subprocess.PIPE, text=True, env=SRC_ENV,
        )
        with proc.stderr:
            assert re.fullmatch(r"listening on 127\.0\.0\.1:\d+\n", proc.stderr.readline())
            proc.send_signal(signal.SIGTERM)
            err = proc.stderr.read()
        assert proc.wait(timeout=10) == 0
        assert err == ("shutdown, counters={'accepted': 0, 'duplicate': 0, 'out_of_range': 0, "
                       "'malformed': 0, 'foreign_site': 0, 'pub_total': 0}\n")

    def test_bad_data_root_exit_nonzero(self, tmp_path):
        # a plain file where a directory is needed fails even when running as root
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        rc = run_cli(["simulate", "--offline", "--duration", "1h",
                      "--data-root", str(blocked / "data")])
        assert rc == 2


# Lines another program appended to a partition; each used to make query,
# last_seqs and checkpoint() raise, and so every command that reads the
# store: a gateway could not start.
FOREIGN_LINES = {
    "garbage": b"garbage",
    "not-ascii": b"\xff",
    "letters": b"a,b,c,d,e,f,g,h",
    "seq-x": b"2023-11-14T22:13:20Z,2023-11-14T22:13:20Z,p1,5,moisture,x,1.3,",
}


@pytest.mark.parametrize("line", FOREIGN_LINES.values(), ids=FOREIGN_LINES.keys())
def test_foreign_line_is_skipped_and_named(tmp_path, line):
    clean, dirty = str(tmp_path / "clean"), str(tmp_path / "dirty")
    for root in (clean, dirty):
        assert run_cli(["simulate", "--offline", "--data-root", root, "--nodes", "2",
                        "--duration", "6h", "--seed", "5", "--start", "1700000000"]) == 0
    partition = os.path.join(dirty, "p1", "2023-11-14.csv")
    with open(partition, "ab") as f:
        f.write(line + b"\n")
    named = f"skipped 1 line(s) that are no rows: {partition}\n"

    def soilnet(*argv):
        return subprocess.run([sys.executable, "-m", "soilnet.cli", *argv], env=SRC_ENV,
                              capture_output=True, text=True, timeout=60)

    for command in ("export", "report"):
        want, got = soilnet(command, "--data-root", clean), soilnet(command, "--data-root", dirty)
        assert (want.returncode, want.stderr) == (0, "")
        assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, named)

    proc = subprocess.Popen(
        [sys.executable, "-m", "soilnet.cli", "serve",
         "--listen", "127.0.0.1:0", "--data-root", dirty],
        stderr=subprocess.PIPE, text=True, env=SRC_ENV,
    )
    with proc.stderr:
        assert re.fullmatch(r"listening on 127\.0\.0\.1:\d+\n", proc.stderr.readline())
        assert proc.stderr.readline() == named
        proc.send_signal(signal.SIGTERM)
        err = proc.stderr.read()
    assert proc.wait(timeout=10) == 0
    assert err.startswith("shutdown, counters={'accepted': 0,")
