"""soilnet command line: gateway, simulator, calibration, export, reports.

Exit codes: 0 success, 1 usage error, 2 runtime error. Diagnostics go to
stderr, data to stdout, so output can be piped.

A module that not every command runs (``sim``, ``gateway``, ``analytics``,
``csv``, ``signal``) is imported inside the commands that run it, so that a
start compiles and loads only what its command uses. (Annotations that
name ``sim`` are never evaluated.)
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import stat
import sys
import threading
import time

from soilnet import core
from soilnet.core import Channel
from soilnet.store import (
    DAY_S,
    Store,
    export_chunks,
    parse_iso_utc,
    rows_with_vwc,
)

ENV_PREFIX = "SOILNET_"
DEFAULT_PORT = 1884  # 1883-adjacent; real MQTT brokers own 1883

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _env_default(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"), fallback)


def parse_duration(text: str) -> int:
    """'48h', '2d', '900s', '30m' or bare seconds -> seconds."""
    text = text.strip()
    mult = {"s": 1, "m": 60, "h": 3600, "d": 86400}
    if text and text[-1] in mult:
        return int(float(text[:-1]) * mult[text[-1]])
    return int(text)


def parse_instant(text: str) -> int:
    """ISO-8601 UTC ('2024-01-01T00:00:00Z') or unix seconds."""
    text = text.strip()
    if text.isdigit():
        return int(text)
    return parse_iso_utc(text)


def parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise UsageError(f"bad address {text!r}, want host:port")
    return host, int(port)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as f:
        return json.load(f)


def _load_model(path: str) -> core.CalibrationModel:
    with open(path) as f:
        return core.CalibrationModel.from_dict(json.load(f))


def _field_model_from_config(cfg: dict, depths: tuple[int, ...]) -> sim.SoilFieldModel:
    from soilnet import sim

    fcfg = cfg.get("field", {})
    base = sim.default_field_model(depths)
    if not fcfg:
        return base
    kwargs = {}
    for key in ("vwc_surface_range", "temp_range"):
        if key in fcfg:
            kwargs[key] = tuple(fcfg[key])
    for key in ("rain_event_rate_per_day", "diurnal_temp_amplitude_c",
                "noise_sigma_voltage", "noise_sigma_temp_c"):
        if key in fcfg:
            kwargs[key] = float(fcfg[key])
    return sim.SoilFieldModel(depth_responses=base.depth_responses, **kwargs)


def _cal_from_config(cfg: dict, model_path: str | None) -> core.CalibrationModel:
    if model_path:
        return _load_model(model_path)
    if "calibration" in cfg:
        return core.CalibrationModel.from_dict(cfg["calibration"])
    return core.FIELD_CALIBRATION


def _report_skipped(skipped: dict[str, int]) -> None:
    """Name on stderr the partitions whose reads skipped lines that are no
    rows, and how many: five at most, then how many more, so that a
    supervisor's unread stderr pipe stays small."""
    named = sorted((path, n) for path, n in skipped.items() if n > 0)
    for path, n in named[:5]:
        print(f"skipped {n} line(s) that are no rows: {path}", file=sys.stderr)
    if len(named) > 5:
        print(f"and {len(named) - 5} more partition(s) with skipped lines", file=sys.stderr)


def cmd_serve(args) -> int:
    import signal

    from soilnet.gateway import BindFailure, Gateway

    site = _load_config(args.config).get("site", args.site)
    try:
        gw = Gateway(parse_addr(args.listen), Store(args.data_root), site)
    except BindFailure as e:
        print(f"bind failed: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    at_start = dict(gw.store.skipped)
    # SIGTERM stops the gateway as SIGINT does: at once, as KeyboardInterrupt.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        print("listening on %s:%d" % gw.bound_addr, file=sys.stderr, flush=True)
        _report_skipped(at_start)
        gw.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        gw.server_close()
    _report_skipped({p: n - at_start.get(p, 0) for p, n in gw.store.skipped.items()})
    print(f"shutdown, counters={gw.counters()}", file=sys.stderr)
    return EXIT_OK


def _profiles_from_config(cfg: dict, args) -> list[sim.ProfileConfig]:
    from soilnet import sim

    if cfg.get("profiles"):
        return [
            sim.ProfileConfig(
                profile_id=p["profile_id"],
                depths_cm=tuple(p.get("depths_cm", sim.ProfileConfig.depths_cm)),
                cadence_s=int(p.get("cadence_s", args.cadence)),
                seed=int(p.get("seed", args.seed)),
                clock_scale=float(p.get("clock_scale", args.clock_scale)),
            )
            for p in cfg["profiles"]
        ]
    return [
        sim.ProfileConfig(
            profile_id=f"p{i + 1}",
            cadence_s=args.cadence,
            seed=args.seed + i,
            clock_scale=args.clock_scale,
        )
        for i in range(args.nodes)
    ]


def cmd_simulate(args) -> int:
    from soilnet import sim

    cfg = _load_config(args.config)
    profiles = _profiles_from_config(cfg, args)
    cal = _cal_from_config(cfg, args.model)
    duration_s = parse_duration(args.duration)
    start_ts = parse_instant(args.start) if args.start else int(time.time()) // DAY_S * DAY_S
    site = cfg.get("site", args.site)

    if args.offline:
        store = Store(args.data_root)
        for prof in profiles:
            fieldm = _field_model_from_config(cfg, prof.depths_cm)
            # One batch, so one write(), per profile and node day.
            ticks = sim.tick_times(duration_s, prof.cadence_s)
            for _, day_ticks in itertools.groupby(ticks, lambda t_s: (start_ts + t_s) // DAY_S):
                store.append_rows([reading for t_s in day_ticks
                                   for reading in sim.step(prof, fieldm, cal, t_s, start_ts)])
        try:
            store.checkpoint()
        except OSError as e:  # a cache: the rows are stored without it
            print(f"checkpoint not saved: {type(e).__name__}: {e}", file=sys.stderr)
        print(f"offline run complete: {len(profiles)} profile(s)", file=sys.stderr)
        return EXIT_OK

    from soilnet.gateway import GatewayClient

    addr = parse_addr(args.connect or cfg.get("gateway", f"127.0.0.1:{DEFAULT_PORT}"))
    failures = []

    def run_one(prof: sim.ProfileConfig):
        fieldm = _field_model_from_config(cfg, prof.depths_cm)
        client = GatewayClient(addr, node_id=prof.profile_id, site=site,
                               backoff_base_s=args.backoff_base,
                               max_attempts=args.max_attempts)
        try:
            client.connect()
        except OSError as e:
            failures.append(f"{prof.profile_id}: cannot reach gateway: {e}")
            return
        try:
            counters = sim.run_node(prof, fieldm, cal, client, duration_s, start_ts)
        finally:
            client.close()
        if client.buffer or counters.get("dropped_overflow"):
            failures.append(f"{prof.profile_id}: {len(client.buffer)} unsent readings")
        print(f"{prof.profile_id}: {counters}", file=sys.stderr)

    threads = [threading.Thread(target=run_one, args=(p,)) for p in profiles]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for msg in failures:
        print(msg, file=sys.stderr)
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_calibrate(args) -> int:
    pairs = [(float(v), float(vwc)) for v, vwc in _read_csv_pairs(args.pairs, 0)]
    transform = core.Transform.RECIPROCAL if args.transform == "reciprocal" else core.Transform.IDENTITY
    try:
        model = core.fit_calibration(pairs, transform)
    except (core.InsufficientPoints, core.SingularSystem, core.ZeroVoltage) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    doc = json.dumps(model.to_dict(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(doc)
    else:
        sys.stdout.write(doc)
    print(f"fit: rmse={model.fit_rmse:.4f} r2={model.fit_r2:.6f} n={model.n_points}",
          file=sys.stderr)
    return EXIT_OK


def _read_csv_pairs(path: str, header_col: int) -> list[tuple[str, str]]:
    """The first two fields of each row of a CSV file, without blank rows
    and without a first row whose ``header_col`` field is no number (a
    header). A row of one field raises ValueError naming its line."""
    import csv

    pairs = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for i, row in enumerate(reader):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}, line {reader.line_num}: want 2 fields, got {len(row)}")
            if i == 0 and not _is_number(row[header_col]):
                continue
            pairs.append((row[0], row[1]))
    return pairs


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _window(args) -> tuple[int | None, int | None]:
    return (parse_instant(args.start) if args.start else None,
            parse_instant(args.end) if args.end else None)


def cmd_export(args) -> int:
    """Write the export one node day at a time, as ``Store.query_days``
    reads it, so that it holds one day's rows, not the study period's.
    A bad model file, profile or window fails before any byte is written;
    a later failure removes ``--out`` if it is a regular file, so that no
    partial export is left (stdout keeps what it was sent)."""
    model = _load_model(args.model) if args.model else None
    store = Store(args.data_root)
    days = store.query_days(args.profile, *_window(args))
    if model is not None:
        days = (rows_with_vwc(rows, model) for rows in days)
    chunks = export_chunks(days, args.format)
    if args.out:
        regular = False
        try:
            with open(args.out, "wb") as f:
                regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)
                f.writelines(chunks)
        except BaseException:
            if regular:  # never /dev/null, a pipe or a device
                os.remove(os.path.realpath(args.out))  # the file written, not a link to it
            raise
    else:
        sys.stdout.buffer.writelines(chunks)
    _report_skipped(store.skipped)
    return EXIT_OK


def cmd_report(args) -> int:
    from soilnet.analytics import plot_series_csv, render_report, report_to_json, validation_report

    # The input files first, so that a bad one fails before the query.
    model = _load_model(args.model) if args.model else core.FIELD_CALIBRATION
    references = []
    for spec_arg in args.reference or []:
        label, _, path = spec_arg.partition("=")
        if not path:
            raise UsageError(f"--reference wants label=path, got {spec_arg!r}")
        references.append((label, [(parse_instant(t), float(v))
                                   for t, v in _read_csv_pairs(path, 1)]))
    store = Store(args.data_root)
    rows = store.query(args.profile, *_window(args))
    _report_skipped(store.skipped)
    if not rows:
        print("no rows in range", file=sys.stderr)
        return EXIT_RUNTIME

    # Sensor VWC series for reference comparison: calibrated moisture at the
    # shallowest depth present (gravimetric sampling is near-surface), empty
    # when the range holds no moisture rows; a reading the model cannot map
    # has no VWC and is left out. Only this series is calibrated: the
    # summaries and the plot CSVs read raw values.
    moisture = Channel.MOISTURE_VOLTAGE
    depth = min((r.depth_cm for r in rows if r.channel is moisture), default=None)
    shallow = [r for r in rows if r.depth_cm == depth and r.channel is moisture]
    sensor_series = [(r.timestamp, r.vwc_percent) for r in rows_with_vwc(shallow, model)
                     if r.vwc_percent is not None]
    report = validation_report(rows, sensor_series, references, cadence_s=args.cadence)
    sys.stdout.write(render_report(report))
    if args.out_json:
        with open(args.out_json, "wb") as f:
            f.write(report_to_json(report))
    if args.plot_csv_dir:
        os.makedirs(args.plot_csv_dir, exist_ok=True)
        for ch in (Channel.MOISTURE_VOLTAGE, Channel.TEMPERATURE_C):
            path = os.path.join(args.plot_csv_dir, f"{ch.value}.csv")
            with open(path, "wb") as f:
                f.write(plot_series_csv(rows, ch))
    return EXIT_OK


def _data_root(sp) -> None:
    sp.add_argument("--data-root", default=_env_default("data-root", "data"))


def _range(sp) -> None:
    sp.add_argument("--profile")
    sp.add_argument("--start")
    sp.add_argument("--end")


def _serve_args(sp) -> None:
    _data_root(sp)
    sp.add_argument("--config", default=_env_default("config"))
    sp.add_argument("--listen", default=_env_default("listen", f"127.0.0.1:{DEFAULT_PORT}"))
    sp.add_argument("--site", default=_env_default("site", "site"))


def _simulate_args(sp) -> None:
    _data_root(sp)
    sp.add_argument("--config", default=_env_default("config"))
    sp.add_argument("--nodes", type=int, default=1)
    sp.add_argument("--duration", default="48h")
    sp.add_argument("--cadence", type=int, default=900)
    # A string default goes through type=int, so a bad SOILNET_SEED is a usage error.
    sp.add_argument("--seed", type=int, default=_env_default("seed", "0"))
    sp.add_argument("--clock-scale", type=float, default=math.inf)
    sp.add_argument("--connect", default=_env_default("connect"))
    sp.add_argument("--offline", action="store_true")
    sp.add_argument("--start", default=_env_default("start"))
    sp.add_argument("--site", default=_env_default("site", "site"))
    sp.add_argument("--model", default=_env_default("model"))
    sp.add_argument("--backoff-base", type=float, default=1.0)
    sp.add_argument("--max-attempts", type=int, default=8)


def _calibrate_args(sp) -> None:
    sp.add_argument("--pairs", required=True)
    sp.add_argument("--transform", choices=["reciprocal", "identity"], default="reciprocal")
    sp.add_argument("--out")


def _export_args(sp) -> None:
    _data_root(sp)
    _range(sp)
    # No SOILNET_MODEL default: the environment never changes export bytes.
    sp.add_argument("--model")
    sp.add_argument("--format", choices=["csv", "json", "xml"], default="csv")
    sp.add_argument("--out")


def _report_args(sp) -> None:
    _data_root(sp)
    _range(sp)
    # No SOILNET_MODEL default either: the environment never changes a report.
    sp.add_argument("--model")
    sp.add_argument("--cadence", type=int, default=900)
    sp.add_argument("--reference", action="append", metavar="LABEL=CSV")
    sp.add_argument("--out-json")
    sp.add_argument("--plot-csv-dir")


# Per command: its help, the function that runs it and what adds its arguments.
_COMMANDS = {
    "serve": ("run the ingestion gateway", cmd_serve, _serve_args),
    "simulate": ("run simulated sensor nodes", cmd_simulate, _simulate_args),
    "calibrate": ("fit a calibration model from (voltage,vwc) pairs", cmd_calibrate,
                  _calibrate_args),
    "export": ("export stored rows; --model fills vwc_percent", cmd_export, _export_args),
    "report": ("validation report (RMSE/correlation, extrema, variability)", cmd_report,
               _report_args),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command. Only the command that ``argv`` names
    (its first word that is no option) gets its arguments, every command
    when ``argv`` is None: argparse's set-up costs per argument, and the
    other commands' arguments show in no help and parse nothing."""
    named = None if argv is None else next((a for a in argv if not a.startswith("-")), None)
    p = _Parser(prog="soilnet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_args) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if argv is None or name == named:
            add_args(sp)
        sp.set_defaults(func=func)
    return p


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
