"""The operations a soilnet user performs, each timed from outside the
program and checked for correctness: a loopback publish session with a
replay, a gateway restart on a stored history, one-day range queries,
csv/json/xml export, a validation report, and an offline backfill.

Every phase takes an ``Outcome`` (gates, attempted/failed counts) and an
optional ``Tracer``; with a tracer, program subprocesses run under the
traced launcher and in-process calls are wrapped with span recorders.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import socket
import time
from collections import defaultdict
from datetime import datetime, timezone
from xml.etree import ElementTree as ET

import common
import spans
from common import Outcome

DAY_S = 86400
CADENCE_S = 900
DEPTHS = (5, 15, 50, 100)
# 2024-01-01T00:00:00Z; every workload's node clock starts on a UTC day
# boundary a seeded number of days after it.
EPOCH_BASE = 1704067200


def start_ts_for(seed: int) -> int:
    return EPOCH_BASE + (seed % 365) * DAY_S


def iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class Tracer:
    """Spans and side measurements of one traced run."""

    def __init__(self, workdir: str):
        self.rec = spans.Recorder()
        self.workdir = workdir
        self.procs: list[tuple[str, int, str]] = []  # (phase, spawn_ns, spans file)
        self.extra: dict[str, list] = defaultdict(list)

    def spans_path(self) -> str:
        return os.path.join(self.workdir, f"spans-{len(self.procs)}.json")

    def add_proc(self, phase: str, spawn_ns: int, path: str) -> None:
        self.procs.append((phase, spawn_ns, path))


def _reading_key(r) -> str:
    return common.reading_key(r.profile_id, r.depth_cm, r.channel.value, r.seq)


# ---------------------------------------------------------------- inputs


SESSION_DAYS = 1
OOR_SHARE = 0.01  # seeded share of out-of-range readings in a session


def sim_session(profiles: int, seed: int):
    """Readings of ``profiles`` simulated profiles over ``SESSION_DAYS``
    days, interleaved tick by tick, with a seeded share replaced by
    out-of-range values. Returns (readings, indices expected to be
    rejected). No rejected reading sits on a stream's last tick, so a
    replay of the session is all duplicates."""
    from soilnet import core, sim

    start = start_ts_for(seed)
    cfgs = [sim.ProfileConfig(f"p{i + 1}", DEPTHS, CADENCE_S, seed=seed * 100 + i)
            for i in range(profiles)]
    fieldm = sim.default_field_model(DEPTHS)
    readings = []
    for t_s in sim.tick_times(SESSION_DAYS * DAY_S, CADENCE_S):
        for cfg in cfgs:
            readings.extend(sim.step(cfg, fieldm, core.FIELD_CALIBRATION, t_s, start))
    rng = random.Random(f"oor:{seed}")
    last_tick = profiles * len(DEPTHS) * 2
    candidates = range(len(readings) - last_tick)
    oor = set(rng.sample(candidates, round(len(candidates) * OOR_SHARE)))
    for i in oor:
        r = readings[i]
        bad = rng.uniform(3.4, 6.0) if r.channel is core.Channel.MOISTURE_VOLTAGE else rng.uniform(126.0, 250.0)
        readings[i] = dataclasses.replace(r, value=bad)
    return readings, oor


# ------------------------------------------------------ reference content


class Reference:
    """Stored rows per profile in the program's query order, from the
    records ``common.read_store`` read straight from the partition files."""

    def __init__(self, stored: list[dict]):
        self.by_profile: dict[str, list[tuple]] = defaultdict(list)
        for rec in stored:
            ts = int(datetime.strptime(rec["timestamp"], "%Y-%m-%dT%H:%M:%SZ")
                     .replace(tzinfo=timezone.utc).timestamp())
            self.by_profile[rec["profile"]].append(
                (ts, int(rec["depth_cm"]), rec["channel"], int(rec["seq"]), float(rec["value"])))
        for rows in self.by_profile.values():
            rows.sort()
        self._ts = {p: [r[0] for r in rows] for p, rows in self.by_profile.items()}
        self.rows = sum(len(v) for v in self.by_profile.values())

    @property
    def profiles(self) -> list[str]:
        return sorted(self.by_profile)

    def window(self, profile: str, start: int, end: int) -> list[tuple]:
        ts = self._ts[profile]
        return self.by_profile[profile][bisect.bisect_left(ts, start):bisect.bisect_left(ts, end)]

    def span(self, profile: str) -> tuple[int, int]:
        ts = self._ts[profile]
        return ts[0], ts[-1]

    def pick_window(self, rng: random.Random, length_s: int) -> tuple[str, int, int]:
        profile = rng.choice(self.profiles)
        first, last = self.span(profile)
        start = rng.randrange(first, max(first, last - length_s + CADENCE_S) + 1)
        return profile, start, start + length_s

    def pick_stored(self, rng: random.Random):
        from soilnet.core import Channel, RawReading

        profile = rng.choice(self.profiles)
        ts, depth, chan, seq, value = rng.choice(self.by_profile[profile])
        return RawReading(profile, depth, Channel(chan), value, ts, seq)


def _row_tuple(row) -> tuple:
    return (row.timestamp, row.depth_cm, row.channel.value, row.seq, row.value)


# ----------------------------------------------------------------- phases


PASS_PARTS = 6  # a session's publish and its replay each run in this many parts


def _drive(publish, readings, between) -> tuple[list[int], list[str], list[tuple[int, int]]]:
    """Publish every reading, timing each PUB->ACK, in ``PASS_PARTS``
    consecutive parts with ``between()`` called after each part. Returns
    latencies, statuses and the (start, end) of each part."""
    lat, statuses, windows = [], [], []
    clock = time.perf_counter_ns
    n = len(readings)
    for k in range(PASS_PARTS):
        w0 = clock()
        for r in readings[k * n // PASS_PARTS:(k + 1) * n // PASS_PARTS]:
            t0 = clock()
            statuses.append(publish(r))
            lat.append(clock() - t0)
        windows.append((w0, clock()))
        between()
    return lat, statuses, windows


def _client(addr):
    from soilnet.gateway import GatewayClient

    # Short backoff: any retry is counted as a failure, and a run must end
    # well within its time limit even if the gateway stops answering.
    return GatewayClient(addr, node_id="perfbench", ack_timeout_s=10.0,
                         backoff_base_s=0.05, backoff_cap_s=0.2, max_attempts=3)


class _SocketReads:
    """Counts reads on client sockets in this process: each is one wait
    for the gateway's reply bytes."""

    def __init__(self):
        self.count = 0

    def __enter__(self):
        self._orig = socket.SocketIO.readinto

        def readinto(sio, buf):
            self.count += 1
            return self._orig(sio, buf)

        socket.SocketIO.readinto = readinto
        return self

    def __exit__(self, *exc):
        socket.SocketIO.readinto = self._orig


def session(out: Outcome, readings, oor: set[int], root: str, tracer: Tracer | None = None,
            between=lambda: None) -> dict:
    """Fresh gateway on an empty store; publish every reading over one
    loopback connection (stop-and-wait, so a closed loop), then replay the
    whole session to the same gateway, then stop it and check the store.
    ``between()`` runs after each of the ``PASS_PARTS`` parts of both
    passes, while the connection idles, so that other timed work can be
    spread over the session."""
    spans_out = tracer.spans_path() if tracer else None
    t0 = time.perf_counter_ns()
    gw = common.GatewayProcess(root, spans_out)
    client = None
    try:
        client = _client(gw.addr)
        client.connect()
        setup_s = (time.perf_counter_ns() - t0) / 1e9
        publish = client.publish
        client_rec = spans.Recorder()
        if tracer:
            publish = client_rec.wrap("gateway.client.publish", publish, key=lambda a: _reading_key(a[0]))
            tracer.add_proc("session", gw.spawn_ns, spans_out)
        with _SocketReads() if tracer else contextlib.nullcontext() as reads:
            pub_lat, pub_status, pub_windows = _drive(publish, readings, between)
            bytes_after_publish = common.store_bytes(root)
            rep_lat, rep_status, _ = _drive(publish, readings, between)
        bytes_after_replay = common.store_bytes(root)
        client.close()
        stopped = gw.stop()
    finally:
        if client is not None:
            client.close()
        common.kill(gw.proc)

    n = len(readings)
    bad_acks = []
    for i, status in enumerate(pub_status):
        want = "rejected" if i in oor else "acknowledged"
        out.op(status == want)
        if status != want:
            bad_acks.append(f"publish #{i}: {status}, want {want}")
    for i, status in enumerate(rep_status):
        out.op(status == "acknowledged")
        if status != "acknowledged":
            bad_acks.append(f"replay #{i}: {status}")
    for _ in range(client.counters["retries"]):
        out.op(False)
    out.gate("session.acks", bad_acks[:5])
    out.gate("session.replay_appends_nothing",
             [] if bytes_after_replay == bytes_after_publish else
             [f"replay grew the store by {bytes_after_replay - bytes_after_publish} bytes"])
    out.gate("session.counters", check_counters(stopped["counters"], {
        "accepted": n - len(oor), "duplicate": n, "out_of_range": len(oor),
        "malformed": 0, "pub_total": 2 * n}))
    out.gate("process.exit_codes", [] if stopped["code"] == 0 else [f"serve exited {stopped['code']}"])
    accepted = [r for i, r in enumerate(readings) if i not in oor]
    out.gate("session.stored_rows", check_stored(accepted, common.read_store(root)))

    if tracer:
        tracer.extra["publish_windows"] += pub_windows
        tracer.extra["client_publish_calls"].append(2 * n)
        tracer.extra["client_socket_reads"].append(reads.count)
        for name in ("retries", "rejected"):
            tracer.extra[f"client_{name}"].append(client.counters[name])
        tracer.extra["client_buffered"].append((pub_status + rep_status).count("buffered"))
        tracer.extra["client_publish_us"].extend(s.duration / 1e3 for s in client_rec.spans)
        tracer.extra["client_wait_us"].extend(_client_waits(client_rec.spans, spans_out))
    return {"setup_s": setup_s, "pub_lat": pub_lat, "rep_lat": rep_lat,
            "rss_mb": stopped["rss_mb"]}


def _client_waits(client_spans: list[spans.Span], gw_spans_path: str) -> list[float]:
    """Per reading, in us: client publish span minus the gateway's
    handle_line span of the same reading (the k-th occurrence of a key on
    one side matches the k-th on the other)."""
    gw = defaultdict(list)
    for s in spans.load(gw_spans_path):
        if s.name == "gateway.handle_line" and s.key:
            gw[s.key].append(s.duration)
    seen: dict[str, int] = defaultdict(int)
    waits = []
    for s in client_spans:
        k = seen[s.key]
        seen[s.key] += 1
        if k < len(gw.get(s.key, ())):
            waits.append((s.duration - gw[s.key][k]) / 1e3)
    return waits


def check_counters(counters: dict | None, want: dict) -> list[str]:
    """Gateway shutdown counters: conservation plus the expected totals."""
    if counters is None:
        return ["gateway printed no shutdown counters"]
    problems = []
    total = sum(counters.get(k, 0) for k in ("accepted", "duplicate", "out_of_range", "malformed"))
    if total != counters.get("pub_total"):
        problems.append(f"conservation broken: {total} classified != pub_total {counters.get('pub_total')}")
    for k, v in want.items():
        if counters.get(k) != v:
            problems.append(f"{k}={counters.get(k)}, want {v}")
    return problems


def check_stored(accepted, stored: list[dict]) -> list[str]:
    """Stored rows equal the accepted readings: same count, and per stream
    the same seqs with bit-equal values and node timestamps. Rows may lie
    in any number of partitions."""
    want = defaultdict(list)
    for r in accepted:
        want[(r.profile_id, r.depth_cm, r.channel.value)].append((r.seq, r.value.hex(), iso(r.timestamp)))
    got = defaultdict(list)
    for rec in stored:
        got[(rec["profile"], int(rec["depth_cm"]), rec["channel"])].append(
            (int(rec["seq"]), float(rec["value"]).hex(), rec["timestamp"]))
    problems = []
    if len(stored) != len(accepted):
        problems.append(f"{len(stored)} rows stored, {len(accepted)} accepted")
    for key in sorted(set(want) | set(got), key=str):
        if sorted(got.get(key, [])) != sorted(want.get(key, [])):
            problems.append(f"stream {key}: stored rows differ from accepted readings")
    return problems[:5]


def restart(out: Outcome, root: str, probe, tracer: Tracer | None = None) -> dict:
    """Cold gateway start on an existing store (dedup state is rebuilt from
    it), then one PUB of an already stored reading, which must be ACKed as
    a duplicate and append nothing."""
    spans_out = tracer.spans_path() if tracer else None
    before = common.store_bytes(root)
    gw = common.GatewayProcess(root, spans_out)
    client = None
    try:
        client = _client(gw.addr)
        client.connect()
        status = client.publish(probe)
        client.close()
        stopped = gw.stop()
    finally:
        if client is not None:
            client.close()
        common.kill(gw.proc)
    if tracer:
        tracer.add_proc("restart", gw.spawn_ns, spans_out)
    out.op(status == "acknowledged")
    for _ in range(client.counters["retries"]):
        out.op(False)
    problems = [] if status == "acknowledged" else [f"probe got {status}"]
    problems += check_counters(stopped["counters"], {
        "accepted": 0, "duplicate": 1, "out_of_range": 0, "malformed": 0, "pub_total": 1})
    if common.store_bytes(root) != before:
        problems.append("probe of a stored seq changed the store")
    out.gate("restart.duplicate_probe", problems)
    out.gate("process.exit_codes", [] if stopped["code"] == 0 else [f"serve exited {stopped['code']}"])
    return {"restart_s": gw.start_s, "rss_mb": stopped["rss_mb"]}


def read_round(out: Outcome, root: str, ref: Reference, rng: random.Random,
               tracer: Tracer | None = None) -> dict:
    """What a user reading the history does: a one-day range query for one
    seeded profile, then the queried rows exported as csv, json and xml and
    a validation report on them. Each step is timed on its own and
    checked. Returns the query's latency in ms, the export's rows/s over
    the three formats and the report's seconds."""
    from soilnet.store import Store

    query = Store(root).query
    if tracer:
        query = tracer.rec.wrap("store.query", query, tag=lambda a, r: None if r is None else len(r))
    profile, start, end = ref.pick_window(rng, DAY_S)
    t0 = time.perf_counter_ns()
    rows = query(profile, start, end)
    query_ms = (time.perf_counter_ns() - t0) / 1e6
    want = ref.window(profile, start, end)
    ok = [_row_tuple(r) for r in rows] == want
    out.op(ok)
    out.gate("query.rows", [] if ok else [f"{profile} [{start},{end}): {len(rows)} rows, want {len(want)}"])
    if tracer:
        tracer.extra["query_returned_per_stored"].append(len(rows) / len(ref.by_profile[profile]))
    return {"query_ms": query_ms,
            "export_rate": export_rows(out, rows, want, profile, tracer),
            "report_s": report_rows(out, rows, want, rng, tracer)}


def export_rows(out: Outcome, rows, want: list[tuple], profile: str, tracer: Tracer | None = None) -> float:
    """Export the queried rows as csv, json and xml; returns rows/s over
    the three formats (serialization only)."""
    from soilnet.store import export

    exporters = {fmt: export for fmt in ("csv", "json", "xml")}
    if tracer:
        exporters = {fmt: tracer.rec.wrap(f"store.export.{fmt}", export,
                                          tag=lambda a, r: None if r is None else len(r))
                     for fmt, export in exporters.items()}
    elapsed, data = 0, {}
    for fmt, export in exporters.items():
        t0 = time.perf_counter_ns()
        data[fmt] = export(rows, fmt)
        elapsed += time.perf_counter_ns() - t0
    problems = check_exports(data, want, profile)
    out.op(not problems)
    out.gate("export.roundtrip", problems)
    return 3 * len(rows) / (elapsed / 1e9)


def check_exports(data: dict[str, bytes], want: list[tuple], profile: str) -> list[str]:
    """JSON parses back to the queried rows; CSV and XML carry one record
    per row."""
    problems = []
    recs = json.loads(data["json"])
    got = [(r["timestamp"], r["profile"], r["depth_cm"], r["channel"], r["seq"], r["value"]) for r in recs]
    exp = [(iso(ts), profile, d, c, s, v) for ts, d, c, s, v in want]
    if got != exp:
        problems.append(f"json export: {len(got)} records differ from the {len(exp)} queried rows")
    csv_rows = list(csv.reader(io.StringIO(data["csv"].decode("ascii"))))
    if len(csv_rows) != len(want) + 1:
        problems.append(f"csv export: {len(csv_rows) - 1} rows, want {len(want)}")
    if len(ET.fromstring(data["xml"])) != len(want):
        problems.append("xml export: record count differs")
    return problems



def report_rows(out: Outcome, rows, want: list[tuple], rng: random.Random,
                tracer: Tracer | None = None) -> float:
    """Validation report over the queried rows: calibrate them, compare the
    shallowest moisture series with a sparse seeded gravimetric reference,
    render text and JSON. Returns its seconds."""
    from soilnet import analytics, core
    from soilnet import store as store_mod

    cal = core.FIELD_CALIBRATION
    shallow = min(d for _, d, c, _, _ in want if c == "moisture")
    sensor = [(ts, v) for ts, d, c, _, v in want if c == "moisture" and d == shallow]
    truth, reference = [], []
    for ts, volts in sensor[::8]:  # one gravimetric sample every 2 h
        x = 1.0 / volts
        vwc = cal.a * x * x + cal.b * x + cal.c
        truth.append(vwc)
        reference.append((ts, vwc + rng.gauss(0.0, 1.5)))
    expected_rmse = math.sqrt(sum((t - r) ** 2 for t, (_, r) in zip(truth, reference)) / len(truth))

    rows_with_vwc, validation_report = store_mod.rows_with_vwc, analytics.validation_report
    render_report, report_to_json = analytics.render_report, analytics.report_to_json
    if tracer:
        rows_with_vwc = tracer.rec.wrap("store.rows_with_vwc", rows_with_vwc)
        validation_report = tracer.rec.wrap("analytics.validation_report", validation_report)
        render_report = tracer.rec.wrap("analytics.render_report", render_report)
        report_to_json = tracer.rec.wrap("analytics.report_to_json", report_to_json)
        calibrate = store_mod.apply_calibration
        store_mod.apply_calibration = tracer.rec.wrap("core.apply_calibration", calibrate)
    try:
        t0 = time.perf_counter_ns()
        vrows = rows_with_vwc(rows, cal)
        series = [(r.timestamp, r.vwc_percent) for r in vrows
                  if r.channel.value == "moisture" and r.depth_cm == shallow]
        report = validation_report(vrows, series, [("gravimetric", reference)], cadence_s=CADENCE_S)
        text = render_report(report)
        doc = report_to_json(report)
        report_s = (time.perf_counter_ns() - t0) / 1e9
    finally:
        if tracer:
            store_mod.apply_calibration = calibrate

    problems = []
    refs = json.loads(doc)["references"]
    if len(refs) != 1 or refs[0]["n_pairs"] != len(reference):
        problems.append(f"report pairs {refs}, want {len(reference)}")
    elif not math.isclose(refs[0]["rmse_percent"], expected_rmse, rel_tol=1e-9):
        problems.append(f"report rmse {refs[0]['rmse_percent']}, want {expected_rmse}")
    if "GRAVIMETRIC" not in text:
        problems.append("rendered report lacks the reference row")
    out.op(not problems)
    out.gate("report.values", problems)
    return report_s


def backfill_args(profiles: int, days: int, seed: int, root: str) -> list[str]:
    return ["simulate", "--offline", "--nodes", str(profiles), "--duration", f"{days}d",
            "--seed", str(seed), "--start", iso(start_ts_for(seed)), "--data-root", root]


SAMPLED_TICKS = 4  # ticks per backfill recomputed with sim.step


def backfill(out: Outcome, root: str, profiles: int, days: int, seed: int, rng: random.Random,
             tracer: Tracer | None = None) -> dict:
    """``soilnet simulate --offline`` into an empty store, then check that
    every stream's seqs run 1..N and that sampled ticks equal ``sim.step``
    recomputed here. Returns readings/s, spawn to exit, and the stored
    records."""
    spans_out = tracer.spans_path() if tracer else None
    res = common.run_cli(backfill_args(profiles, days, seed, root), spans_out)
    if tracer:
        tracer.add_proc("backfill", res["spawn_ns"], spans_out)
    ticks = days * DAY_S // CADENCE_S + 1
    n = profiles * ticks * len(DEPTHS) * 2
    stored = common.read_store(root)
    problems = check_seq_runs(stored, ticks)
    if len(stored) != n:
        problems.append(f"{len(stored)} rows stored, want {n}")
    out.gate("backfill.seq_runs", problems)
    sample_problems = check_sampled_ticks(stored, profiles, days, seed, rng, SAMPLED_TICKS)
    out.gate("backfill.sampled_ticks", sample_problems)
    out.gate("process.exit_codes", [] if res["code"] == 0 else [f"simulate exited {res['code']}: {res['stderr'][-200:]}"])
    out.op(res["code"] == 0 and not problems and not sample_problems)
    return {"rate": n / res["wall_s"], "stored": stored}


def check_seq_runs(stored: list[dict], ticks: int) -> list[str]:
    """Every stream holds seqs 1..ticks exactly once."""
    seqs = defaultdict(list)
    for rec in stored:
        seqs[(rec["profile"], rec["depth_cm"], rec["channel"])].append(int(rec["seq"]))
    problems = []
    for key, got in sorted(seqs.items()):
        if sorted(got) != list(range(1, ticks + 1)):
            missing = sorted(set(range(1, ticks + 1)) - set(got))[:3]
            problems.append(f"stream {key}: {len(got)} seqs, missing {missing}")
    return problems[:5]


def check_sampled_ticks(stored: list[dict], profiles: int, days: int, seed: int,
                        rng: random.Random, samples: int) -> list[str]:
    from soilnet import core, sim

    index = {(r["profile"], int(r["depth_cm"]), r["channel"], int(r["seq"])): r for r in stored}
    fieldm = sim.default_field_model(DEPTHS)
    problems = []
    ticks = days * DAY_S // CADENCE_S + 1
    for _ in range(samples):
        i = rng.randrange(profiles)
        t_s = rng.randrange(ticks) * CADENCE_S
        cfg = sim.ProfileConfig(f"p{i + 1}", DEPTHS, CADENCE_S, seed=seed + i)
        for r in sim.step(cfg, fieldm, core.FIELD_CALIBRATION, t_s, start_ts_for(seed)):
            rec = index.get((r.profile_id, r.depth_cm, r.channel.value, r.seq))
            if rec is None or float(rec["value"]).hex() != r.value.hex() or rec["timestamp"] != iso(r.timestamp):
                problems.append(f"{r.profile_id} t={t_s} {r.depth_cm}cm {r.channel.value}: "
                                f"stored {rec and rec['value']}, recomputed {r.value!r}")
    return problems[:5]


def export_digest(root: str) -> str:
    """sha256 of the whole store exported as CSV."""
    from soilnet import store as store_mod

    return hashlib.sha256(store_mod.export_csv(store_mod.Store(root).query())).hexdigest()


# The CSV export of ``simulate --offline`` for 2 profiles x 2 days at seed 7,
# as the program produced it when the benchmark was defined. The sampled
# tick check recomputes values with the same sim.step that wrote them, so
# it cannot see a change in what sim produces; this digest does.
GOLDEN_BACKFILL = {"profiles": 2, "days": 2, "seed": 7}
GOLDEN_EXPORT_SHA256 = "ae8952cc46509ee80920ae3474569916b4888bde4c8122deb8cfbd7a91f53d29"


def golden_backfill(out: Outcome, root: str) -> str:
    """Run the golden backfill and gate its export digest against the
    recorded one; returns the digest."""
    backfill(out, root, rng=random.Random(0), **GOLDEN_BACKFILL)
    got = export_digest(root)
    out.gate("backfill.golden_digest", [] if got == GOLDEN_EXPORT_SHA256 else
             [f"export of simulate --offline {GOLDEN_BACKFILL} has sha256 {got}, "
              f"recorded {GOLDEN_EXPORT_SHA256}: sim's output changed"])
    return got
