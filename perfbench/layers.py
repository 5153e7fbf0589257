"""Per-layer metrics of a traced run, computed from the spans of every
traced program process (gateway, simulate) and of the benchmark process
itself, plus the side counts the phases recorded. A layer the workload
does not exercise reports 0."""

from __future__ import annotations

from collections import defaultdict

import common
import spans

VERDICTS = {"accept": "accepted", "duplicate": "duplicate",
            "out_of_range": "out_of_range", "malformed": "malformed"}


class _Calls:
    def __init__(self):
        self.spans: list[spans.Span] = []
        self.self_ns: list[int] = []

    def add(self, span: spans.Span, self_ns: int) -> None:
        self.spans.append(span)
        self.self_ns.append(self_ns)

    @property
    def calls(self) -> int:
        return len(self.spans)

    @property
    def self_s(self) -> float:
        return sum(self.self_ns) / 1e9

    @property
    def total_s(self) -> float:
        return sum(s.duration for s in self.spans) / 1e9

    def pct_us(self, q: float) -> float:
        return common.percentile([s.duration for s in self.spans], q) / 1e3


def compute(tracer, store_stats: dict, overhead_pct: float) -> dict[str, tuple[float, str]]:
    by_name: dict[str, _Calls] = defaultdict(_Calls)
    start_s, last_seqs_s, growth = [], [], []
    for phase, spawn_ns, path in tracer.procs:
        proc_spans = spans.load(path)
        selfs = spans.self_times(proc_spans)
        for s in proc_spans:
            by_name[s.name].add(s, selfs[s.id])
        if proc_spans:
            start_s.append((min(s.start for s in proc_spans) - spawn_ns) / 1e9)
        if phase == "restart":
            last_seqs_s += [s.duration / 1e9 for s in proc_spans if s.name == "store.last_seqs"]
        steps = [(s.tag[0], s.tag[1], selfs[s.id]) for s in proc_spans if s.name == "sim.step"]
        if steps:
            growth.append(_growth(steps))
    selfs = spans.self_times(tracer.rec.spans)
    for s in tracer.rec.spans:
        by_name[s.name].add(s, selfs[s.id])

    x = tracer.extra
    m: dict[str, tuple[float, str]] = {"cli.start_s": (common.median(start_s), "s")}

    step = by_name["sim.step"]
    step_readings = sum(s.tag[1] for s in step.spans)
    m["sim.step.calls"] = (step.calls, "count")
    m["sim.step.self_s"] = (step.self_s, "s")
    m["sim.step.us_per_reading"] = (sum(step.self_ns) / 1e3 / step_readings if step_readings else 0.0, "us")
    m["sim.step.growth"] = (common.median(growth), "ratio")

    classify = by_name["protocol.classify_line"]
    m["protocol.classify_line.calls"] = (classify.calls, "count")
    m["protocol.classify_line.self_s"] = (classify.self_s, "s")
    m["protocol.classify_line.p50_us"] = (classify.pct_us(50), "us")
    verdicts = defaultdict(int)
    for s in classify.spans:
        if s.tag in VERDICTS:
            verdicts[VERDICTS[s.tag]] += 1
    for name in VERDICTS.values():
        m[f"protocol.verdict.{name}"] = (verdicts[name], "count")

    handle = by_name["gateway.handle_line"]
    m["gateway.handle_line.calls"] = (handle.calls, "count")
    m["gateway.handle_line.self_s"] = (handle.self_s, "s")
    m["gateway.handle_line.p50_us"] = (handle.pct_us(50), "us")
    m["gateway.handle_line.p99_us"] = (handle.pct_us(99), "us")
    windows = x["publish_windows"]
    busy = sum(s.duration for s in handle.spans if any(a <= s.start < b for a, b in windows))
    wall = sum(b - a for a, b in windows)
    m["gateway.busy_share"] = (busy / wall if wall else 0.0, "ratio")

    calls = sum(x["client_publish_calls"])
    m["gateway.client.publish.calls"] = (calls, "count")
    m["gateway.client.publish.round_trips_per_reading"] = (
        sum(x["client_socket_reads"]) / calls if calls else 0.0, "ratio")
    for name in ("retries", "rejected", "buffered"):
        m[f"gateway.client.publish.{name}"] = (sum(x[f"client_{name}"]), "count")
    m["gateway.client.publish.ack_p99_us"] = (common.percentile(x["client_publish_us"], 99), "us")
    m["gateway.client.publish.wait_us_p50"] = (common.median(x["client_wait_us"]), "us")

    append = by_name["store.append"]
    m["store.append.calls"] = (append.calls, "count")
    m["store.append.self_s"] = (append.self_s, "s")
    m["store.append.p50_us"] = (append.pct_us(50), "us")
    m["store.append.p99_us"] = (append.pct_us(99), "us")
    m["store.bytes_per_reading"] = (store_stats["bytes"] / store_stats["rows"] if store_stats["rows"] else 0.0, "B")
    m["store.partitions"] = (store_stats["partitions"], "count")

    query = by_name["store.query"]
    m["store.query.calls"] = (query.calls, "count")
    m["store.query.self_s"] = (query.self_s, "s")
    m["store.query.rows_returned"] = (sum(s.tag or 0 for s in query.spans), "count")
    m["store.query.returned_per_stored"] = (common.median(x["query_returned_per_stored"]), "ratio")
    m["store.last_seqs.s"] = (common.median(last_seqs_s), "s")
    m["store.last_seqs.rows_on_disk"] = (store_stats["rows"], "count")
    for fmt in ("csv", "json", "xml"):
        exp = by_name[f"store.export.{fmt}"]
        m[f"store.export.{fmt}.s"] = (exp.total_s, "s")
        m[f"store.export.{fmt}.bytes"] = (sum(s.tag or 0 for s in exp.spans), "B")
    m["store.rows_with_vwc.s"] = (by_name["store.rows_with_vwc"].total_s, "s")
    cal = by_name["core.apply_calibration"]
    m["core.apply_calibration.calls"] = (cal.calls, "count")
    m["core.apply_calibration.self_s"] = (cal.self_s, "s")

    for name in ("validation_report", "render_report", "report_to_json"):
        m[f"analytics.{name}.s"] = (by_name[f"analytics.{name}"].total_s, "s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def _growth(steps: list[tuple[int, int, int]]) -> float:
    """Self time per reading on the last simulated day over the first."""
    last_t = max(t for t, _, _ in steps)

    def per_reading(sel):
        n = sum(k for _, k, _ in sel)
        return sum(ns for _, _, ns in sel) / n if n else 0.0

    first = per_reading([s for s in steps if s[0] < 86400])
    last = per_reading([s for s in steps if s[0] > last_t - 86400])
    return last / first if first else 0.0
