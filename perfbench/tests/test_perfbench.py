"""Tests of the benchmark itself (not part of the soilnet suite):

    python3 -m pytest perfbench/tests -q

They run each workload at a tiny size, plant defects the gates must catch,
and check the self-time calculation on a hand-built span tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import common  # noqa: E402
import phases  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

common.bootstrap()
E2E, PER_LAYER = run.declared_metrics()


def _span(name, start, end, sid, parent=0):
    return spans.Span(name, start, end, sid, parent)


def test_self_time_on_hand_built_tree():
    tree = [
        _span("root", 0, 100, 1),
        _span("a", 10, 40, 2, parent=1),
        _span("b", 30, 60, 3, parent=1),    # overlaps a: 10..60 is covered once
        _span("a.child", 15, 20, 4, parent=2),
        _span("c", 90, 120, 5, parent=1),   # runs past root's end: clipped to 90..100
        _span("other-root", 200, 210, 6),
    ]
    got = spans.self_times(tree)
    assert got == {1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 30, 6: 10}


def test_recorder_nests_and_keys():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x * 2, key=lambda a: f"k{a[0]}", tag=lambda a, r: r)
    outer = rec.wrap("outer", lambda x: inner(x) + 1)
    assert outer(3) == 7
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == 0
    assert (by_name["inner"].key, by_name["inner"].tag) == ("k3", 6)
    assert by_name["outer"].start <= by_name["inner"].start <= by_name["inner"].end <= by_name["outer"].end


@pytest.mark.parametrize("name", list(workloads.MIXES))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_gates(name, trace):
    out = run.run_workload(name, seed=7, seconds=0, trace=trace, mix=workloads.TINY[name])
    assert out.correct, {g: p for g, p in out.gates.items() if p}
    assert out.failed == 0 and out.attempted > 0
    assert sorted(out.metrics) == sorted(PER_LAYER if trace else E2E)
    if not trace:
        assert all(v > 0 for v, _ in out.metrics.values()), out.metrics


def test_traced_ingest_counts_are_exact():
    mix = workloads.TINY["ingest"]
    readings, oor = phases.sim_session(mix.session_profiles, 7)
    m = run.run_workload("ingest", seed=7, seconds=0, trace=True, mix=mix).metrics
    sessions = 1  # one traced cycle at tiny size
    assert m["protocol.verdict.out_of_range"][0] == sessions * len(oor)
    assert m["protocol.verdict.accepted"][0] == sessions * (len(readings) - len(oor))
    assert m["protocol.verdict.malformed"][0] == 0
    assert m["gateway.client.publish.calls"][0] == sessions * 2 * len(readings)
    assert m["gateway.client.publish.rejected"][0] == sessions * len(oor)


@pytest.fixture
def session_store(tmp_path):
    """A real tiny publish session through a gateway subprocess."""
    readings, oor = phases.sim_session(1, 3)
    root = str(tmp_path / "store")
    out = common.Outcome()
    phases.session(out, readings, oor, root)
    assert out.correct, out.gates
    accepted = [r for i, r in enumerate(readings) if i not in oor]
    return root, accepted


def test_gate_catches_a_dropped_stored_row(session_store):
    root, accepted = session_store
    assert phases.check_stored(accepted, common.read_store(root)) == []
    path = common.store_files(root)[0]
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        f.writelines(lines[:5] + lines[6:])
    assert phases.check_stored(accepted, common.read_store(root))


def test_gate_catches_a_changed_value(session_store):
    root, accepted = session_store
    path = common.store_files(root)[0]
    with open(path) as f:
        text = f.read()
    header, first, rest = text.split("\n", 2)
    fields = first.split(",")
    fields[6] = repr(float(fields[6]) + 1e-12)
    with open(path, "w") as f:
        f.write("\n".join([header, ",".join(fields), rest]))
    assert phases.check_stored(accepted, common.read_store(root))


def test_gate_catches_counters_off_by_one():
    good = {"accepted": 90, "duplicate": 100, "out_of_range": 10, "malformed": 0, "pub_total": 200}
    assert phases.check_counters(good, good) == []
    for key in good:
        bad = dict(good, **{key: good[key] + 1})
        assert phases.check_counters(bad, good), key
    assert phases.check_counters(None, good)


def test_gate_catches_a_seq_gap():
    rows = [{"profile": "p1", "depth_cm": "5", "channel": "moisture", "seq": str(s)} for s in (1, 2, 4)]
    assert phases.check_seq_runs(rows, 3)
    assert phases.check_seq_runs(rows[:2], 2) == []


def test_golden_gate_catches_changed_sim_output(tmp_path, monkeypatch):
    out = common.Outcome()
    digest = phases.golden_backfill(out, str(tmp_path / "a"))
    assert out.correct, out.gates
    # What a change in sim's output looks like to the gate: another digest.
    monkeypatch.setattr(phases, "GOLDEN_EXPORT_SHA256", "0" * 64)
    out = common.Outcome()
    assert phases.golden_backfill(out, str(tmp_path / "b")) == digest
    assert out.gates["backfill.golden_digest"]
    assert not out.correct


def test_export_gate_catches_a_missing_record():
    want = [(phases.EPOCH_BASE, 5, "moisture", 1, 1.5), (phases.EPOCH_BASE + 900, 5, "moisture", 2, 1.6)]
    from soilnet.core import Channel
    from soilnet.store import StoredRow, export

    rows = [StoredRow("p1", d, Channel(c), v, ts, s, ts) for ts, d, c, s, v in want]
    data = {fmt: export(rows, fmt) for fmt in ("csv", "json", "xml")}
    assert phases.check_exports(data, want, "p1") == []
    short = {fmt: export(rows[:1], fmt) for fmt in ("csv", "json", "xml")}
    assert len(phases.check_exports(short, want, "p1")) == 3


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as f:
        layer_map = json.load(f)["layers"]
    mapped = [m for entry in layer_map for m in entry["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER)
    for entry in layer_map:
        for predictions in (entry["moves"], entry["holds"]):
            for metric, names in predictions.items():
                assert metric in E2E, (entry["layer"], metric)
                assert set(names) <= set(workloads.MIXES), (entry["layer"], names)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
