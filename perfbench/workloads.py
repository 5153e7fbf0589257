"""The two workloads. Each is a traffic mix over the same phases, run as
repeated cycles for about ``--seconds``, so that every end-to-end
metric is measured on every workload. A cycle is: one offline backfill, a
gateway restart on the store it wrote, then one loopback publish session
with its replay, with read rounds (a one-day range query, its rows
exported in three formats, a validation report on them) on the backfill's
store between the session's parts. What sets the workloads apart is the
phase that dominates a cycle (its focus) and the size of the backfill:

* ``ingest``: a large publish session (``protocol``, ``gateway``,
  ``store.append``) whose readings are simulated before timing starts; the
  backfill and the store the reads run on are small (2 profiles, 2 days).
* ``backfill``: a multi-week ``soilnet simulate --offline`` (``sim.step``
  and ``store.append``, no networking), and history reads of the store it
  wrote (``last_seqs``, ``store.query``, exporters, ``analytics``).
"""

from __future__ import annotations

import dataclasses
import gc
import random
import time
from collections import defaultdict

import common
import phases
from common import Outcome


@dataclasses.dataclass(frozen=True)
class Mix:
    focus: str                     # "session" or "backfill"
    backfill_profiles: int         # one offline backfill per cycle
    backfill_days: int
    session_profiles: int = 4      # one publish session per cycle
    min_cycles: int = 3


MIXES = {
    "ingest": Mix("session", backfill_profiles=2, backfill_days=2),
    "backfill": Mix("backfill", backfill_profiles=2, backfill_days=14),
}

# The benchmark's own tests run these: one cycle, small inputs.
TINY = {
    "ingest": Mix("session", backfill_profiles=1, backfill_days=1, session_profiles=2, min_cycles=1),
    "backfill": Mix("backfill", backfill_profiles=2, backfill_days=2, session_profiles=1, min_cycles=1),
}


class Samples:
    """Raw measurements of one run, one per timed window: a 256-PUB block,
    a PUB->ACK, a query, an export, a report, a restart, a backfill, a set-up.
    ``focus_untraced``/``focus_traced`` hold the focus metric per cycle,
    for the tracing overhead."""

    def __init__(self):
        self.v: dict[str, list] = defaultdict(list)

    def add(self, name: str, value) -> None:
        self.v[name].append(value)


def _cycles(deadline: float, mix: Mix, traced_run: bool):
    """Cycle numbers and whether each is traced: untraced cycles while more
    than half a cycle's mean duration is left before the deadline, so a
    run lasts about ``--seconds``; in a traced run a fixed alternation
    untraced, traced (twice, or once when ``min_cycles`` is 1), so
    per-layer counts cover a fixed amount of work. Each untraced/traced
    pair runs on one CPU (see ``run``), so the overhead does not compare
    one vCPU with another."""
    if traced_run:
        yield from [(i, i % 2 == 1) for i in range(2 * min(2, mix.min_cycles))]
        return
    t0 = time.monotonic()
    i = 0
    while i < mix.min_cycles or time.monotonic() + (time.monotonic() - t0) / i / 2 < deadline:
        yield i, False
        i += 1


def run(name: str, out: Outcome, seed: int, seconds: float, tracer, mix: Mix, workdir: str) -> Samples:
    s = Samples()
    rng = random.Random(f"{name}:{seed}")
    readings, oor = phases.sim_session(mix.session_profiles, seed)
    out.notes["session_readings"] = len(readings)
    out.notes["session_out_of_range"] = len(oor)
    phases.golden_backfill(out, common.fresh_dir(workdir, "golden"))
    deadline = time.monotonic() + seconds
    try:
        for i, traced in _cycles(deadline, mix, tracer is not None):
            t = tracer if traced else None
            # The benchmark's inputs and reference rows make a far larger heap
            # than a soilnet process has; freezing them keeps the collector's
            # passes over them out of the in-process timings.
            gc.freeze()
            common.pin(i // 2 if tracer else i)
            if mix.focus == "backfill" and not tracer:
                # Backfill set-up: the command's fixed cost (interpreter start,
                # imports, one tick) on an empty store.
                cold = common.run_cli(phases.backfill_args(mix.backfill_profiles, 0, seed,
                                                           common.fresh_dir(workdir, "cold")))
                out.gate("process.exit_codes", [] if cold["code"] == 0 else [f"simulate exited {cold['code']}"])
                s.add("setup", cold["wall_s"])

            root = common.fresh_dir(workdir, "backfill")
            bf = phases.backfill(out, root, mix.backfill_profiles, mix.backfill_days, seed, rng, t)
            s.add("backfill_rates", bf["rate"])
            if mix.focus == "backfill":
                s.add("focus_traced" if traced else "focus_untraced", bf["rate"])
            if i == 0:
                first_digest = phases.export_digest(root)

            # Reads run on the backfill's store: one partition per
            # profile-day, 2 days on ingest, 14 on backfill.
            ref = phases.Reference(bf["stored"])
            del bf  # the raw records, so that they are freed, not frozen
            gc.freeze()  # the reference rows too
            r = phases.restart(out, root, ref.pick_stored(rng), t)
            s.add("restart_s", r["restart_s"])
            if mix.focus == "backfill":
                s.add("rss", r["rss_mb"])

            def read_round():
                for key, value in phases.read_round(out, root, ref, rng, t).items():
                    s.add(key, value)

            # Read rounds run between the parts of the session, so that the
            # windows of both are spread over the whole run.
            res = phases.session(out, readings, oor, common.fresh_dir(workdir, "session"), t, read_round)
            pub_blocks = common.blocks(res["pub_lat"], 256)
            pub_rates = [len(b) / (sum(b) / 1e9) for b in pub_blocks]
            if mix.focus == "session":
                s.add("setup", res["setup_s"])
                s.add("rss", res["rss_mb"])
                s.add("focus_traced" if traced else "focus_untraced", common.median(pub_rates))
            s.v["pub_rate"] += pub_rates
            s.v["pub_lat"] += res["pub_lat"]
            s.v["rep_rate"] += [len(b) / (sum(b) / 1e9) for b in common.blocks(res["rep_lat"], 256)]
            s.v["store"] = [{"bytes": common.store_bytes(root), "rows": ref.rows,
                             "partitions": len(common.store_files(root))}]
    finally:
        gc.unfreeze()
        common.pin(None)
    # The first and the last cycle's stores, exported as CSV, are the same.
    last_digest = phases.export_digest(root)
    out.gate("backfill.deterministic", [] if last_digest == first_digest else
             [f"one seed gave stores {first_digest} and {last_digest}"])
    out.notes["backfill_export_csv_sha256"] = last_digest
    return s


def end_to_end(s: Samples) -> dict[str, tuple[float, str]]:
    """Every metric is a median over the whole run: of its windows (a
    256-PUB block, a read round's query, export or report, a restart, a
    backfill, a set-up), or of every PUB->ACK latency for the p50. The
    host's speed swings by a third between spells of seconds to minutes;
    a median over windows spread across the run weighs its fast and slow
    spells as they come."""
    med = lambda name: common.median(s.v[name])  # noqa: E731
    return {
        "setup_s": (med("setup"), "s"),
        "peak_rss_mb": (med("rss"), "MB"),
        "publish_readings_per_s": (med("pub_rate"), "1/s"),
        "publish_ack_p50_ms": (med("pub_lat") / 1e6, "ms"),
        "replay_readings_per_s": (med("rep_rate"), "1/s"),
        "restart_s": (med("restart_s"), "s"),
        "range_query_p50_ms": (med("query_ms"), "ms"),
        "export_rows_per_s": (med("export_rate"), "1/s"),
        "report_s": (med("report_s"), "s"),
        "backfill_readings_per_s": (med("backfill_rates"), "1/s"),
    }


def overhead_pct(s: Samples) -> float:
    """How much slower the traced cycles ran: the focus rate (publish or
    backfill readings/s) of untraced minus traced cycles, as a percentage
    of the untraced rate."""
    untraced = common.median(s.v["focus_untraced"])
    return 100.0 * (untraced - common.median(s.v["focus_traced"])) / untraced
