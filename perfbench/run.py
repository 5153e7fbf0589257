"""soilnet benchmark entry point.

    python3 perfbench/run.py --workload {ingest,backfill,all} \
        --seed N --seconds S --trace {0,1}

Runs one workload (or both in turn) against the soilnet source in
``src/`` of this checkout, checks every output, and prints the environment,
one PASS/FAIL line per correctness gate, every metric by name with its
unit, and as the last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the per-layer metrics, including the tracing overhead. Exit code 0 means
every gate passed; 1 a gate failed or the program raised; 2 the program's
source is missing; 3 the run overran its time limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback

import common
import layers
import phases
import workloads

TIME_LIMIT_S = 170  # a run must end within 180 s


class Overrun(Exception):
    pass


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for root, _, files in sorted(os.walk(os.path.join(common.SRC, "soilnet"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as f:
                    src.update(name.encode() + f.read())
    try:
        commit = subprocess.run(["git", "-C", common.ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "not a git checkout"
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "source_sha256": src.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "note": "traffic crossed loopback (127.0.0.1); disk figures are the page cache's, "
                "not a storage device's",
    }


def declared_metrics() -> tuple[list[str], list[str]]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return [m["name"] for m in bench["end_to_end"]], [m["name"] for m in bench["per_layer"]]


def run_workload(name: str, seed: int, seconds: float, trace: bool, mix=None) -> common.Outcome:
    """Run one workload; the Outcome holds its gates, op counts and metrics."""
    out = common.Outcome()
    mix = mix or workloads.MIXES[name]
    workdir = common.fresh_dir(f"{name}-{os.getpid()}")
    tracer = phases.Tracer(workdir) if trace else None
    try:
        samples = workloads.run(name, out, seed, seconds, tracer, mix, workdir)
        if trace:
            metrics = layers.compute(tracer, samples.v["store"][-1], workloads.overhead_pct(samples))
        else:
            metrics = workloads.end_to_end(samples)
        for metric, (value, unit) in metrics.items():
            out.metric(metric, value, unit)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def report(name: str, out: common.Outcome) -> None:
    for gate, problems in sorted(out.gates.items()):
        print(f"GATE {name}:{gate} {'PASS' if not problems else 'FAIL'}"
              + "".join(f"\n    {p}" for p in problems))
    for metric, (value, unit) in out.metrics.items():
        print(f"METRIC {name}:{metric} = {value:.6g} {unit}")
    rate = out.failed / out.attempted if out.attempted else 0.0
    print(f"OPS {name}: attempted={out.attempted} failed={out.failed} error_rate={rate:.6g} (failed/attempted)")
    for key, value in out.notes.items():
        print(f"NOTE {name}:{key} = {value}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.MIXES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        common.bootstrap()
    except common.MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    e2e_names, layer_names = declared_metrics()
    names = list(workloads.MIXES) if args.workload == "all" else [args.workload]

    def overrun(*_):
        raise Overrun(f"run exceeded {TIME_LIMIT_S * len(names)} s")

    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(TIME_LIMIT_S * len(names))
    env = environment(args)
    for key, value in env.items():
        print(f"ENV {key} = {value}")
    outcomes = {}
    try:
        for name in names:
            try:
                out = run_workload(name, args.seed, args.seconds, bool(args.trace))
            except Overrun:
                raise
            except Exception:
                traceback.print_exc()
                out = common.Outcome()
                out.gate("workload.completed", [traceback.format_exc(limit=1).strip().splitlines()[-1]])
                out.op(False)
            expected = layer_names if args.trace else e2e_names
            if out.correct and sorted(out.metrics) != sorted(expected):
                raise RuntimeError(f"metrics {sorted(out.metrics)} differ from BENCHMARK.json {sorted(expected)}")
            report(name, out)
            outcomes[name] = out
    except Overrun as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    if len(names) == 1:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in outcomes[names[0]].metrics.items()}
    else:
        metrics = {f"{n}.{k}": {"value": v, "unit": u}
                   for n, o in outcomes.items() for k, (v, u) in o.metrics.items()}
    result = {
        "correct": all(o.correct for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": metrics,
    }
    os.makedirs(os.path.join(common.WORK, "results"), exist_ok=True)
    path = os.path.join(common.WORK, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"environment": env, "result": result,
                   "gates": {f"{n}:{g}": p for n, o in outcomes.items() for g, p in o.gates.items()},
                   "notes": {n: o.notes for n, o in outcomes.items()}}, f, indent=2)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
