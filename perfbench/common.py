"""Shared pieces of the benchmark: locating the program's source, running
the gateway as a subprocess, reading the store independently of the
program, statistics and the pass/fail bookkeeping behind ``error_rate``."""

from __future__ import annotations

import ast
import csv
import glob
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")
LAUNCH = os.path.join(BENCH_DIR, "launch.py")


class MissingProgram(RuntimeError):
    pass


def bootstrap() -> None:
    """Make ``import soilnet`` load the checkout's ``src/soilnet`` and
    nothing else, or raise MissingProgram."""
    if not os.path.isfile(os.path.join(SRC, "soilnet", "__init__.py")):
        raise MissingProgram(f"no soilnet source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import soilnet

    if os.path.dirname(os.path.abspath(soilnet.__file__)) != os.path.join(SRC, "soilnet"):
        raise MissingProgram(f"soilnet imported from {soilnet.__file__}, not {SRC}")


CPUS = sorted(os.sched_getaffinity(0))


def pin(i: int | None) -> None:
    """Run this process, and the program processes it starts, on the i-th
    usable CPU (round robin), or on all of them when i is None. Client and
    gateway then hand each PUB and ACK over on one CPU, with no wake-up of
    another vCPU in between, and a cycle's timings all see one CPU's speed.
    On a shared 2-vCPU virtual machine each vCPU slows down in spells of
    its own; rotating lets every metric's windows sample all of them."""
    os.sched_setaffinity(0, set(CPUS) if i is None else {CPUS[i % len(CPUS)]})


def _spawn(argv: list[str]) -> subprocess.Popen:
    return subprocess.Popen(argv, env=program_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(args: list[str], spans_out: str | None = None) -> list[str]:
    """``soilnet <args>`` run from source; with ``spans_out`` the traced
    launcher runs it and writes its spans there."""
    if spans_out is None:
        return [sys.executable, "-m", "soilnet.cli", *args]
    return [sys.executable, LAUNCH, spans_out, *args]


def reading_key(profile: str, depth_cm, channel: str, seq) -> str:
    """Identifier shared by every span of one reading."""
    return f"{profile}/{depth_cm}/{channel}:{seq}"


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def peak_rss_mb(pid: int) -> float:
    """Peak RSS of ``pid``'s current program image (VmHWM), or 0 once it
    has exited. The child's rusage is no use here: its maxrss also counts
    the benchmark's own pages, shared with the child until it execs."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_cli(args: list[str], spans_out: str | None = None) -> dict:
    """Run one soilnet command to completion; returns wall time, exit code
    and stderr."""
    spawn_ns = time.perf_counter_ns()
    proc = _spawn(cli_argv(args, spans_out))
    try:
        err = proc.stderr.read()
        code = proc.wait()
    finally:
        kill(proc)
    wall_s = (time.perf_counter_ns() - spawn_ns) / 1e9
    return {"wall_s": wall_s, "code": code, "stderr": err, "spawn_ns": spawn_ns}


def kill(proc: subprocess.Popen) -> None:
    """Kill and reap ``proc`` unless it has already been reaped."""
    if proc.returncode is None:
        proc.kill()
        proc.wait()
    proc.stderr.close()


class GatewayProcess:
    """``soilnet serve`` on an ephemeral loopback port."""

    def __init__(self, data_root: str, spans_out: str | None = None):
        self.spawn_ns = time.perf_counter_ns()
        self.proc = _spawn(cli_argv(["serve", "--listen", "127.0.0.1:0", "--data-root", data_root],
                                    spans_out))
        try:
            line = self.proc.stderr.readline()
            self.listening_ns = time.perf_counter_ns()
            if not line.startswith("listening on "):
                raise RuntimeError(f"gateway did not start: {line!r}")
            host, _, port = line.split()[-1].rpartition(":")
            self.addr = (host, int(port))
        except BaseException:
            kill(self.proc)
            raise

    @property
    def start_s(self) -> float:
        """Spawn to the ``listening on`` line."""
        return (self.listening_ns - self.spawn_ns) / 1e9

    def stop(self) -> dict:
        """SIGTERM, then reap; returns exit code, peak RSS and the shutdown
        counters the gateway printed."""
        rss_mb = peak_rss_mb(self.proc.pid)
        self.proc.terminate()
        try:
            err = self.proc.stderr.read()
        finally:
            self.proc.stderr.close()
        code = self.proc.wait()
        counters = None
        for line in err.splitlines():
            if line.startswith("shutdown, counters="):
                counters = ast.literal_eval(line.split("=", 1)[1])
        return {"code": code, "rss_mb": rss_mb, "counters": counters, "stderr": err}


def read_store(root: str) -> list[dict]:
    """Every stored row, parsed with the csv module from the partition
    files themselves, so checks do not go through the code under test."""
    rows = []
    for path in sorted(glob.glob(os.path.join(root, "*", "*.csv"))):
        with open(path, newline="", encoding="ascii") as f:
            rows.extend(csv.DictReader(f))
    return rows


def store_files(root: str) -> list[str]:
    return sorted(glob.glob(os.path.join(root, "*", "*.csv")))


def store_bytes(root: str) -> int:
    return sum(os.path.getsize(p) for p in store_files(root))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def blocks(values: list, size: int) -> list[list]:
    """Consecutive full blocks of ``size`` values."""
    return [values[i:i + size] for i in range(0, len(values) - size + 1, size)]


class Outcome:
    """Gates, operation counts and metrics of one workload run."""

    def __init__(self):
        self.gates: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, object] = {}

    def gate(self, name: str, problems: list[str]) -> bool:
        """Record one correctness gate; a gate passes only if every check
        made under its name found no problem."""
        self.gates.setdefault(name, []).extend(problems)
        return not problems

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(not p for p in self.gates.values())

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)
