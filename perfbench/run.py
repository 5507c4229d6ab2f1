#!/usr/bin/env python3
"""netcov benchmark: drives ``netcov.cli.main`` in-process on one workload.

Run from the root of a checkout (the package is imported from its ``src``):

    python3 perfbench/run.py --workload replicate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads are closed loops of one client: each op starts when the previous
one has been checked.  The timed phase runs whole cycles of ops until
``--seconds`` have passed.  With ``--trace 0`` the last line of standard
output is a JSON object whose metrics are the end-to-end ones; with
``--trace 1`` it alternates untraced and traced cycles and reports the
per-layer metrics.  The line before it describes the run and
the machine.  ``--workload all`` runs every workload both ways, each in its
own process, and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("replicate", "net-tools", "exact-scan")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9

# Times the set-up a user pays before the first op: importing netcov and
# building the workload's inputs, in a fresh interpreter.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


class Phase:
    """Ops of one timed phase: latencies of the ops whose commands returned,
    work done by the ops that passed their checks, and how many ops were
    attempted and failed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.cycles = 0

    @property
    def work_per_s(self) -> float:
        return self.work / sum(self.latencies)


def run_op(workload, i: int, cli, phase: Phase) -> None:
    """Time op ``i``'s commands, then check their outputs."""
    outs = []
    t0 = perf_counter()
    for argv in workload.commands(i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        outs.append((rc, buf.getvalue()))
    phase.latencies.append(perf_counter() - t0)
    phase.work += workload.check(i, outs)


def run_cycle(workload, phase: Phase, cli, tracer=None) -> None:
    """Run the phase's next whole cycle of ops; op indices count from 0 in
    every phase, so two phases at one seed see the same inputs."""
    first = phase.cycles * workload.cycle
    for i in range(first, first + workload.cycle):
        if tracer is not None:
            tracer.op = i
        phase.attempted += 1
        try:
            run_op(workload, i, cli, phase)
        except (Exception, SystemExit):
            # one op's failure is counted and reported; the run goes on
            print(f"op {i} failed:", file=sys.stderr)
            traceback.print_exc()
            phase.failed += 1
    phase.cycles += 1


def measure(workload, seconds: float, cli) -> Phase:
    """Untraced: whole cycles until ``seconds`` have passed."""
    phase = Phase()
    end = perf_counter() + seconds
    while True:
        run_cycle(workload, phase, cli)
        if perf_counter() >= end:
            return phase


def measure_traced(workload, seconds: float, cli, tracer) -> tuple[Phase, Phase]:
    """Untraced and traced cycles in turn, so that both see the same machine
    and their ratio is the tracing overhead."""
    plain, traced = Phase(), Phase()
    end = perf_counter() + seconds
    while True:
        run_cycle(workload, plain, cli)
        tracer.install()
        try:
            run_cycle(workload, traced, cli, tracer)
        finally:
            tracer.uninstall()
        if perf_counter() >= end:
            return plain, traced


def setup_seconds(name: str, seed: int, tmp: str) -> float:
    times = []
    for k in range(SETUP_REPEATS):
        scratch = os.path.join(tmp, f"setup{k}")
        os.makedirs(scratch)
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, HERE, SRC, name, str(seed), scratch],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def machine() -> dict:
    import numpy as np

    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_s: float) -> dict:
    lat_ms = sorted(1000 * t for t in phase.latencies)
    return {
        "setup_s": metric(setup_s, "s"),
        "work_per_s": metric(phase.work_per_s, "work/s"),
        "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "op_p90_ms": metric(statistics.quantiles(lat_ms, n=10)[-1], "ms"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "netcov", "__init__.py")):
        print(f"error: no netcov package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import netcov.cli as cli
    import workloads
    from tracer import Tracer

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: netcov imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{name}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        setup_s = None if trace else setup_seconds(name, seed, tmp)
        workload = workloads.WORKLOADS[name](seed, tmp)
        info = {"workload": name, "seed": seed, "seed_used": workload.seed_used,
                "work_unit": workload.unit, "trace": int(trace),
                "machine": machine()}
        if trace:
            tracer = Tracer()
            phases = plain, traced = measure_traced(workload, seconds, cli, tracer)
            metrics = {key: metric(value, unit) for key, (value, unit)
                       in tracer.summary(workload.cycle, traced.cycles).items()}
            metrics["trace.untraced_work_per_s"] = metric(plain.work_per_s, "work/s")
            metrics["trace.traced_work_per_s"] = metric(traced.work_per_s, "work/s")
            metrics["trace.overhead_ratio"] = metric(
                plain.work_per_s / traced.work_per_s, "ratio")
            info["traced_cycles"] = traced.cycles
        else:
            timed = measure(workload, seconds, cli)
            phases = (timed,)
            metrics = end_to_end(timed, setup_s)
            ops = len(timed.latencies)
            info["ops_timed"] = ops
            info["p90_samples_beyond"] = ops - math.ceil(0.9 * ops)
        gate_failures = workload.finish()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(tmp))
    if not all(p.latencies for p in phases):
        print("error: no op of the run completed", file=sys.stderr)
        return 1
    for failure in gate_failures:
        print(f"gate failed: {failure}", file=sys.stderr)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    info["gate_failures"] = gate_failures
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not gate_failures,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a process of its own so
    that peak memory is the workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"error: {name} --trace {trace} exited {done.returncode}",
                      file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                print(f"{name:<11} {key:<40} {m['value']:>16.6g} {m['unit']}")
                combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
