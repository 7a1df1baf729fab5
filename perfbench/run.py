"""pdrkit benchmark: one command, seeded workloads, outputs checked by an oracle.

    python3 perfbench/run.py --workload sweep6 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. pdrkit is imported from ``src/`` of that
checkout; nothing is installed. With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a separate traced run. A summary goes to stderr
and the full record (environment, failures by tag, spans) to
``perfbench/out/``. Metric names and units come from BENCHMARK.json; see
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, in this process and, through
# the environment, in every process it starts (pool workers included).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 100
SetupError = workloads.SetupError


def import_pdrkit():
    """pdrkit from this checkout's ``src``; anything else is a set-up error."""
    if not (SRC / "pdrkit" / "__init__.py").is_file():
        raise SetupError(f"no pdrkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdrkit
    import pdrkit.cli

    if Path(pdrkit.__file__).resolve().parent != SRC / "pdrkit":
        raise SetupError(f"imported pdrkit from {pdrkit.__file__}, not from {SRC}")
    return pdrkit


class Context:
    """Run settings and the services workloads share: rounds, subprocesses, output."""

    def __init__(self, args, pdrkit):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.pdrkit = pdrkit
        self.out = OUT
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.spans_path = OUT / f"spans-{self.workload}-{self.seed}.jsonl"

    def rounds(self, minimum: int = MIN_ROUNDS):
        """Yield round numbers while one more round, as slow as the slowest yet, fits the run."""
        start = time.perf_counter()
        durations = []
        k = 0
        while True:
            t0 = time.perf_counter()
            yield k
            durations.append(time.perf_counter() - t0)
            k += 1
            elapsed = time.perf_counter() - start
            if k >= minimum and elapsed + max(durations) > self.seconds:
                return

    def spawn(self, argv: list[str]) -> dict:
        """Run ``python3 ARGV`` to its end; wall time, CPU and peak RSS of its process tree."""
        out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "wall": wall,
            # wait4 covers the child and every descendant it waited for.
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes(),
        }

    def keep_spans(self, tracer) -> None:
        tracer.write(str(self.spans_path))


def set_up(ctx: Context, workload) -> float:
    """Build the inputs once (untimed), then start the program fresh several
    times; the median seconds until a fresh interpreter has imported pdrkit,
    done one small piece of the workload and exited."""
    workload.build()
    times = []
    for _ in range(SETUP_REPEATS):
        run = ctx.spawn(workload.probe_argv())
        if run["code"] != 0:
            raise SetupError(f"probe exited with {run['code']}: {run['stderr'][-500:]!r}")
        times.append(run["wall"])
    workload.warm_up()
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # older numpy has no dict form
        blas = {"error": repr(exc)}
    digest = hashlib.sha256()
    for path in sorted((SRC / "pdrkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pdrkit = import_pdrkit()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (SetupError, ImportError, OSError, ValueError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ctx = Context(args, pdrkit)
    workload = workloads.WORKLOADS[args.workload](ctx)
    try:
        setup_s = set_up(ctx, workload)
        if args.trace:
            ctx.spans_path.unlink(missing_ok=True)
            metrics = workload.measure_traced()
            declared = spec["per_layer"]
        else:
            metrics = workload.measure()
            metrics["setup_s"] = setup_s
            declared = spec["end_to_end"]
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    if sorted(metrics) != sorted(m["name"] for m in declared):
        print(f"metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 2

    log = workload.log
    correct = log.silent_wrong == 0 and log.trace_mismatches == 0
    result = {
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "result": result,
        "details": workload.extra,
        "failures": log.failures,
        "silent_wrong": log.silent_wrong,
        "trace_mismatches": log.trace_mismatches,
    }
    record_path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for key, entry in sorted(log.failures.items()):
        print(f"failure {key}: {', '.join(entry['tags'])} (x{entry['count']})", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:55s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
