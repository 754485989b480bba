"""sigstream benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {features,expsig,logode,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; sigstream is imported from ``src/``
(or ``--src``). Each run starts the workload in its own subprocess, with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, as a
closed loop of one caller: whole cycles of a fixed op mix until ``--seconds``
have passed and at least 100 ops are done. Every op's output is checked
against an oracle after the window.

``--trace 0`` reports the end-to-end metrics: set-up time (the median over
three processes, each timed from its start to ready), ops per second, the
50th and 90th latency percentiles, and peak RSS. ``--trace 1`` reports the
per-layer metrics from spans around sigstream's public functions, on
alternate cycles, with the tracing overhead. A table goes first, then a
``# meta`` line, and the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3  # set-up is timed in this many processes; the median is reported
TIMEOUT = 170  # seconds for all of a run's worker processes


def benchmark_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", default="src", help="directory holding the sigstream package")
    p.add_argument("--tiny", action="store_true", help="small inputs, one set-up (smoke test)")
    p.add_argument("--corrupt", type=int, default=-1, help="corrupt op N's output (smoke test)")
    return p.parse_args(argv)


def source_digest(src):
    digest = hashlib.sha256()
    for path in sorted((src / "sigstream").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def start_worker(args, src, workdir, setup_only):
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--src", str(src), "--workdir", str(workdir), "--trace", str(args.trace),
        "--corrupt", str(args.corrupt),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)


def run_worker(args, src, workdir, setup_only, deadline):
    """(seconds from process start to READY, the worker's result or None)."""
    start = time.perf_counter()
    proc = start_worker(args, src, workdir, setup_only)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise SystemExit(f"{args.workload} worker exited {code} before finishing")
    return ready, (None if setup_only else json.loads(lines[-1]))


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = (root / args.src).resolve()
    if not (src / "sigstream" / "__init__.py").is_file():
        print(f"error: no sigstream package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = root / ".bench_run" / f"{args.workload}-{os.getpid()}"

    deadline = time.perf_counter() + TIMEOUT
    setups = []
    if not args.trace and not args.tiny:
        for _ in range(SETUPS - 1):
            setups.append(run_worker(args, src, workdir, True, deadline)[0])
    ready, result = run_worker(args, src, workdir, False, deadline)
    setups.append(ready)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        names = spec["per_layer"]
        values = result["per_layer"]
    else:
        names = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_p90_ms": result["op_p90_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{result['cycles']} cycles of {result['cycle_len']} ops in {result['window_s']:.2f} s")
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    # per-layer metrics come from the traced half of the cycles
    per_op = attempted // 2 if args.trace else attempted
    for name, m in metrics.items():
        n = samples.get(name, per_op)
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']:12s} n={n}")
    print(f"  {'failed_frac':48s} {failed / attempted:14.6g} {'1':12s} n={attempted}")
    for kind, k in result["kinds"].items():
        print(f"    op {kind:16s} n={k['n']:<5d} p50 {k['p50_ms']:9.2f} ms")
    for f in result["failures"]:
        print(f"    FAILED op {f['op']} ({f['kind']}): {f['error'].strip().splitlines()[-1]}")
    meta = {
        "commit": commit(),
        "src_sha256": source_digest(src),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        **result["versions"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {name: "1" for name in THREAD_VARS},
    }
    print("# meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
