"""One workload in one process: set up, print READY, run the timed window, check outputs.

Started by run.py with BLAS pinned to one thread. Prints ``READY`` once set-up
is done (the parent times set-up from process start to that line) and, unless
``--setup-only``, one JSON line with the window's measurements at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


def corrupt(out):
    """A deliberately wrong copy of an op's output, for the smoke test."""
    import numpy as np

    if isinstance(out, np.ndarray):
        return -out - 1.0
    if isinstance(out, str):
        return "corrupted " + out
    if isinstance(out, tuple):
        return (corrupt(out[0]),) + out[1:]
    if isinstance(out, dict):
        key = next(iter(out))
        return {**out, key: corrupt(out[key])}
    raise TypeError(f"cannot corrupt {type(out).__name__}")


def percentile(sorted_values, q):
    """Nearest-rank percentile: at least (100 - q)% of the samples lie at or above it."""
    return sorted_values[max(math.ceil(q / 100 * len(sorted_values)) - 1, 0)]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--corrupt", type=int, default=-1, help="corrupt the output of this op id")
    args = p.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import sigstream

    if args.workload == "cli":
        import sigstream.cli  # noqa: F401
    import_s = time.perf_counter() - start
    if not Path(sigstream.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        sys.exit(f"sigstream was imported from {sigstream.__file__}, not from {args.src}")

    import numpy as np
    import scipy

    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(sigstream)
        tracer.install()
    workdir = Path(args.workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](sigstream, args.seed, args.tiny, workdir)
        cycle = wl.cycle()
        for kind in dict.fromkeys(cycle):  # warm-up: one untimed call of each op kind
            wl.call(kind, 0, -1)
        print("READY", flush=True)
        if args.setup_only:
            return
        result = run(wl, cycle, args, tracer)
        if tracer is not None:
            result["per_layer"]["cli.import_s"] = import_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(np),
        },
    )
    print(json.dumps(result), flush=True)


def run(wl, cycle, args, tracer):
    min_ops = 1 if args.tiny else MIN_OPS
    records = []  # (op id, kind, variant, seconds, output, error, traced)
    cycle_times = []
    uses = {kind: 0 for kind in cycle}
    op_id = 0
    t0 = time.perf_counter()
    # Whole cycles only, so that every run has the same op mix. A traced run
    # traces cycles 0, 3, 4, 7, 8, ... (ABBA order, so that drift over the run
    # cancels) and compares them with the untraced ones for the overhead.
    while True:
        traced = tracer is not None and len(cycle_times) % 4 in (0, 3)
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        c0 = time.perf_counter()
        for kind in cycle:
            variant = uses[kind] % wl.variants[kind]
            uses[kind] += 1
            out = error = None
            a = time.perf_counter()
            try:
                if traced:
                    out = tracer.op(op_id, wl.call, kind, variant, op_id)
                else:
                    out = wl.call(kind, variant, op_id)
            except Exception:  # a failed op is counted and the run goes on
                error = traceback.format_exc(limit=3)
            b = time.perf_counter()
            records.append((op_id, kind, variant, b - a, out, error, traced))
            op_id += 1
        cycle_times.append((time.perf_counter() - c0, traced))
        elapsed = time.perf_counter() - t0
        if elapsed >= args.seconds and op_id >= min_ops and (tracer is None or len(cycle_times) % 2 == 0):
            break
    window = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for op, kind, variant, _, out, error, _ in records:
        if error is None:
            if op == args.corrupt:
                out = corrupt(out)
            try:
                wl.check(kind, variant, op, out)
            except Exception as exc:  # oracles.CheckFailed, or a malformed output
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"op": op, "kind": kind, "error": error})

    latencies = sorted(r[3] for r in records)
    by_kind = {}
    for kind in dict.fromkeys(cycle):
        ts = sorted(r[3] for r in records if r[1] == kind)
        by_kind[kind] = {"n": len(ts), "p50_ms": 1e3 * percentile(ts, 50)}
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "cycle_len": len(cycle),
        "cycles": len(cycle_times),
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "window_s": window,
        "ops_per_s": len(records) / window,
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
        "kinds": by_kind,
    }
    if tracer is not None:
        import tracer as tracing

        traced = [c for c, t in cycle_times if t]
        plain = [c for c, t in cycle_times if not t]
        per_layer = tracing.layer_metrics(
            tracer.spans, len(traced), {r[0]: r[3] for r in records if r[6]}
        )
        rate_traced = len(traced) * len(cycle) / sum(traced)
        rate_plain = len(plain) * len(cycle) / sum(plain)
        per_layer.update(
            {
                "trace.ops_per_s_traced": rate_traced,
                "trace.ops_per_s_untraced": rate_plain,
                "trace.overhead_frac": rate_plain / rate_traced - 1.0,
                "cli.emit_bytes": emitted_bytes(records),
            }
        )
        per_layer.update(wl.health())
        result["per_layer"] = per_layer
        spans_dir = Path(args.workdir).parent
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"spans-{wl.name}.jsonl", t0)
    return result


def emitted_bytes(records):
    """Mean bytes a CLI op printed (0 on workloads that do not call the CLI)."""
    sizes = []
    for r in records:
        out = r[4]
        if isinstance(out, tuple):
            out = out[0]
        if isinstance(out, str):
            sizes.append(len(out.encode()))
    return sum(sizes) / len(sizes) if sizes else 0.0


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        return "unknown"


if __name__ == "__main__":
    main()
