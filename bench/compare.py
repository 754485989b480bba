"""Collect result sets of the benchmark and compare them.

    # ten seeds of every workload into one result set (JSON lines)
    python3 bench/compare.py collect --out base.jsonl --seeds 1-10
    # parent against change: the same benchmark code on two source trees,
    # alternating which side runs first for each seed
    python3 bench/compare.py pair --base-src ../parent/src --head-src src --out-dir cmp --seeds 1-10 --traced
    # medians, quartiles and verdicts
    python3 bench/compare.py report base.jsonl [head.jsonl]

A verdict per workload and end-to-end metric: *improved* when the head wins
at least nine tenths of the seed pairs and the medians differ by more than
the base's interquartile range; *unresolved* when either side's
interquartile range exceeds the metric's bound (unless every head run beats
every base run); *worse* when the head's median is worse than the base's by
more than the bound; otherwise *no worse than the bound*. Traced records
give per-layer ratios head/base, printed with their base values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace, src, label):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--src", str(src)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{label} {workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    meta = json.loads(lines[-2].removeprefix("# meta "))
    return {"side": label, "workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "meta": meta}


def append(path, record):
    with open(path, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    r = record["result"]
    print(f"{record['side']:5s} {record['workload']:9s} seed {record['seed']:<3d} trace {record['trace']} "
          f"correct {r['correct']} ops {r['attempted']}", flush=True)


def load(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def values(records, workload, trace, metric):
    """{seed: value} of one metric."""
    return {r["seed"]: r["result"]["metrics"][metric]["value"]
            for r in records if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, head, metric):
    """One of improved / unresolved / worse / no worse than bound (see the module docstring)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    bq1, bmed, bq3 = quartiles(list(base.values()))
    hq1, hmed, hq3 = quartiles(list(head.values()))

    def better(h, b):
        return h < b if lower else h > b

    pairs = [s for s in base if s in head]
    wins = sum(better(head[s], base[s]) for s in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(hmed - bmed) > bq3 - bq1:
        return "improved"
    all_better = all(better(h, b) for h in head.values() for b in base.values())
    if max((bq3 - bq1) / bmed, (hq3 - hq1) / hmed) > bound and not all_better:
        return "unresolved"
    worse_by = (hmed - bmed) / bmed if lower else (bmed - hmed) / bmed
    return "worse" if worse_by > bound else "no worse than bound"


def report(base_path, head_path=None):
    s = spec()
    base = load(base_path)
    head = load(head_path) if head_path else None
    workloads = [w["name"] for w in s["workloads"]]
    for workload in workloads:
        rows = [r for r in base if r["workload"] == workload and r["trace"] == 0]
        if not rows:
            continue
        attempted = sum(r["result"]["attempted"] for r in rows)
        failed = sum(r["result"]["failed"] for r in rows)
        print(f"\n{workload}: {len(rows)} base runs, failed_frac {failed / attempted:.3g} of {attempted} ops")
        for metric in s["end_to_end"]:
            b = values(base, workload, 0, metric["name"])
            q1, med, q3 = quartiles(list(b.values()))
            spread = (q3 - q1) / med
            line = (f"  {metric['name']:12s} base median {med:10.4g} {metric['unit']:6s} "
                    f"q1 {q1:10.4g} q3 {q3:10.4g} spread {spread:6.1%} "
                    f"(bound {metric['bound']:.0%}, n={len(b)})")
            if head is not None:
                h = values(head, workload, 0, metric["name"])
                if h:
                    hq1, hmed, hq3 = quartiles(list(h.values()))
                    line += (f"\n  {'':12s} head median {hmed:10.4g} {metric['unit']:6s} q1 {hq1:10.4g} "
                             f"q3 {hq3:10.4g} -> {verdict(b, h, metric)}")
            print(line)
        if head is None:
            continue
        traced = [m for m in s["per_layer"] if values(base, workload, 1, m["name"])]
        if traced:
            print("  per-layer, head/base of medians over traced runs:")
        for metric in traced:
            b = statistics.median(values(base, workload, 1, metric["name"]).values())
            h = values(head, workload, 1, metric["name"])
            if not h or b == 0:
                continue
            hm = statistics.median(h.values())
            print(f"    {metric['name']:48s} {hm / b:7.3f} x of base {b:10.4g} {metric['unit']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds into a result set")
    c.add_argument("--out", required=True)
    c.add_argument("--src", default="src")
    pr = sub.add_parser("pair", help="run two source trees seed by seed, alternating order")
    pr.add_argument("--base-src", required=True)
    pr.add_argument("--head-src", required=True)
    pr.add_argument("--out-dir", required=True)
    for q in (c, pr):
        q.add_argument("--workloads", default=",".join(w["name"] for w in spec()["workloads"]))
        q.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
        q.add_argument("--seconds", type=float, default=spec()["run_seconds"])
        q.add_argument("--traced", action="store_true", help="also make a traced run per seed")
    r = sub.add_parser("report", help="medians, quartiles, verdicts")
    r.add_argument("base")
    r.add_argument("head", nargs="?")
    args = p.parse_args(argv)

    if args.mode == "report":
        report(args.base, args.head)
        return 0
    workloads = args.workloads.split(",")
    traces = (0, 1) if args.traced else (0,)
    if args.mode == "collect":
        for seed in seed_range(args.seeds):
            for workload in workloads:
                for trace in traces:
                    append(args.out, run_once(workload, seed, args.seconds, trace, args.src, "base"))
        report(args.out)
        return 0
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"base": Path(args.base_src).resolve(), "head": Path(args.head_src).resolve()}
    for i, seed in enumerate(seed_range(args.seeds)):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            for trace in traces:
                for label in order:
                    record = run_once(workload, seed, args.seconds, trace, sides[label], label)
                    append(out / f"{label}.jsonl", record)
    report(out / "base.jsonl", out / "head.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
