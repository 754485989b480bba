"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

For every workload: a plain run on seed 1 and a traced run on seed 2 whose
first op's output is deliberately corrupted. Asserts that every metric named
in BENCHMARK.json is printed with its unit, that both seeds run the same op
mix, and that the corrupted output is counted as failed. Also asserts that
the benchmark refuses to run where there is no source tree.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parsed(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    mix = {m[1]: int(m[2]) for m in re.finditer(r"^    op (\S+)\s+n=(\d+)", out.stdout, re.M)}
    return result, mix, out.stdout


def assert_metrics(result, table, names):
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        row = rf"^  {re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s+n=\d+"
        assert re.search(row, table, re.M), m["name"]


def shares(mix):
    total = sum(mix.values())
    return {kind: n / total for kind, n in mix.items()}


def check_workload(name):
    plain, plain_mix, plain_table = parsed(
        bench(ROOT, "--workload", name, "--seed", "1", "--trace", "0", "--tiny")
    )
    traced, traced_mix, traced_table = parsed(
        bench(ROOT, "--workload", name, "--seed", "2", "--trace", "1", "--tiny", "--corrupt", "0")
    )
    assert plain["correct"] and plain["failed"] == 0, plain_table
    assert_metrics(plain, plain_table, SPEC["end_to_end"])
    assert_metrics(traced, traced_table, SPEC["per_layer"])
    assert plain_mix and shares(plain_mix) == shares(traced_mix), (plain_mix, traced_mix)
    assert not traced["correct"] and traced["failed"] >= 1, traced_table
    assert "FAILED op 0 " in traced_table, traced_table


def test_features():
    check_workload("features")


def test_expsig():
    check_workload("expsig")


def test_logode():
    check_workload("logode")


def test_cli():
    check_workload("cli")


def test_refuses_without_source_tree():
    runs = ROOT / ".bench_run"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        out = bench(tmp, "--workload", "features", "--seed", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout


if __name__ == "__main__":
    for test in (test_features, test_expsig, test_logode, test_cli, test_refuses_without_source_tree):
        test()
        print(f"ok {test.__name__}", flush=True)
