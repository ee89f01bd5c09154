"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

They spawn interpreters the way bench/run.py does and take about a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (run.spawn("work", workload, "7", "trace")[0]["trace"] for _ in range(2))
    assert first["counts"] and first["counts"] == second["counts"]
    assert first["memo"] == second["memo"]
    assert first["self_s"].keys() == second["self_s"].keys()


def test_expand_requests_run_no_gcd():
    snap = run.spawn("work", "requests", "7", "trace")[0]["trace"]
    assert snap["counts"].get("cli.expand.poly_gcd.calls", 0) == 0
    assert snap["counts"]["cli.family.poly_gcd.calls"] > 0


def test_corrupted_reference_digest_counts_as_failure():
    reference = copy.deepcopy(REFERENCE)
    reference["verify-stated"]["verify"] = "0" * 64
    _, attempted, failed, _ = run.timed_run("verify-stated", 1, 0, reference)
    assert attempted >= run.MIN_REPS and failed == attempted

    items = run.spawn("work", "requests", "1")[0]["items"]
    assert run.count_failures("requests", items, REFERENCE) == 0
    reference = copy.deepcopy(REFERENCE)
    reference["requests"][items[0]["name"]] = "0" * 64
    assert run.count_failures("requests", items, reference) >= 1


def test_disagreeing_row_paths_count_as_failures():
    items = [{"name": name, "passed": True, "digest": digest}
             for name, digest in REFERENCE["verify-stress"].items()]
    assert run.count_failures("verify-stress", items, REFERENCE) == 0
    bad = [dict(it, digest="1" * 64) if it["name"] == "row18.closed" else it for it in items]
    # the wrong digest, plus all three paths for disagreeing
    assert run.count_failures("verify-stress", bad, REFERENCE) == 1 + 3


def test_seed_sets_the_request_stream():
    a, b = workloads.request_stream(1), workloads.request_stream(2)
    assert a == workloads.request_stream(1)
    assert a != b
    assert sorted(map(" ".join, a)) != sorted(map(" ".join, b))  # --json choices differ
    universe = {" ".join(argv) for argv in workloads.request_universe()}
    assert {" ".join(argv) for argv in a + b} <= universe
    assert universe == set(REFERENCE["requests"])


def test_workloads_receive_only_generated_inputs():
    calls = []

    def record(name, result):
        def fn(*args):
            calls.append((name, args))
            return result
        return fn

    report = SimpleNamespace(passed=True, to_json=lambda: {})
    row = SimpleNamespace(to_list=lambda: [1])
    fake = SimpleNamespace(cli=SimpleNamespace(run=record("cli.run", 0)),
                           verify_theorem=record("verify_theorem", report),
                           qweyl_binomial=record("qweyl_binomial", row))
    workloads.run_stated(fake)
    assert calls == [("cli.run", (list(workloads.STATED_ARGV),))]

    calls.clear()
    workloads.run_stress(fake)
    theorems = [args for name, args in calls if name == "verify_theorem"]
    rows = {args for name, args in calls if name == "qweyl_binomial"}
    assert theorems == [(case, workloads.STRESS_N) for case in workloads.STRESS_CASES]
    assert {(n, path) for n, _, _, path in rows} == \
        {(workloads.ROW_N, path) for path in workloads.ROW_PATHS}

    calls.clear()
    stream = workloads.request_stream(5)
    workloads.serve(fake.cli.run, stream)
    assert [args[0] for _, args in calls] == stream


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "requests",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
