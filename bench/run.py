"""The qweyl benchmark.

    python3 bench/run.py --workload {verify-stated,verify-stress,requests}
                         --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; it measures the checkout's src/qweyl.
Every measured task runs in a fresh interpreter (bench/child.py), one at a
time, with no threads.

--trace 0 measures the end-to-end metrics for S seconds: SETUP_PROBES
set-up-only interpreters, then repetitions of the workload while time
remains (at least MIN_REPS).  --trace 1 runs the layer micro-benchmarks and
one untraced and one traced repetition, and reports the per-layer metrics
and the tracing overhead.

Every output is checked against bench/reference.json, the digests recorded
when the benchmark was defined; a mismatch counts as a failed operation.
Metric names and units come from BENCHMARK.json.  One line per metric is
printed, then `failed_ratio` and the informational `src_lines`, and last
one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import MODULES  # noqa: E402
from workloads import ROW_N, ROW_PATHS, WORKLOADS  # noqa: E402

SETUP_PROBES = 10     # set-up-only interpreters per timed run
MIN_REPS = 3          # repetitions per timed run, however short S is
ROW_REPEATS = 3       # cold interpreters per q-Weyl row path, traced run
CHILD_TIMEOUT_S = 150
ZERO_WHEN_UNUSED = (".self_s", ".s", ".calls", ".coeff_products", ".term_pairs")


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child can subtract
    # the parent's reading taken just before the spawn.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _read_to_eof(stream, deadline: float) -> bytes:
    chunks = []
    with selectors.DefaultSelector() as sel:
        sel.register(stream, selectors.EVENT_READ)
        while True:
            remaining = deadline - _clock()
            if remaining <= 0:
                raise TimeoutError("child ran over its time limit")
            if sel.select(remaining):
                chunk = os.read(stream.fileno(), 1 << 16)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)


def spawn(*task: str) -> tuple[dict, float, float]:
    """Run one child.py task in a fresh interpreter.

    Returns its JSON result, its own peak RSS in MiB (from wait4, not the
    running maximum over all children), and its latency from spawn to exit
    in seconds."""
    t_spawn = _clock()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), repr(t_spawn), *task],
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out = _read_to_eof(proc.stdout, t_spawn + CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    latency = _clock() - t_spawn
    if proc.returncode != 0:
        raise RuntimeError(f"child task {task} exited with status {proc.returncode}")
    return json.loads(out), usage.ru_maxrss / 1024.0, latency


def count_failures(workload: str, items: list[dict], reference: dict) -> int:
    """Items that did not pass, or whose output digest differs from the
    reference; for the stress workload, also row paths that disagree."""
    expected = reference[workload]
    failed = sum(1 for it in items
                 if not it["passed"] or expected.get(it["name"]) != it["digest"])
    rows = [it["digest"] for it in items if it["name"].startswith(f"row{ROW_N}.")]
    if len(set(rows)) > 1:
        failed += len(rows)
    return failed


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def timed_run(workload: str, seed: int, seconds: float, reference: dict):
    """End-to-end metrics from set-up probes and repeated repetitions.

    On the request stream an operation is one request, and its latency is
    its median over the repetitions, which all serve the same stream.  On
    the cold workloads the operation is the whole repetition as a user sees
    it, spawn to exit, so p50 and p90 are both its median."""
    deadline = _clock() + seconds
    setups = [spawn("setup", workload, str(seed))[0]["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    while len(reps) < MIN_REPS or _clock() + max(r[2] for r in reps) <= deadline:
        reps.append(spawn("work", workload, str(seed)))
    results = [r[0] for r in reps]
    items = [it for res in results for it in res["items"]]
    if workload == "requests":
        latencies_ms = [statistics.median(times) * 1000.0
                        for times in zip(*([it["s"] for it in res["items"]] for res in results))]
    else:
        latencies_ms = [statistics.median(r[2] for r in reps) * 1000.0]
    values = {
        "setup_s": statistics.median(setups + [res["setup_s"] for res in results]),
        "wall_s": statistics.median(res["work_s"] for res in results),
        "req_p50_ms": statistics.median(latencies_ms),
        "req_p90_ms": _p90(latencies_ms),
        "req_per_s": 1000.0 * len(latencies_ms) / sum(latencies_ms),
        "peak_rss_mb": statistics.median(r[1] for r in reps),
    }
    notes = {"repetitions": len(reps), "operations": len(latencies_ms),
             "setup_samples": len(setups) + len(results)}
    return values, len(items), count_failures(workload, items, reference), notes


def layer_metrics(snap: dict, untraced: dict) -> dict:
    """Per-layer values from a traced repetition's snapshot; the cli
    percentiles come from the untraced repetition."""
    self_s, incl_s, counts, memo = snap["self_s"], snap["incl_s"], snap["counts"], snap["memo"]
    total_self = sum(self_s.values())
    values = {f"{name}.self_s": t for name, t in self_s.items()}
    values.update({f"{name}.s": t for name, t in incl_s.items() if name.startswith("verify.case.")})
    values.update(counts)
    for m in MODULES:
        own = sum(t for name, t in self_s.items() if name.startswith(m + "."))
        values[f"{m}.self_share"] = 100.0 * own / total_self if total_self else 0.0
    gcds = counts.get("qarith.poly_gcd.calls", 0)
    values["qarith.poly_gcd.useful_ratio"] = \
        counts.get("qarith.poly_gcd.useful", 0) / gcds if gcds else 0.0
    looked_up = memo["families_hits"] + memo["families_misses"]
    values["families.memo.hit_ratio"] = memo["families_hits"] / looked_up if looked_up else 0.0
    values["opalg.memo.d_pow_past_x.entries"] = memo["d_pow_past_x"]
    for sub in ("expand", "family", "table"):
        times = [it["s"] for it in untraced["items"] if it["name"].split()[0] == sub]
        values[f"cli.{sub}.p50_ms"] = statistics.median(times) * 1000.0 if times else 0.0
    return values


def traced_run(workload: str, seed: int, reference: dict):
    values = spawn("micro", str(seed))[0]["micro"]
    items = []
    for path in ROW_PATHS:
        runs = [spawn("row", path)[0] for _ in range(ROW_REPEATS)]
        values[f"families.row{ROW_N}.{path}_ms"] = \
            statistics.median(r["work_s"] for r in runs) * 1000.0
        items += [{"name": f"row{ROW_N}.{path}", "passed": True, "digest": r["digest"]}
                  for r in runs]
    failed = count_failures("verify-stress", items, reference)
    untraced = spawn("work", workload, str(seed))[0]
    traced = spawn("work", workload, str(seed), "trace")[0]
    for res in (untraced, traced):
        items += res["items"]
        failed += count_failures(workload, res["items"], reference)
    values.update(layer_metrics(traced["trace"], untraced))
    values["trace.untraced_wall_s"] = untraced["work_s"]
    values["trace.traced_wall_s"] = traced["work_s"]
    values["trace.overhead_s"] = traced["work_s"] - untraced["work_s"]
    return values, len(items), failed, {}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "qweyl").glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qweyl" / "__init__.py").is_file():
        print(f"no qweyl sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    if args.trace:
        values, attempted, failed, notes = traced_run(args.workload, args.seed, reference)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, notes = timed_run(
            args.workload, args.seed, args.seconds, reference)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None and m["name"].endswith(ZERO_WHEN_UNUSED):
            value = 0  # a layer this workload never entered: no calls, no time
        elif value is None:
            raise KeyError(f"{m['name']} is in BENCHMARK.json but not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value} {m['unit']}")
    print(f"failed_ratio {failed / attempted} ratio")
    print(f"src_lines {src_lines()} lines (informational, not gated)")
    for key, value in notes.items():
        print(f"{key} {value}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
