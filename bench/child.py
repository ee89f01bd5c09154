"""One measured task in a fresh interpreter; prints one JSON line.

    python3 bench/child.py <spawn-time> setup <workload> <seed>
    python3 bench/child.py <spawn-time> work <workload> <seed> [trace]
    python3 bench/child.py <spawn-time> micro <seed>
    python3 bench/child.py <spawn-time> row <path>

<spawn-time> is the CLOCK_MONOTONIC reading the parent took just before
starting this interpreter; the clock is shared by all processes, so
`setup_s` runs from the spawn to having qweyl imported (and, for the request
workload, the stream built).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qweyl  # noqa: E402
import qweyl.cli  # noqa: E402

import workloads  # noqa: E402

if not os.path.abspath(qweyl.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"imported qweyl from {qweyl.__file__}, not from this checkout")


def _since(t_spawn: float) -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC) - t_spawn


def _per_call(fn, batches: int = 5, min_batch_s: float = 0.02) -> float:
    """Median seconds per call over `batches` batches of at least min_batch_s."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        first = time.perf_counter() - t0
        if first >= min_batch_s:
            break
        loops *= 2
    samples = [first / loops]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    return statistics.median(samples)


def micro(seed: int) -> dict:
    """Layer micro-benchmarks.  IntPoly multiply and QScalar reduction touch
    no cache; (X+sD)^n runs with the engine's memo tables already filled by
    an untimed first call (warm)."""
    rng = random.Random(seed)
    out = {}
    for deg in (20, 80, 300):
        a, b = ([rng.choice((-1, 1)) * rng.getrandbits(32) for _ in range(deg + 1)]
                for _ in range(2))
        pa, pb = qweyl.IntPoly(a), qweyl.IntPoly(b)
        out[f"qarith.mul_deg{deg}_us"] = _per_call(lambda: pa * pb) * 1e6
    num = qweyl.q_factorial(20)
    den = qweyl.q_factorial(8) * qweyl.q_factorial(12)
    out["qarith.reduce_f20_us"] = _per_call(lambda: qweyl.QScalar(num, den)) * 1e6
    for n in (16, 24):
        for label, twist in (("q", qweyl.TWIST_Q), ("one", qweyl.TWIST_ONE)):
            factor = qweyl.affine_factor(1, twist)
            qweyl.power(factor, n)
            out[f"opalg.xsd_pow{n}_{label}_ms"] = \
                _per_call(lambda: qweyl.power(factor, n), batches=3) * 1e3
    return out


def main(t_spawn: float, argv: list[str]) -> dict:
    task = argv[0]
    if task == "row":
        t0 = time.perf_counter()
        rows = workloads.row_lists(qweyl, argv[1])
        return {"work_s": time.perf_counter() - t0,
                "digest": workloads.sha256(json.dumps(rows))}
    if task == "micro":
        return {"micro": micro(int(argv[1]))}
    workload, seed = argv[1], int(argv[2])
    stream = workloads.request_stream(seed) if workload == "requests" else None
    result = {"setup_s": _since(t_spawn)}
    if task == "setup":
        return result
    tracer = None
    if argv[3:] == ["trace"]:
        from tracer import Tracer  # only here, so untraced runs never load it
        tracer = Tracer()
        tracer.install(qweyl)
    if workload == "verify-stated":
        result.update(workloads.run_stated(qweyl))
    elif workload == "verify-stress":
        result.update(workloads.run_stress(qweyl))
    else:
        result.update(workloads.serve(qweyl.cli.run, stream))
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    return result


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main(float(sys.argv[1]), sys.argv[2:])) + "\n")
