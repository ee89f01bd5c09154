"""Workload inputs, and the code that runs them inside a child interpreter.

Nothing here imports qweyl at module level: the inputs are generated by the
benchmark alone, and the package receives only those inputs (argv lists,
case ids, degrees) through its public functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from time import perf_counter

WORKLOADS = ("verify-stated", "verify-stress", "requests")

STATED_ARGV = ("verify", "--json")

STRESS_CASES = ("T1", "T2", "T3", "T4", "C1", "C2", "C3")
STRESS_N = 16
ROW_N = 18
ROW_PATHS = ("closed", "factored", "recurrence")

# Bounded n ranges per subcommand; every (subcommand, variant, n) in range
# occurs a fixed number of times per stream, so a stream's total cost barely
# depends on the seed, while the seed sets the order (which request is cold)
# and the output format of each request.
EXPAND_KINDS = ("classical", "qpower", "qdesc", "qodd", "qtheorem4")
EXPAND_N = range(4, 17)
EXPAND_COPIES = 4
FAMILY_NAMES = ("hermite", "h", "bigH", "lucas")
FAMILY_N = range(4, 25)
FAMILY_COPIES = 2
LUCAS_K = range(1, 4)
TABLE_COEFFS = ("weyl", "qweyl")
TABLE_N = range(4, 19)
TABLE_COPIES = 2


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _base_requests() -> list[tuple[list[str], int]]:
    """(argv without --json, copies per stream) for every request variant."""
    out = []
    for kind in EXPAND_KINDS:
        for n in EXPAND_N:
            out.append((["expand", "--kind", kind, "--n", str(n)], EXPAND_COPIES))
    for name in FAMILY_NAMES:
        for n in FAMILY_N:
            out.append((["family", "--name", name, "--n", str(n)], FAMILY_COPIES))
    for n in FAMILY_N:
        for k in LUCAS_K:
            out.append((["family", "--name", "lucasK", "--n", str(n), "--k", str(k)], 1))
    for coeff in TABLE_COEFFS:
        for n in TABLE_N:
            out.append((["table", "--coeff", coeff, "--n", str(n)], TABLE_COPIES))
    return out


def request_universe() -> list[list[str]]:
    """Every argv a request stream can contain, in a fixed order."""
    return [argv + tail for argv, _ in _base_requests() for tail in ([], ["--json"])]


def request_stream(seed: int) -> list[list[str]]:
    """The request stream for one seed: a seeded order of the fixed multiset
    of request variants, each with a seeded choice of text or --json output."""
    rng = random.Random(seed)
    stream = []
    for argv, copies in _base_requests():
        for _ in range(copies):
            stream.append(argv + (["--json"] if rng.random() < 0.5 else []))
    rng.shuffle(stream)
    return stream


def capture(run, argv) -> tuple[int | None, str, float]:
    """Call run(argv) with stdout captured in memory; (exit code, stdout,
    seconds).  A call that raises has exit code None and counts as failed."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = run(list(argv))
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue(), perf_counter() - t0


def _item(name: str, fn) -> dict:
    """Time fn() -> (passed, output text); one that raises counts as failed."""
    t0 = perf_counter()
    try:
        passed, text = fn()
    except Exception:
        traceback.print_exc()
        passed, text = False, ""
    return {"name": name, "s": perf_counter() - t0, "passed": passed, "digest": sha256(text)}


def run_stated(qweyl) -> dict:
    """One `qweyl verify --json` at the stated ranges."""
    rc, out, dt = capture(qweyl.cli.run, STATED_ARGV)
    try:
        statuses = [r["status"] for r in json.loads(out)]
    except ValueError:
        statuses = []
    return {"work_s": dt, "items": [
        {"name": "verify", "s": dt, "digest": sha256(out),
         "passed": rc == 0 and bool(statuses) and all(s == "pass" for s in statuses)}]}


def row_lists(qweyl, path: str) -> list[list[int]]:
    """Row ROW_N of the q-Weyl triangle by one path, as coefficient lists."""
    return [qweyl.qweyl_binomial(ROW_N, m, l, path).to_list()
            for m in range(ROW_N + 1) for l in range(min(m, ROW_N - m) + 1)]


def run_stress(qweyl) -> dict:
    """Theorem cases at STRESS_N, then row ROW_N of the q-Weyl triangle by
    each path."""
    def theorem(case):
        report = qweyl.verify_theorem(case, STRESS_N)
        return report.passed, json.dumps(report.to_json())

    t0 = perf_counter()
    items = [_item(case, lambda case=case: theorem(case)) for case in STRESS_CASES]
    items += [_item(f"row{ROW_N}.{path}",
                    lambda path=path: (True, json.dumps(row_lists(qweyl, path))))
              for path in ROW_PATHS]
    return {"work_s": perf_counter() - t0, "items": items}


def serve(run, stream: list[list[str]]) -> dict:
    """Serve the stream in a closed loop with one client."""
    items = []
    t0 = perf_counter()
    for argv in stream:
        rc, out, dt = capture(run, argv)
        items.append({"name": " ".join(argv), "s": dt, "passed": rc == 0,
                      "digest": sha256(out)})
    return {"work_s": perf_counter() - t0, "items": items}
