"""Record bench/reference.json: the sha256 of every output the workloads check.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are trusted: the benchmark counts any
later output that differs from these digests as a failure, which is how it
holds every coefficient bit-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import qweyl  # noqa: E402
import qweyl.cli  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    stated = workloads.run_stated(qweyl)["items"]
    stress = workloads.run_stress(qweyl)["items"]
    requests = workloads.serve(qweyl.cli.run, workloads.request_universe())["items"]
    rows = {it["digest"] for it in stress if it["name"].startswith(f"row{workloads.ROW_N}.")}
    if not all(it["passed"] for it in stated + stress + requests) or len(rows) != 1:
        sys.exit("an output failed its own check; no reference written")
    reference = {
        "verify-stated": {it["name"]: it["digest"] for it in stated},
        "verify-stress": {it["name"]: it["digest"] for it in stress},
        "requests": {it["name"]: it["digest"] for it in requests},
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
