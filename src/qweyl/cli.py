"""Command-line front end: expansions, families, coefficient tables, verify.

All behavior is flag-driven (no config files, no environment variables) so
that golden outputs are reproducible.  Results go to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 verification failure, 2 malformed
arguments, 3 internal error (an unexpected exception, reported as one
stderr line).  Where the platform has SIGPIPE, main() dies quietly of it
when its reader closes the pipe; run() leaves the signal alone.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .families import (
    OPERATORS,
    _triangle,
    big_hermite,
    h_poly,
    hermite,
    lucas,
    lucas_k,
    operator_row,
    qweyl_binomial,
    weyl_binomial,
)
from .verify import ALL_CASE_IDS, run_cases

# `family --name` choices, in this order; lucasK also takes --k.
FAMILIES = {"hermite": hermite, "h": h_poly, "bigH": big_hermite,
            "lucas": lucas, "lucasK": lucas_k}


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _cmd_expand(args: argparse.Namespace) -> int:
    op = operator_row(args.kind, args.n)
    if args.json:
        print(json.dumps(op.to_json()))
    else:
        print(str(op))
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    if args.name == "lucasK":
        if args.k is None:
            print("family lucasK requires --k", file=sys.stderr)
            return 2
        poly = lucas_k(args.n, args.k)
    elif args.k is not None:
        print(f"--k is only meaningful for lucasK, not {args.name}", file=sys.stderr)
        return 2
    else:
        poly = FAMILIES[args.name](args.n)
    if args.json:
        print(json.dumps(poly.to_json()))
    else:
        print(str(poly))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    n = args.n
    index_name = "j" if args.coeff == "weyl" else "l"
    if args.coeff == "weyl":
        entries = [(m, idx, weyl_binomial(n, m, idx)) for m, idx in _triangle(n)]
    else:
        entries = [(m, idx, qweyl_binomial(n, m, idx, path="recurrence"))
                   for m, idx in _triangle(n)]
    if args.json:
        print(json.dumps({"coeff": args.coeff, "n": n, "entries": [
            {"m": m, index_name: idx,
             "value": value if isinstance(value, int) else value.to_list()}
            for m, idx, value in entries]}))
    else:
        for m, idx, value in entries:
            print(f"m={m} {index_name}={idx}: {value}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_cases(args.case if args.case else None, args.n_max)
    if not reports:
        print(f"--n-max {args.n_max} is below the first n of every selected case: "
              f"{', '.join(args.case)}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            if r.passed:
                print(f"PASS {r.case_id} (n_max={r.n_range[1]})")
            else:
                ff = r.first_failure
                print(f"FAIL {r.case_id} (n_max={r.n_range[1]}): "
                      f"first failure at n={ff.n}, term={ff.term}, "
                      f"lhs={ff.lhs}, rhs={ff.rhs}")
    failed = [r.case_id for r in reports if not r.passed]
    if failed:
        print(f"{len(failed)} case(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="Exact normal ordering in the q-Weyl algebra: "
                    "expansions, polynomial families, coefficient tables, "
                    "and machine verification of the identities.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("expand", help="normal-order an operator power or product")
    p.add_argument("--kind", required=True, choices=tuple(OPERATORS),
                   help="classical (X+sD)^n at q=1, qpower (X+sD)^n, "
                        "qdesc descending-power product, qodd odd-power product, "
                        "qtheorem4 (X+(1-q)sD)^n")
    p.add_argument("--n", required=True, type=_nonneg)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("family", help="print a polynomial family member")
    p.add_argument("--name", required=True, choices=tuple(FAMILIES))
    p.add_argument("--n", required=True, type=_nonneg)
    p.add_argument("--k", type=_nonneg, help="second index, for lucasK")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("table", help="emit a coefficient triangle")
    p.add_argument("--coeff", required=True, choices=("weyl", "qweyl"))
    p.add_argument("--n", required=True, type=_nonneg)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run verification cases")
    p.add_argument("--case", action="append", choices=ALL_CASE_IDS,
                   help="case id; repeatable; default all")
    p.add_argument("--n-max", type=_positive, dest="n_max",
                   help="check every case up to this n")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


# Building the parser costs more than serving a typical request, so run()
# builds it once per process.  Parsing leaves the parser unchanged (each call
# fills a fresh Namespace), so one instance serves every caller and thread.
_shared_parser = lru_cache(maxsize=None)(build_parser)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"qweyl {args.subcommand}: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3


def main() -> None:
    # a reader that closes the pipe (`| head`) ends the command as it ends any filter
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
