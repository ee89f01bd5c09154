"""Command-line behavior: golden text, JSON round-trips, exit codes."""

import json
import os
import random
import signal
import subprocess
import sys
import threading

import pytest

from qweyl import cli, families, qarith
from qweyl.qarith import IntPoly
from qweyl.verify import CASES, FirstFailure, VerificationReport


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_qpower_golden(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--kind", "qpower", "--n", "2")
        assert code == 0
        assert out == "s^2*D^2 + (1+q)*s*X*D + s + X^2\n"

    def test_qpower_three(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--kind", "qpower", "--n", "3")
        assert out == ("s^3*D^3 + (1+q+q^2)*s^2*X*D^2 + (2+q)*s^2*D + "
                       "(1+q+q^2)*s*X^2*D + (2+q)*s*X + X^3\n")

    def test_classical(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--kind", "classical", "--n", "2")
        assert out == "s^2*D^2 + 2*s*X*D + s + X^2\n"

    def test_qdesc_matches_qodd_action(self, capsys):
        # F(1) and G(1) render differently but both normal-order cleanly
        _, out_desc, _ = run_cli(capsys, "expand", "--kind", "qdesc", "--n", "1")
        assert out_desc == "s*D + X\n"
        _, out_odd, _ = run_cli(capsys, "expand", "--kind", "qodd", "--n", "1")
        assert out_odd == "q*s*D + X\n"

    def test_qtheorem4(self, capsys):
        _, out, _ = run_cli(capsys, "expand", "--kind", "qtheorem4", "--n", "2")
        assert out == "(1-2q+q^2)*s^2*D^2 + (1-q^2)*s*X*D + (1-q)*s + X^2\n"

    def test_zeroth_power(self, capsys):
        # every kind's empty product is the identity of its algebra
        for kind in ("classical", "qpower", "qdesc", "qodd", "qtheorem4"):
            _, out, _ = run_cli(capsys, "expand", "--kind", kind, "--n", "0")
            assert out == "1\n", kind
            _, out, _ = run_cli(capsys, "expand", "--kind", kind, "--n", "0", "--json")
            twist = [1] if kind == "classical" else [0, 1]
            assert json.loads(out) == {
                "twist": {"num": twist, "den": [1]},
                "terms": [{"x": 0, "d": 0, "s": 0, "coef": {"num": [1], "den": [1]}}]}, kind

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "expand", "--kind", "qpower", "--n", "3", "--json")
        assert json.dumps(json.loads(out)) == out.strip()

    def test_bad_kind(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--kind", "bogus", "--n", "2")
        assert code == 2
        assert err

    def test_negative_n(self, capsys):
        code, _, _ = run_cli(capsys, "expand", "--kind", "qpower", "--n", "-1")
        assert code == 2

    def test_warm_table_prints_cold_bytes(self, capsys):
        # one process serving a shuffled stream prints, for each request,
        # what the same request prints with every operator row rebuilt
        argvs = [("expand", "--kind", kind, "--n", str(n)) + fmt
                 for kind in families.OPERATORS for n in (0, 2, 5, 9)
                 for fmt in ((), ("--json",))]
        random.Random(7).shuffle(argvs)
        warm = [run_cli(capsys, *argv) for argv in argvs]
        for argv, served in zip(argvs, warm):
            families.operator_row.cache_clear()
            assert run_cli(capsys, *argv) == served, argv


class TestFamily:
    def test_lucas_golden(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--name", "lucas", "--n", "4")
        assert code == 0
        assert out == "x^4 + (1+q+q^2+q^3)*s*x^2 + (q+q^3)*s^2\n"

    def test_h_and_bigh(self, capsys):
        _, out, _ = run_cli(capsys, "family", "--name", "h", "--n", "2")
        assert out == "x^2 + q*s\n"
        _, out, _ = run_cli(capsys, "family", "--name", "bigH", "--n", "3")
        assert out == "x^3 + (2+q)*s*x\n"

    def test_hermite(self, capsys):
        _, out, _ = run_cli(capsys, "family", "--name", "hermite", "--n", "4")
        assert out == "x^4 + 6*s*x^2 + 3*s^2\n"

    def test_lucas_k(self, capsys):
        _, out, _ = run_cli(capsys, "family", "--name", "lucasK", "--n", "1", "--k", "1")
        assert out == "(1+q)*x\n"

    def test_lucas_k_requires_k(self, capsys):
        code, _, err = run_cli(capsys, "family", "--name", "lucasK", "--n", "1")
        assert code == 2
        assert "requires --k" in err

    def test_k_rejected_elsewhere(self, capsys):
        code, _, err = run_cli(capsys, "family", "--name", "lucas", "--n", "2", "--k", "1")
        assert code == 2

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "family", "--name", "lucas", "--n", "4", "--json")
        assert json.dumps(json.loads(out)) == out.strip()
        data = json.loads(out)
        assert data["terms"][0] == {"x": 4, "s": 0, "coef": {"num": [1], "den": [1]}}


class TestTable:
    def test_weyl_values(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--coeff", "weyl", "--n", "4")
        lines = out.strip().splitlines()
        assert "m=2 j=1: 12" in lines
        assert "m=2 j=2: 3" in lines

    def test_qweyl_values(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--coeff", "qweyl", "--n", "4")
        lines = out.strip().splitlines()
        assert "m=2 l=1: 3+5q+3q^2+q^3" in lines
        assert "m=2 l=2: 2+q" in lines

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--coeff", "qweyl", "--n", "3", "--json")
        assert json.dumps(json.loads(out)) == out.strip()
        data = json.loads(out)
        assert data["coeff"] == "qweyl"
        assert {"m": 1, "l": 0, "value": [1, 1, 1]} in data["entries"]

    @pytest.mark.parametrize("coeff, index_name, render",
                             [("weyl", "j", str), ("qweyl", "l", lambda v: str(IntPoly(v)))])
    def test_formats_agree_entry_by_entry(self, capsys, coeff, index_name, render):
        # each JSON entry renders to the text line of the same (m, index)
        for n in range(9):
            _, text, _ = run_cli(capsys, "table", "--coeff", coeff, "--n", str(n))
            _, out, _ = run_cli(capsys, "table", "--coeff", coeff, "--n", str(n), "--json")
            lines = [f"m={e['m']} {index_name}={e[index_name]}: {render(e['value'])}"
                     for e in json.loads(out)["entries"]]
            assert text.splitlines() == lines, n


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n-max", "1")
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)

    def test_selected_cases(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "T1", "--case", "sym-1.13",
                               "--n-max", "3")
        assert code == 0
        assert out == "PASS T1 (n_max=3)\nPASS sym-1.13 (n_max=3)\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "T1", "--n-max", "2", "--json")
        assert code == 0
        assert json.dumps(json.loads(out)) == out.strip()
        assert json.loads(out) == [{"case": "T1", "n_max": 2, "status": "pass",
                                    "first_failure": None}]

    def test_n_max_past_stated_range(self, capsys):
        # dq-2.7 states n <= 12; --n-max checks it up to exactly 14
        code, out, _ = run_cli(capsys, "verify", "--case", "dq-2.7", "--n-max", "14", "--json")
        assert code == 0
        assert json.loads(out) == [{"case": "dq-2.7", "n_max": 14, "status": "pass",
                                    "first_failure": None}]

    def test_failure_exit_code(self, capsys, monkeypatch):
        failed = VerificationReport(
            "T1", (1, 2), "fail",
            FirstFailure(n=2, term=(1, 1, 1), lhs="1+q", rhs="-1-q"))
        monkeypatch.setattr(cli, "run_cases", lambda ids, n_max: [failed])
        code, out, err = run_cli(capsys, "verify", "--case", "T1")
        assert code == 1
        assert out.startswith("FAIL T1")
        assert "T1" in err

    def test_unknown_case(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--case", "T9")
        assert code == 2

    def test_slip_fails_its_cases(self, capsys, monkeypatch):
        # a transcription slip [n] -> [n+1] for n > 9 makes h_n's closed form
        # NotPolynomial at n = 10: the cases that read h_n fail there, and
        # every case still reports
        real = qarith._q_int

        def slipped(n, power=1):
            return real(n + 1 if n > 9 else n, power)

        memos = [f for f in vars(families).values() if hasattr(f, "cache_clear")]
        monkeypatch.setattr(qarith, "_q_int", slipped)
        monkeypatch.setattr(families, "_q_int", slipped)
        for memo in memos:
            memo.cache_clear()
        try:
            code, out, err = run_cli(capsys, "verify", "--json")
        finally:
            for memo in memos:
                memo.cache_clear()
        assert code == 1
        reports = json.loads(out)
        failed = {r["case"]: r["first_failure"] for r in reports if r["status"] == "fail"}
        assert [r["case"] for r in reports] == list(CASES)
        assert sorted(failed) == ["dq-2.7", "exp-2.6", "rec-2.8", "rec-3.3", "scale-3"]
        for ff in failed.values():
            assert (ff["n"], ff["term"], ff["lhs"]) == (10, [], "")
            assert ff["rhs"].startswith("NotPolynomial: ")
        assert "internal error" not in err

    def test_selection_with_no_case_to_run(self, capsys):
        # rec-2.8 starts at n = 2, so --n-max 1 leaves nothing to verify
        code, out, err = run_cli(capsys, "verify", "--case", "rec-2.8", "--n-max", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "rec-2.8" in err


class TestInternalError:
    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        def broken(n):
            raise RuntimeError("first line\nsecond line")
        monkeypatch.setitem(cli.FAMILIES, "hermite", broken)
        code, out, err = run_cli(capsys, "family", "--name", "hermite", "--n", "3")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "RuntimeError" in err and "first line second line" in err

    def test_type_error_in_a_case_exits_3(self, capsys, monkeypatch):
        # only NotPolynomial and ZeroDivisionError fail a case; any other
        # exception is a defect of the program
        def broken(n):
            raise TypeError("not a scalar")
        monkeypatch.setitem(CASES, "T1", CASES["T1"]._replace(check=broken))
        code, out, err = run_cli(capsys, "verify", "--case", "T1")
        assert code == 3
        assert out == ""
        assert err == "qweyl verify: internal error: TypeError: not a scalar\n"

    def test_keyboard_interrupt_propagates(self, capsys, monkeypatch):
        def interrupted(n):
            raise KeyboardInterrupt
        monkeypatch.setitem(cli.FAMILIES, "hermite", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.run(["family", "--name", "hermite", "--n", "3"])


class TestClosedPipe:
    def test_closed_pipe_is_quiet(self):
        # the weyl table at n = 100 (about 170 KB) overflows the pipe buffer,
        # so the command is still writing when its reader goes away
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-c", "from qweyl.cli import main; main()",
             "table", "--coeff", "weyl", "--n", "100"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"m=0 j=0: 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert err == b""
        if hasattr(signal, "SIGPIPE"):
            assert code == -signal.SIGPIPE


class TestParsing:
    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "expand" in out


class TestSharedParser:
    """run() parses with one parser per process."""

    VALID = ("expand", "--kind", "qpower", "--n", "2")
    MALFORMED = (
        ("expand", "--kind", "nope", "--n", "2"),
        ("expand", "--kind", "qpower", "--n", "-1"),
        ("expand", "--kind", "qpower"),
        ("frobnicate",),
        ("table", "--coeff", "weyl", "--n", "3", "--extra"),
    )

    def test_malformed_request_leaves_no_trace(self, capsys):
        for bad in self.MALFORMED:
            cli._shared_parser.cache_clear()  # the malformed request builds it
            code, out, _ = run_cli(capsys, *bad)
            assert (code, out) == (2, "")
            code, out, _ = run_cli(capsys, *self.VALID)
            assert code == 0
            assert out == "s^2*D^2 + (1+q)*s*X*D + s + X^2\n"

    def test_concurrent_parses_get_their_own_namespace(self):
        argvs = [
            ["expand", "--kind", "qpower", "--n", "3"],
            ["expand", "--kind", "classical", "--n", "7", "--json"],
            ["family", "--name", "lucasK", "--n", "4", "--k", "2"],
            ["family", "--name", "h", "--n", "9", "--json"],
            ["table", "--coeff", "weyl", "--n", "5"],
            ["table", "--coeff", "qweyl", "--n", "6", "--json"],
            ["verify", "--case", "T1", "--case", "C2", "--n-max", "4"],
            ["verify", "--json"],
        ]
        expected = [vars(cli.build_parser().parse_args(a)) for a in argvs]
        parser = cli._shared_parser()
        rounds = 40
        barrier = threading.Barrier(len(argvs))
        results = [[] for _ in argvs]

        def parse(i):
            for _ in range(rounds):
                barrier.wait(timeout=10)
                results[i].append(parser.parse_args(argvs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=parse, args=(i,)) for i in range(len(argvs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            assert len(got) == rounds
            assert all(vars(ns) == want for ns in got)
        namespaces = [ns for got in results for ns in got]
        assert len({id(ns) for ns in namespaces}) == len(namespaces)
