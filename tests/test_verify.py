"""Harness behavior: passing cases, fault sensitivity, report shape."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import qweyl
from qweyl.families import ONE_MINUS_Q
from qweyl.qarith import QSCALAR_ZERO, QScalar, q_pow
from qweyl.verify import (
    ALL_CASE_IDS,
    CASES,
    FirstFailure,
    VerificationReport,
    run_cases,
    verify_case,
    verify_identity,
    verify_theorem,
)


class TestTheorems:
    def test_t1_passes(self):
        report = verify_theorem("T1", 6)
        assert report.status == "pass"
        assert report.first_failure is None

    def test_t3_smallest_case(self):
        # G(1) = X + qsD = h_1(X) + q h_0 (sD)
        assert verify_theorem("T3", 1).status == "pass"

    def test_t4_hand_expansion_case(self):
        # (X+(1-q)sD)^2 = x^2+(1-q)s + (1-q^2)sXD + (1-q)^2 s^2 D^2
        assert verify_theorem("T4", 2).status == "pass"

    def test_corollaries_small(self):
        assert verify_theorem("C1", 5).status == "pass"
        assert verify_theorem("C2", 4).status == "pass"
        assert verify_theorem("C3", 4).status == "pass"

    def test_unknown_case(self):
        # the message names every case id; n_max = 0 is refused for any case
        with pytest.raises(ValueError, match="dq-2.7"):
            verify_case("T9", 3)
        for case_id in ("T1", "dq-2.7"):
            with pytest.raises(ValueError, match="n_max must be positive"):
                verify_case(case_id, 0)


class TestIdentities:
    def test_sym_113(self):
        assert verify_identity("sym-1.13", 10).status == "pass"

    def test_q1_collapse(self):
        assert verify_identity("q1-collapse", 8).status == "pass"

    def test_lucas_includes_anomaly(self):
        assert verify_identity("lucas-4.4-4.6", 1).status == "pass"
        assert verify_identity("lucas-4.4-4.6", 1).n_range == (0, 1)

    def test_all_identities_small(self):
        for case_id in [i for i in ALL_CASE_IDS if not i.startswith(("T", "C"))]:
            assert verify_case(case_id, 4).status == "pass", case_id

    def test_n_max_past_stated_range(self):
        # n_max means the same for every case: check up to exactly this n
        report = verify_case("dq-2.7", 16)
        assert report.n_range == (1, 16)
        assert report.passed
        assert [(r.case_id, r.n_range) for r in run_cases(["T2", "dq-2.7"], n_max=13)] \
            == [("T2", (1, 13)), ("dq-2.7", (1, 13))]

    def test_one_entry_point(self):
        # the older names are the same function object, not wrappers, so a
        # tracer that wraps them by name also sees the calls run_cases makes
        assert verify_theorem is verify_identity is verify_case
        assert verify_identity("T1", 3) == verify_theorem("T1", 3) == verify_case("T1", 3)

    def test_empty_range_is_refused(self):
        # rec-2.8 starts at n = 2, so n_max = 1 leaves it nothing to compare
        with pytest.raises(ValueError, match=r"rec-2\.8.*n = 2"):
            verify_identity("rec-2.8", 1)
        assert verify_identity("rec-2.8", 2).n_range == (2, 2)


class TestFaultInjection:
    def test_flip_is_detected(self):
        for seed in range(6):
            report = verify_theorem("T2", 3, fault_seed=seed)
            assert report.status == "fail"
            assert report.first_failure is not None
            assert report.first_failure.lhs != report.first_failure.rhs

    def test_identity_flip_is_detected(self):
        for seed in (7, 11, 13):
            report = verify_identity("closed-4.14", 4, fault_seed=seed)
            assert report.status == "fail"
            assert report.first_failure is not None

    def test_fault_reports_are_pinned(self):
        # every case at n_max = 5 under seeds 0-7: which coefficient a seed
        # flips, and so every fault report, must not move
        reports = [verify_case(case_id, 5, fault_seed=seed).to_json()
                   for case_id in CASES for seed in range(8)]
        assert len(reports) == 176
        assert all(r["status"] == "fail" for r in reports)
        digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
        assert digest == "f109abc3977ea43f4cb567db5128dec85df11e7d27741ab5fee061bbef759e6d"

    @pytest.mark.parametrize("case_id", ["T4", "expand-4.7", "closed-4.14",
                                         "factor-4.16", "rec-4.17"])
    def test_transcription_slips_are_detected(self, monkeypatch, case_id):
        # the slips a transcription makes, each in one right-hand-side
        # coefficient at one n: the run at the stated range fails at that n
        def moved(rhs, key):
            # to the neighbouring key, first exponent + 1
            out = {k: v for k, v in rhs.items() if k != key}
            near = (key[0] + 1,) + tuple(key[1:])
            out[near] = out.get(near, QSCALAR_ZERO) + rhs[key]
            return out

        slips = {
            "times q": lambda rhs, key: {**rhs, key: rhs[key] * q_pow(1)},
            "times 1/q": lambda rhs, key: {**rhs, key: rhs[key] * q_pow(-1)},
            "dropped": lambda rhs, key: {k: v for k, v in rhs.items() if k != key},
            "moved": moved,
        }
        case = CASES[case_id]
        for seed, (name, slip) in enumerate(slips.items()):
            for fault_n in (case.start, random.Random(seed).randint(case.start, case.n_max),
                            case.n_max):
                def faulty(n, check=case.check, slip=slip, fault_n=fault_n, seed=seed):
                    for lhs, rhs in check(n):
                        if n == fault_n:
                            rhs = slip(rhs, random.Random(seed).choice(sorted(rhs)))
                        yield lhs, rhs

                monkeypatch.setitem(CASES, case_id, case._replace(check=faulty))
                report, = run_cases([case_id])
                assert report.status == "fail", (name, fault_n)
                assert report.first_failure.n == fault_n, (name, fault_n)

    def test_pole_fails_its_case(self, monkeypatch):
        # q-Weyl binomials of one n that kept a factor 1/(1-q) have a pole at
        # q = 1, so q1-collapse fails at that n once the n's before it agree
        real, pole_at = qweyl.verify.qweyl_binomial, [4]

        def slipped(n, m, l, path="closed"):
            value = real(n, m, l, path)
            return QScalar(value, ONE_MINUS_Q) if n == pole_at[0] else value

        monkeypatch.setattr(qweyl.verify, "qweyl_binomial", slipped)
        pole = FirstFailure(n=4, term=(), lhs="",
                            rhs="PoleAtPoint: denominator -1+q vanishes at q = 1")
        assert verify_case("q1-collapse", 6) == ("q1-collapse", (1, 6), "fail", pole)
        # a fault seed flips a coefficient of an n before the pole
        assert verify_case("q1-collapse", 6, fault_seed=3).first_failure.n < 4
        # with no n before it, nothing is flipped and the pole is the failure
        pole_at[0] = 2
        assert verify_case("q1-collapse", 1).passed
        assert verify_case("q1-collapse", 6, fault_seed=3).first_failure.n == 1
        pole_at[0] = 1
        assert verify_case("q1-collapse", 6, fault_seed=3).first_failure == pole._replace(n=1)

    def test_deterministic(self):
        a = verify_theorem("T1", 4, fault_seed=42)
        b = verify_theorem("T1", 4, fault_seed=42)
        assert a == b


class TestConcurrency:
    def test_cases_run_concurrently(self):
        # pure functions over immutable values: parallel execution must give
        # the same reports as sequential
        from concurrent.futures import ThreadPoolExecutor

        ids = ["T1", "T2", "closed-4.14", "dq-2.7", "sym-1.13", "rec-4.17"]
        sequential = run_cases(ids, n_max=5)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda i: run_cases([i], n_max=5)[0], ids))
        assert parallel == sequential


class TestRunCases:
    def test_selected_subset(self):
        reports = run_cases(["T1", "sym-1.13"], n_max=3)
        assert [r.case_id for r in reports] == ["T1", "sym-1.13"]
        assert all(r.passed for r in reports)

    def test_all_cases_at_n1(self):
        # rec-2.8 starts at n = 2, so the cap leaves it out of the reports
        reports = run_cases(n_max=1)
        assert [r.case_id for r in reports] == [i for i in ALL_CASE_IDS if i != "rec-2.8"]
        assert all(r.passed for r in reports)

    def test_case_with_empty_range_is_left_out(self):
        assert run_cases(["rec-2.8"], n_max=1) == []
        assert [r.case_id for r in run_cases(["T1", "rec-2.8"], n_max=1)] == ["T1"]

    def test_n_max_below_one_is_refused(self):
        # refused whichever cases are selected, not only when one starts at 0
        for call in (lambda: run_cases(n_max=0), lambda: run_cases(["T1"], n_max=0),
                     lambda: run_cases(n_max=-5)):
            with pytest.raises(ValueError, match="n_max must be positive"):
                call()

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_cases(["nope"])

    def test_n_max_is_taken_as_an_integer(self):
        # a bool is the integer it stands for, so no report says "n_max": true
        for report in (verify_theorem("T1", True), verify_identity("dq-2.7", True),
                       *run_cases(["T1"], n_max=True)):
            assert json.dumps(report.to_json()["n_max"]) == "1"
        # a float is refused at the call, whatever its value
        for call in (lambda: verify_theorem("T1", 0.5), lambda: verify_identity("dq-2.7", 0.5),
                     lambda: run_cases(n_max=0.5), lambda: run_cases(["T1"], n_max=2.0)):
            with pytest.raises(TypeError):
                call()

    def test_bare_string_of_case_ids_is_refused(self):
        # iterating "T1" would ask for a case 'T'
        with pytest.raises(TypeError, match="not a string"):
            run_cases("T1")

    def test_cases_check_their_reported_range(self, monkeypatch):
        # the n values a case compares are exactly the reported n_range
        for case_id, case in CASES.items():
            seen = []

            def recording(n, check=case.check):
                seen.append(n)
                return check(n)

            monkeypatch.setitem(CASES, case_id, case._replace(check=recording))
            report = verify_case(case_id, 4)
            first, last = report.n_range
            assert seen == list(range(first, last + 1)), case_id

    def test_stated_ranges(self):
        # (first n, stated n_max) of every case, in report order
        assert [(r.case_id, r.n_range) for r in run_cases()] == [
            ("T1", (1, 10)), ("T2", (1, 8)), ("T3", (1, 8)), ("T4", (1, 8)),
            ("C1", (1, 10)), ("C2", (1, 8)), ("C3", (1, 8)),
            ("H-deriv-1.9", (1, 12)), ("op-1.10", (1, 12)), ("sym-1.13", (1, 12)),
            ("h-closed-2.1-vs-2.3", (1, 8)), ("exp-2.6", (1, 12)),
            ("dq-2.7", (1, 12)), ("rec-2.8", (2, 12)), ("rec-3.3", (1, 12)),
            ("scale-3", (1, 12)), ("lucas-4.4-4.6", (0, 12)),
            ("expand-4.7", (1, 10)), ("closed-4.14", (1, 10)),
            ("factor-4.16", (1, 10)), ("rec-4.17", (1, 10)),
            ("q1-collapse", (1, 10)),
        ]


class TestSecondaryOracle:
    def test_apply_to_monomials_agrees(self):
        # structural equality is the decision procedure; acting on monomials
        # is the retained secondary oracle
        from qweyl.families import g_coeff, h_poly
        from qweyl.opalg import TWIST_Q, NormalOp, affine_factor
        from qweyl.polyring import XSPoly
        from qweyl.qarith import q_pow

        for n in range(1, 5):
            lhs = NormalOp.identity(TWIST_Q)
            for i in range(n):
                lhs = affine_factor(q_pow(i), TWIST_Q) * lhs
            rhs = NormalOp(TWIST_Q, {})
            for k in range(n + 1):
                rhs = rhs + NormalOp.from_polynomial(g_coeff(n, k), TWIST_Q) \
                    * NormalOp(TWIST_Q, {(0, k, k): 1})
            for m in range(7):
                assert lhs.apply(XSPoly.x(m)) == rhs.apply(XSPoly.x(m))

    def test_sampled_evaluation_agrees(self):
        # fast numeric pre-check: both sides of an identity at rational points
        from fractions import Fraction
        from qweyl.families import h_poly
        from qweyl.qarith import QScalar, q_integer

        points = [(2, 1, Fraction(1, 2)), (Fraction(1, 3), -2, 3), (5, Fraction(2, 7), -1)]
        for n in range(1, 9):
            lhs = h_poly(n).dq()
            rhs = QScalar(q_integer(n)) * h_poly(n - 1)
            for x0, s0, q0 in points:
                assert lhs.evaluate(x0, s0, q0) == rhs.evaluate(x0, s0, q0)


class TestReportJson:
    def test_schema(self):
        report = verify_theorem("T1", 2)
        data = report.to_json()
        assert data == {"case": "T1", "n_max": 2, "status": "pass",
                        "first_failure": None}
        json.dumps(data)

    def test_failure_schema(self):
        report = verify_theorem("T1", 3, fault_seed=1)
        data = report.to_json()
        assert data["status"] == "fail"
        ff = data["first_failure"]
        assert set(ff) == {"n", "term", "lhs", "rhs"}
        json.dumps(data)

    def test_reports_are_immutable_tuples(self):
        failure = FirstFailure(n=2, term=(1, 1, 1), lhs="1+q", rhs="-1-q")
        report = VerificationReport(case_id="T1", n_range=(1, 2), status="fail",
                                    first_failure=failure)
        assert VerificationReport._fields == ("case_id", "n_range", "status", "first_failure")
        assert FirstFailure._fields == ("n", "term", "lhs", "rhs")
        assert not report.passed
        assert report == ("T1", (1, 2), "fail", (2, (1, 1, 1), "1+q", "-1-q"))
        case_id, _, status, first = report
        assert (case_id, status, first.n) == ("T1", "fail", 2)
        assert report.to_json()["first_failure"] == {"n": 2, "term": [1, 1, 1],
                                                     "lhs": "1+q", "rhs": "-1-q"}
        for value, field in ((report, "status"), (failure, "n"), (report, "other")):
            with pytest.raises(AttributeError):
                setattr(value, field, None)


class TestImportCost:
    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        # the report types are NamedTuples; dataclasses would pull in
        # inspect, ast, dis and tokenize in every fresh interpreter
        src = os.path.dirname(os.path.dirname(os.path.abspath(qweyl.__file__)))
        code = ("import sys, qweyl.cli\n"
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
