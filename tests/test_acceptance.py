"""Acceptance suite: one test per criterion, exact (bit-identical) checks.

Every comparison here is exact -- integer and rational-function arithmetic
with no tolerances.  Each criterion prints a PASS line once its assertions
hold (run with `pytest -s` to see them), and asserts its stated runtime
budget.
"""

import time

from qweyl.families import (
    _xsd_power,
    lucas,
    qweyl_binomial,
    weyl_binomial,
)
from qweyl.polyring import XSPoly
from qweyl.qarith import IntPoly, QScalar
from qweyl.verify import verify_identity, verify_theorem

ONE_MINUS_Q = IntPoly([1, -1])


def _report(name, elapsed, limit):
    assert elapsed < limit, f"{name} took {elapsed:.2f}s, budget {limit}s"
    print(f"PASS {name} ({elapsed:.2f}s < {limit}s)")


# Frozen golden expansions of (X+sD)^n for n = 1..4,
# keyed (X power, D power, s power) with ascending q-coefficient lists.
GOLDEN_EXPANSIONS = {
    1: {(0, 1, 1): [1], (1, 0, 0): [1]},
    2: {(0, 2, 2): [1], (1, 1, 1): [1, 1], (0, 0, 1): [1], (2, 0, 0): [1]},
    3: {(0, 3, 3): [1], (1, 2, 2): [1, 1, 1], (0, 1, 2): [2, 1],
        (2, 1, 1): [1, 1, 1], (1, 0, 1): [2, 1], (3, 0, 0): [1]},
    4: {(0, 4, 4): [1], (1, 3, 3): [1, 1, 1, 1], (0, 2, 3): [3, 2, 1],
        (2, 2, 2): [1, 1, 2, 1, 1], (1, 1, 2): [3, 5, 3, 1], (0, 0, 2): [2, 1],
        (3, 1, 1): [1, 1, 1, 1], (2, 0, 1): [3, 2, 1], (4, 0, 0): [1]},
}

GOLDEN_LUCAS = {
    0: {(0, 0): [1]},
    1: {(1, 0): [1]},
    2: {(2, 0): [1], (0, 1): [1, 1]},
    3: {(3, 0): [1], (1, 1): [1, 1, 1]},
    4: {(4, 0): [1], (2, 1): [1, 1, 1, 1], (0, 2): [0, 1, 0, 1]},
}


def test_criterion_1_golden_expansion_table():
    t0 = time.perf_counter()
    for n, golden in GOLDEN_EXPANSIONS.items():
        expected = {key: QScalar(IntPoly(coeffs)) for key, coeffs in golden.items()}
        assert _xsd_power(n).terms == expected, f"n={n} expansion mismatch"
    _report("criterion-1 golden expansion table n=1..4", time.perf_counter() - t0, 1.0)


def test_criterion_2_theorem1_corollary1():
    t0 = time.perf_counter()
    assert verify_theorem("T1", 10).passed
    assert verify_theorem("C1", 10).passed
    assert weyl_binomial(4, 2, 1) == 12
    # the same coefficient read off the specialized oracle: X s^2 D term of n=4
    coeff = _xsd_power(4).terms[(1, 1, 2)]
    assert coeff.evaluate(1) == 12
    _report("criterion-2 theorem 1 / corollary 1, n<=10 at q=1",
            time.perf_counter() - t0, 5.0)


def test_criterion_3_theorem2_corollary2():
    t0 = time.perf_counter()
    assert verify_theorem("T2", 8).passed
    assert verify_theorem("C2", 8).passed
    _report("criterion-3 theorem 2 + corollary 2, n<=8", time.perf_counter() - t0, 30.0)


def test_criterion_4_theorem3_corollary3():
    t0 = time.perf_counter()
    assert verify_theorem("T3", 8).passed
    assert verify_theorem("C3", 8).passed
    _report("criterion-4 theorem 3 + corollary 3, n<=8", time.perf_counter() - t0, 30.0)


def test_criterion_5_theorem4_chain():
    t0 = time.perf_counter()
    assert verify_theorem("T4", 8).passed
    assert verify_identity("expand-4.7", 10).passed
    assert verify_identity("closed-4.14", 10).passed
    assert verify_identity("factor-4.16", 10).passed
    assert verify_identity("rec-4.17", 10).passed
    assert verify_identity("q1-collapse", 10).passed
    # three-path agreement, spelled out
    for n in range(1, 11):
        for m in range(n + 1):
            for l in range(min(m, n - m) + 1):
                closed = qweyl_binomial(n, m, l, "closed")
                assert closed == qweyl_binomial(n, m, l, "factored")
                assert closed == qweyl_binomial(n, m, l, "recurrence")
    _report("criterion-5 theorem 4 chain, n<=8/10", time.perf_counter() - t0, 60.0)


def test_criterion_6_recurrence_derivative_suite():
    t0 = time.perf_counter()
    for case_id in ("H-deriv-1.9", "dq-2.7", "rec-2.8", "rec-3.3",
                    "scale-3", "exp-2.6", "lucas-4.4-4.6"):
        assert verify_identity(case_id, 12).passed, case_id
    # the +s anomaly at n=1, spelled out:
    # (X + (1-q)sD) L_1(x,-s) = L_2(x,-s) + s L_0(x,-s) + s
    l1 = lucas(1).scale_s(-1)
    lhs = l1.shift(1, 0) + l1.dq().shift(0, 1, QScalar(ONE_MINUS_Q))
    rhs = lucas(2).scale_s(-1) + XSPoly.s() + XSPoly.s()
    assert lhs == rhs
    assert lhs == XSPoly({(2, 0): 1, (0, 1): ONE_MINUS_Q})
    _report("criterion-6 recurrence/derivative suite, n<=12",
            time.perf_counter() - t0, 10.0)


def test_criterion_7_fault_injection_sensitivity():
    cases = ["T1", "T2", "T3", "T4", "C1", "C2", "C3",
             "closed-4.14", "dq-2.7", "rec-2.8"]
    injections = 0
    for seed in (0, 1):
        for case_id in cases:
            if case_id.startswith(("T", "C")):
                report = verify_theorem(case_id, 4, fault_seed=seed)
            else:
                report = verify_identity(case_id, 4, fault_seed=seed)
            assert report.status == "fail", f"{case_id} seed {seed} not detected"
            assert report.first_failure is not None
            assert report.first_failure.lhs != report.first_failure.rhs
            injections += 1
    assert injections >= 20
    print(f"PASS criterion-7 fault injection ({injections} injections, all detected)")


def test_criterion_8_lucas_golden_values():
    for n, golden in GOLDEN_LUCAS.items():
        expected = XSPoly({key: IntPoly(coeffs) for key, coeffs in golden.items()})
        assert lucas(n) == expected, f"L_{n} mismatch"
    print("PASS criterion-8 Lucas golden values L_0..L_4")
