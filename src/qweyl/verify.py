"""Verification harness: closed forms against the rewriting oracle.

A case checks one degree n: it assembles a left side from the engine
(operator powers and products) and a right side from closed-form families,
as term maps.  The harness walks the case's range of n, in ascending order,
and compares the maps exactly -- no sampling, no tolerance.  Cases are pure
functions of n, so they are deterministic and safe to run concurrently.
A NotPolynomial or ZeroDivisionError (such as PoleAtPoint) fails its case
at that n, as a wrong coefficient does; any other exception propagates.

A seeded fault-injection mode flips the sign of one randomly chosen
right-hand-side coefficient and must drive the case to a failing report
with a populated first_failure; this demonstrates the harness can detect
single-coefficient errors.
"""

from __future__ import annotations

import math
import random
from operator import index
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .families import (
    ONE_MINUS_Q,
    _corollary2_column,
    _corollary3_column,
    _triangle,
    a_coeff,
    apply_exp_q2,
    big_hermite,
    g_coeff,
    h_poly,
    hermite,
    hermite_lucas_expand,
    lucas,
    operator_row,
    qweyl_binomial,
    weyl_binomial,
)
from .opalg import TWIST_Q, affine_factor
from .polyring import XSPoly
from .qarith import (NotPolynomial, QScalar, QSCALAR_ZERO, _q_binom, q_integer, q_pow, q_product,
                     to_polynomial)

Comparison = tuple[Mapping, Mapping]  # (lhs term map, rhs term map)


class FirstFailure(NamedTuple):
    n: int
    term: tuple
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {"n": self.n, "term": list(self.term), "lhs": self.lhs, "rhs": self.rhs}


class VerificationReport(NamedTuple):
    """One case's verdict.  Like FirstFailure, a NamedTuple: immutable, and
    it unpacks and compares equal to the tuple of its fields."""
    case_id: str
    n_range: tuple[int, int]
    status: str  # "pass" | "fail"
    first_failure: Optional[FirstFailure]

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"case": self.case_id,
                "n_max": self.n_range[1],
                "status": self.status,
                "first_failure": None if self.first_failure is None
                else self.first_failure.to_json()}


# ---------------------------------------------------------------------------
# Theorem cases: operator identities, engine on the left, closed forms right.
# ---------------------------------------------------------------------------

def _sd_sum_case(kind: str, n: int,
                 term: Callable[[int, int], tuple]) -> Iterator[Comparison]:
    """Operator n of an OPERATORS kind against sum_k scale * P(X, s) (sD)^k,
    where term(n, k) = (P, factors, shift) and the scale is the q_product
    q^shift prod (1-q^i)^e over the pairs (i, e) of factors.  The scale is
    applied to each coefficient of P by q_product, and P(X, s) has no D, so
    the term map of P(X, s) (sD)^k is written directly: c x^a s^m becomes
    scale * c X^a D^k s^(m+k)."""
    lhs, rhs = operator_row(kind, n).terms, {}
    for k in range(n + 1):
        p, factors, shift = term(n, k)
        for (a, m), c in p.terms.items():
            rhs[(a, k, m + k)] = QScalar.of(q_product(factors, shift, base=to_polynomial(c)))
    yield lhs, rhs


def _expanded_case(kind: str, n: int,
                   column: Callable[[int, int, int], list]) -> Iterator[Comparison]:
    """Operator n of an OPERATORS kind against the closed-form coefficients
    read by columns: column(n, m, min(m, n-m)) lists them for j = 0, 1, ...,
    and entry j sits at X^(m-j) D^(n-m-j) s^(n-m)."""
    lhs = operator_row(kind, n).terms
    yield lhs, {(m - j, n - m - j, n - m): QScalar.of(c) for m in range(n + 1)
                for j, c in enumerate(column(n, m, min(m, n - m)))}


def _case_t1(n: int) -> Iterator[Comparison]:
    """(X+sD)^n = sum_k C(n,k) H_(n-k)(X,s) (sD)^k at q = 1."""
    return _sd_sum_case("classical", n, lambda n, k: (math.comb(n, k) * hermite(n - k), [], 0))


def _case_c1(n: int) -> Iterator[Comparison]:
    """Normal form of (X+sD)^n at q = 1 has Weyl binomial coefficients."""
    return _expanded_case("classical", n, lambda n, m, top: [
        weyl_binomial(n, m, j) for j in range(top + 1)])


def _case_t2(n: int) -> Iterator[Comparison]:
    """(X+q^(n-1)sD)...(X+sD) = sum_k g_n(k,X,s) s^k D^k."""
    return _sd_sum_case("qdesc", n, lambda n, k: (g_coeff(n, k), [], 0))


def _case_c2(n: int) -> Iterator[Comparison]:
    """Fully expanded coefficients of the descending-power product."""
    return _expanded_case("qdesc", n, _corollary2_column)


def _case_t3(n: int) -> Iterator[Comparison]:
    """(X+qsD)(X+q^3 sD)...(X+q^(2n-1)sD) = sum_k [n k] q^(kn) h_(n-k)(X,s) (sD)^k."""
    return _sd_sum_case("qodd", n, lambda n, k: (h_poly(n - k), _q_binom(n, k), k * n))


def _case_c3(n: int) -> Iterator[Comparison]:
    """Fully expanded coefficients of the odd-power product."""
    return _expanded_case("qodd", n, _corollary3_column)


def _case_t4(n: int) -> Iterator[Comparison]:
    """(X+(1-q)sD)^n = sum_k A(n,k,X) (1-q)^k s^k D^k."""
    return _sd_sum_case("qtheorem4", n, lambda n, k: (a_coeff(n, k), [(1, k)], 0))


# ---------------------------------------------------------------------------
# Identity cases: recurrences, derivative rules, collapses.
# ---------------------------------------------------------------------------

def _case_h_deriv(n: int) -> Iterator[Comparison]:
    yield hermite(n).ddx().terms, (n * hermite(n - 1)).terms


def _case_op_110(n: int) -> Iterator[Comparison]:
    """D H_n(X,s) = H_n(X,s) D + n H_(n-1)(X,s), as apply-equality on x^m."""
    hn, hprev = hermite(n), hermite(n - 1)
    for m in range(9):
        xm = XSPoly.x(m)
        lhs = (hn * xm).ddx()
        rhs = hn * xm.ddx() + n * (hprev * xm)
        yield lhs.terms, rhs.terms


def _case_sym_113(n: int) -> Iterator[Comparison]:
    lhs, rhs = {}, {}
    for m, j in _triangle(n):
        w = QScalar(weyl_binomial(n, m, j))
        lhs[(m, j, 0)] = w
        rhs[(m, j, 0)] = QScalar(weyl_binomial(n, n - m, j))
        lhs[(m, j, 1)] = w
        rhs[(m, j, 1)] = QScalar(math.comb(n - 2 * j, m - j) * weyl_binomial(n, j, j))
    yield lhs, rhs


def _case_h_closed(n: int) -> Iterator[Comparison]:
    """The descending-power product applied to 1 gives h_n."""
    yield operator_row("qdesc", n).apply(XSPoly.one()).terms, h_poly(n).terms


def _case_exp_26(n: int) -> Iterator[Comparison]:
    yield apply_exp_q2(XSPoly.x(n)).terms, h_poly(n).terms


def _case_dq_27(n: int) -> Iterator[Comparison]:
    rhs = QScalar(q_integer(n)) * h_poly(n - 1)
    yield h_poly(n).dq().terms, rhs.terms


def _case_rec_28(n: int) -> Iterator[Comparison]:
    rhs = h_poly(n - 1).shift(1, 0) \
        + h_poly(n - 2).shift(0, 1, q_pow(n - 1) * q_integer(n - 1))
    yield h_poly(n).terms, rhs.terms


def _case_rec_33(n: int) -> Iterator[Comparison]:
    """h_n(x,s) = x h_(n-1)(x, q^2 s) + q s Dq h_(n-1)(x, q^2 s)."""
    rhs = affine_factor(q_pow(1), TWIST_Q).apply(h_poly(n - 1).dilate(0, 2))
    yield h_poly(n).terms, rhs.terms


def _case_scale_3(n: int) -> Iterator[Comparison]:
    yield h_poly(n).dilate(1, 2).terms, (q_pow(n) * h_poly(n)).terms


def _case_lucas(n: int) -> Iterator[Comparison]:
    """(X + (1-q) s D) L_n(x, -s): the three Lucas relations, with +s at n = 1."""
    lhs = affine_factor(ONE_MINUS_Q, TWIST_Q).apply(lucas(n).scale_s(-1))
    if n == 0:
        rhs = lucas(1).scale_s(-1)
    elif n == 1:
        rhs = lucas(2).scale_s(-1) + XSPoly.s() + XSPoly.s()
    else:
        rhs = lucas(n + 1).scale_s(-1) + lucas(n - 1).scale_s(-1).shift(0, 1)
    yield lhs.terms, rhs.terms


def _case_expand_47(n: int) -> Iterator[Comparison]:
    """(X+sD)^n 1 from the engine's row, with s -> (1-q)s, against the
    Lucas expansion; closed-4.14 reads the stepped big_hermite instead."""
    lhs = operator_row("qpower", n).apply(XSPoly.one()).scale_s(ONE_MINUS_Q)
    yield lhs.terms, hermite_lucas_expand(n).terms


def _case_closed_414(n: int) -> Iterator[Comparison]:
    rhs = {(n - 2 * l, l): QScalar(qweyl_binomial(n, l, l))
           for l in range(n // 2 + 1)}
    yield big_hermite(n).terms, rhs


def _qweyl_pair_case(path_a: str, path_b: str) -> Callable[[int], Iterator[Comparison]]:
    def case(n: int) -> Iterator[Comparison]:
        lhs, rhs = {}, {}
        for m, l in _triangle(n):
            lhs[(m, l)] = QScalar(qweyl_binomial(n, m, l, path_a))
            rhs[(m, l)] = QScalar(qweyl_binomial(n, m, l, path_b))
        yield lhs, rhs
    return case


def _case_q1_collapse(n: int) -> Iterator[Comparison]:
    lhs, rhs = {}, {}
    for m, l in _triangle(n):
        value = qweyl_binomial(n, m, l).evaluate(1)
        lhs[(m, l)] = QScalar.from_fraction(value)
        rhs[(m, l)] = QScalar(weyl_binomial(n, m, l))
    yield lhs, rhs


class _Case(NamedTuple):
    check: Callable[[int], Iterator[Comparison]]  # the comparisons of one n
    n_max: int  # stated range
    start: int  # first n the case checks


# Stated ranges: 10 for the integer-arithmetic theorem, 8 where q-polynomial
# products grow, 12 for the recurrence/derivative suite, 10 for the
# q-Weyl-binomial chain.  The order here is the report order.
CASES: dict[str, _Case] = {
    "T1": _Case(_case_t1, 10, 1),
    "T2": _Case(_case_t2, 8, 1),
    "T3": _Case(_case_t3, 8, 1),
    "T4": _Case(_case_t4, 8, 1),
    "C1": _Case(_case_c1, 10, 1),
    "C2": _Case(_case_c2, 8, 1),
    "C3": _Case(_case_c3, 8, 1),
    "H-deriv-1.9": _Case(_case_h_deriv, 12, 1),
    "op-1.10": _Case(_case_op_110, 12, 1),
    "sym-1.13": _Case(_case_sym_113, 12, 1),
    "h-closed-2.1-vs-2.3": _Case(_case_h_closed, 8, 1),
    "exp-2.6": _Case(_case_exp_26, 12, 1),
    "dq-2.7": _Case(_case_dq_27, 12, 1),
    "rec-2.8": _Case(_case_rec_28, 12, 2),
    "rec-3.3": _Case(_case_rec_33, 12, 1),
    "scale-3": _Case(_case_scale_3, 12, 1),
    "lucas-4.4-4.6": _Case(_case_lucas, 12, 0),
    "expand-4.7": _Case(_case_expand_47, 10, 1),
    "closed-4.14": _Case(_case_closed_414, 10, 1),
    "factor-4.16": _Case(_qweyl_pair_case("closed", "factored"), 10, 1),
    "rec-4.17": _Case(_qweyl_pair_case("closed", "recurrence"), 10, 1),
    "q1-collapse": _Case(_case_q1_collapse, 10, 1),
}

ALL_CASE_IDS: tuple[str, ...] = tuple(CASES)


def _case(case_id: str) -> _Case:
    case = CASES.get(case_id)
    if case is None:
        raise ValueError(f"unknown case {case_id!r}; expected one of {ALL_CASE_IDS}")
    return case


def verify_case(case_id: str, n_max: int,
                fault_seed: Optional[int] = None) -> VerificationReport:
    """Check one case for every n from its start up to exactly n_max;
    ValueError for an unknown id, for n_max < 1, or when that range holds
    no n.  NotPolynomial or ZeroDivisionError while building an n's
    comparisons fails the case there (term (), lhs "", the error as rhs)
    unless an earlier n fails.  With fault_seed, one right-hand-side
    coefficient of the comparisons built is negated."""
    case = _case(case_id)
    n_max = index(n_max)
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max < case.start:
        raise ValueError(f"case {case_id} starts at n = {case.start}, "
                         f"so n_max = {n_max} leaves it no n to check")
    comparisons, broken = [], None
    for n in range(case.start, n_max + 1):
        try:
            comparisons += [(n, lhs, rhs) for lhs, rhs in case.check(n)]
        except (NotPolynomial, ZeroDivisionError) as exc:
            broken = FirstFailure(n=n, term=(), lhs="", rhs=f"{type(exc).__name__}: {exc}")
            break
    if fault_seed is not None:
        slots = [(i, key)
                 for i, (_n, _lhs, rhs) in enumerate(comparisons)
                 for key in sorted(rhs)]
        if slots:
            idx, key = random.Random(fault_seed).choice(slots)
            n, lhs, rhs = comparisons[idx]
            comparisons[idx] = (n, lhs, {**rhs, key: -rhs[key]})
        elif broken is None:
            raise ValueError(f"case {case_id} has no coefficients to perturb")
    for n, lhs, rhs in comparisons:
        for key in sorted(set(lhs) | set(rhs)):
            lv = lhs.get(key, QSCALAR_ZERO)
            rv = rhs.get(key, QSCALAR_ZERO)
            if lv != rv:
                failure = FirstFailure(n=n, term=tuple(key), lhs=str(lv), rhs=str(rv))
                return VerificationReport(case_id, (case.start, n_max), "fail", failure)
    return VerificationReport(case_id, (case.start, n_max), "pass" if broken is None else "fail",
                              broken)


# Older names of the one entry point.  They are the same function object, not
# wrappers, so code that wraps this module's functions by name also sees the
# calls run_cases makes.
verify_theorem = verify_identity = verify_case


def run_cases(case_ids: Optional[Iterable[str]] = None,
              n_max: Optional[int] = None) -> list[VerificationReport]:
    """Run selected cases (default: all) through verify_case, each up to
    n_max, or up to its stated range when n_max is None.  Reports come back
    in the order asked; a case that starts above n_max is left out.
    TypeError for a non-integer n_max, or for a bare string of case ids."""
    if isinstance(case_ids, str):
        raise TypeError("case_ids must be an iterable of case ids, not a string")
    if n_max is not None and index(n_max) < 1:
        raise ValueError("n_max must be positive")
    reports = []
    for case_id in ALL_CASE_IDS if case_ids is None else case_ids:
        case = _case(case_id)
        limit = case.n_max if n_max is None else n_max
        if limit >= case.start:
            reports.append(verify_case(case_id, limit))
    return reports
