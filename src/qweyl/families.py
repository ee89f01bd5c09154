"""Polynomial families, closed-form normal-ordering coefficients, and the
table of operators (OPERATORS) whose normal forms `qweyl expand` prints and
the theorem cases check.

Every family here has at least one independent route to the same values --
a defining recurrence, a closed sum, a generating-operator product -- and the
verification harness cross-checks them against the rewriting engine, which
is the ground truth.  The closed forms of h_n, g_n(k) and Corollaries 2 and
3, and the 1/(1-q)^l prefactor of the closed q-Weyl sum, are products and
quotients of factors (1-q^k), written with qarith's q-block factor lists, so
they run through qarith.q_product with no gcd.  g_n(k) and the corollaries
are stepped in j: a closed start value, then each term is the one before
times a short ratio of q-blocks, a few passes each.  The corollaries are
stepped as columns over j, which live for one call; the start values are
q_products too, so none of this adds to a memo.  Two things stay in the
QScalar field.  apply_exp_q2 builds the coefficients of its operator
sum_j c_j s^j D^(2j) there and acts through NormalOp.apply, so exp-2.6
checks h_n against a different formula in a different arithmetic.  In
lucas_k, each term is one QScalar: its numerator q^C(j,2) [n+k] times both
Gaussian binomials is one q_product, its denominator is [n+k-j], and its
one field reduction runs the gcd that bench/test_bench.py expects of a
`family` request, so moving the division into the q_product waits for a
benchmark change.  Either way an inexact quotient raises NotPolynomial, at
the step or term where it fails, so a transcription slip surfaces as an
error instead of a silently wrong value.
lucas_k is the one memo of Lucas coefficients, so each is computed once
per process.  A(n, k, x) and the closed q-Weyl binomial read one alternating
sum of them, _lucas_sum, in Z[q]: a_coeff at every l, the closed and
factored paths at one l, over (1-q)^l; factored folds its Gaussian binomial
into the same q_product.

operator_row(kind, n) memoizes the operators of OPERATORS with lru_cache,
per (kind, n), and fills upward: row n is built once, by one composition
from row n-1, and `qweyl expand`, the theorem cases and the expand-4.7
check of (X + sD)^n 1 read it.  big_hermite reads no row: it steps
H_n = (X + sD) H_(n-1), acting with the qpower factor on a polynomial.
Memory held grows with the largest n asked of each kind.  Concurrent
cold calls may each build a row; the rows they build are equal, and the
cache keeps one.  Every table here is such an lru_cache, and every value
handed out has a read-only term map, so a caller cannot change what a memo
table serves.  operator_row and lucas_k key their tables by type as well as
value, since a two-argument key takes 4.0 for 4: a float index raises
TypeError whether or not its int is memoized.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .opalg import TWIST_ONE, TWIST_Q, NormalOp, affine_factor
from .polyring import XSPoly
from .qarith import (
    IntPoly,
    ONE,
    QScalar,
    QSCALAR_ONE,
    ZERO,
    _one_plus_q,
    _q_binom,
    _q_even,
    _q_fact,
    _q_int,
    q_integer,
    q_pow,
    q_product,
    to_polynomial,
)

ONE_MINUS_Q = IntPoly([1, -1])


class IndexOutOfRange(ValueError):
    """An index lies outside the stated domain of a coefficient family."""


class _Operator(NamedTuple):
    twist: QScalar
    c: Callable[[int], QScalar]  # the n-th factor is X + c(n)*s*D
    left: bool                   # the n-th factor joins on the left


# The operators the paper normal-orders, by `qweyl expand --kind` name.
OPERATORS: dict[str, _Operator] = {
    # (X+sD)^n at q = 1
    "classical": _Operator(TWIST_ONE, lambda n: QSCALAR_ONE, False),
    # (X+sD)^n
    "qpower": _Operator(TWIST_Q, lambda n: QSCALAR_ONE, False),
    # the descending-power product (X+q^(n-1)sD)...(X+qsD)(X+sD)
    "qdesc": _Operator(TWIST_Q, lambda n: q_pow(n - 1), True),
    # the odd-power product (X+qsD)(X+q^3 sD)...(X+q^(2n-1)sD)
    "qodd": _Operator(TWIST_Q, lambda n: q_pow(2 * n - 1), False),
    # (X+(1-q)sD)^n
    "qtheorem4": _Operator(TWIST_Q, lambda n: QScalar(ONE_MINUS_Q), False),
}


@lru_cache(maxsize=None, typed=True)
def operator_row(kind: str, n: int) -> NormalOp:
    """Normal form of the n-th operator of OPERATORS[kind]: row n is row n-1
    composed with the n-th factor, on the side the kind names."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("operator_row requires n >= 0")
    if kind not in OPERATORS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {tuple(OPERATORS)}")
    twist, c, left = OPERATORS[kind]
    if n == 0:
        return NormalOp.identity(twist)
    # Fill the cache upward first, so that no call recurses more than one
    # level, however large n is.
    for i in range(n - 1):
        operator_row(kind, i)
    factor = affine_factor(c(n), twist)
    prev = operator_row(kind, n - 1)
    return factor * prev if left else prev * factor


def _triangle(n: int) -> Iterator[tuple[int, int]]:
    """Index pairs (m, j) of row n of the Weyl and q-Weyl triangles,
    0 <= j <= min(m, n-m), in ascending m, then ascending j."""
    for m in range(n + 1):
        for j in range(min(m, n - m) + 1):
            yield m, j


@lru_cache(maxsize=None)
def hermite(n: int) -> XSPoly:
    """Hermite variant by the three-term recurrence
    H_n = x H_(n-1) + (n-1) s H_(n-2), H_0 = 1, H_1 = x.  Coefficients are
    plain integers (q-free)."""
    if n < 0:
        raise ValueError("hermite requires n >= 0")
    if n < 2:
        return XSPoly.x(n)
    # Fill the cache upward first, so that no call recurses more than two
    # deep, however large n is.
    for i in range(2, n - 1):
        hermite(i)
    return hermite(n - 1).shift(1, 0) + (n - 1) * hermite(n - 2).shift(0, 1)


def weyl_binomial(n: int, m: int, j: int) -> int:
    """Weyl binomial n!/(2^j j! (m-j)! (n-m-j)!), the classical
    normal-ordering coefficient of X^(m-j) s^(n-m) D^(n-m-j)."""
    if n < 0:
        raise ValueError("weyl_binomial requires n >= 0")
    if j < 0 or j > min(m, n - m):
        raise IndexOutOfRange(f"need 0 <= j <= min(m, n-m), got (n,m,j)=({n},{m},{j})")
    den = (1 << j) * math.factorial(j) * math.factorial(m - j) * math.factorial(n - m - j)
    quot, rem = divmod(math.factorial(n), den)
    assert rem == 0
    return quot


@lru_cache(maxsize=None)
def h_poly(n: int) -> XSPoly:
    """Discrete q-Hermite variant h_n, by its closed sum:
    sum_j q^(j^2) s^j [n]! / ((1+q)...(1+q^j) [j]! [n-2j]!) x^(n-2j)."""
    if n < 0:
        raise ValueError("h_poly requires n >= 0")
    terms = {}
    for j in range(n // 2 + 1):
        factors = _q_fact(n) + _q_even(j, -1) + _q_fact(j, -1) + _q_fact(n - 2 * j, -1)
        terms[(n - 2 * j, j)] = q_product(factors, j * j)
    return XSPoly(terms)


def apply_exp_q2(p: XSPoly) -> XSPoly:
    """The truncated exponential-series action
    sum_(j>=0) q^(j^2) s^j / ((1+q)...(1+q^j) [j]!) dq^(2j)(p): the operator
    sum_j c_j s^j D^(2j), 2j up to the largest x-degree of p, acting through
    NormalOp.apply, with c_j = c_(j-1) q^(2j-1) / ((1+q^j) [j]) stepped in
    the QScalar field.  Sends x^n to h_n."""
    terms, coef = {(0, 0, 0): QSCALAR_ONE}, QSCALAR_ONE
    for j in range(1, max((a for a, _ in p.terms), default=0) // 2 + 1):
        coef = coef * QScalar(IntPoly.q_power(2 * j - 1),
                              (ONE + IntPoly.q_power(j)) * q_integer(j))
        terms[(0, 2 * j, j)] = coef
    return NormalOp(TWIST_Q, terms).apply(p)


def _g_start(n: int, k: int) -> IntPoly:
    """Term j = 0 of g_n(k), q^C(k,2) [n k] (1+q^(n-k+1))...(1+q^n) /
    ((1+q)...(1+q^k)), which is also Corollary 2's entry j = 0 at k = n-m.
    Since (1-q^i)(1+q^i) = 1-q^(2i), it is q^C(k,2) times [n k] at q^2,
    built by q_product, not read from a memo."""
    return q_product([(2 * i, e) for i, e in _q_binom(n, k)], math.comb(k, 2))


def g_coeff(n: int, k: int) -> XSPoly:
    """Coefficient polynomial g_n(k, x, s) of s^k D^k in the descending-power
    product (X + q^(n-1) s D)...(X + s D):

    [n k] sum_j s^j q^(j^2+kj+C(k,2)) [n-k 2j] [2j-1]!!
          prod_(i=0..k-1) (1+q^(n-j-i))/(1+q^(j+1+i)) x^(n-k-2j).

    Stepped in j from term 0, q^C(k,2) [n k] at q^2 (see _g_start):
    term j+1 is term j times q^(2j+1+k) [n-k-2j] [n-k-2j-1] / [2j+2]
      * (1+q^(j+1)) (1+q^(n-j-k)) / ((1+q^(j+k+1)) (1+q^(n-j))).
    Reduces to h_n at k = 0."""
    if n < 0 or k < 0 or k > n:
        raise IndexOutOfRange(f"need 0 <= k <= n, got (n,k)=({n},{k})")
    c = _g_start(n, k)
    terms = {(n - k, 0): c}
    for j in range((n - k) // 2):
        ratio = _q_int(n - k - 2 * j) + _q_int(n - k - 2 * j - 1) + _q_int(2 * j + 2, -1) \
            + _one_plus_q(j + 1) + _one_plus_q(n - j - k) \
            + _one_plus_q(j + k + 1, -1) + _one_plus_q(n - j, -1)
        c = q_product(ratio, 2 * j + 1 + k, base=c)
        terms[(n - k - 2 * j - 2, j + 1)] = c
    return XSPoly(terms)


def _corollary2_column(n: int, m: int, top: int) -> list[IntPoly]:
    """corollary2_coeff(n, m, j) for j = 0..top, top <= min(m, n-m), stepped
    in j from entry 0, q^C(n-m,2) [n m] at q^2 (see _g_start): entry j+1
    is entry j times q^(j+1) [m-j] [n-m-j] / ((1+q^(n-j)) [j+1])."""
    c = _g_start(n, n - m)
    column = [c]
    for j in range(top):
        ratio = _q_int(m - j) + _q_int(n - m - j) + _q_int(j + 1, -1) + _one_plus_q(n - j, -1)
        c = q_product(ratio, j + 1, base=c)
        column.append(c)
    return column


def corollary2_coeff(n: int, m: int, j: int) -> QScalar:
    """Coefficient of X^(m-j) D^(n-m-j) (with weight s^(n-m)) in the
    descending-power product, in fully expanded form:

    q^(C(j+1,2)+C(n-m,2)) (1+q^(m+1))...(1+q^(n-j)) [n]!
      / ((1+q)...(1+q^(n-m)) [j]! [m-j]! [n-m-j]!).

    Read from the column over j, stepped from j = 0."""
    if n < 0 or j < 0 or j > min(m, n - m):
        raise IndexOutOfRange(f"need 0 <= j <= min(m, n-m), got (n,m,j)=({n},{m},{j})")
    return QScalar(_corollary2_column(n, m, j)[j])


def _corollary3_column(n: int, m: int, top: int) -> list[IntPoly]:
    """corollary3_coeff(n, m, j) for j = 0..top, top <= min(m, n-m).  The
    power of q is not monotone in j, so the rest is stepped alone, from
    u_0 = [n m]:
    u_j = u_(j-1) [m-j+1] [n-m-j+1] / ((1+q^j) [j]), and entry j is
    q^(n^2+j^2-(m+j)n) u_j."""
    u, column = q_product(_q_binom(n, m)), []
    for j in range(top + 1):
        if j:
            u = q_product(_q_int(m - j + 1) + _q_int(n - m - j + 1) + _q_int(j, -1)
                          + _one_plus_q(j, -1), base=u)
        column.append(IntPoly.q_power(n * n + j * j - (m + j) * n) * u)
    return column


def corollary3_coeff(n: int, m: int, j: int) -> QScalar:
    """Coefficient of X^(m-j) D^(n-m-j) (with weight s^(n-m)) in the
    odd-power product (X+qsD)(X+q^3 sD)...(X+q^(2n-1) sD):

    q^(n^2+j^2-(m+j)n) [n]! / ((1+q)...(1+q^j) [j]! [m-j]! [n-m-j]!).

    Read from the column over j, stepped from j = 0."""
    if n < 0 or j < 0 or j > min(m, n - m):
        raise IndexOutOfRange(f"need 0 <= j <= min(m, n-m), got (n,m,j)=({n},{m},{j})")
    return QScalar(_corollary3_column(n, m, j)[j])


@lru_cache(maxsize=None)
def _xsd_power(n: int) -> NormalOp:
    """(X + sD)^n, the qpower row of the operator table.  Nothing in the
    package calls it: it stays for the benchmark's memo tracer, which
    reads its cache_info()."""
    return operator_row("qpower", n)


@lru_cache(maxsize=None)
def big_hermite(n: int) -> XSPoly:
    """q-Hermite variant H_n(x, s | q) = (X + sD)^n 1, stepped:
    H_n = (X + sD) H_(n-1), one action of the qpower kind's factor through
    NormalOp.apply, so no power of the operator is normal-ordered."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("big_hermite requires n >= 0")
    if n == 0:
        return XSPoly.one()
    # Fill the cache upward first, so that no call recurses more than one
    # level, however large n is.
    for i in range(1, n - 1):
        big_hermite(i)
    twist, c, _ = OPERATORS["qpower"]
    return affine_factor(c(n), twist).apply(big_hermite(n - 1))


@lru_cache(maxsize=None)
def lucas(n: int) -> XSPoly:
    """q-Lucas polynomial L_n, with L_0 = 1."""
    if n < 0:
        raise ValueError("lucas requires n >= 0")
    return lucas_k(n, 0)


@lru_cache(maxsize=None, typed=True)
def lucas_k(n: int, k: int) -> XSPoly:
    """Generalized q-Lucas polynomial L_n^(k):
    sum_j q^(C(j,2)) ([n+k]/[n+k-j]) [n+k-j k] [n-j j] s^j x^(n-2j),
    with L_0^(k) = 1 (the formal 0/0 at n = k = 0).  Each term is one
    QScalar: q^C(j,2) [n+k] [n+k-j k] [n-j j], one q_product, over
    [n+k-j], reduced once in the field and read back by to_polynomial,
    which raises NotPolynomial when the quotient is not in Z[q].
    lucas_k(n, 0) is lucas(n)."""
    n, k = operator.index(n), operator.index(k)
    if n < 0 or k < 0:
        raise ValueError("lucas_k requires n, k >= 0")
    if n == 0:
        return XSPoly.one()
    terms = {}
    for j in range(n // 2 + 1):
        term = QScalar(q_product(_q_binom(n + k - j, k) + _q_binom(n - j, j), math.comb(j, 2),
                                 base=q_integer(n + k)), q_integer(n + k - j))
        terms[(n - 2 * j, j)] = to_polynomial(term)
    return XSPoly(terms)


def _lucas_sum(n: int, k: int, l: int) -> IntPoly:
    """The alternating binomial sum of generalized Lucas coefficients,
    sum_i (-1)^(l-i) C(n, i) [s^(l-i)] L^(k)_(n-2i-k), for
    0 <= l <= (n-k)/2: the coefficient of x^(n-k-2l) s^l in A(n, k, x).
    Each Lucas coefficient is read from the lucas_k memo."""
    total = ZERO
    for i in range(l + 1):
        term = lucas_k(n - 2 * i - k, k).coefficient(n - k - 2 * l, l - i).num
        total = total + (-1) ** (l - i) * math.comb(n, i) * term
    return total


def a_coeff(n: int, k: int) -> XSPoly:
    """A(n, k, x) = sum_i C(n, i) s^i L^(k)_(n-2i-k)(x, -s), the coefficient
    of (1-q)^k s^k D^k in the expansion of (X + (1-q) s D)^n, with ordinary
    binomials; its coefficient of x^(n-k-2l) s^l is _lucas_sum(n, k, l)."""
    if n < 0 or k < 0 or k > n:
        raise IndexOutOfRange(f"need 0 <= k <= n, got (n,k)=({n},{k})")
    return XSPoly({(n - k - 2 * l, l): _lucas_sum(n, k, l) for l in range((n - k) // 2 + 1)})


def hermite_lucas_expand(n: int) -> XSPoly:
    """sum_j C(n, j) s^j L_(n-2j)(x, -s), which is a_coeff(n, 0); equals
    big_hermite(n) with s replaced by (1-q)s.  Ordinary binomials."""
    if n < 0:
        raise ValueError("hermite_lucas_expand requires n >= 0")
    return a_coeff(n, 0)


@lru_cache(maxsize=None)
def _qweyl_row(n: int) -> dict[tuple[int, int], IntPoly]:
    """Row n of the q-Weyl triangle by the three-term recurrence

    {n+1 m}_l = {n m-1}_l + [m+1-l] {n m}_(l-1) + q^(m-l) {n m}_l

    with {0 0}_0 = 1 and zero outside the triangle."""
    if n == 0:
        return {(0, 0): ONE}
    # Fill the cache upward first, as operator_row does.
    for i in range(n - 1):
        _qweyl_row(i)
    prev = _qweyl_row(n - 1)
    row: dict[tuple[int, int], IntPoly] = {}
    for m, l in _triangle(n):
        val = prev.get((m - 1, l), ZERO) \
            + q_integer(m + 1 - l) * prev.get((m, l - 1), ZERO) \
            + IntPoly.q_power(m - l) * prev.get((m, l), ZERO)
        if not val.is_zero():
            row[(m, l)] = val
    return row


QWEYL_PATHS = ("closed", "factored", "recurrence")


def qweyl_binomial(n: int, m: int, l: int, path: str = "closed") -> IntPoly:
    """q-Weyl binomial: the coefficient of X^(m-l) s^(n-m) D^(n-m-l) in
    (X + sD)^n.  Zero outside 0 <= l <= min(m, n-m).

    Three computation paths must agree:
      closed     -- _lucas_sum(n, m-l, l) over (1-q)^l, in one q_product;
      factored   -- the closed value at m = l times [n-2l m-l], over
                    (1-q)^l, in one q_product;
      recurrence -- the memoized three-term-recurrence triangle.
    """
    n, m, l = operator.index(n), operator.index(m), operator.index(l)
    if n < 0:
        raise ValueError("qweyl_binomial requires n >= 0")
    if path not in QWEYL_PATHS:
        raise ValueError(f"unknown path {path!r}; expected one of {QWEYL_PATHS}")
    if l < 0 or m < 0 or m > n or l > min(m, n - m):
        return ZERO
    if path == "recurrence":
        return _qweyl_row(n).get((m, l), ZERO)
    if path == "closed":
        return q_product([(1, -l)], base=_lucas_sum(n, m - l, l))
    return q_product(_q_binom(n - 2 * l, m - l) + [(1, -l)], base=_lucas_sum(n, 0, l))
