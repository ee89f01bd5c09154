"""Exact Z[q] arithmetic and the q-combinatorial building blocks."""

import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qweyl import qarith
from qweyl.families import _triangle, corollary2_coeff, corollary3_coeff, g_coeff, lucas_k
from qweyl.polyring import XSPoly
from qweyl.qarith import (
    IntPoly,
    NotPolynomial,
    PoleAtPoint,
    Q,
    QScalar,
    ONE,
    ZERO,
    _divexact,
    _primitive,
    _pseudo_rem,
    _q_even,
    gauss_binomial,
    poly_gcd,
    q_factorial,
    q_integer,
    q_pow,
    q_product,
    to_polynomial,
)


def even_product(j):
    """(1+q)(1+q^2)...(1+q^j) as a plain IntPoly product."""
    return math.prod((ONE + IntPoly.q_power(i) for i in range(1, j + 1)), start=ONE)


def odd_double_factorial(j):
    """[2j-1]!! = [1][3]...[2j-1] as a plain IntPoly product."""
    return math.prod((q_integer(2 * i - 1) for i in range(1, j + 1)), start=ONE)


def gauss_by_factorials(n, k):
    """Independent oracle: [n]!/([k]![n-k]!) computed in the fraction field."""
    if k < 0 or k > n:
        return ZERO
    ratio = QScalar(q_factorial(n), q_factorial(k) * q_factorial(n - k))
    return to_polynomial(ratio)


def divide_by_one_minus_q_power(p, i):
    """p / (1-q^i) by long division from the top; the division must be exact."""
    rem = list(p.coeffs)
    quot = [0] * (len(rem) - i)
    for j in reversed(range(len(quot))):
        # subtracting quot[j] q^j (1-q^i) clears degree j+i
        quot[j] = -rem[j + i]
        rem[j] -= quot[j]
        rem[j + i] = 0
    assert not any(rem)
    return IntPoly(quot)


def gauss_by_product(n, k):
    """[n k] = prod_(i=1..k) (1-q^(n-k+i))/(1-q^i): the numerator multiplied
    out, then divided by each factor of the denominator."""
    value = math.prod((ONE - IntPoly.q_power(n - k + i) for i in range(1, k + 1)), start=ONE)
    for i in range(1, k + 1):
        value = divide_by_one_minus_q_power(value, i)
    return value


# Inexact scalars: every entry point must raise TypeError on each.
INEXACT = (1.5, Fraction(1, 2), "1")
BIG = 2 ** 200

small_polys = st.lists(st.integers(-20, 20), max_size=6).map(IntPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


class TestIntPoly:
    def test_trailing_zeros_stripped(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).is_zero()
        assert IntPoly([]).coeffs == ()

    def test_ring_ops(self):
        p = IntPoly([1, 1])
        assert p + p == IntPoly([2, 2])
        assert p - p == ZERO
        assert p * p == IntPoly([1, 2, 1])
        assert p * ZERO == ZERO
        assert (Q ** 3).coeffs == (0, 0, 0, 1)

    def test_evaluate(self):
        p = IntPoly([1, 1, 2])
        assert p.evaluate(1) == 4
        assert p.evaluate(Fraction(1, 2)) == Fraction(2)

    def test_evaluate_rejects_inexact_point(self):
        for point in (0.5, "1/2"):
            with pytest.raises(TypeError):
                IntPoly([1, 1]).evaluate(point)
            with pytest.raises(TypeError):
                QScalar(IntPoly([1, 1]), IntPoly([1, -1])).evaluate(point)

    @pytest.mark.parametrize("bad", INEXACT)
    def test_inexact_coefficient_rejected(self, bad):
        with pytest.raises(TypeError):
            IntPoly([1, bad])
        with pytest.raises(TypeError):
            IntPoly.const(bad)

    def test_str(self):
        assert str(IntPoly([1, 1, 1])) == "1+q+q^2"
        assert str(IntPoly([0, 1, 0, 1])) == "q+q^3"
        assert str(IntPoly([1, -1])) == "1-q"
        assert str(IntPoly([3, 5, 3, 1])) == "3+5q+3q^2+q^3"
        assert str(ZERO) == "0"
        assert str(IntPoly([-1, 0, -2, -1])) == "-1-2q^2-q^3"
        assert str(IntPoly([0, -1, 2])) == "-q+2q^2"
        assert str(IntPoly([0, 0, -3])) == "-3q^2"
        assert str(IntPoly([-5])) == "-5"
        assert str(IntPoly([2, -1, 1])) == "2-q+q^2"

    @given(small_polys, small_polys, small_polys)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(small_polys, nonzero_polys)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert not g.is_zero()
        assert QScalar(a, g).den == ONE
        assert QScalar(b, g).den == ONE


# Every IntPoly result is canonical: a tuple of plain ints whose last entry
# is nonzero, or the empty tuple.  Top coefficients cancel in most of these,
# so a result that kept a trailing zero would show.
INTPOLY_RESULTS = {
    "add": (lambda: IntPoly([1, 2, 3]) + IntPoly([0, 0, -3]), (1, 2)),
    "add-int": (lambda: 2 + IntPoly([-2]), ()),
    "sub": (lambda: IntPoly([1, 2, 3]) - IntPoly([5, 2, 3]), (-4,)),
    "sub-self": (lambda: IntPoly([True, 4]) - IntPoly([1, 4]), ()),
    "neg": (lambda: -IntPoly([1, 0, -2]), (-1, 0, 2)),
    "mul": (lambda: IntPoly([0, 1, -1]) * IntPoly([2, 0, 1]), (0, 2, -2, 1, -1)),
    "mul-q-integer": (lambda: IntPoly([1, 1]) * IntPoly([2, 0, 1]), (2, 2, 1, 1)),
    "pow": (lambda: IntPoly([1, -1]) ** 2, (1, -2, 1)),
    "pow-zero": (lambda: IntPoly([3, 1]) ** 0, (1,)),
    "divexact": (lambda: _divexact(IntPoly([-1, 0, 4]), IntPoly([1, 2])), (-1, 2)),
    "divexact-q-integer": (lambda: _divexact(IntPoly([1, 0, 0, -1]), q_integer(3)), (1, -1)),
    "pseudo_rem-q-integer": (lambda: _pseudo_rem(IntPoly([1, 1, 1, 1]), q_integer(3)), (1,)),
    "pseudo_rem-q-integer-zero": (lambda: _pseudo_rem(q_integer(6), q_integer(3)), ()),
    "pseudo_rem": (lambda: _pseudo_rem(IntPoly([1, 0, 1]), IntPoly([1, 2])), (5,)),
    "primitive": (lambda: _primitive(IntPoly([-2, 0, -4])), (1, 0, 2)),
    "q_product": (lambda: q_product([(2, 1), (1, -1)], 1), (0, 1, 1)),
    "q_product-divides": (lambda: q_product([(1, -1)], base=IntPoly([1, 0, -1])), (1, 1)),
    "q_integer": (lambda: q_integer(3), (1, 1, 1)),
    "q_integer-zero": (lambda: q_integer(0), ()),
    "q_power": (lambda: IntPoly.q_power(2), (0, 0, 1)),
}


class TestIntPolyResults:
    @pytest.mark.parametrize("make, coeffs", INTPOLY_RESULTS.values(), ids=list(INTPOLY_RESULTS))
    def test_result_is_canonical(self, make, coeffs):
        result = make()
        assert type(result) is IntPoly
        assert type(result.coeffs) is tuple
        assert all(type(c) is int for c in result.coeffs)
        assert not result.coeffs or result.coeffs[-1] != 0
        assert result.coeffs == coeffs


def horner(p, r):
    """Reference evaluation: Horner's rule in Fraction arithmetic throughout."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * r + c
    return acc


BIG_POINT = 10 ** 30
points = st.one_of(
    st.sampled_from([0, 1, -1, BIG_POINT, -BIG_POINT, Fraction(0), Fraction(-1),
                     Fraction(1, 2), Fraction(-BIG_POINT, 3)]),
    st.integers(-BIG_POINT, BIG_POINT),
    st.fractions(max_denominator=10 ** 6),
)


class TestEvaluate:
    """IntPoly.evaluate against Horner in Fraction arithmetic."""

    @given(st.lists(st.integers(-2 ** 80, 2 ** 80), max_size=12).map(IntPoly), points)
    def test_matches_fraction_horner(self, p, r):
        value = p.evaluate(r)
        assert type(value) is Fraction
        assert value == horner(p, r)

    def test_int_point_examples(self):
        p = IntPoly([3, 0, -2, 1])
        for r in (0, 1, -1, 7, -BIG_POINT):
            assert p.evaluate(r) == Fraction(3 - 2 * r * r + r ** 3)
        assert type(ZERO.evaluate(5)) is Fraction
        assert ZERO.evaluate(Fraction(1, 3)) == 0

    def test_pole_at_int_point(self):
        a = QScalar(IntPoly([0, 1]), IntPoly([-4, 0, 1]))  # q/(q^2-4)
        assert a.evaluate(3) == Fraction(3, 5)
        with pytest.raises(PoleAtPoint):
            a.evaluate(-2)


def render_reference(coeffs):
    """The term-by-term renderer: sign, then the magnitude unless it is 1
    on a q power, then the q power."""
    out = []
    for i, c in enumerate(coeffs):
        if c:
            if c < 0:
                out.append("-")
                c = -c
            elif out:
                out.append("+")
            if c != 1 or not i:
                out.append(str(c))
            if i:
                out.append("q" if i == 1 else f"q^{i}")
    return "".join(out) or "0"


render_coeffs = st.one_of(st.sampled_from([-2, -1, 0, 0, 1, 2]), st.integers(-BIG, BIG))


class TestRender:
    """IntPoly.__str__ against the term-by-term reference renderer."""

    @given(st.lists(render_coeffs, max_size=40))
    def test_matches_reference(self, coeffs):
        assert str(IntPoly(coeffs)) == render_reference(IntPoly(coeffs).coeffs)

    @settings(max_examples=20)
    @given(st.lists(st.sampled_from([-1, 0, 1, 5]), min_size=301, max_size=320))
    def test_long_polynomials(self, coeffs):
        assert str(IntPoly(coeffs)) == render_reference(IntPoly(coeffs).coeffs)

    def test_units_and_signs(self):
        for coeffs in ([1], [-1], [1, 1], [-1, -1], [1, -1], [-1, 1], [0, 1], [0, -1],
                       [-3, 0, 0, 1], [0, 0, 0, -1, 0, 0, 1], [-BIG, 1, -1, BIG]):
            assert str(IntPoly(coeffs)) == render_reference(coeffs)

    def test_threads_render_from_a_reset_suffix_table(self, monkeypatch):
        # eight threads extend the suffix table at once; every rendering
        # must still be the serial one
        p = IntPoly([(-1) ** i * (i % 4) for i in range(1, 501)])
        expected = render_reference(p.coeffs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                monkeypatch.setattr(qarith, "_Q_SUFFIXES", qarith._Q_SUFFIXES[:2])
                barrier = threading.Barrier(8)
                results = []

                def render():
                    barrier.wait(timeout=10)
                    results.append(str(p))

                threads = [threading.Thread(target=render) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert results == [expected] * 8
        finally:
            sys.setswitchinterval(interval)


def pseudo_rem_reference(a, b):
    """Pseudo-remainder with the whole remainder rescaled by lead(b) at
    every step."""
    r = list(a.coeffs)
    db, lb = b.degree, b.lead
    while len(r) - 1 >= db and r:
        lr = r[-1]
        r = [lb * c for c in r]
        dr = len(r) - 1
        for j, bc in enumerate(b.coeffs):
            r[dr - db + j] -= lr * bc
        while r and r[-1] == 0:
            r.pop()
    return IntPoly(r)


class TestPseudoRemainder:
    @given(st.lists(st.integers(-50, 50), max_size=12).map(IntPoly),
           st.lists(st.integers(-50, 50), max_size=6), st.sampled_from([1, 1, 2, 3, -1, 7]))
    def test_matches_rescaling_reference(self, a, tail, lead):
        b = IntPoly(tail + [lead])
        assert _pseudo_rem(a, b) == pseudo_rem_reference(a, b)

    def test_examples(self):
        monic = IntPoly([1, 0, 1])  # 1+q^2
        for a in (IntPoly([1, 2, 3, 4, 5]), IntPoly([BIG, -1, 0, 3]), ZERO, ONE):
            for b in (monic, IntPoly([1, 3]), IntPoly([-2, 0, 5]), IntPoly([4])):
                assert _pseudo_rem(a, b) == pseudo_rem_reference(a, b)


def divexact_reference(a, b):
    """Top-down synthetic division of a by b; NotPolynomial unless exact."""
    if a.is_zero():
        return ZERO
    if a.degree < b.degree:
        raise NotPolynomial("degree too low")
    rem = list(a.coeffs)
    db, lb = b.degree, b.lead
    quot = [0] * (a.degree - db + 1)
    for i in reversed(range(len(quot))):
        c = rem[i + db]
        if c % lb != 0:
            raise NotPolynomial("inexact leading ratio")
        quot[i] = c // lb
        for j, bc in enumerate(b.coeffs):
            rem[i + j] -= quot[i] * bc
    if any(rem):
        raise NotPolynomial("nonzero remainder")
    return IntPoly(quot)


divisor_lengths = st.integers(2, 40)
dividends = st.lists(st.one_of(st.integers(-20, 20), st.integers(-BIG, BIG)),
                     max_size=90).map(IntPoly)


class TestQIntegerDivisor:
    """_pseudo_rem and _divexact by a q-integer [L] against the general
    loops, written out above."""

    @given(dividends, divisor_lengths)
    def test_pseudo_rem(self, a, length):
        b = q_integer(length)
        assert _pseudo_rem(a, b) == pseudo_rem_reference(a, b)

    @given(dividends.filter(lambda p: len(p.coeffs) < 40), divisor_lengths,
           st.lists(st.integers(-3, 3), max_size=4).map(IntPoly))
    def test_divexact(self, p, length, r):
        # p [L] + r: exact when r is a multiple of [L] (r = 0 in particular)
        b = q_integer(length)
        a = p * b + r
        try:
            expected = divexact_reference(a, b)
        except NotPolynomial:
            with pytest.raises(NotPolynomial):
                _divexact(a, b)
        else:
            assert _divexact(a, b) == expected

    def test_examples(self):
        for length in (2, 3, 17, 40):
            b = q_integer(length)
            short = IntPoly([5, 0, -BIG][:length - 1])  # degree below L-1
            for a in (ZERO, short, IntPoly([1] * (2 * length - 1)), b * b * Q):
                assert _pseudo_rem(a, b) == pseudo_rem_reference(a, b)
            assert _pseudo_rem(short, b) == short
            assert _divexact(ZERO, b) == ZERO
            assert _divexact(b * b * Q, b) == b * Q
            for a in (short, b + ONE, b * Q + Q):
                with pytest.raises(NotPolynomial):
                    divexact_reference(a, b)
                with pytest.raises(NotPolynomial):
                    _divexact(a, b)
        a = IntPoly([3, -1, 4])
        assert _divexact(a, ONE) is a

    def test_gcd_of_q_integers(self):
        for a in range(1, 41):
            for b in range(1, 41):
                assert poly_gcd(q_integer(a), q_integer(b)) == q_integer(math.gcd(a, b))


def double_loop_product(a, b):
    """Reference multiply: every pair of coefficients, zeros included."""
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)

mul_coeffs = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
# a run of low-end zeros, then arbitrary coefficients
mul_polys = st.builds(lambda zeros, tail: IntPoly([0] * zeros + tail),
                      st.integers(0, 40), st.lists(mul_coeffs, max_size=8))

MUL_CASES = (
    ZERO, ONE, -ONE, IntPoly([7]), IntPoly([-5]), Q, IntPoly.q_power(9),
    -IntPoly.q_power(4), IntPoly([0] * 30 + [1, 2, -1]), IntPoly([0] * 12 + [3]),
    IntPoly([BIG, 0, -BIG + 1]), IntPoly([0] * 5 + [-BIG, 1, 0, BIG]),
    IntPoly([1, -1]), IntPoly([0, 1, 1, 1]),
)


class TestMultiply:
    """IntPoly multiplication against the double-loop reference."""

    def check(self, a, b):
        product = a * b
        assert product.coeffs == double_loop_product(a, b)
        assert type(product.coeffs) is tuple
        assert all(type(c) is int for c in product.coeffs)
        assert not product.coeffs or product.coeffs[-1] != 0
        assert (b * a).coeffs == product.coeffs

    def test_explicit_cases(self):
        for a in MUL_CASES:
            for b in MUL_CASES:
                self.check(a, b)

    def test_int_operands(self):
        for a in MUL_CASES:
            for c in (0, 1, -1, 6, -BIG, True):
                expected = double_loop_product(a, IntPoly.const(c))
                assert (a * c).coeffs == expected
                assert (c * a).coeffs == expected

    @given(mul_polys, mul_polys)
    def test_matches_double_loop(self, a, b):
        self.check(a, b)

    @given(st.builds(lambda zeros, tail: IntPoly([0] * zeros + tail),
                     st.integers(0, 3), st.lists(mul_coeffs, max_size=5)),
           st.integers(0, 12))
    def test_power_is_repeated_product(self, p, n):
        expected = ONE
        for _ in range(n):
            expected = IntPoly(double_loop_product(expected, p))
        assert (p ** n).coeffs == expected.coeffs

    @given(st.integers(2, 60), st.integers(0, 5), mul_polys)
    def test_q_integer_operand(self, length, shift, p):
        # q^v [L] times anything, in both operand orders
        self.check(IntPoly([0] * shift + [1] * length), p)

    def test_q_integer_cases(self):
        big = IntPoly([BIG, -3, 0, -BIG - 1, 5])
        for length in (2, 3, 7, 40):
            for other in (q_integer(2), q_integer(length), IntPoly([0] * 3 + [1] * 9),
                          big, -big, IntPoly([-1, -1, -1]), IntPoly([1, 1, 0, 1]),
                          IntPoly.q_power(7), IntPoly([0] * 4 + [-BIG]), IntPoly([3])):
                self.check(q_integer(length), other)

    def test_power_examples(self):
        for p in MUL_CASES:
            expected = ONE
            for n in range(13):
                assert p ** n == expected
                expected = IntPoly(double_loop_product(expected, p))


class TestQScalar:
    def test_canonical_reduction(self):
        # (1-q^3)/(1-q) reduces to the polynomial 1+q+q^2
        a = QScalar(IntPoly([1, 0, 0, -1]), IntPoly([1, -1]))
        assert a == QScalar(IntPoly([1, 1, 1]))
        assert a.den == ONE

    def test_sign_normalization(self):
        a = QScalar(ONE, IntPoly([1, -1]))  # 1/(1-q)
        assert a.den.lead > 0
        assert a.num == IntPoly([-1])
        assert a == QScalar(IntPoly([-1]), IntPoly([-1, 1]))

    @given(small_polys, nonzero_polys, nonzero_polys)
    def test_unreduced_representatives_collapse(self, num, den, m):
        assert QScalar(num * m, den * m) == QScalar(num, den)

    @given(small_polys, nonzero_polys)
    def test_add_neg_is_zero(self, num, den):
        a = QScalar(num, den)
        assert a + (-a) == QScalar(0)

    def test_field_ops(self):
        half = QScalar(1, 2)
        third = QScalar(1, 3)
        assert half + third == QScalar(5, 6)
        assert half * third == QScalar(1, 6)
        assert half / third == QScalar(3, 2)
        assert half ** 2 == QScalar(1, 4)
        with pytest.raises(ZeroDivisionError):
            half / QScalar(0)

    def test_equal_values_hash_equal(self):
        # values that compare equal across int, IntPoly and QScalar must
        # collapse to one element in a set
        assert len({QScalar(1), 1}) == 1
        assert len({QScalar(IntPoly([1, 1])), IntPoly([1, 1])}) == 1
        assert len({QScalar(0), 0}) == 1
        assert len({IntPoly([-3]), -3, QScalar(-3)}) == 1


class TestScalarBoundary:
    def test_of_lifts_exact_scalars(self):
        a = QScalar(IntPoly([0, 1]), IntPoly([1, 1]))
        assert QScalar.of(a) is a
        assert QScalar.of(3) == QScalar(3)
        assert QScalar.of(True) == QScalar(1) == IntPoly([True])
        assert QScalar.of(IntPoly([1, 1])) == QScalar(IntPoly([1, 1]))
        assert QScalar.of(0).is_zero()

    def test_from_fraction_takes_exact_rationals(self):
        assert QScalar.from_fraction(Fraction(-2, 4)) == QScalar(-1, 2)
        assert QScalar.from_fraction(3) == QScalar(3)
        for bad in (0.5, "1/2"):
            with pytest.raises(TypeError):
                QScalar.from_fraction(bad)

    @pytest.mark.parametrize("bad", INEXACT)
    def test_inexact_rejected(self, bad):
        with pytest.raises(TypeError):
            QScalar.of(bad)
        with pytest.raises(TypeError):
            QScalar(bad)
        with pytest.raises(TypeError):
            QScalar(1, bad)
        with pytest.raises(TypeError):
            QScalar(1) + bad
        assert QScalar(1) != bad


class TestQInteger:
    def test_examples(self):
        assert q_integer(0) == ZERO
        assert q_integer(1) == ONE
        assert q_integer(3) == IntPoly([1, 1, 1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_integer(-1)
        with pytest.raises(ValueError):
            q_factorial(-2)

    def test_value_at_one(self):
        for n in range(13):
            assert q_integer(n).evaluate(1) == n


class TestQFactorial:
    def test_examples(self):
        assert q_factorial(0) == ONE
        assert q_factorial(2) == IntPoly([1, 1])
        assert q_factorial(3) == IntPoly([1, 2, 2, 1])

    def test_value_at_one(self):
        for n in range(13):
            assert q_factorial(n).evaluate(1) == math.factorial(n)


class TestGaussBinomial:
    def test_examples(self):
        assert gauss_binomial(4, 0) == ONE
        assert gauss_binomial(2, 1) == IntPoly([1, 1])
        assert gauss_binomial(4, 2) == IntPoly([1, 1, 2, 1, 1])

    def test_out_of_range(self):
        assert gauss_binomial(3, -1) == ZERO
        assert gauss_binomial(3, 4) == ZERO

    def test_symmetry_and_pascal(self):
        # the q-Pascal recurrence checks the product formula independently
        for n in range(41):
            for k in range(n + 1):
                g = gauss_binomial(n, k)
                assert g == gauss_binomial(n, n - k)
                if n > 0:
                    assert g == gauss_binomial(n - 1, k - 1) + \
                        IntPoly.q_power(k) * gauss_binomial(n - 1, k)

    def test_against_product_formula(self):
        for n in range(30):
            for k in range(n + 1):
                assert gauss_binomial(n, k) == gauss_by_product(n, k)

    def test_cold_fill_needs_no_deep_recursion(self, spare_frames):
        # [300 150] is one q_product, with no recursion: it fits in 50 frames
        with spare_frames(50):
            value = gauss_binomial(300, 150)
        assert value.evaluate(1) == math.comb(300, 150)

    def test_cold_value_keeps_no_row_in_memory(self):
        # a fresh interpreter's peak RSS for one cold [300 150] stays small:
        # no row of Gaussian binomials is kept to reach it
        pytest.importorskip("resource")
        code = (
            "import math, resource, sys\n"
            "from qweyl.qarith import gauss_binomial\n"
            "assert gauss_binomial(300, 150).evaluate(1) == math.comb(300, 150)\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(peak // 1024 if sys.platform == 'darwin' else peak)\n"
        )
        # ru_maxrss keeps the launching process's peak across exec, so the
        # measured interpreter is started by a small one, not by this one
        launch = ("import subprocess, sys\n"
                  "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(qarith.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", launch, code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 64 * 1024  # KiB

    def test_against_factorial_quotient_oracle(self):
        for n in range(13):
            for k in range(n + 1):
                assert gauss_binomial(n, k) == gauss_by_factorials(n, k)

    def test_value_at_one(self):
        for n in range(13):
            for k in range(n + 1):
                assert gauss_binomial(n, k).evaluate(1) == math.comb(n, k)


class TestProducts:
    # plain IntPoly products of the blocks are the reference
    def test_against_block_products(self):
        for n in range(31):
            assert q_factorial(n) == \
                math.prod((q_integer(i) for i in range(1, n + 1)), start=ONE)
            assert q_product(_q_even(n)) == even_product(n)

    def test_even_product(self):
        assert q_product(_q_even(0)) == ONE
        assert q_product(_q_even(1)) == IntPoly([1, 1])
        assert q_product(_q_even(2)) == IntPoly([1, 1, 1, 1])


factor_pairs = st.lists(st.tuples(st.integers(1, 6), st.integers(-3, 3)), max_size=6)


def one_minus_q(k):
    return ONE - IntPoly.q_power(k)


class TestQProduct:
    @given(small_polys, st.lists(st.integers(1, 6), max_size=4), factor_pairs,
           st.integers(0, 3))
    def test_matches_field_arithmetic(self, p, base_factors, factors, shift):
        # base carries some (1-q^k) factors, so quotients are often exact
        base = p
        for k in base_factors:
            base = base * one_minus_q(k)
        value = QScalar(base) * q_pow(shift)
        for k, e in factors:
            value = value * QScalar(one_minus_q(k)) ** e
        try:
            expected = to_polynomial(value)
        except NotPolynomial:
            with pytest.raises(NotPolynomial):
                q_product(factors, shift, base)
        else:
            assert q_product(factors, shift, base) == expected

    def test_inexact_quotient_raises(self):
        # [3]/[2] = (1-q^3)/(1-q^2)
        with pytest.raises(NotPolynomial):
            q_product([(3, 1), (1, -1), (2, -1), (1, 1)])
        with pytest.raises(NotPolynomial):
            q_product([(2, -1), (1, 1)], base=q_integer(3))
        with pytest.raises(NotPolynomial):
            q_product([(1, -1)])

    def test_examples(self):
        assert q_product([]) == ONE
        assert q_product([(4, 1), (2, -1)]) == IntPoly([1, 0, 1])  # 1+q^2
        assert q_product([(3, 1), (1, -1)], shift=2) == IntPoly([0, 0, 1, 1, 1])
        assert q_product([(1, -2)], base=IntPoly([1, -2, 1])) == ONE
        assert q_product([(5, 1), (5, -1)], base=IntPoly([7])) == IntPoly([7])
        assert q_product([(2, -1)], base=ZERO) == ZERO

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            q_product([(0, 1)])
        with pytest.raises(ValueError):
            q_product([(0, 1)], base=ZERO)
        with pytest.raises(ValueError):
            q_product([], shift=-1)


def g_by_field(n, k):
    """g_n(k) transcribed in the QScalar field."""
    terms = {}
    for j in range((n - k) // 2 + 1):
        c = QScalar(gauss_binomial(n, k)) * q_pow(j * j + k * j + math.comb(k, 2)) \
            * gauss_binomial(n - k, 2 * j) * odd_double_factorial(j)
        for i in range(k):
            c = c * QScalar(ONE + IntPoly.q_power(n - j - i), ONE + IntPoly.q_power(j + 1 + i))
        terms[(n - k - 2 * j, j)] = to_polynomial(c)
    return XSPoly(terms)


def corollary2_by_field(n, m, j):
    c = q_pow(math.comb(j + 1, 2) + math.comb(n - m, 2)) * q_factorial(n)
    for e in range(m + 1, n - j + 1):
        c = c * (ONE + IntPoly.q_power(e))
    return c / QScalar(even_product(n - m) * q_factorial(j) * q_factorial(m - j)
                       * q_factorial(n - m - j))


def corollary3_by_field(n, m, j):
    c = q_pow(n * n + j * j - (m + j) * n) * q_factorial(n)
    return c / QScalar(even_product(j) * q_factorial(j) * q_factorial(m - j)
                       * q_factorial(n - m - j))


def lucas_k_by_field(n, k):
    """L_n^(k) with each whole term reduced in the QScalar field."""
    if n == 0:
        return XSPoly.one()
    terms = {}
    for j in range(n // 2 + 1):
        ratio = QScalar(q_integer(n + k), q_integer(n + k - j)) \
            * gauss_binomial(n + k - j, k) * gauss_binomial(n - j, j)
        terms[(n - 2 * j, j)] = IntPoly.q_power(math.comb(j, 2)) * to_polynomial(ratio)
    return XSPoly(terms)


class TestClosedFormsAgainstField:
    """The closed forms, stepped or built with q_product, equal the same
    formulas computed in the QScalar field: g_n(k) and the corollaries for
    every index with n <= 13, L_n^(k) for n + k <= 20."""

    def test_g_coeff(self):
        for n in range(14):
            for k in range(n + 1):
                assert g_coeff(n, k) == g_by_field(n, k)

    def test_corollary_coeffs(self):
        for n in range(14):
            for m, j in _triangle(n):
                assert corollary2_coeff(n, m, j) == corollary2_by_field(n, m, j)
                assert corollary3_coeff(n, m, j) == corollary3_by_field(n, m, j)

    def test_lucas_k(self):
        for n in range(21):
            for k in range(21 - n):
                assert lucas_k(n, k) == lucas_k_by_field(n, k)


class TestToPolynomial:
    def test_examples(self):
        a = QScalar(IntPoly([1, 0, 0, -1]), IntPoly([1, -1]))
        assert to_polynomial(a) == IntPoly([1, 1, 1])
        assert to_polynomial(QScalar(5)) == IntPoly([5])
        with pytest.raises(NotPolynomial):
            to_polynomial(QScalar(ONE, IntPoly([1, -1])))

    @given(small_polys)
    def test_round_trip(self, p):
        assert to_polynomial(QScalar(p)) == p

    @given(small_polys, nonzero_polys)
    def test_succeeds_iff_den_one(self, num, den):
        a = QScalar(num, den)
        if a.den == ONE:
            assert to_polynomial(a) == a.num
        else:
            with pytest.raises(NotPolynomial):
                to_polynomial(a)


class TestEvalQ:
    """Exact evaluation of a q-scalar at a rational point q = r."""

    def test_examples(self):
        assert QScalar(IntPoly([1, 1, 1])).evaluate(1) == 3
        with pytest.raises(PoleAtPoint):
            QScalar(IntPoly([1, 1]), IntPoly([1, -1])).evaluate(1)
        assert QScalar(IntPoly([3, 5, 3, 1])).evaluate(1) == 12

    def test_rational_point(self):
        a = QScalar(IntPoly([0, 1]), IntPoly([1, 1]))  # q/(1+q)
        assert a.evaluate(Fraction(1, 2)) == Fraction(1, 3)


class TestSerialization:
    def test_intpoly_wire_format(self):
        assert IntPoly([1, 1, 2, 1, 1]).to_list() == [1, 1, 2, 1, 1]

    def test_qscalar_json_round_trip(self):
        a = QScalar(IntPoly([0, 1]), IntPoly([1, 1]))
        assert a.to_json() == {"num": [0, 1], "den": [1, 1]}
        assert QScalar.from_json(a.to_json()) == a
