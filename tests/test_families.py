"""Polynomial families and their closed-form coefficients, cross-checked
against the rewriting engine."""

import math
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from qweyl import families, opalg, qarith
from qweyl.families import (
    OPERATORS,
    QWEYL_PATHS,
    IndexOutOfRange,
    _xsd_power,
    a_coeff,
    apply_exp_q2,
    big_hermite,
    corollary2_coeff,
    corollary3_coeff,
    g_coeff,
    h_poly,
    hermite,
    hermite_lucas_expand,
    lucas,
    lucas_k,
    operator_row,
    qweyl_binomial,
    weyl_binomial,
)
from qweyl.opalg import TWIST_ONE, TWIST_Q, affine_factor, power, product
from qweyl.polyring import XSPoly
from qweyl.qarith import (
    IntPoly,
    NotPolynomial,
    ONE,
    QScalar,
    ZERO,
    gauss_binomial,
    q_integer,
    q_pow,
    to_polynomial,
)

ONE_MINUS_Q = IntPoly([1, -1])


def oracle_qweyl_table(n):
    """Coefficient table of (X+sD)^n from the engine, keyed by (m, l) with
    the term X^(m-l) s^(n-m) D^(n-m-l)."""
    table = {}
    for (a, b, ms), c in _xsd_power(n).terms.items():
        m = n - ms
        l = m - a
        assert b == n - m - l
        table[(m, l)] = to_polynomial(c)
    return table


def built(kind, n):
    """The n-th operator of a kind, built factor by factor with power/product,
    without the shared operator table."""
    if kind == "classical":
        return power(affine_factor(1, TWIST_ONE), n)
    if kind == "qpower":
        return power(affine_factor(1, TWIST_Q), n)
    if kind == "qdesc":
        return product([affine_factor(q_pow(n - 1 - i), TWIST_Q) for i in range(n)])
    if kind == "qodd":
        return product([affine_factor(q_pow(2 * i + 1), TWIST_Q) for i in range(n)])
    return power(affine_factor(QScalar(ONE_MINUS_Q), TWIST_Q), n)


class TestOperators:
    def test_sequence_matches_public_products(self):
        assert list(OPERATORS) == ["classical", "qpower", "qdesc", "qodd", "qtheorem4"]
        for kind in OPERATORS:
            for n in range(7):
                assert operator_row(kind, n) == built(kind, n), (kind, n)
        for n in range(7):
            assert _xsd_power(n) == built("qpower", n), n

    def test_warm_rows_equal_cold_products(self):
        # a row read after a higher one was built is the same operator as
        # the product of its factors
        for kind in OPERATORS:
            operator_row.cache_clear()
            high = operator_row(kind, 12)
            assert operator_row.cache_info().currsize == 13
            assert operator_row(kind, 5) == built(kind, 5), kind
            assert high == built(kind, 12), kind

    def test_negative_index(self):
        with pytest.raises(ValueError):
            operator_row("qpower", -1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="expected one of"):
            operator_row("nope", 3)


class TestReadOnlyTerms:
    def test_memoized_term_maps_cannot_be_changed(self):
        # the memo tables hand out shared values; a caller clearing or
        # writing into one must not change what later calls return
        big_hermite.cache_clear()
        for op in (_xsd_power(2), operator_row("qodd", 3)):
            with pytest.raises(AttributeError):
                op.terms.clear()
            with pytest.raises(TypeError):
                op.terms[(0, 0, 0)] = QScalar(1)
            with pytest.raises(TypeError):
                del op.terms[next(iter(op.terms))]
        for poly in (hermite(3), h_poly(4)):
            with pytest.raises(AttributeError):
                poly.terms.pop((2, 1))
            with pytest.raises(TypeError):
                poly.terms[(2, 1)] = QScalar(1)
        assert str(big_hermite(3)) == "x^3 + (2+q)*s*x"
        assert _xsd_power(2) == built("qpower", 2)
        assert operator_row("qodd", 3) == built("qodd", 3)
        assert hermite(3) == XSPoly({(3, 0): 1, (1, 1): 3})


class TestHermite:
    def test_initial_values(self):
        assert hermite(0) == XSPoly.one()
        assert hermite(1) == XSPoly.x()
        assert hermite(2) == XSPoly({(2, 0): 1, (0, 1): 1})

    def test_degree_four(self):
        assert hermite(4) == XSPoly({(4, 0): 1, (2, 1): 6, (0, 2): 3})

    def test_closed_form(self):
        # n!/(2^j j! (n-2j)!) computed independently with integer arithmetic
        for n in range(11):
            expected = XSPoly({
                (n - 2 * j, j):
                    math.factorial(n) // ((1 << j) * math.factorial(j)
                                          * math.factorial(n - 2 * j))
                for j in range(n // 2 + 1)})
            assert hermite(n) == expected

    def test_large_n_needs_no_deep_recursion(self, spare_frames):
        # a cold H_150 must come out with only 50 frames of stack to spare
        hermite.cache_clear()
        with spare_frames(50):
            h = hermite(150)
        assert h.coefficient(150, 0) == QScalar(1)
        assert h.coefficient(148, 1) == QScalar(math.comb(150, 2))

    def test_derivative_recurrence(self):
        for n in range(1, 13):
            assert hermite(n).ddx() == n * hermite(n - 1)


class TestWeylBinomial:
    def test_j_zero_is_binomial(self):
        for n in range(9):
            for m in range(n + 1):
                assert weyl_binomial(n, m, 0) == math.comb(n, m)

    def test_examples(self):
        assert weyl_binomial(4, 2, 1) == 12
        assert weyl_binomial(4, 2, 2) == 3

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            weyl_binomial(4, 2, 3)
        with pytest.raises(IndexOutOfRange):
            weyl_binomial(4, 5, 0)
        with pytest.raises(IndexOutOfRange):
            weyl_binomial(4, 2, -1)

    def test_symmetry_and_factorization(self):
        for n in range(13):
            for m in range(n + 1):
                for j in range(min(m, n - m) + 1):
                    w = weyl_binomial(n, m, j)
                    assert w == weyl_binomial(n, n - m, j)
                    assert w == math.comb(n - 2 * j, m - j) * weyl_binomial(n, j, j)

    def test_hermite_coefficients(self):
        # s^j coefficient of H_n is {n j}_j
        for n in range(11):
            for j in range(n // 2 + 1):
                assert hermite(n).coefficient(n - 2 * j, j) == QScalar(weyl_binomial(n, j, j))


class TestHPoly:
    def test_small_values(self):
        assert h_poly(0) == XSPoly.one()
        assert h_poly(1) == XSPoly.x()
        assert h_poly(2) == XSPoly({(2, 0): 1, (0, 1): IntPoly([0, 1])})
        assert h_poly(3) == XSPoly({(3, 0): 1, (1, 1): IntPoly([0, 1, 1, 1])})

    def test_coefficient_identity(self):
        # the same coefficient written as q^(j^2) [n 2j] [2j-1]!!
        for n in range(11):
            for j in range(n // 2 + 1):
                odd_double = math.prod((q_integer(2 * i - 1) for i in range(1, j + 1)),
                                       start=ONE)
                expected = IntPoly.q_power(j * j) * gauss_binomial(n, 2 * j) * odd_double
                assert h_poly(n).coefficient(n - 2 * j, j) == QScalar(expected)

    def test_generated_by_descending_product(self):
        for n in range(9):
            factors = [affine_factor(q_pow(n - 1 - i), TWIST_Q) for i in range(n)]
            assert product(factors).apply(XSPoly.one()) == h_poly(n)

    def test_section3_leading_factor_must_carry_q(self):
        # (X+qsD)(X+q^3 sD)...1 = h_n, while a leading (X+sD) already fails at n=2;
        # the odd-power product's first factor is (X + q s D).
        good = product([affine_factor(q_pow(1), TWIST_Q),
                        affine_factor(q_pow(3), TWIST_Q)])
        bad = product([affine_factor(1, TWIST_Q),
                       affine_factor(q_pow(3), TWIST_Q)])
        assert good.apply(XSPoly.one()) == h_poly(2)
        assert bad.apply(XSPoly.one()) != h_poly(2)


class TestApplyExpQ2:
    def test_constant(self):
        assert apply_exp_q2(XSPoly.one()) == XSPoly.one()

    def test_x_squared(self):
        assert apply_exp_q2(XSPoly.x(2)) == h_poly(2)

    def test_monomials_give_h(self):
        for n in range(25):
            assert apply_exp_q2(XSPoly.x(n)) == h_poly(n)

    @given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 3)),
                           st.integers(-9, 9).filter(bool), min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_acts_linearly_on_every_term(self, terms):
        # the series reaches the largest x-degree of p, not only the first
        expected = sum((h_poly(a).shift(0, b, c) for (a, b), c in terms.items()),
                       XSPoly.zero())
        assert apply_exp_q2(XSPoly(terms)) == expected


class TestGCoeff:
    def test_k_zero_reduces_to_h(self):
        for n in range(7):
            assert g_coeff(n, 0) == h_poly(n)

    def test_f2_coefficients(self):
        assert g_coeff(2, 1) == XSPoly.monomial(1, 0, IntPoly([1, 0, 1]))
        assert g_coeff(2, 2) == XSPoly.const(IntPoly([0, 1]))

    def test_against_pair_oracle(self):
        f2 = affine_factor(q_pow(1), TWIST_Q) * affine_factor(1, TWIST_Q)
        assert f2.terms[(1, 1, 1)] == QScalar(IntPoly([1, 0, 1]))  # g_2(1)·s·D
        assert f2.terms[(0, 2, 2)] == QScalar(IntPoly([0, 1]))     # g_2(2)·s^2·D^2

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            g_coeff(2, 3)
        with pytest.raises(IndexOutOfRange):
            g_coeff(2, -1)


class TestCorollaryCoeffs:
    def test_pure_x_term(self):
        for n in range(1, 8):
            assert corollary2_coeff(n, n, 0) == QScalar(1)
            assert corollary3_coeff(n, n, 0) == QScalar(1)

    def test_n2_values(self):
        assert corollary2_coeff(2, 1, 0) == QScalar(IntPoly([1, 0, 1]))
        assert corollary2_coeff(2, 0, 0) == QScalar(IntPoly([0, 1]))
        assert corollary3_coeff(2, 1, 0) == QScalar(IntPoly([0, 0, 1, 1]))
        assert corollary3_coeff(2, 0, 0) == QScalar(IntPoly([0, 0, 0, 0, 1]))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            corollary2_coeff(2, 1, 2)
        with pytest.raises(IndexOutOfRange):
            corollary3_coeff(2, 3, 0)


class TestSteppedClosedForms:
    """g_n(k) and the corollary columns are stepped in j from a closed start;
    a slip in a step, or in a Lucas term, raises rather than passing."""

    def test_hold_no_memo(self):
        # the columns and stepped terms live for one call: they are not
        # memoized, and they add nothing to any memo table they could read
        for fn in (g_coeff, corollary2_coeff, corollary3_coeff,
                   families._corollary2_column, families._corollary3_column):
            assert not hasattr(fn, "cache_info")
        memos = [f for module in (families, qarith) for f in vars(module).values()
                 if hasattr(f, "cache_info")]
        sizes = [f.cache_info().currsize for f in memos]
        g_coeff(41, 7)
        corollary2_coeff(41, 20, 9)
        corollary3_coeff(41, 20, 9)
        assert [f.cache_info().currsize for f in memos] == sizes

    def test_slip_in_a_step_raises(self, monkeypatch):
        # [i+1] written for [i] in every step ratio: some step's quotient fails
        q_int = families._q_int
        monkeypatch.setattr(families, "_q_int", lambda i, power=1: q_int(i + 1, power))
        for fn, args in ((g_coeff, (9, 2)), (families._corollary2_column, (9, 4, 4)),
                         (families._corollary3_column, (9, 4, 4))):
            with pytest.raises(NotPolynomial):
                fn(*args)

    def test_slip_in_a_lucas_bracket_raises(self, monkeypatch):
        # [m+1] written for [m] in each Lucas term: its one field reduction
        # leaves a denominator, and to_polynomial raises instead of handing
        # out a wrong value; __wrapped__ leaves the lucas_k memo untouched
        monkeypatch.setattr(families, "q_integer", lambda m: q_integer(m + 1))
        for k in (0, 1):
            with pytest.raises(NotPolynomial):
                lucas_k.__wrapped__(3, k)


class TestBigHermite:
    def test_small_values(self):
        assert big_hermite(0) == XSPoly.one()
        assert big_hermite(1) == XSPoly.x()
        assert big_hermite(2) == XSPoly({(2, 0): 1, (0, 1): 1})
        assert big_hermite(3) == XSPoly({(3, 0): 1, (1, 1): IntPoly([2, 1])})

    def test_matches_engine_row(self):
        # the stepped H_n against the normal-ordered (X+sD)^n applied to 1
        for n in range(17):
            assert big_hermite(n) == operator_row("qpower", n).apply(XSPoly.one()), n

    def test_cold_value_builds_no_operator_row(self):
        # H_n = (X+sD) H_(n-1) acts on polynomials; no power of the operator
        # is normal-ordered, so the row table stays empty
        _xsd_power.cache_clear()
        big_hermite.cache_clear()
        operator_row.cache_clear()
        big_hermite(24)
        assert operator_row.cache_info().currsize == 0
        assert big_hermite.cache_info().currsize == 25

    def test_large_n_needs_no_deep_recursion(self, spare_frames):
        # H_n is filled upward, each from the one before, so a cold H_20
        # fits in 30 frames; stepping down by recursion needs over 40
        _xsd_power.cache_clear()
        big_hermite.cache_clear()
        operator_row.cache_clear()
        with spare_frames(30):
            h = big_hermite(20)
        assert h == XSPoly({(20 - 2 * l, l): qweyl_binomial(20, l, l, "recurrence")
                            for l in range(11)})


class TestOperatorRows:
    def test_cold_row_needs_no_deep_recursion(self, spare_frames):
        # rows are filled upward, each from the row before, so a cold qodd
        # row at n = 20 fits in 30 frames
        operator_row.cache_clear()
        with spare_frames(30):
            op = operator_row("qodd", 20)
        assert op.terms == {(m - j, 20 - m - j, 20 - m): corollary3_coeff(20, m, j)
                            for m in range(21) for j in range(min(m, 20 - m) + 1)}


class TestIntegerIndex:
    # an lru_cache key treats 4.0 and 4 as equal, so a float index must be
    # refused whether or not the int's value is already memoized
    @pytest.mark.parametrize("fn, lead, tail", [
        (operator_row, ("qpower",), ()), (lucas_k, (), (1,)), (lucas, (), ()),
        (big_hermite, (), ()), (hermite, (), ()), (h_poly, (), ()),
    ])
    def test_float_index_raises_cold_and_warm(self, fn, lead, tail):
        for memo in (operator_row, _xsd_power, big_hermite, lucas_k, lucas, hermite, h_poly):
            memo.cache_clear()
        with pytest.raises(TypeError):
            fn(*lead, 4.0, *tail)
        fn(*lead, 4, *tail)
        with pytest.raises(TypeError):
            fn(*lead, 4.0, *tail)
        # a bool counts as its int
        assert fn(*lead, True, *tail) == fn(*lead, 1, *tail)


def act_by_factors(kind, n, p):
    """p acted on by the n factors X + c(i) s D of an OPERATORS kind, one at
    a time and the right-most first, through XSPoly alone: no composition."""
    _, c, left = OPERATORS[kind]
    for i in range(1, n + 1) if left else range(n, 0, -1):
        p = p.shift(1, 0) + p.dq().shift(0, 1, c(i))
    return p


class TestActionOracle:
    """Each q row acts on x^0 ... x^n as its factors do.  An operator of
    D-degree at most n is fixed by that action (on x^j its D^j terms carry
    [j]! != 0), so this pins the whole row against a reference that runs
    no NormalOp `*`.
    `classical` is pinned as the q = 1 image of `qpower` by
    test_opalg.py's TestSpecialize."""

    @pytest.mark.parametrize("kind", ["qpower", "qdesc", "qodd", "qtheorem4"])
    def test_rows_act_as_their_factors(self, kind):
        for n in range(13):
            row = operator_row(kind, n)
            for m in range(n + 1):
                xm = XSPoly.x(m)
                assert row.apply(xm) == act_by_factors(kind, n, xm), (kind, n, m)


class TestLucas:
    def test_golden_values(self):
        assert lucas(0) == XSPoly.one()
        assert lucas(1) == XSPoly.x()
        assert lucas(2) == XSPoly({(2, 0): 1, (0, 1): IntPoly([1, 1])})
        assert lucas(3) == XSPoly({(3, 0): 1, (1, 1): IntPoly([1, 1, 1])})
        assert lucas(4) == XSPoly({(4, 0): 1, (2, 1): IntPoly([1, 1, 1, 1]),
                                   (0, 2): IntPoly([0, 1, 0, 1])})


class TestLucasK:
    def test_k_zero(self):
        for n in range(9):
            assert lucas_k(n, 0) == lucas(n)

    def test_n_zero(self):
        for k in range(5):
            assert lucas_k(0, k) == XSPoly.one()

    def test_example(self):
        assert lucas_k(1, 1) == XSPoly.monomial(1, 0, IntPoly([1, 1]))


class TestACoeff:
    def test_diagonal(self):
        for n in range(7):
            assert a_coeff(n, n) == XSPoly.one()

    def test_example(self):
        assert a_coeff(2, 1) == XSPoly.monomial(1, 0, IntPoly([1, 1]))

    def test_k_zero_matches_expansion(self):
        # A(n, k, x) = sum_i C(n, i) s^i L^(k)_(n-2i-k)(x, -s), expanded in
        # XSPoly arithmetic, for every k (k = 0 is sum_j C(n, j) s^j
        # L_(n-2j)(x, -s))
        for n in range(15):
            for k in range(n + 1):
                expansion = XSPoly.zero()
                for i in range((n - k) // 2 + 1):
                    expansion = expansion + lucas_k(n - 2 * i - k, k).scale_s(-1).shift(
                        0, i, math.comb(n, i))
                assert a_coeff(n, k) == expansion, (n, k)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            a_coeff(2, 3)


class TestHermiteLucasExpand:
    def test_small_values(self):
        assert hermite_lucas_expand(0) == XSPoly.one()
        assert hermite_lucas_expand(1) == XSPoly.x()
        assert hermite_lucas_expand(2) == XSPoly({(2, 0): 1, (0, 1): ONE_MINUS_Q})
        with pytest.raises(ValueError):
            hermite_lucas_expand(-1)

    def test_matches_scaled_big_hermite(self):
        for n in range(9):
            assert hermite_lucas_expand(n) == big_hermite(n).scale_s(ONE_MINUS_Q)


class TestQWeylBinomial:
    def test_examples(self):
        for n in range(7):
            assert qweyl_binomial(n, 0, 0) == ONE
        assert qweyl_binomial(2, 1, 0) == IntPoly([1, 1])
        assert qweyl_binomial(4, 2, 1) == IntPoly([3, 5, 3, 1])

    def test_zero_outside_range(self):
        assert qweyl_binomial(4, 2, 3) == ZERO
        assert qweyl_binomial(4, 5, 0) == ZERO
        assert qweyl_binomial(4, 2, -1) == ZERO

    def test_unknown_path(self):
        with pytest.raises(ValueError):
            qweyl_binomial(2, 1, 0, path="magic")
        with pytest.raises(ValueError):
            qweyl_binomial(3, 5, 0, path="bogus")

    @pytest.mark.parametrize("path", QWEYL_PATHS)
    def test_indices_are_integers(self, path):
        # every path reads n, m and l through operator.index, so a float
        # index is refused on each, whatever its value, and True counts as 1
        for args in ((4, 2.0, 1), (4, 2, 1.0), (0.0, 0, 0), (4.0, 2, 1)):
            with pytest.raises(TypeError):
                qweyl_binomial(*args, path)
        assert qweyl_binomial(4, 2, True, path) == qweyl_binomial(4, 2, 1, path)
        assert qweyl_binomial(True, True, 0, path) == qweyl_binomial(1, 1, 0, path)

    def test_paths_agree(self):
        for n in range(9):
            for m in range(n + 1):
                for l in range(min(m, n - m) + 1):
                    closed = qweyl_binomial(n, m, l, "closed")
                    assert closed == qweyl_binomial(n, m, l, "factored")
                    assert closed == qweyl_binomial(n, m, l, "recurrence")

    def test_closed_sum_is_a_coefficient_of_a(self):
        # [x^(n-k-2l) s^l] A(n, k) = (1-q)^l {n k+l}_l, against the recurrence
        for n in range(15):
            for k in range(n + 1):
                a = a_coeff(n, k)
                for l in range((n - k) // 2 + 1):
                    expected = ONE_MINUS_Q ** l * qweyl_binomial(n, k + l, l, "recurrence")
                    assert a.coefficient(n - k - 2 * l, l) == QScalar(expected), (n, k, l)

    def test_oracle_supremacy(self):
        # every engine coefficient of (X+sD)^n equals the closed form
        for n in range(9):
            table = oracle_qweyl_table(n)
            for m in range(n + 1):
                for l in range(min(m, n - m) + 1):
                    assert table.get((m, l), ZERO) == qweyl_binomial(n, m, l)

    def test_symmetry_reconciles_both_index_displays(self):
        # the two index conventions differ by m <-> n-m; the values coincide
        for n in range(9):
            for m in range(n + 1):
                for l in range(min(m, n - m) + 1):
                    assert qweyl_binomial(n, m, l) == qweyl_binomial(n, n - m, l)

    def test_cold_recurrence_row_needs_no_deep_recursion(self, spare_frames):
        # the recurrence rows are filled upward, so a cold row 30 fits in 20
        # frames
        families._qweyl_row.cache_clear()
        with spare_frames(20):
            value = qweyl_binomial(30, 15, 3, "recurrence")
        assert value == qweyl_binomial(30, 15, 3, "closed")

    def test_q1_collapse(self):
        for n in range(9):
            for m in range(n + 1):
                for l in range(min(m, n - m) + 1):
                    value = qweyl_binomial(n, m, l).evaluate(1)
                    assert value == weyl_binomial(n, m, l)



class TestQZeroSpecialization:
    """An oracle that shares no code with families: at q = 0 every {n m}_l
    is the ballot number C(n,l) - C(n,l-1), its q-degree is
    m(n-m) - C(l+1,2), and its leading coefficient is 1."""

    @staticmethod
    def check(n, m, l, value):
        coeffs = value.coeffs
        ballot = math.comb(n, l) - (math.comb(n, l - 1) if l else 0)
        assert (coeffs[0], len(coeffs) - 1, coeffs[-1]) == \
            (ballot, m * (n - m) - math.comb(l + 1, 2), 1), (n, m, l)

    def test_every_path_and_the_engine_row(self):
        for n in range(17):
            row = operator_row("qpower", n).terms
            for m in range(n + 1):
                for l in range(min(m, n - m) + 1):
                    self.check(n, m, l, to_polynomial(row[(m - l, n - m - l, n - m)]))
                    for path in ("closed", "factored", "recurrence"):
                        self.check(n, m, l, qweyl_binomial(n, m, l, path))

    def test_recurrence_to_row_30(self):
        for n in range(17, 31):
            for m in range(n + 1):
                for l in range(min(m, n - m) + 1):
                    self.check(n, m, l, qweyl_binomial(n, m, l, "recurrence"))


# The factor X + c s D of each kind whose c is one constant at q = -1.
# qdesc alternates X + sD and X - sD there, so it has no such form.
Q_MINUS_ONE_C = {"qpower": 1, "qodd": -1, "qtheorem4": 2}


def trinomial_row(c, n):
    """The normal form of (X + c s D)^n at q = -1, by `math` alone, as a map
    (a, b, m) -> coefficient of X^a D^b s^m.  There DX = -XD + 1, so X^2 and
    D^2 commute and (X + c s D)^2 = X^2 + c s + c^2 s^2 D^2; the power 2m is
    a trinomial sum, already normally ordered, and an odd n multiplies it on
    the right by X + c s D, which passes X through D^(2b) unchanged."""
    half, odd = divmod(n, 2)
    terms = {}
    for a in range(half + 1):
        for b in range(half - a + 1):
            m = half + b - a  # the s power 2b + k, with k = half - a - b
            w = math.comb(half, a) * math.comb(half - a, b) * c ** m
            if odd:
                terms[(2 * a + 1, 2 * b, m)] = w
                terms[(2 * a, 2 * b + 1, m + 1)] = w * c
            else:
                terms[(2 * a, 2 * b, m)] = w
    return terms


class TestQMinusOneSpecialization:
    """An oracle that shares no code with families or opalg: at q = -1 each
    row of qpower, qodd and qtheorem4 is the trinomial form above."""

    @pytest.mark.parametrize("kind", sorted(Q_MINUS_ONE_C))
    def test_rows_to_24(self, kind):
        for n in range(25):
            row = operator_row(kind, n).specialize_q(-1).terms
            assert row == trinomial_row(Q_MINUS_ONE_C[kind], n), (kind, n)


class TestMemoTablesUnderThreads:
    def test_concurrent_growth_matches_serial(self):
        # the q-Weyl recurrence rows and the operator rows are lru caches,
        # and the engine's D X^a memo is a shared table grown on demand;
        # threads filling them at once must all get the serial values, and
        # the cache must hold each row once; the Gaussian binomials, which
        # hold no memo, must agree too
        def values():
            ops = [power(affine_factor(1, twist), 12) for twist in (TWIST_Q, TWIST_ONE)]
            gauss = [gauss_binomial(40, k) for k in range(41)]
            row = [qweyl_binomial(30, m, l, "recurrence")
                   for m in range(31) for l in range(min(m, 30 - m) + 1)]
            rows = [operator_row(kind, n) for kind in OPERATORS for n in (10, 4)]
            return gauss, row, ops, rows

        def reset():
            families._qweyl_row.cache_clear()
            operator_row.cache_clear()
            opalg._D_POW_PAST_X.clear()

        serial = values()
        results = []

        # the threads start their work together, so their fills overlap
        start = threading.Barrier(6)

        def work():
            start.wait(timeout=60)
            results.append(values())

        interval = sys.getswitchinterval()
        try:
            reset()
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            rows_held = operator_row.cache_info().currsize
        finally:
            sys.setswitchinterval(interval)
            if results != [serial] * 6:
                reset()
        assert results == [serial] * 6
        # rows 0-10 of each kind, each held once
        assert rows_held == 11 * len(OPERATORS)


def _row_by(n, path, order=1):
    """Row n of the q-Weyl triangle by one path, keyed (m, l), computed in
    ascending (order=1) or descending (order=-1) (m, l) order."""
    keys = list(families._triangle(n))[::order]
    return {key: qweyl_binomial(n, *key, path) for key in keys}


class TestLucasMemo:
    def test_closed_row_fills_each_lucas_row_once(self):
        n = 12
        needed = {(n - 2 * i - (m - l), m - l)
                  for m, l in families._triangle(n) for i in range(l + 1)}
        lucas_k.cache_clear()
        _row_by(n, "closed")
        assert lucas_k.cache_info().misses == len(needed)
        # the factored path reads the m = l entries, already in the memo
        _row_by(n, "factored")
        assert lucas_k.cache_info().misses == len(needed)

    def test_fill_order_and_threads_cannot_change_a_value(self):
        def values():
            return [_row_by(n, path, -1) for n in range(8, 15)
                    for path in ("closed", "factored")]

        expected = [_row_by(n, "recurrence") for n in range(8, 15) for _ in range(2)]
        lucas_k.cache_clear()
        assert values() == expected

        results = []
        start = threading.Barrier(6)

        def work():
            start.wait(timeout=60)
            results.append(values())

        lucas_k.cache_clear()
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 6
