"""Polynomials in x, s and the q-/classical derivatives acting on them."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qweyl.opalg import TWIST_ONE, TWIST_Q, NormalOp, TwistMismatch
from qweyl.polyring import XSPoly
from qweyl.qarith import IntPoly, QScalar, q_integer


def specialize_q1(p: XSPoly) -> dict:
    """Map each coefficient to its exact value at q = 1."""
    return {k: c.evaluate(1) for k, c in p.terms.items() if c.evaluate(1) != 0}


terms_strategy = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 3)),
    st.integers(-9, 9),
    max_size=5,
)
polys = terms_strategy.map(XSPoly)

# Inexact scalars: every entry point must raise TypeError on each.
INEXACT = (1.5, Fraction(1, 2), "1")


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = XSPoly({(1, 0): 1, (2, 1): 0})
        assert p.terms == {(1, 0): QScalar(1)}
        assert XSPoly({(0, 0): 0}).is_zero()

    def test_terms_read_only_repr_as_dict(self):
        p = XSPoly({(1, 0): 3})
        with pytest.raises(TypeError):
            p.terms[(1, 0)] = QScalar(4)
        assert p == XSPoly(p.terms) and hash(p) == hash(XSPoly(p.terms))
        assert repr(p) == "XSPoly({(1, 0): QScalar([3], [1])})"

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            XSPoly({(-1, 0): 1})

    def test_non_integer_exponents_rejected(self):
        for e in INEXACT:
            with pytest.raises(TypeError):
                XSPoly.x(e)
            with pytest.raises(TypeError):
                XSPoly({(0, e): 1})

    def test_exponents_stored_as_int(self):
        # a bool is an index, but the key and the wire format hold plain ints
        p = XSPoly({(True, False): 1})
        assert [type(e) for e in next(iter(p.terms))] == [int, int]
        assert p.to_json()["terms"][0] == {"x": 1, "s": 0, "coef": {"num": [1], "den": [1]}}

    @pytest.mark.parametrize("bad", INEXACT)
    def test_inexact_scalars_rejected(self, bad):
        x = XSPoly.x()
        for call in (lambda: XSPoly({(1, 0): bad}), lambda: x.scale(bad),
                     lambda: XSPoly.zero().scale(bad), lambda: x.shift(1, 0, bad),
                     lambda: x.scale_s(bad), lambda: x * bad, lambda: bad * x):
            with pytest.raises(TypeError):
                call()

    def test_ring_ops(self):
        x, s = XSPoly.x(), XSPoly.s()
        assert (x + s) - x == s
        assert x * s == XSPoly.monomial(1, 1)
        assert (x + s) * (x - s) == x * x - s * s
        assert 3 * x == XSPoly.monomial(1, 0, 3)
        assert XSPoly({(1, 0): True}) == x.scale(True) == x
        assert IntPoly([1, 1]) * x == x * IntPoly([1, 1]) == XSPoly({(1, 0): IntPoly([1, 1])})


class TestShift:
    # results are built without the constructor's check, so shift enforces
    # its own: a negative shift is fine, a negative resulting exponent is not
    def test_negative_shift_within_degree(self):
        assert XSPoly.x(2).shift(-1, 0) == XSPoly.x()
        assert XSPoly.monomial(1, 2, 3).shift(-1, -2, 2) == XSPoly.const(6)

    def test_negative_result_rejected(self):
        with pytest.raises(ValueError):
            XSPoly.x(2).shift(-3, 0)
        with pytest.raises(ValueError):
            XSPoly({(2, 0): 1, (0, 1): 1}).shift(-1, 0)

    def test_non_integer_shift_rejected(self):
        with pytest.raises(TypeError):
            XSPoly.x(2).shift(1.5, 0)
        with pytest.raises(TypeError):
            XSPoly.x(2).shift(0, Fraction(1))


class TestDq:
    def test_examples(self):
        assert XSPoly.one().dq().is_zero()
        assert XSPoly.x(3).dq() == XSPoly.monomial(2, 0, q_integer(3))
        assert XSPoly.monomial(2, 1).dq() == XSPoly.monomial(1, 1, q_integer(2))

    def test_agrees_with_difference_quotient(self):
        # (f(qx) - f(x)) / ((q-1)x) on a sample polynomial, coefficient-wise:
        # for x^a the quotient is (q^a-1)/(q-1) = [a].
        p = XSPoly({(4, 0): 2, (2, 1): 5, (0, 2): 7})
        expected = XSPoly({
            (3, 0): QScalar(IntPoly([-2, 0, 0, 0, 2]), IntPoly([-1, 1])),
            (1, 1): QScalar(IntPoly([-5, 0, 5]), IntPoly([-1, 1])),
        })
        assert p.dq() == expected

    @given(polys)
    @settings(max_examples=50)
    def test_difference_quotient_identity(self, p):
        # division-free form of the same definition:
        # f(qx) - f(x) = (q-1) * x * dq(f)
        q_minus_one = QScalar(IntPoly([-1, 1]))
        assert p.dilate(1, 0) - p == p.dq().shift(1, 0, q_minus_one)

    @given(polys, polys)
    @settings(max_examples=50)
    def test_twisted_leibniz(self, f, g):
        lhs = (f * g).dq()
        rhs = f.dq() * g + f.dilate(1, 0) * g.dq()
        assert lhs == rhs

    def test_q1_specialization_matches_ddx(self):
        for a in range(9):
            for b in range(9):
                m = XSPoly.monomial(a, b)
                assert specialize_q1(m.dq()) == specialize_q1(m.ddx())


class TestDdx:
    def test_examples(self):
        assert XSPoly.x(2).ddx() == XSPoly.monomial(1, 0, 2)
        h3 = XSPoly({(3, 0): 1, (1, 1): 3})  # x^3 + 3sx
        h2 = XSPoly({(2, 0): 1, (0, 1): 1})  # x^2 + s
        assert h3.ddx() == 3 * h2
        assert XSPoly.one().ddx().is_zero()


class TestDilate:
    def test_examples(self):
        q = QScalar(IntPoly([0, 1]))
        assert XSPoly.x().dilate(1, 0) == XSPoly.monomial(1, 0, q)
        assert XSPoly.s().dilate(0, 1) == XSPoly.monomial(0, 1, q)
        h2 = XSPoly({(2, 0): 1, (0, 1): q})  # x^2 + qs
        assert h2.dilate(1, 2) == (q ** 2) * h2

    @given(polys, st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=50)
    def test_composition(self, p, a, b, c, d):
        assert p.dilate(a, b).dilate(c, d) == p.dilate(a + c, b + d)

    def test_negative_exponent(self):
        p = XSPoly.x(2).dilate(-1, 0)
        assert p.evaluate(2, 0, 2) == Fraction(1)  # (x/q)^2 at x=q=2


class TestEvaluate:
    def test_examples(self):
        p = XSPoly({(2, 0): 1, (0, 1): 1})
        assert p.evaluate(2, 1, 1) == 5
        assert XSPoly.zero().evaluate(3, 4, 5) == 0
        l2 = XSPoly({(2, 0): 1, (0, 1): IntPoly([1, 1])})  # x^2 + (1+q)s
        assert l2.evaluate(1, 1, 2) == 4

    def test_inexact_point_rejected(self):
        x = XSPoly.x()
        for point in (0.5, "1/2"):
            for args in ((1, 1, point), (point, 1, 1), (1, point, 1)):
                with pytest.raises(TypeError):
                    x.evaluate(*args)
        assert x.evaluate(Fraction(1, 2), 1, Fraction(1, 3)) == Fraction(1, 2)

    def test_pole_in_coefficient(self):
        from qweyl.qarith import PoleAtPoint, QScalar
        p = XSPoly({(1, 0): QScalar(IntPoly([1]), IntPoly([1, -1]))})  # x/(1-q)
        with pytest.raises(PoleAtPoint):
            p.evaluate(2, 0, 1)


class TestRendering:
    def test_coefficient_parenthesization(self):
        p = XSPoly({(3, 0): 1, (1, 1): IntPoly([1, 1, 1])})
        assert str(p) == "x^3 + (1+q+q^2)*s*x"

    def test_canonical_order(self):
        p = XSPoly({(0, 2): IntPoly([0, 1, 0, 1]), (4, 0): 1,
                    (2, 1): IntPoly([1, 1, 1, 1])})
        assert str(p) == "x^4 + (1+q+q^2+q^3)*s*x^2 + (q+q^3)*s^2"

    def test_scalars_and_zero(self):
        assert str(XSPoly.zero()) == "0"
        assert str(XSPoly.const(1)) == "1"
        assert str(XSPoly.monomial(1, 0, 2)) == "2*x"
        assert str(XSPoly.monomial(1, 0, -2)) == "(-2)*x"

    def test_json_round_trip(self):
        p = XSPoly({(2, 0): 1, (0, 1): QScalar(IntPoly([0, 1]), IntPoly([1, 1]))})
        assert XSPoly.from_json(p.to_json()) == p
        assert p.to_json()["terms"][0] == {"x": 2, "s": 0, "coef": {"num": [1], "den": [1]}}


class TestScaleS:
    def test_minus_s(self):
        p = XSPoly({(1, 1): 1, (0, 2): 3})
        assert p.scale_s(-1) == XSPoly({(1, 1): -1, (0, 2): 3})

    def test_one_minus_q(self):
        c = IntPoly([1, -1])
        p = XSPoly({(0, 1): 1})
        assert p.scale_s(c) == XSPoly({(0, 1): c})


# XSPoly and NormalOp share one term map; every arithmetic result keeps its
# invariants.  The operands have bool keys (stored as ints) and the
# operations include cancellations and zero scalars, so a result that kept
# a zero or a bool would show.
XS = XSPoly({(True, 1): 3, (2, 0): IntPoly([1, 1]), (0, 0): -1})
XS_OPS = {
    "add": lambda p: p + XSPoly({(1, 1): -3, (3, 0): 1}),
    "sub": lambda p: p - XSPoly.const(-1),
    "neg": lambda p: -p,
    "scale": lambda p: p.scale(IntPoly([1, -1])),
    "scale-zero": lambda p: p.scale(0),
    "shift": lambda p: p.shift(True, 2, IntPoly([0, 1])),
    "shift-back": lambda p: p.shift(2, 1).shift(-1, -1),
    "dq": lambda p: p.dq(),
    "ddx": lambda p: p.ddx(),
    "dilate": lambda p: p.dilate(-1, 2),
    "scale_s-zero": lambda p: p.scale_s(0),
    "scale_s": lambda p: p.scale_s(IntPoly([1, -1])),
    "mul": lambda p: (p + XSPoly.s()) * (p - XSPoly.s()),
    "scalar-mul": lambda p: 3 * p,
    # X and X^2 D both send the x*s term to x^2*s; the two cancel
    "apply": lambda p: NormalOp(TWIST_Q, {(1, 0, 0): 1, (2, 1, 0): -1}).apply(p),
}


def _d(op):
    return NormalOp(op.twist, {(0, 1, 0): 1})


OP_OPS = {
    "add": lambda op: op + NormalOp(op.twist, {(0, 1, 1): -2, (4, 0, 0): 1}),
    "sub": lambda op: op - NormalOp(op.twist, {(1, 0, 0): 1}),
    "neg": lambda op: -op,
    "scale": lambda op: op.scale(IntPoly([1, 1])),
    "scale-zero": lambda op: op.scale(0),
    "mul": lambda op: (op + _d(op)) * (op - _d(op)),
    "scalar-mul": lambda op: op * 3,
    "scalar-rmul": lambda op: 2 * op,
}
OPERANDS = [pytest.param(XS, fn, id=f"XSPoly-{name}") for name, fn in XS_OPS.items()] + [
    pytest.param(NormalOp(twist, {(True, 0, 0): 1, (0, 1, 1): 2, (2, 2, False): IntPoly([0, 1])}),
                 fn, id=f"NormalOp-{tag}-{name}")
    for tag, twist in (("q", TWIST_Q), ("one", TWIST_ONE)) for name, fn in OP_OPS.items()]


class TestTermMapResults:
    @pytest.mark.parametrize("operand, op", OPERANDS)
    def test_result_invariants(self, operand, op):
        result = op(operand)
        width = 2 if isinstance(operand, XSPoly) else 3
        assert type(result) is type(operand)
        with pytest.raises(TypeError):
            result.terms[(0,) * width] = QScalar(1)
        with pytest.raises(AttributeError):
            result.terms = {}
        with pytest.raises(AttributeError, match=f"^{type(result).__name__} is immutable$"):
            del result.terms
        if isinstance(result, NormalOp):
            with pytest.raises(AttributeError, match="^NormalOp is immutable$"):
                del result.twist
        for key, c in result.terms.items():
            assert type(key) is tuple and len(key) == width
            assert all(type(e) is int for e in key)
            assert type(c) is QScalar and not c.is_zero()
        if isinstance(operand, NormalOp):
            assert result.twist == operand.twist

    def test_mixed_kinds_refused(self):
        p, op = XSPoly.x(), NormalOp(TWIST_Q, {(1, 0, 0): 1})
        for call in (lambda: p + op, lambda: op + p, lambda: p - op, lambda: op - p):
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("call", [
        lambda: IntPoly([1]) - "a",
        lambda: XSPoly.x() - 3,
        lambda: 3 - XSPoly.x(),
    ], ids=["IntPoly-str", "XSPoly-int", "int-XSPoly"])
    def test_unsupported_subtraction_refused(self, call):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
            call()

    @pytest.mark.parametrize("a, b", [
        (XSPoly.x(), NormalOp(TWIST_Q, {(1, 0, 0): 1})),
        (NormalOp(TWIST_Q, {(1, 0, 0): 1}), NormalOp(TWIST_ONE, {(1, 0, 0): 1})),
        (XSPoly.x(), XSPoly.x(2)),
    ], ids=["kinds", "twists", "terms"])
    def test_unequal(self, a, b):
        assert a != b and b != a
        assert not a == b

    @pytest.mark.parametrize("checked, built", [
        (XSPoly({(1, 0): 2}), XSPoly.x() + XSPoly.x()),
        (NormalOp(TWIST_Q, {(1, 0, 0): 2}), NormalOp(TWIST_Q, {(1, 0, 0): 1}).scale(2)),
        (NormalOp(TWIST_ONE, {(1, 1, 0): 1, (0, 0, 0): 1}),
         NormalOp(TWIST_ONE, {(0, 1, 0): 1}) * NormalOp(TWIST_ONE, {(1, 0, 0): 1})),
    ], ids=["XSPoly", "NormalOp-q", "NormalOp-one"])
    def test_equal_values_hash_equal(self, checked, built):
        # one value from the checked constructor, one from arithmetic (_new)
        assert checked == built
        assert hash(checked) == hash(built)

    def test_twist_mismatch_on_add_and_sub(self):
        a, b = NormalOp(TWIST_Q, {(1, 0, 0): 1}), NormalOp(TWIST_ONE, {(0, 1, 0): 1})
        for call in (lambda: a + b, lambda: b + a, lambda: a - b, lambda: b - a):
            with pytest.raises(TwistMismatch):
                call()

    @pytest.mark.parametrize("key", [(1,), (1, 2, 3), (1, 2, 3, 4)])
    def test_wrong_key_width_refused(self, key):
        if len(key) != 2:
            with pytest.raises(ValueError):
                XSPoly({key: 1})
        if len(key) != 3:
            with pytest.raises(ValueError):
                NormalOp(TWIST_Q, {key: 1})
