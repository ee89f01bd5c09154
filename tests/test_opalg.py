"""Normal ordering engine: rewriting, composition, and operator action."""

import random
from fractions import Fraction

import pytest

from qweyl import opalg
from qweyl.opalg import (
    D,
    NormalOp,
    TWIST_ONE,
    TWIST_Q,
    TwistMismatch,
    X,
    affine_factor,
    normal_order,
    power,
    product,
)
from qweyl.polyring import XSPoly
from qweyl.qarith import IntPoly, QScalar, QSCALAR_ONE, QSCALAR_ZERO, q_integer, q_pow


# Inexact scalars: every entry point must raise TypeError on each.
INEXACT = (1.5, Fraction(1, 2), "1")


def naive_normal_order(word, twist, rng):
    """Independent oracle: rewrite D,X pairs at randomly chosen positions,
    one at a time, keeping an explicit list of pending words."""
    pending = [(QSCALAR_ONE, tuple(word))]
    acc = {}
    while pending:
        coef, w = pending.pop()
        positions = [i for i in range(len(w) - 1) if w[i] == D and w[i + 1] == X]
        if not positions:
            key = (w.count(X), w.count(D))
            acc[key] = acc.get(key, QSCALAR_ZERO) + coef
        else:
            i = rng.choice(positions)
            pending.append((coef * twist, w[:i] + (X, D) + w[i + 2:]))
            pending.append((coef, w[:i] + w[i + 2:]))
    return {k: v for k, v in acc.items() if not v.is_zero()}


def random_word(rng, max_len):
    return tuple(rng.choice((X, D)) for _ in range(rng.randint(0, max_len)))


def x_plus_sd_squared():
    """(X+sD)^2 written out as the sum of its four words."""
    return (normal_order((X, X), TWIST_Q) + normal_order((X, D), TWIST_Q, 1, 1)
            + normal_order((D, X), TWIST_Q, 1, 1) + normal_order((D, D), TWIST_Q, 1, 2))


class TestNormalOrder:
    def test_single_commutation(self):
        op = normal_order("DX", TWIST_Q)
        assert op.terms == {(1, 1, 0): TWIST_Q, (0, 0, 0): QSCALAR_ONE}

    def test_empty_word(self):
        op = normal_order("", TWIST_Q)
        assert op == NormalOp.identity(TWIST_Q)

    def test_x_plus_sd_squared(self):
        op = x_plus_sd_squared()
        assert op.terms == {
            (0, 2, 2): QSCALAR_ONE,
            (1, 1, 1): QScalar(IntPoly([1, 1])),
            (0, 0, 1): QSCALAR_ONE,
            (2, 0, 0): QSCALAR_ONE,
        }

    def test_confluence_random_orders(self):
        rng = random.Random(20110720)
        for twist in (TWIST_Q, TWIST_ONE):
            for _ in range(60):
                word = random_word(rng, 8)
                engine = normal_order(word, twist)
                for _ in range(3):
                    naive = naive_normal_order(word, twist, rng)
                    assert {(a, b, 0): c for (a, b), c in naive.items()} == engine.terms

    def test_repeated_words_collect(self):
        e = normal_order((X,), TWIST_Q) + normal_order((X,), TWIST_Q, 2)
        assert e.terms == {(1, 0, 0): QScalar(3)}

    def test_unknown_letter_rejected(self):
        for word in ("XY", "dX", ("X", "XD"), ("D", 1)):
            with pytest.raises(ValueError, match="unknown generator"):
                normal_order(word, TWIST_Q)


class TestDeepWords:
    """The one memo, the rule's row D X^a, fills upward in a, and D^b
    reaches a word one power of D at a time: with the memo cold, a word
    with 300 X's, or D^300 X, needs a few frames, not one per power."""

    A = 300

    def test_d_past_many_x(self, spare_frames):
        a = self.A
        opalg._D_POW_PAST_X.clear()
        with spare_frames(50):
            op = normal_order("D" + "X" * a, TWIST_Q)
        assert op.terms == {(a, 1, 0): q_pow(a), (a - 1, 0, 0): QScalar(q_integer(a))}

    def test_d_times_many_x(self, spare_frames):
        a = self.A
        opalg._D_POW_PAST_X.clear()
        with spare_frames(50):
            op = NormalOp(TWIST_Q, {(0, 1, 0): 1}) * NormalOp(TWIST_Q, {(a, 0, 0): 1})
        assert op.terms == {(a, 1, 0): q_pow(a), (a - 1, 0, 0): QScalar(q_integer(a))}
        assert len(opalg._D_POW_PAST_X) == a

    def test_ddd_past_many_x(self, spare_frames):
        a = self.A
        opalg._D_POW_PAST_X.clear()
        with spare_frames(50):
            op = normal_order("DDD" + "X" * a, TWIST_Q)
        assert len(op.terms) == 4
        assert op.terms[(a, 3, 0)] == q_pow(3 * a)
        assert op.terms[(a - 3, 0, 0)] == QScalar(
            q_integer(a) * q_integer(a - 1) * q_integer(a - 2))

    def test_many_d_past_x(self, spare_frames):
        b = self.A
        opalg._D_POW_PAST_X.clear()
        with spare_frames(50):
            op = NormalOp(TWIST_Q, {(0, b, 0): 1}) * NormalOp(TWIST_Q, {(1, 0, 0): 1})
        assert op.terms == {(1, b, 0): q_pow(b), (0, b - 1, 0): QScalar(q_integer(b))}
        # only the rule's row is memoized, and D^b X needs its one entry, D X
        assert list(opalg._D_POW_PAST_X) == [(TWIST_Q, 1)]


class TestMul:
    def test_already_normal(self):
        x = NormalOp(TWIST_Q, {(1, 0, 0): 1})
        d = NormalOp(TWIST_Q, {(0, 1, 0): 1})
        assert (x * d).terms == {(1, 1, 0): QSCALAR_ONE}

    def test_commutation(self):
        x = NormalOp(TWIST_Q, {(1, 0, 0): 1})
        d = NormalOp(TWIST_Q, {(0, 1, 0): 1})
        assert (d * x).terms == {(1, 1, 0): TWIST_Q, (0, 0, 0): QSCALAR_ONE}

    def test_affine_pair(self):
        # (X+qsD)(X+sD) = X^2 + (1+q^2)sXD + qs + qs^2D^2
        left = affine_factor(q_pow(1), TWIST_Q)
        right = affine_factor(1, TWIST_Q)
        got = left * right
        assert got.terms == {
            (2, 0, 0): QSCALAR_ONE,
            (1, 1, 1): QScalar(IntPoly([1, 0, 1])),
            (0, 0, 1): QScalar(IntPoly([0, 1])),
            (0, 2, 2): QScalar(IntPoly([0, 1])),
        }

    def test_identity_neutral(self):
        a = affine_factor(q_pow(2), TWIST_Q) * affine_factor(1, TWIST_Q)
        e = NormalOp.identity(TWIST_Q)
        assert e * a == a
        assert a * e == a

    def test_associative(self):
        f1 = affine_factor(q_pow(2), TWIST_Q)
        f2 = affine_factor(q_pow(1), TWIST_Q)
        f3 = affine_factor(1, TWIST_Q)
        assert (f1 * f2) * f3 == f1 * (f2 * f3)

    def test_twist_mismatch(self):
        with pytest.raises(TwistMismatch):
            affine_factor(1, TWIST_Q) * affine_factor(1, TWIST_ONE)

    def test_cancelled_terms_dropped(self):
        # at twist 1, (D - X)(D + X) = D^2 + 1 - X^2: the XD terms cancel
        left = NormalOp(TWIST_ONE, {(0, 1, 0): 1, (1, 0, 0): -1})
        right = NormalOp(TWIST_ONE, {(0, 1, 0): 1, (1, 0, 0): 1})
        assert (left * right).terms == {
            (0, 2, 0): QSCALAR_ONE, (0, 0, 0): QSCALAR_ONE, (2, 0, 0): -QSCALAR_ONE}
        assert (left + (-left)).terms == {}
        assert left.scale(0).terms == {}
        assert (left * 0).terms == {}

    def test_matches_naive_rewriting_of_concatenation(self):
        rng = random.Random(1006)
        for twist in (TWIST_Q, TWIST_ONE):
            for _ in range(60):
                w1, w2 = random_word(rng, 6), random_word(rng, 6)
                got = normal_order(w1, twist) * normal_order(w2, twist)
                naive = naive_normal_order(w1 + w2, twist, rng)
                assert got.terms == {(a, b, 0): c for (a, b), c in naive.items()}

    def test_faithfulness_on_monomials(self):
        rng = random.Random(4)
        for _ in range(15):
            a = NormalOp(TWIST_Q, {
                (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)):
                    QScalar(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))})
            b = NormalOp(TWIST_Q, {
                (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)):
                    QScalar(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))})
            ab = a * b
            for m in range(13):
                xm = XSPoly.x(m)
                assert ab.apply(xm) == a.apply(b.apply(xm))


class TestAffineFactor:
    def test_examples(self):
        assert affine_factor(1, TWIST_Q).terms == {
            (1, 0, 0): QSCALAR_ONE, (0, 1, 1): QSCALAR_ONE}
        c = q_pow(5)
        assert affine_factor(c, TWIST_Q).terms[(0, 1, 1)] == c
        assert affine_factor(IntPoly([1, -1]), TWIST_Q).terms[(0, 1, 1)] == IntPoly([1, -1])


class TestScalars:
    @pytest.mark.parametrize("bad", INEXACT)
    def test_inexact_scalars_rejected(self, bad):
        e = NormalOp.identity(TWIST_Q)
        for call in (lambda: NormalOp(TWIST_Q, {(1, 0, 0): bad}), lambda: NormalOp(bad),
                     lambda: e.scale(bad),
                     lambda: e * bad, lambda: bad * e,
                     lambda: normal_order("X", TWIST_Q, bad),
                     lambda: normal_order("", TWIST_Q, bad),
                     lambda: normal_order("X", bad),
                     lambda: affine_factor(bad, TWIST_Q)):
            with pytest.raises(TypeError):
                call()

    def test_specialize_rejects_inexact_point(self):
        op = affine_factor(1, TWIST_Q)
        for point in (0.5, "1/2"):
            with pytest.raises(TypeError):
                op.specialize_q(point)
        assert op.specialize_q(Fraction(1, 2)) == affine_factor(1, QScalar(1, 2))

    def test_non_integer_exponents_rejected(self):
        for e in INEXACT:
            with pytest.raises(TypeError):
                NormalOp(TWIST_Q, {(e, 0, 0): 1})
            with pytest.raises(TypeError):
                NormalOp(TWIST_Q, {(0, 0, e): 1})
            with pytest.raises(TypeError):
                normal_order("X", TWIST_Q, s_power=e)

    def test_exponents_stored_as_int(self):
        # a bool is an index, but the key and the wire format hold plain ints
        op = NormalOp(TWIST_Q, {(True, False, True): 1})
        assert [type(e) for e in next(iter(op.terms))] == [int, int, int]
        assert op.to_json()["terms"][0] == {"x": 1, "d": 0, "s": 1,
                                            "coef": {"num": [1], "den": [1]}}
        assert [type(e) for e in next(iter(normal_order("XD", TWIST_Q, 1, True).terms))] \
            == [int, int, int]

    def test_sum_needs_normalop(self):
        # a scalar or a bare word is not an operator: the sum raises TypeError
        word = normal_order("X", TWIST_Q)
        for bad in (5, QScalar(5), "X"):
            with pytest.raises(TypeError):
                word + bad
            with pytest.raises(TypeError):
                bad + word
        assert (word + normal_order("D", TWIST_Q, 2)).terms == \
            {(1, 0, 0): QScalar(1), (0, 1, 0): QScalar(2)}

    def test_int_bool_and_intpoly_scalars(self):
        e = NormalOp.identity(TWIST_Q)
        p = IntPoly([1, 1])
        assert p * e == e * p == e.scale(p) == NormalOp(TWIST_Q, {(0, 0, 0): p})
        assert e.scale(True) == True * e == e
        assert normal_order("DX", TWIST_Q, True) == normal_order("DX", TWIST_Q, 1)


class TestProduct:
    def test_empty_is_identity(self):
        assert product([]) == NormalOp.identity(TWIST_Q)
        assert product([], twist=TWIST_ONE) == NormalOp.identity(TWIST_ONE)

    def test_pair(self):
        got = product([affine_factor(q_pow(1), TWIST_Q), affine_factor(1, TWIST_Q)])
        assert got == affine_factor(q_pow(1), TWIST_Q) * affine_factor(1, TWIST_Q)

    def test_odd_pair(self):
        # (X+qsD)(X+q^3 sD) = X^2 + (q^2+q^3)sXD + qs + q^4 s^2 D^2
        got = product([affine_factor(q_pow(1), TWIST_Q),
                       affine_factor(q_pow(3), TWIST_Q)])
        assert got.terms == {
            (2, 0, 0): QSCALAR_ONE,
            (1, 1, 1): QScalar(IntPoly([0, 0, 1, 1])),
            (0, 0, 1): QScalar(IntPoly([0, 1])),
            (0, 2, 2): QScalar(IntPoly([0, 0, 0, 0, 1])),
        }

    def test_twist_mismatch(self):
        with pytest.raises(TwistMismatch):
            product([affine_factor(1, TWIST_Q), affine_factor(1, TWIST_ONE)])


class TestPower:
    def test_zeroth(self):
        base = affine_factor(1, TWIST_Q)
        assert power(base, 0) == NormalOp.identity(TWIST_Q)
        with pytest.raises(ValueError):
            power(base, -1)

    def test_square_matches_unreduced_expression(self):
        base = affine_factor(1, TWIST_Q)
        assert power(base, 2) == x_plus_sd_squared()

    def test_cube(self):
        got = power(affine_factor(1, TWIST_Q), 3)
        br3 = IntPoly([1, 1, 1])
        assert got.terms == {
            (0, 3, 3): QSCALAR_ONE,
            (1, 2, 2): QScalar(br3),
            (0, 1, 2): QScalar(IntPoly([2, 1])),
            (2, 1, 1): QScalar(br3),
            (1, 0, 1): QScalar(IntPoly([2, 1])),
            (3, 0, 0): QSCALAR_ONE,
        }

    def test_degree_bound_and_parity(self):
        base = affine_factor(1, TWIST_Q)
        op = NormalOp.identity(TWIST_Q)
        for n in range(1, 9):
            op = op * base
            for (a, b, _m) in op.terms:
                assert a + b <= n
                assert (a + b - n) % 2 == 0


class TestApply:
    def test_identity(self):
        p = XSPoly({(2, 1): 3, (0, 0): 1})
        assert NormalOp.identity(TWIST_Q).apply(p) == p

    def test_sd_on_x_squared(self):
        sd = NormalOp(TWIST_Q, {(0, 1, 1): 1})
        assert sd.apply(XSPoly.x(2)) == XSPoly.monomial(1, 1, IntPoly([1, 1]))

    def test_affine_on_one(self):
        assert affine_factor(1, TWIST_Q).apply(XSPoly.one()) == XSPoly.x()

    def test_cancelled_terms_dropped(self):
        # X and X^2 D both send x*s to x^2*s, and x to x^2
        x_minus_x2d = NormalOp(TWIST_Q, {(1, 0, 0): 1, (2, 1, 0): -1})
        p = XSPoly({(1, 1): 3, (2, 0): IntPoly([1, 1]), (0, 0): -1})
        assert x_minus_x2d.apply(p).terms == {(3, 0): QScalar(IntPoly([0, -1, -1])),
                                             (1, 0): QScalar(-1)}
        assert x_minus_x2d.apply(XSPoly.x()).is_zero()

    def test_linear(self):
        op = power(affine_factor(1, TWIST_Q), 2)
        p1, p2 = XSPoly.x(3), XSPoly.monomial(1, 2, 5)
        assert op.apply(p1 + p2) == op.apply(p1) + op.apply(p2)

    def test_twist_other_than_q_refused(self):
        # D acts as the q-derivative, so at twist 1 apply would not respect
        # composition: (a*a).apply(x^2) and a.apply(a.apply(x^2)) differ
        a = affine_factor(1, TWIST_ONE)
        for op in (a, a * a, NormalOp.identity(TWIST_ONE), NormalOp(TWIST_ONE, {})):
            with pytest.raises(TwistMismatch):
                op.apply(XSPoly.x(2))


class TestSpecialize:
    def test_classical_engine_matches_q1_specialization(self):
        base_q = affine_factor(1, TWIST_Q)
        base_1 = affine_factor(1, TWIST_ONE)
        for n in range(7):
            assert power(base_q, n).specialize_q(1) == power(base_1, n)

    def test_drops_vanishing_terms(self):
        one_minus_q = QScalar(IntPoly([1, -1]))
        op = NormalOp(TWIST_Q, {(1, 0, 0): one_minus_q, (0, 0, 0): 1})
        assert op.specialize_q(1).terms == {(0, 0, 0): QSCALAR_ONE}


class TestSerialization:
    def test_json_round_trip(self):
        op = power(affine_factor(1, TWIST_Q), 2)
        data = op.to_json()
        assert NormalOp.from_json(data) == op
        # ascending by D power, then X power
        order = [(t["d"], t["x"]) for t in data["terms"]]
        assert order == sorted(order)

    def test_str_rendering(self):
        op = power(affine_factor(1, TWIST_Q), 2)
        assert str(op) == "s^2*D^2 + (1+q)*s*X*D + s + X^2"
        assert str(NormalOp(TWIST_Q, {})) == "0"

    def test_terms_read_only_repr_as_dict(self):
        op = affine_factor(2, TWIST_Q)
        with pytest.raises(TypeError):
            op.terms[(1, 0, 0)] = QScalar(3)
        assert op.terms == {(1, 0, 0): QScalar(1), (0, 1, 1): QScalar(2)}
        assert hash(op) == hash(NormalOp(TWIST_Q, dict(op.terms)))
        assert repr(op) == ("NormalOp(twist=q, terms={(1, 0, 0): QScalar([1], [1]), "
                            "(0, 1, 1): QScalar([2], [1])})")
