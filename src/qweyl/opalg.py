"""The two-generator operator algebra and its normal-ordering engine.

Words over the alphabet {X, D} are rewritten with the single rule

    D * X  ->  twist * X * D  +  1

until every word has the shape X^a D^b.  The twist scalar is data: q gives
the q-Weyl algebra (D acts as the q-derivative), 1 the classical one.  The
scalar s commutes with both generators and is carried as a separate power on
each term, never inside words.

There is one rewrite path.  The only memo table holds the rule's row, the
normal form of D X^a, filled upward in a by the rule.  Composing A after B
pushes D through B one power at a time, D^k B = D (D^(k-1) B), reading
D X^a from that row, then sums c X^a s^m (D^b B) over the terms of A.
An operator acts on a polynomial p in the same two steps: a ladder of
q-derivatives D^k p, then one summed build of c x^a s^m (D^b p) over its
terms.
There is one operator type, NormalOp: normal_order(word, twist) composes
the word's letters, a sum of words is the sum of their NormalOps, and a
power is the composition of its factors, so all go through the same
product.  The result is independent of rewrite order (confluence); the test
suite checks this against a naive rewriter that picks random positions.

NormalOp is polyring's one term map, keyed (X power, D power, s power), plus
a twist.  Its constructor checks what it is given; sums, negation, scale,
each ladder rung and the composition itself build through the term map's
one summing builder and keep the twist, which equality also reads.
NormalOp values are the ground truth ("oracle") that every closed-form
coefficient formula in the families module is verified against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Mapping, Sequence, Union

from .polyring import XSPoly, _TermMap, _render_terms
from .qarith import (
    QScalar,
    QSCALAR_ONE,
    QSCALAR_Q,
    QSCALAR_ZERO,
    SCALAR_TYPES,
    Scalar,
)

X = "X"
D = "D"

Key = tuple[int, int, int]  # (X power, D power, s power)

TWIST_Q = QSCALAR_Q
TWIST_ONE = QSCALAR_ONE


class TwistMismatch(ValueError):
    """Operators from algebras with different commutation scalars were combined."""


# Normal forms of D X^a, the rule's row, memoized per twist in one flat dict
# keyed (twist, a).  Read-mostly; concurrent readers are safe, and an entry is
# published only once built, so a missed one is simply recomputed.
_D_POW_PAST_X: dict[tuple[QScalar, int], dict[tuple[int, int], QScalar]] = {}


def _d_past_x_pow(a: int, twist: QScalar) -> dict[tuple[int, int], QScalar]:
    """Normal form of D X^a, keyed (X power, D power).

    The row fills upward in a from the highest entry already present, so no
    call recurses, however large a is."""
    for known in range(a, -1, -1):
        row = _D_POW_PAST_X.get((twist, known)) if known else {(0, 1): QSCALAR_ONE}
        if row is not None:
            break
    for i in range(known + 1, a + 1):
        # D X^i = (twist*X*D + 1) X^(i-1) = twist * X * (D X^(i-1)) + X^(i-1)
        row = {(x + 1, d): twist * c for (x, d), c in row.items()}
        row[(i - 1, 0)] = row.get((i - 1, 0), QSCALAR_ZERO) + QSCALAR_ONE
        _D_POW_PAST_X[(twist, i)] = row
    return row


class NormalOp(_TermMap):
    """A normally ordered operator in the algebra of its twist: a sum of
    c * X^a D^b s^m terms, keyed (a, b, m)."""

    __slots__ = ("twist",)
    _WIDTH = 3

    def __init__(self, twist: Scalar, terms: Mapping[Key, Scalar] = ()):
        super().__init__(terms)
        object.__setattr__(self, "twist", QScalar.of(twist))

    @classmethod
    def identity(cls, twist: QScalar) -> "NormalOp":
        return cls(twist, {(0, 0, 0): QSCALAR_ONE})

    @classmethod
    def from_polynomial(cls, p: XSPoly, twist: QScalar) -> "NormalOp":
        """The multiplication operator f(X, s) for a polynomial f(x, s)."""
        return cls(twist, {(a, 0, m): c for (a, m), c in p.terms.items()})

    def __add__(self, other) -> "NormalOp":
        if isinstance(other, NormalOp) and self.twist != other.twist:
            raise TwistMismatch("cannot add operators with different twists")
        return super().__add__(other)

    def __mul__(self, other) -> "NormalOp":
        """Normal form of the composition self after other."""
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        if not isinstance(other, NormalOp):
            return NotImplemented
        if self.twist != other.twist:
            raise TwistMismatch("cannot compose operators with different twists")
        # ladder[k] is D^k * other, each rung D times the one before
        ladder = [other]
        for _ in range(max((b for _, b, _ in self.terms), default=0)):
            ladder.append(self._new(((x, d + b, m), c * c2)
                                    for (a, b, m), c in ladder[-1].terms.items()
                                    for (x, d), c2 in _d_past_x_pow(a, self.twist).items()))
        return self._new(((a1 + a2, b2, m1 + m2), c1 * c2)
                         for (a1, b1, m1), c1 in self.terms.items()
                         for (a2, b2, m2), c2 in ladder[b1].terms.items())

    __rmul__ = __mul__  # scalars are central

    def apply(self, p: XSPoly) -> XSPoly:
        """The one operator action: X multiplies by x, D is the q-derivative,
        s^m multiplies by s^m.  It takes composition's two steps: a ladder
        of q-derivatives of p up to the largest D power, then one summed
        build over this operator's terms.  Only at the symbolic twist q does
        this respect composition, so any other twist raises TwistMismatch;
        specialize the result for q = 1 checks."""
        if self.twist != TWIST_Q:
            raise TwistMismatch("apply needs the twist q: D acts as the q-derivative")
        ladder = [p]
        for _ in range(max((b for _, b, _ in self.terms), default=0)):
            ladder.append(ladder[-1].dq())
        return p._new(((x + a, s + m), v * c) for (a, b, m), c in self.terms.items()
                      for (x, s), v in ladder[b].terms.items())

    def specialize_q(self, r: Union[int, Fraction]) -> "NormalOp":
        """Evaluate every coefficient (and the twist) at q = r exactly."""
        return NormalOp(QScalar.from_fraction(self.twist.evaluate(r)),
                        {k: QScalar.from_fraction(c.evaluate(r)) for k, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Key, QScalar]]:
        """Display order: descending D power, ascending X power within it."""
        return sorted(self.terms.items(), key=lambda kv: (-kv[0][1], kv[0][0], kv[0][2]))

    def to_json(self) -> dict:
        entries = sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0], kv[0][2]))
        return {"twist": self.twist.to_json(),
                "terms": [{"x": a, "d": b, "s": m, "coef": c.to_json()}
                          for (a, b, m), c in entries]}

    @classmethod
    def from_json(cls, data: dict) -> "NormalOp":
        return cls(QScalar.from_json(data["twist"]),
                   {(t["x"], t["d"], t["s"]): QScalar.from_json(t["coef"])
                    for t in data["terms"]})

    def __repr__(self) -> str:
        return f"NormalOp(twist={self.twist!s}, terms={self.terms.copy()!r})"

    def __str__(self) -> str:
        return _render_terms((c, (("s", m), ("X", a), ("D", b)))
                             for (a, b, m), c in self.sorted_terms())


def normal_order(word: Sequence[str], twist: QScalar, coef: Scalar = 1,
                 s_power: int = 0) -> NormalOp:
    """Normal form of coef * s^s_power * word: the composition of the word's
    letters, right to left, applied to coef * s^s_power.  A sum of words is
    the sum of their normal forms.

    Raises ValueError for a letter other than X or D; the NormalOp
    constructor checks the coefficient, twist and exponent."""
    letters = {X: NormalOp(twist, {(1, 0, 0): QSCALAR_ONE}),
               D: NormalOp(twist, {(0, 1, 0): QSCALAR_ONE})}
    op = NormalOp(twist, {(0, 0, s_power): coef})
    for letter in reversed(word):
        if letter not in letters:
            raise ValueError(f"unknown generator {letter!r}")
        op = letters[letter] * op
    return op


def affine_factor(c: Scalar, twist: QScalar) -> NormalOp:
    """The operator X + c*s*D."""
    return NormalOp(twist, {(1, 0, 0): QSCALAR_ONE, (0, 1, 1): c})


def product(factors: Sequence[NormalOp], twist: QScalar | None = None) -> NormalOp:
    """Left-to-right composition of all factors by NormalOp's `*`, which
    raises TwistMismatch for factors with different twists.  The empty
    product is the identity in the algebra named by `twist` (defaulting to
    the symbolic q); a nonempty one must be in that algebra if named."""
    if not factors:
        return NormalOp.identity(TWIST_Q if twist is None else twist)
    if twist is not None and factors[0].twist != twist:
        raise TwistMismatch("product factors carry a twist other than the one named")
    return reduce(mul, factors)


def power(base: NormalOp, n: int) -> NormalOp:
    """n-fold composition of base with itself; power(base, 0) is the identity."""
    if n < 0:
        raise ValueError("operator power must be nonnegative")
    return product([base] * n, base.twist)
