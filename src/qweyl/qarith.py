"""Exact arithmetic in Z[q] and its fraction field.

Everything downstream (polynomials in x and s, operator coefficients) is
built on two value types defined here:

  IntPoly  -- a univariate polynomial in q with arbitrary-precision integer
              coefficients, stored as an ascending coefficient tuple with the
              trailing (leading) zeros stripped.  The zero polynomial is the
              empty tuple.  IntPoly(iterable) checks outside input; every
              result of arithmetic, gcd and the q-blocks is built by the one
              unchecked builder, IntPoly._raw, which only strips zeros.
  QScalar  -- a fraction num/den of two IntPoly values kept in canonical
              form: gcd(num, den) = 1 in Z[q] (integer content and polynomial
              part both removed) and den has positive leading coefficient.
              Canonical form makes == structural, so values can be compared
              and hashed directly.

No floating point is used anywhere.  This module alone decides what a
scalar is: SCALAR_TYPES (QScalar, IntPoly, int), lifted by QScalar.of, which
every constructor downstream calls.  A float, Fraction or str raises
TypeError at the call.  A rational number (QScalar.from_fraction, an
evaluation point) must be an int or a Fraction.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Union


class NotPolynomial(ValueError):
    """A quantity claimed to be a polynomial in q has a nontrivial denominator."""


class PoleAtPoint(ZeroDivisionError):
    """The denominator of a rational function vanishes at the evaluation point."""


class IntPoly:
    """Polynomial in q over the integers; immutable."""

    __slots__ = ("coeffs",)

    def __new__(cls, coeffs: Iterable[int] = ()) -> "IntPoly":
        return cls._raw(tuple(map(operator.index, coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def _raw(cls, coeffs: tuple[int, ...]) -> "IntPoly":
        """The one unchecked builder: a tuple of ints, trailing zeros dropped."""
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        obj = object.__new__(cls)
        object.__setattr__(obj, "coeffs", coeffs[:n])
        return obj

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def q_power(cls, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("q_power requires a nonnegative exponent")
        return cls._raw((0,) * k + (1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly.const(other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(self.lead)

    def __neg__(self) -> "IntPoly":
        return IntPoly._raw(tuple(map(operator.neg, self.coeffs)))

    def __add__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly.const(other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly._raw(tuple(map(operator.add, a, b)) + a[len(b):])

    __radd__ = __add__

    def __sub__(self, other) -> "IntPoly":
        if not isinstance(other, (IntPoly, int)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IntPoly":
        return (-self) + other

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly.const(other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if a == (1,):
            return other
        if b == (1,):
            return self
        # strip the q-adic valuation of each operand; the product is shifted
        # back by their sum
        va = vb = 0
        while not a[va]:
            va += 1
        while not b[vb]:
            vb += 1
        a, b = a[va:], b[vb:]
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ca = a[0]
            body = b if ca == 1 else tuple(ca * cb for cb in b)
        # a shorter q-integer operand [L] = (1-q^L)/(1-q) multiplies the other
        # in one shift-subtract pass and one running-sum pass
        elif _is_q_integer(a):
            return q_product([(len(a), 1), (1, -1)], va + vb, base=IntPoly._raw(b))
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca == 0:
                    continue
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
            body = tuple(out)
        return IntPoly._raw((0,) * (va + vb) + body)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("IntPoly power must be nonnegative")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate(self, r: Union[int, Fraction]) -> Fraction:
        """Exact value at q = r (Horner)."""
        # at an int point the sum stays in the ints until the end
        r = _rational(r)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * r + c
        return Fraction(acc)

    def content(self) -> int:
        """Nonnegative gcd of the coefficients; 0 for the zero polynomial."""
        return math.gcd(*self.coeffs)

    def to_list(self) -> list[int]:
        """Ascending coefficient list, the wire format."""
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        # one f-string per nonzero term; a coefficient +-1 shows only its
        # sign, except at q^0
        coeffs = self.coeffs
        text = "".join([f"+{c}{s}" if c > 1 else f"{c}{s}" if c < -1
                        else f"{'+' if c > 0 else '-'}{s or 1}"
                        for c, s in zip(coeffs, _q_suffixes(len(coeffs))) if c])
        return text.removeprefix("+") or "0"


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))

# The suffix of q^i at index i ("", "q", "q^2", ...).  It is rebound to a
# longer tuple, never appended to, so every thread reads a complete table.
_Q_SUFFIXES: tuple[str, ...] = ("", "q")


def _q_suffixes(n: int) -> tuple[str, ...]:
    """The suffix table, at least n entries long."""
    global _Q_SUFFIXES
    table = _Q_SUFFIXES
    if len(table) < n:
        table = _Q_SUFFIXES = table + tuple(f"q^{i}" for i in range(len(table), n))
    return table


def _rational(r: Union[int, Fraction]) -> Union[int, Fraction]:
    """r itself, when it is an exact rational number: an int or a Fraction."""
    if not isinstance(r, (int, Fraction)):
        raise TypeError(f"not an exact rational (int or Fraction): {type(r).__name__}")
    return r


def _is_q_integer(coeffs: tuple[int, ...]) -> bool:
    """The coefficients are those of [L] = 1 + q + ... + q^(L-1), L >= 1."""
    return coeffs.count(1) == len(coeffs) > 0


def _divexact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Quotient a/b when b divides a in Z[q]; raises NotPolynomial otherwise.

    By a q-integer [L] = (1-q^L)/(1-q), it is a (1-q)/(1-q^L), one
    q_product pass each way, and a itself when L = 1.  Otherwise, top-down
    synthetic division: when the true quotient lies in Z[q], every step's
    leading-coefficient ratio is one of its (integer) coefficients.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if _is_q_integer(b.coeffs):
        return q_product([(1, 1), (len(b.coeffs), -1)], base=a)
    if a.is_zero():
        return ZERO
    if a.degree < b.degree:
        raise NotPolynomial(f"({a})/({b}) is not a polynomial")
    rem = list(a.coeffs)
    db, lb = b.degree, b.lead
    quot = [0] * (a.degree - db + 1)
    for i in reversed(range(len(quot))):
        c = rem[i + db]
        if c % lb != 0:
            raise NotPolynomial(f"({a})/({b}) is not a polynomial")
        t = c // lb
        quot[i] = t
        if t:
            for j, bc in enumerate(b.coeffs):
                rem[i + j] -= t * bc
    if any(rem):
        raise NotPolynomial(f"({a})/({b}) is not a polynomial")
    return IntPoly._raw(tuple(quot))


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder of a by b (b nonzero): stays in Z[q].

    By a q-integer [L], which is monic, it is the remainder itself: q^L is
    1 modulo [L], so the coefficients fold into L slots by degree mod L, and
    subtracting the top slot times [L] leaves degree below L-1.
    """
    if _is_q_integer(b.coeffs):
        size = len(b.coeffs)
        slots = [sum(a.coeffs[r::size]) for r in range(size)]
        top = slots.pop()
        return IntPoly._raw(tuple(c - top for c in slots))
    r = list(a.coeffs)
    db, lb = b.degree, b.lead
    while len(r) - 1 >= db and r:
        lr = r[-1]
        if lb != 1:
            r = [lb * c for c in r]
        dr = len(r) - 1
        for j, bc in enumerate(b.coeffs):
            r[dr - db + j] -= lr * bc
        while r and r[-1] == 0:
            r.pop()
    return IntPoly._raw(tuple(r))


def _primitive(a: IntPoly) -> IntPoly:
    """Primitive part with positive leading coefficient."""
    if a.is_zero():
        return ZERO
    c = a.content()
    if a.lead < 0:
        c = -c
    if c == 1:
        return a
    return IntPoly._raw(tuple(x // c for x in a.coeffs))


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd in Z[q] (content included), normalized to positive leading coefficient."""
    if a.is_zero():
        return _primitive(b) * b.content() if not b.is_zero() else ZERO
    if b.is_zero():
        return _primitive(a) * a.content()
    c = math.gcd(a.content(), b.content())
    pa, pb = _primitive(a), _primitive(b)
    while not pb.is_zero():
        pa, pb = pb, _primitive(_pseudo_rem(pa, pb))
    return pa * c


class QScalar:
    """Element of the field of rational functions in q, in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: Union[int, IntPoly], den: Union[int, IntPoly] = ONE):
        num = num if isinstance(num, IntPoly) else IntPoly.const(num)
        den = den if isinstance(den, IntPoly) else IntPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("QScalar denominator is zero")
        if num.is_zero():
            num, den = ZERO, ONE
        elif den != ONE:
            g = poly_gcd(num, den)
            if g != ONE:
                num = _divexact(num, g)
                den = _divexact(den, g)
            if den.lead < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QScalar is immutable")

    @classmethod
    def _raw(cls, num: IntPoly, den: IntPoly) -> "QScalar":
        """Bypass reduction for inputs already known canonical."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def of(cls, value: Scalar) -> "QScalar":
        """value as a QScalar: a QScalar unchanged, an int or IntPoly over 1."""
        if isinstance(value, QScalar):
            return value
        if not isinstance(value, SCALAR_TYPES):
            raise TypeError(f"not a scalar (QScalar, IntPoly or int): {type(value).__name__}")
        return cls._raw(value if isinstance(value, IntPoly) else IntPoly.const(value), ONE)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "QScalar":
        f = _rational(f)
        return cls(f.numerator, f.denominator)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        other = QScalar.of(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # with denominator 1 the value equals its numerator, so hash like it
        if self.den.coeffs == (1,):
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def __neg__(self) -> "QScalar":
        return QScalar._raw(-self.num, self.den)

    def __add__(self, other) -> "QScalar":
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        other = QScalar.of(other)
        if self.den == ONE and other.den == ONE:
            return QScalar._raw(self.num + other.num, ONE)
        return QScalar(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "QScalar":
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QScalar":
        return (-self) + other

    def __mul__(self, other) -> "QScalar":
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        other = QScalar.of(other)
        if self.den == ONE and other.den == ONE:
            return QScalar._raw(self.num * other.num, ONE)
        return QScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QScalar":
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        other = QScalar.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero QScalar")
        return QScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "QScalar":
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return QScalar.of(other) / self

    def __pow__(self, n: int) -> "QScalar":
        if n < 0:
            return QSCALAR_ONE / (self ** (-n))
        # canonical form is preserved: coprimality and the den sign survive powers
        return QScalar._raw(self.num ** n, self.den ** n)

    def evaluate(self, r: Union[int, Fraction]) -> Fraction:
        """Exact rational value at q = r; PoleAtPoint if the denominator vanishes."""
        d = self.den.evaluate(r)
        if d == 0:
            raise PoleAtPoint(f"denominator {self.den} vanishes at q = {r}")
        return self.num.evaluate(r) / d

    def to_json(self) -> dict:
        return {"num": self.num.to_list(), "den": self.den.to_list()}

    @classmethod
    def from_json(cls, data: dict) -> "QScalar":
        return cls(IntPoly(data["num"]), IntPoly(data["den"]))

    def __repr__(self) -> str:
        return f"QScalar({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"


SCALAR_TYPES = (QScalar, IntPoly, int)  # the values QScalar.of accepts
Scalar = Union[QScalar, IntPoly, int]

QSCALAR_ZERO = QScalar._raw(ZERO, ONE)
QSCALAR_ONE = QScalar._raw(ONE, ONE)
QSCALAR_Q = QScalar._raw(Q, ONE)


def q_pow(e: int) -> QScalar:
    """q^e as a QScalar, for any integer e (negative exponents allowed)."""
    if e >= 0:
        return QScalar._raw(IntPoly.q_power(e), ONE)
    return QScalar._raw(ONE, IntPoly.q_power(-e))


def q_integer(n: int) -> IntPoly:
    """[n] = 1 + q + ... + q^(n-1); [0] = 0.  Evaluates to n at q = 1."""
    if n < 0:
        raise ValueError("q_integer requires n >= 0")
    return IntPoly._raw((1,) * n)


def q_product(factors: Iterable[tuple[int, int]], shift: int = 0,
              base: IntPoly = ONE) -> IntPoly:
    """q^shift * base * prod (1-q^k)^e over the pairs (k, e) of factors, in Z[q].

    Pairs with the same k are netted first.  Every multiplication (one
    shift-subtract pass per factor) runs before any division (one running-sum
    pass per factor), so each division is exact if and only if the whole
    value is a polynomial: a nonzero remainder raises NotPolynomial.
    """
    if shift < 0:
        raise ValueError("q_product requires a nonnegative shift")
    net: dict[int, int] = {}
    for k, e in factors:
        net[k] = net.get(k, 0) + e
    for k, e in net.items():
        if e and k < 1:
            raise ValueError(f"factor 1-q^{k} needs k >= 1")
    if not shift and not any(net.values()):
        return base
    c = list(base.coeffs)
    if not c:
        return ZERO
    for k, e in net.items():
        for _ in range(e):
            pad = [0] * k
            c = list(map(operator.sub, c + pad, pad + c))
    for k, e in net.items():
        for _ in range(-e):
            for r in range(k):
                c[r::k] = itertools.accumulate(c[r::k])
            if len(c) <= k or any(c[-k:]):
                raise NotPolynomial(f"({base}) * prod (1-q^k)^e over (k, e) in "
                                    f"{sorted(net.items())} is not a polynomial in q")
            del c[-k:]
    return IntPoly._raw((0,) * shift + tuple(c))


# The q-blocks as factor lists for q_product: each block is a product of
# factors (1-q^k)^e, given as its (k, e) pairs and raised to `power` (-1
# divides by the block).

def _q_int(n: int, power: int = 1) -> list[tuple[int, int]]:
    """[n] = (1-q^n)/(1-q), for n >= 1."""
    return [(n, power), (1, -power)]


def _q_fact(n: int, power: int = 1) -> list[tuple[int, int]]:
    """[n]! = [1][2]...[n]."""
    return [f for i in range(1, n + 1) for f in _q_int(i, power)]


def _q_binom(n: int, k: int) -> list[tuple[int, int]]:
    """Gaussian binomial [n k] = prod_(i=1..k) (1-q^(n-k+i))/(1-q^i), for
    0 <= k <= n."""
    return [f for i in range(1, k + 1) for f in ((n - k + i, 1), (i, -1))]


def _one_plus_q(e: int, power: int = 1) -> list[tuple[int, int]]:
    """1+q^e = (1-q^(2e))/(1-q^e), for e >= 1."""
    return [(2 * e, power), (e, -power)]


def _q_even(j: int, power: int = 1) -> list[tuple[int, int]]:
    """(1+q)(1+q^2)...(1+q^j)."""
    return [f for e in range(1, j + 1) for f in _one_plus_q(e, power)]


def q_factorial(n: int) -> IntPoly:
    """[n]! = [1][2]...[n]; empty product 1."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    return q_product(_q_fact(n))


def gauss_binomial(n: int, k: int) -> IntPoly:
    """Gaussian binomial [n k] = [n]!/([k]![n-k]!); 0 when k < 0 or k > n.

    One q_product of the factor list _q_binom, with no gcd and no memo."""
    if n < 0:
        raise ValueError("gauss_binomial requires n >= 0")
    if k < 0 or k > n:
        return ZERO
    return q_product(_q_binom(n, k))


def to_polynomial(a: QScalar) -> IntPoly:
    """The IntPoly equal to a, when its canonical denominator is 1.

    Raises NotPolynomial otherwise; downstream this signals that a formula
    whose value must lie in Z[q] was transcribed wrongly.
    """
    if a.den != ONE:
        raise NotPolynomial(f"{a} is not a polynomial in q")
    return a.num
