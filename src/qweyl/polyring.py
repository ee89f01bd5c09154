"""Polynomials in x and s over the rational-function scalars.

XSPoly and opalg's NormalOp are the two kinds of one term map, _TermMap: a
map from a key of nonnegative int exponents to a nonzero QScalar, read-only
so that a value a memo table shares cannot change.  XSPoly's keys are
(x-degree, s-degree).  The public constructors check what they are given
(scalars go through qarith's QScalar.of, so qarith alone decides what one
is).  Every sum, product and action builds its result with the one
unchecked builder, _new, which sums (key, coefficient) pairs by key and
drops zeros; it checks nothing else.  Equality and hashing, written once,
read the terms and a NormalOp's twist; an XSPoly never equals a NormalOp.

The q-derivative and the classical derivative act in x only; s is a passive
parameter throughout.  The q-derivative is defined on the monomial basis,
x^a -> [a] x^(a-1), so that specializing q = 1 is total (the difference
quotient would be 0/0 there).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping, TypeVar, Union

from .qarith import (
    QScalar,
    QSCALAR_ONE,
    QSCALAR_ZERO,
    SCALAR_TYPES,
    Scalar,
    _rational,
    q_integer,
    q_pow,
)

Key = tuple[int, int]
_T = TypeVar("_T", bound="_TermMap")


class _TermMap:
    """The term map behind XSPoly and NormalOp; a key holds _WIDTH exponents."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] = ()):
        clean: dict[tuple[int, ...], QScalar] = {}
        for key, c in dict(terms).items():
            key = tuple(key)
            if len(key) != self._WIDTH:
                raise ValueError(f"{type(self).__name__} keys hold {self._WIDTH} exponents")
            key = tuple(map(index, key))
            if min(key) < 0:
                raise ValueError(f"{type(self).__name__} exponents must be nonnegative")
            c = QScalar.of(c)
            if c:
                clean[key] = c
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _new(self: _T, terms: Iterable[tuple[tuple[int, ...], QScalar]]) -> _T:
        """A value of this type with this value's other slots (a NormalOp's
        twist) whose terms are the given (key, coefficient) pairs, summed by
        key, minus zeros; nothing else is checked."""
        out: dict[tuple[int, ...], QScalar] = {}
        for k, c in terms:
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        obj = object.__new__(type(self))
        for name in type(self).__slots__:
            object.__setattr__(obj, name, getattr(self, name))
        object.__setattr__(obj, "terms", MappingProxyType({k: c for k, c in out.items() if c}))
        return obj

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms and all(
            getattr(self, name) == getattr(other, name) for name in type(self).__slots__)

    def __hash__(self) -> int:
        return hash((frozenset(self.terms.items()),
                     *[getattr(self, name) for name in type(self).__slots__]))

    def __neg__(self: _T) -> _T:
        return self._new((k, -c) for k, c in self.terms.items())

    def __add__(self: _T, other) -> _T:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._new(chain(self.terms.items(), other.terms.items()))

    def __sub__(self: _T, other) -> _T:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self: _T, c: Scalar) -> _T:
        c = QScalar.of(c)
        return self._new((k, v * c) for k, v in self.terms.items())


class XSPoly(_TermMap):
    """Polynomial in x and s with QScalar coefficients."""

    __slots__ = ()
    _WIDTH = 2

    @classmethod
    def zero(cls) -> "XSPoly":
        return cls()

    @classmethod
    def one(cls) -> "XSPoly":
        return cls({(0, 0): QSCALAR_ONE})

    @classmethod
    def x(cls, a: int = 1) -> "XSPoly":
        return cls({(a, 0): QSCALAR_ONE})

    @classmethod
    def s(cls, b: int = 1) -> "XSPoly":
        return cls({(0, b): QSCALAR_ONE})

    @classmethod
    def monomial(cls, a: int, b: int, coef: Scalar = 1) -> "XSPoly":
        return cls({(a, b): coef})

    @classmethod
    def const(cls, c: Scalar) -> "XSPoly":
        return cls({(0, 0): c})

    def coefficient(self, a: int, b: int) -> QScalar:
        return self.terms.get((a, b), QSCALAR_ZERO)

    def __mul__(self, other) -> "XSPoly":
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        if not isinstance(other, XSPoly):
            return NotImplemented
        return self._new(((a1 + a2, b1 + b2), c1 * c2) for (a1, b1), c1 in self.terms.items()
                         for (a2, b2), c2 in other.terms.items())

    __rmul__ = __mul__  # scalars commute with x and s

    def shift(self, dx: int, ds: int, coef: Scalar = 1) -> "XSPoly":
        """Multiply by coef * x^dx * s^ds; no resulting exponent may be negative."""
        coef = QScalar.of(coef)
        if coef.is_zero() or self.is_zero():
            return XSPoly.zero()
        dx, ds = index(dx), index(ds)
        out = self._new(((a + dx, b + ds), c * coef) for (a, b), c in self.terms.items())
        if min(map(min, out.terms)) < 0:
            raise ValueError("XSPoly exponents must be nonnegative")
        return out

    def dq(self) -> "XSPoly":
        """q-derivative in x: x^a s^b -> [a] x^(a-1) s^b, extended linearly."""
        return self._new(((a - 1, b), c * QScalar(q_integer(a)))
                         for (a, b), c in self.terms.items() if a)

    def ddx(self) -> "XSPoly":
        """Classical derivative in x; equals dq with q specialized to 1."""
        return self._new(((a - 1, b), c * a) for (a, b), c in self.terms.items() if a)

    def dilate(self, a: int, b: int) -> "XSPoly":
        """Substitution x -> q^a x, s -> q^b s (a, b may be negative)."""
        return self._new(((xa, sb), c * q_pow(a * xa + b * sb))
                         for (xa, sb), c in self.terms.items())

    def scale_s(self, c: Scalar) -> "XSPoly":
        """Substitution s -> c*s, e.g. the s -> -s and s -> (1-q)s arguments."""
        c = QScalar.of(c)
        return self._new(((a, b), v * c ** b) for (a, b), v in self.terms.items())

    def evaluate(self, x0: Union[int, Fraction], s0: Union[int, Fraction],
                 q0: Union[int, Fraction]) -> Fraction:
        """Exact value at (x0, s0) with q = q0; PoleAtPoint if a coefficient has one."""
        x0, s0 = Fraction(_rational(x0)), Fraction(_rational(s0))
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c.evaluate(q0) * x0 ** a * s0 ** b
        return total

    def sorted_terms(self) -> list[tuple[Key, QScalar]]:
        """Canonical order: descending x-degree, then descending s-degree."""
        return sorted(self.terms.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))

    def to_json(self) -> dict:
        return {"terms": [{"x": a, "s": b, "coef": c.to_json()}
                          for (a, b), c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, data: dict) -> "XSPoly":
        return cls({(t["x"], t["s"]): QScalar.from_json(t["coef"])
                    for t in data["terms"]})

    def __repr__(self) -> str:
        return f"XSPoly({self.terms.copy()!r})"

    def __str__(self) -> str:
        return _render_terms((c, (("s", b), ("x", a))) for (a, b), c in self.sorted_terms())


def _render_terms(terms: Iterable[tuple[QScalar, tuple[tuple[str, int], ...]]]) -> str:
    """Text of a sum of terms, each a coefficient and (name, exponent)
    factors, e.g. (1+q)*s*x^2.  Zero exponents are left out, and so is a
    coefficient 1 that has factors; a coefficient with a sign or a sum is
    put in parentheses.  The empty sum is "0"."""
    pieces = []
    for c, powers in terms:
        factors = [name if e == 1 else f"{name}^{e}" for name, e in powers if e]
        cs = str(c)
        if cs.startswith("(") or "+" in cs or "-" in cs:
            cs = f"({cs})"
        if factors and c == QSCALAR_ONE:
            pieces.append("*".join(factors))
        else:
            pieces.append("*".join([cs] + factors))
    return " + ".join(pieces) or "0"
