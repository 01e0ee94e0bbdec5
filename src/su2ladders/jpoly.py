"""Univariate polynomials in the label symbol j with exact rational coefficients.

These carry the closure-matrix entries, the right-function family and the
recurrence coefficients, so the zero-polynomial certificates (determinant and
row consistency) are exact statements rather than floating-point ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


@dataclass(frozen=True)
class JPoly:
    """Polynomial sum_k c_k j^k with Fraction coefficients, lowest power first.

    Canonical form: no trailing zero coefficient; the zero polynomial has an
    empty coefficient tuple.  All ring operations are exact.
    """
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(_frac(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "JPoly":
        return JPoly(())

    @staticmethod
    def one() -> "JPoly":
        return JPoly((Fraction(1),))

    @staticmethod
    def constant(c: Rational) -> "JPoly":
        return JPoly((_frac(c),))

    @staticmethod
    def symbol() -> "JPoly":
        """The polynomial j itself."""
        return JPoly((Fraction(0), Fraction(1)))

    @staticmethod
    def from_coeffs(cs: Iterable[Rational]) -> "JPoly":
        return JPoly(tuple(_frac(c) for c in cs))

    # -- ring operations ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other: "JPoly") -> "JPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return JPoly(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "JPoly") -> "JPoly":
        return self + (-other)

    def __neg__(self) -> "JPoly":
        return JPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "JPoly":
        if isinstance(other, JPoly):
            if self.is_zero() or other.is_zero():
                return JPoly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for k, b in enumerate(other.coeffs):
                    out[i + k] += a * b
            return JPoly(tuple(out))
        return JPoly(tuple(c * _frac(other) for c in self.coeffs))

    __rmul__ = __mul__

    def scalar_div(self, d: Rational) -> "JPoly":
        d = _frac(d)
        if d == 0:
            raise ZeroDivisionError("division of a JPoly by zero")
        return JPoly(tuple(c / d for c in self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, JPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- evaluation and serialization ----------------------------------------

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int or Fraction input, float
        otherwise.  At an int the rule runs on integers over the common
        denominator of the coefficients, which is reduced once at the end."""
        if isinstance(x, int):
            den = math.lcm(*(c.denominator for c in self.coeffs))
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * x + c.numerator * (den // c.denominator)
            return Fraction(acc, den)
        if isinstance(x, Fraction):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [numerator, denominator] pairs, lowest power first."""
        return [[c.numerator, c.denominator] for c in self.coeffs]

    @staticmethod
    def from_pairs(pairs: Iterable[Iterable[int]]) -> "JPoly":
        return JPoly(tuple(Fraction(int(p), int(q)) for p, q in pairs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*j" if c != 1 else "j")
            else:
                parts.append(f"{c}*j^{k}" if c != 1 else f"j^{k}")
        return " + ".join(parts).replace("+ -", "- ")


def poly_matrix_det(rows: list[list[JPoly]]) -> JPoly:
    """Exact determinant of a small square matrix of JPoly entries.

    Laplace expansion along the first row; fine for the sizes that occur
    here (at most a handful of rows).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return JPoly.one()
    if n == 1:
        return rows[0][0]
    acc = JPoly.zero()
    for col in range(n):
        entry = rows[0][col]
        if entry.is_zero():
            continue
        minor = [r[:col] + r[col + 1:] for r in rows[1:]]
        term = entry * poly_matrix_det(minor)
        acc = acc + (term if col % 2 == 0 else -term)
    return acc
