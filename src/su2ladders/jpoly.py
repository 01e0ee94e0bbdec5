"""Univariate polynomials in the label symbol j with exact rational coefficients.

These carry the closure-matrix entries, the right-function family and the
recurrence coefficients, so the zero-polynomial certificates (determinant and
row consistency) are exact statements rather than floating-point ones.  Each
holds integer numerators over one denominator, so the arithmetic runs on ints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Union

Rational = Union[int, Fraction]


def _rational(x: Rational) -> Rational:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


@dataclass(frozen=True)
class JPoly:
    """Polynomial sum_k (nums[k] / den) j^k with exact rational coefficients.

    Canonical form: integer numerators, lowest power first, with no trailing
    zero, over one positive denominator that shares no factor with all of
    them (zero is () over 1); a negative denominator moves into the
    numerators, a zero one raises ZeroDivisionError.  So equal polynomials
    have equal fields, and the ring operations are integer convolutions
    reduced by one gcd.  ``coeffs`` gives the reduced Fractions.
    """
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        nums, den = tuple(self.nums), self.den
        if not den:
            raise ZeroDivisionError("JPoly with a zero denominator")
        while nums and not nums[-1]:
            nums = nums[:-1]
        g = math.gcd(den, *nums) * (1 if den > 0 else -1)
        if g != 1:
            nums, den = tuple(a // g for a in nums), den // g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "JPoly":
        return JPoly(())

    @staticmethod
    def one() -> "JPoly":
        return JPoly((1,))

    @staticmethod
    def constant(c: Rational) -> "JPoly":
        return JPoly.from_coeffs((c,))

    @staticmethod
    def symbol() -> "JPoly":
        """The polynomial j itself."""
        return JPoly((0, 1))

    @staticmethod
    def from_coeffs(cs: Iterable[Rational]) -> "JPoly":
        cs = [_rational(c) for c in cs]
        den = math.lcm(*(c.denominator for c in cs))
        return JPoly(tuple(c.numerator * (den // c.denominator) for c in cs),
                     den)

    # -- ring operations ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def __add__(self, other: "JPoly") -> "JPoly":
        den = math.lcm(self.den, other.den)
        a = [x * (den // self.den) for x in self.nums]
        b = [x * (den // other.den) for x in other.nums]
        return JPoly(tuple(x + y for x, y in zip_longest(a, b, fillvalue=0)),
                     den)

    def __sub__(self, other: "JPoly") -> "JPoly":
        return self + (-other)

    def __neg__(self) -> "JPoly":
        return JPoly(tuple(-x for x in self.nums), self.den)

    def __mul__(self, other) -> "JPoly":
        if not isinstance(other, JPoly):
            c = _rational(other)
            return JPoly(tuple(x * c.numerator for x in self.nums),
                         self.den * c.denominator)
        out = [0] * max(len(self.nums) + len(other.nums) - 1, 0)
        for i, a in enumerate(self.nums):
            for k, b in enumerate(other.nums):
                out[i + k] += a * b
        return JPoly(tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def scalar_div(self, d: Rational) -> "JPoly":
        d = _rational(d)
        return JPoly(tuple(x * d.denominator for x in self.nums),
                     self.den * d.numerator)

    # -- evaluation and serialization ----------------------------------------

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int or Fraction input, float
        otherwise.  At x = p/q the rule runs on the integer numerators,
        scaled by powers of q, and the Fraction is reduced once at the end.
        A float x takes each coefficient as the nearest float."""
        if isinstance(x, (int, Fraction)):
            p, q = x.numerator, x.denominator
            acc, scale = 0, 1
            for a in reversed(self.nums):
                acc = acc * p + a * scale
                scale *= q
            return Fraction(acc * q, self.den * scale)
        acc = 0.0
        for a in reversed(self.nums):
            acc = acc * x + a / self.den
        return acc

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [numerator, denominator] pairs, lowest power first."""
        return [[c.numerator, c.denominator] for c in self.coeffs]

    @staticmethod
    def from_pairs(pairs: Iterable[Iterable[int]]) -> "JPoly":
        return JPoly.from_coeffs(Fraction(int(p), int(q)) for p, q in pairs)

    def __str__(self) -> str:
        terms = [str(c) if k == 0 else ("" if c == 1 else f"{c}*")
                 + ("j" if k == 1 else f"j^{k}")
                 for k, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms).replace("+ -", "- ") or "0"


def poly_matrix_det(rows: list[list[JPoly]]) -> JPoly:
    """Exact determinant of a small square matrix of JPoly entries.

    Laplace expansion along the first row; fine for the sizes that occur
    here (at most a handful of rows).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    acc = JPoly.zero() if n else JPoly.one()
    for col, entry in enumerate(rows[0] if n else []):
        if not entry.is_zero():
            term = entry * poly_matrix_det([r[:col] + r[col + 1:]
                                            for r in rows[1:]])
            acc = acc + term if col % 2 == 0 else acc - term
    return acc
