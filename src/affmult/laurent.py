"""Sparse Laurent polynomials in one variable q.

Coefficients are integers, and every polynomial the library builds has
integer exponents: the degree shift of the flag multiplicities is an
integer.  Stored as a dict from exponent to non-zero coefficient.  An
integer and the equal ``Fraction`` compare and hash alike, so ``coeff``
still answers a ``Fraction`` key, as ``flag-mult --r`` passes one: 2 and
Fraction(2) read the same coefficient, and 5/2 reads 0.
"""

from __future__ import annotations


class LaurentPoly:
    """Integer-coefficient polynomial in q, keyed by exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    self.coeffs[e] = c

    def coeff(self, e) -> int:
        return self.coeffs.get(e, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def min_degree(self):
        return min(self.coeffs)

    def max_degree(self):
        return max(self.coeffs)

    def shift(self, s) -> "LaurentPoly":
        """Multiply by q**s."""
        return LaurentPoly({e + s: c for e, c in self.coeffs.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_palindromic(self) -> bool:
        """Whether coefficients are symmetric about the middle degree."""
        if self.is_zero():
            return True
        lo, hi = self.min_degree(), self.max_degree()
        return all(c == self.coeff(lo + hi - e) for e, c in self.coeffs.items())

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for e in self.support():
            c = self.coeffs[e]
            if e == 0:
                terms.append(f"{c}")
            else:
                mono = "q" if e == 1 else f"q^{e}"
                terms.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(terms)
