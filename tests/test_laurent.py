"""Sparse Laurent polynomials with integer or rational exponents."""

from fractions import Fraction

from affmult.laurent import LaurentPoly


def test_integer_and_fraction_exponents_match():
    p, q = LaurentPoly({Fraction(2): 1}), LaurentPoly({2: 1})
    assert p == q
    assert hash(p) == hash(q)
    for poly in (p, q):
        assert poly.coeff(2) == 1
        assert poly.coeff(Fraction(2)) == 1
    assert p != LaurentPoly({Fraction(5, 2): 1})
