"""Exact Cartan data for types A_n and A_n^(1).

Weights of the finite algebra are stored by their values on the simple
coroots h_1, ..., h_n (fundamental-weight coordinates).  Affine weights
carry a finite part, an integer level and an exact rational degree.  All
bilinear-form values are Fractions with denominator dividing n + 1; no
floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .records import Record


def residue(a: int, n: int) -> int:
    """Representative of a modulo n + 1 inside [0, n]."""
    return a % (n + 1)


class FiniteWeight(Record):
    """Integral weight of sl_{n+1} in fundamental-weight coordinates."""

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: tuple[int, ...]):
        if len(coords) != n:
            raise ValueError("coordinate vector has wrong length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.coords))

    def __add__(self, other: "FiniteWeight") -> "FiniteWeight":
        self._check(other)
        return FiniteWeight(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FiniteWeight") -> "FiniteWeight":
        self._check(other)
        return FiniteWeight(self.n, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, k: int) -> "FiniteWeight":
        return FiniteWeight(self.n, tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def __neg__(self) -> "FiniteWeight":
        return FiniteWeight(self.n, tuple(-a for a in self.coords))

    def _check(self, other: "FiniteWeight") -> None:
        if self.n != other.n:
            raise ValueError("rank mismatch")

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def height_sum(self) -> int:
        """|lambda| = sum of the values on the simple coroots."""
        return sum(self.coords)

    def w0_image(self) -> "FiniteWeight":
        """Action of the longest Weyl element: w0(mu) = -reverse(mu)."""
        return FiniteWeight(self.n, tuple(-c for c in reversed(self.coords)))

    def minus_w0(self) -> "FiniteWeight":
        """-w0(mu); for type A this reverses the coordinates."""
        return FiniteWeight(self.n, tuple(reversed(self.coords)))


def omega(n: int, i: int) -> FiniteWeight:
    """Fundamental weight omega_i (omega_0 = 0)."""
    if not 0 <= i <= n:
        raise ValueError("index out of range")
    return FiniteWeight(n, tuple(1 if j == i else 0 for j in range(1, n + 1)))


def theta(n: int) -> FiniteWeight:
    """Highest root; alpha_1 + ... + alpha_n."""
    return FiniteWeight(n, tuple((j == 0) + (j == n - 1) for j in range(n)))


def bilinear(lam: FiniteWeight, mu: FiniteWeight) -> Fraction:
    """Invariant form normalized by (alpha, alpha) = 2, from the
    epsilon-coordinates a and b of lam and mu (Bourbaki, Lie Groups,
    Plate I): (n + 1)(lam, mu) = (n + 1) sum a_i b_i - sum a * sum b, an
    integer, divided once.  The prefix sums of the coordinates are
    eps_coords in reverse order, which the form does not see."""
    if lam.n != mu.n:
        raise ValueError("rank mismatch")
    a, b = tuple(accumulate(lam.coords)), tuple(accumulate(mu.coords))
    m = lam.n + 1
    return Fraction(m * sum(x * y for x, y in zip(a, b)) - sum(a) * sum(b), m)


def eps_coords(mu: FiniteWeight) -> tuple[int, ...]:
    """Epsilon-basis coordinates a with a_i = sum_{j <= n+1-i} mu(h_j), the
    prefix sums of the coordinates reversed, as bilinear and a_of_eta read
    them.  These are the coordinates of -w0(mu); the quadratic form f
    evaluated on them recovers (mu, mu)."""
    return tuple(accumulate(mu.coords))[::-1]


def weight_from_eps(n: int, a: Sequence[int]) -> FiniteWeight:
    """Inverse of eps_coords: mu(h_r) = a_{n+1-r} - a_{n+2-r}."""
    if len(a) != n:
        raise ValueError("epsilon vector has wrong length")
    ext = list(a) + [0]
    return FiniteWeight(n, tuple(ext[n - r] - ext[n - r + 1] for r in range(1, n + 1)))


def scaled_f(a: Sequence[int]) -> int:
    """The integer (n + 1) * f(a) = (n + 1) * sum a_i^2 - (sum a_i)^2
    for a of length n."""
    return (len(a) + 1) * sum(x * x for x in a) - sum(a) ** 2


def scaled_cap(scale: int, norm_bound) -> int:
    """floor(scale * norm_bound) for an int or Fraction bound: the box of
    each walk and the bound that prices it.  At scale n + 1, as (n + 1)*f(a)
    is the integer scaled_f(a), f(a) <= norm_bound exactly when
    scaled_f(a) <= scaled_cap(n + 1, norm_bound); at scale 2, every entry
    of a dominant a with f(a) <= norm_bound is at most its isqrt, as
    a_i^2 <= 2 f(a).  The cap is negative exactly when the bound is."""
    bound = Fraction(norm_bound)
    return scale * bound.numerator // bound.denominator


def quadratic_f(a: Sequence) -> Fraction:
    """Positive definite form f(a) = (n*sum a_i^2 - 2*sum_{i<j} a_i a_j)/(n+1)."""
    return Fraction(scaled_f(a), len(a) + 1)


def varpi_eps(n: int, i: int) -> tuple[int, ...]:
    """Epsilon-coordinate vector of the i-th fundamental weight direction
    (i leading ones); f on it equals i(n+1-i)/(n+1)."""
    if not 0 <= i <= n:
        raise ValueError("index out of range")
    return tuple(1 if j < i else 0 for j in range(n))


class AffineWeight(Record):
    """Affine weight lambda = finite + level * Lambda_0 + degree * delta."""

    __slots__ = ("finite", "level", "degree")

    def __init__(self, finite: FiniteWeight, level: int, degree: Fraction):
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "degree", degree)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.finite == other.finite and self.level == other.level
                    and self.degree == other.degree)
        return NotImplemented

    def __hash__(self):
        return hash((self.finite, self.level, self.degree))

    @property
    def n(self) -> int:
        return self.finite.n

    @staticmethod
    def from_c_values(n: int, cvals: Sequence[int], degree=0) -> "AffineWeight":
        """Build from the n + 1 values on h_0, ..., h_n plus a degree."""
        if len(cvals) != n + 1:
            raise ValueError("need n + 1 coroot values")
        return AffineWeight(FiniteWeight(n, tuple(cvals[1:])), sum(cvals), Fraction(degree))

    def value(self, i: int) -> int:
        """lambda(h_i) for i in [0, n]; h_0 = c - h_theta."""
        if i == 0:
            return self.level - sum(self.finite.coords)
        return self.finite.coords[i - 1]

    def c_values(self) -> tuple[int, ...]:
        return (self.value(0),) + self.finite.coords

    def is_dominant(self) -> bool:
        return self.finite.is_dominant() and self.value(0) >= 0

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(self.finite + other.finite, self.level + other.level,
                            self.degree + other.degree)

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(self.finite - other.finite, self.level - other.level,
                            self.degree - other.degree)

    def __mul__(self, k: int) -> "AffineWeight":
        return AffineWeight(k * self.finite, k * self.level, k * self.degree)

    __rmul__ = __mul__

    def shift_delta(self, s) -> "AffineWeight":
        return AffineWeight(self.finite, self.level, self.degree + Fraction(s))

    def equiv_mod_delta(self, other: "AffineWeight") -> bool:
        return self.finite == other.finite and self.level == other.level


def affine_Lambda(n: int, i: int) -> AffineWeight:
    """Fundamental affine weight Lambda_i = omega_i + Lambda_0 (type A)."""
    return AffineWeight(omega(n, residue(i, n)), 1, Fraction(0))


def rho_hat(n: int) -> AffineWeight:
    """Sum of all affine fundamental weights."""
    return AffineWeight(FiniteWeight(n, (1,) * n), n + 1, Fraction(0))


def a_of_eta(eta: FiniteWeight) -> tuple:
    """Coefficients a with eta = sum a_i alpha_i; a_i = (eta, omega_i).
    With e = eps_coords(eta), S = sum e and P_k = e_1 + ... + e_k, and
    eps_coords(omega_i) the n + 1 - i leading ones, bilinear gives
    a_i = P_{n+1-i} - (n + 1 - i) S/(n + 1).  As S is congruent to
    -sum_j j eta(h_j) mod n + 1, eta lies in the root lattice exactly
    when n + 1 divides S; errors when it does not."""
    e = eps_coords(eta)
    s, rem = divmod(sum(e), eta.n + 1)
    if rem:
        raise ValueError("weight is not in the root lattice")
    prefix = tuple(accumulate(e))
    return tuple(prefix[k - 1] - k * s for k in range(eta.n, 0, -1))


def nonneg_root_coeffs(eta: FiniteWeight):
    """a_of_eta(eta) when eta is a non-negative integer combination of
    the simple roots, else None."""
    try:
        a = a_of_eta(eta)
    except ValueError:
        return None
    return None if any(x < 0 for x in a) else a


def _q_plus_coeffs(top: AffineWeight, xi: AffineWeight):
    """Coefficients (c_0, a_1, ..., a_n) of top - xi on the simple affine
    roots alpha_0 = delta - theta, alpha_1, ..., alpha_n, or None unless
    they are all non-negative integers."""
    diff = top - xi
    if diff.level != 0:
        return None
    c0 = diff.degree
    if c0.denominator != 1 or c0 < 0:
        return None
    c0 = int(c0)
    rest = nonneg_root_coeffs(diff.finite + c0 * theta(top.n))
    return None if rest is None else (c0,) + rest


def _below(top: AffineWeight, xi: AffineWeight) -> bool:
    """Whether top - xi is a non-negative integer combination of the
    simple affine roots."""
    return _q_plus_coeffs(top, xi) is not None
