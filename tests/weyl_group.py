"""Root data and affine Weyl group elements, for the tests only: the
Cartan matrices and their inverses, the references for the forms that
``affine_cartan`` computes from epsilon-coordinates, the simple roots,
the affine form, and the reflections,
translations, cofinal orbit sequences and reduced-pair lengths behind
``weyl_orbits``' closed forms."""

from fractions import Fraction
from typing import Sequence

from affmult.affine_cartan import (
    AffineWeight,
    FiniteWeight,
    bilinear,
    eps_coords,
    theta,
)
from affmult.weyl_orbits import socle_formula, socle_oracle


def cartan_matrix(n: int) -> tuple:
    """Cartan matrix of type A_n (tridiagonal 2 / -1)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


def inverse_cartan_scaled(n: int) -> tuple:
    """The integer matrix (n + 1) * C^{-1} of type A_n: entry (i, j) is
    min(i,j) * (n + 1 - max(i,j)) with 1-based indices."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return tuple(
        tuple(min(i, j) * (n + 1 - max(i, j)) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def inverse_cartan(n: int) -> tuple:
    """Exact inverse of the type A_n Cartan matrix."""
    return tuple(
        tuple(Fraction(x, n + 1) for x in row) for row in inverse_cartan_scaled(n)
    )


def affine_cartan_matrix(n: int) -> tuple:
    """Cartan matrix of type A_n^(1) on index set [0, n] (cyclic)."""
    if n == 1:
        return ((2, -2), (-2, 2))
    m = n + 1
    return tuple(
        tuple(
            2 if i == j else (-1 if (i - j) % m in (1, m - 1) else 0)
            for j in range(m)
        )
        for i in range(m)
    )


def alpha(n: int, i: int) -> FiniteWeight:
    """Simple root alpha_i (1 <= i <= n) in fundamental-weight coordinates."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    col = cartan_matrix(n)
    return FiniteWeight(n, tuple(col[j][i - 1] for j in range(n)))


def in_root_lattice(b: Sequence[int]) -> bool:
    """Whether sum(b_i) eps_i lies in the root lattice Q."""
    n = len(b)
    return sum(b) % (n + 1) == 0


def affine_delta(n: int) -> AffineWeight:
    return AffineWeight(FiniteWeight(n, (0,) * n), 0, Fraction(1))


def affine_alpha(n: int, i: int) -> AffineWeight:
    """Simple root alpha_i as an affine weight; alpha_0 = delta - theta."""
    if i == 0:
        return AffineWeight(-theta(n), 0, Fraction(1))
    return AffineWeight(alpha(n, i), 0, Fraction(0))


def affine_bilinear(lam: AffineWeight, mu: AffineWeight) -> Fraction:
    """(lam, mu) = (finite, finite) + lam(c) mu(d) + lam(d) mu(c)."""
    return bilinear(lam.finite, mu.finite) + lam.level * mu.degree + lam.degree * mu.level


def simple_reflection(i: int, lam: AffineWeight) -> AffineWeight:
    """s_i(lam) = lam - lam(h_i) alpha_i for i in [0, n]."""
    v = lam.value(i)
    if v == 0:
        return lam
    return lam - v * affine_alpha(lam.n, i)


def translation(alpha_fin: FiniteWeight, lam: AffineWeight) -> AffineWeight:
    """t_alpha(lam) = lam + lam(c) alpha
    - ((lam, alpha) + (alpha, alpha) lam(c) / 2) delta, for alpha in Q."""
    if not in_root_lattice(eps_coords(alpha_fin)):
        raise ValueError("translation vector must lie in the root lattice")
    pairing = bilinear(lam.finite, alpha_fin)
    norm = bilinear(alpha_fin, alpha_fin)
    new_fin = lam.finite + lam.level * alpha_fin
    new_deg = lam.degree - (pairing + Fraction(norm * lam.level, 2))
    return AffineWeight(new_fin, lam.level, new_deg)


def gamma_contains(xi: AffineWeight, mu: FiniteWeight) -> bool:
    """Whether the orbit of xi meets xi(c)*Lambda_0 + w0(mu) + Q*delta,
    i.e. mu lies in the orbit set of xi.  Checked by the closed-form
    socle and cross-checked by reflection descent."""
    if not xi.is_dominant() or xi.level < 1:
        raise ValueError("xi must be dominant of positive level")
    by_formula = socle_formula(xi.level, mu).weight.equiv_mod_delta(xi)
    probe = AffineWeight(mu.w0_image(), xi.level, Fraction(0))
    by_oracle = socle_oracle(probe).weight.equiv_mod_delta(xi)
    if by_formula != by_oracle:
        raise AssertionError("socle routes disagree on orbit membership")
    return by_formula


def cofinal_weight(Lam: AffineWeight, k: int) -> AffineWeight:
    """The k-th element of the cofinal orbit sequence through Lam:
    level*Lambda_0 + (lambda + k*level*theta)
    + (s - k(k*level + |lambda|)) delta."""
    if not Lam.is_dominant():
        raise ValueError("Lam must be dominant")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return Lam
    ell = Lam.level
    lam = Lam.finite
    size = lam.height_sum()
    fin = lam + (k * ell) * theta(Lam.n)
    deg = Lam.degree - k * (k * ell + size)
    return AffineWeight(fin, ell, Fraction(deg))


def permutation_length(w: Sequence[int]) -> int:
    """Coxeter length of a finite permutation = inversion count."""
    w = list(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError("w must be a permutation of 1..n+1")
    return sum(
        1 for x in range(len(w)) for y in range(x + 1, len(w)) if w[x] > w[y]
    )


def reduced_pair_length(w: Sequence[int], i: Sequence[int], j: Sequence[int],
                        n: int) -> int:
    """Length of the affine Weyl element assembled from a finite
    permutation w and a reduced pair (i, j): when the pair satisfies the
    four reducedness conditions, the length is additive,
    l(w) + l + sum_k (i_k + n + 1 - j_k)."""
    if len(i) != len(j):
        raise ValueError("i and j must have equal length")
    l = len(i)
    for s in range(l):
        if not (0 <= i[s] < n and 1 <= j[s] <= n + 1):
            raise ValueError("index out of range in (i, j)")
    for s in range(l - 1):
        # condition (1): interior factors avoid the degenerate shapes
        if not ((i[s], j[s]) == (0, 1) or (i[s] != 0 and j[s] != n + 1)):
            raise ValueError("not reduced: condition (1) fails at position %d" % (s + 1))
    for s in range(l - 1):
        # condition (2): i non-increasing, j non-decreasing
        if i[s] < i[s + 1] or j[s] > j[s + 1]:
            raise ValueError("not reduced: condition (2) fails at position %d" % (s + 1))
    for s in range(l - 1):
        # condition (3)
        if i[s] < j[s] - 1 and not i[s] > i[s + 1]:
            raise ValueError("not reduced: condition (3) fails at position %d" % (s + 1))
    for s in range(1, l):
        # condition (4)
        if i[s] < j[s] - 1 and not j[s - 1] < j[s]:
            raise ValueError("not reduced: condition (4) fails at position %d" % (s + 1))
    return permutation_length(w) + l + sum(
        i[s] + n + 1 - j[s] for s in range(l)
    )
