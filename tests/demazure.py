"""Demazure characters of A_n^(1) and the peel of a level-1 one into
level-2 ones, for the tests only: a check of the flag multiplicities
that shares nothing with the library but ``FiniteWeight``.

A weight is a tuple (c_0, ..., c_n, s): its values on the simple coroots
h_0, ..., h_n, whose sum is its level, and its degree s, its coefficient
of delta.  The simple root alpha_j has the values of column j of the
affine Cartan matrix of ``weyl_group``, and degree 1 when j = 0, as
alpha_0 = delta - theta.  A character is a dict from weights to their
non-zero multiplicities.

D(l, lam), for lam dominant, is the Demazure module of extremal weight
l Lambda_0 + w0 lam at degree 0.  Its word comes from a descent of its
own: reflect that weight by s_i at a negative value c_i until it is the
dominant Lambda.  Each step lengthens the element by one, so the word
i_1, ..., i_r is reduced, and the character is D_{i_1} ... D_{i_r} e^Lambda
with D_i(e^mu) = (e^mu - e^{s_i mu - alpha_i}) / (1 - e^{-alpha_i})
(Demazure 1974; Kumar 1987; Mathieu 1988).  D(1, lam) is the local Weyl
module and D(2, mu) a level-2 Demazure module (Fourier-Littelmann 2007).
"""

from functools import lru_cache
from operator import add, sub

from affmult.affine_cartan import FiniteWeight
from weyl_group import affine_cartan_matrix


def descent(n: int, level: int, lam: tuple) -> tuple:
    """The dominant weight Lambda over level Lambda_0 + w0 lam, and the word
    i_1, ..., i_r with level Lambda_0 + w0 lam = s_{i_1} ... s_{i_r} Lambda:
    each step reflects the first negative value."""
    weight = (level + sum(lam),) + tuple(-x for x in reversed(lam)) + (0,)
    word = []
    while any(v < 0 for v in weight[:-1]):
        i = next(r for r, v in enumerate(weight[:-1]) if v < 0)
        weight = tuple(x - weight[i] * a for x, a in zip(weight, simple_root(n, i)))
        word.append(i)
    return weight, word


@lru_cache(maxsize=None)
def simple_root(n: int, i: int) -> tuple:
    """alpha_i as a weight: column i of the affine Cartan matrix, then its
    degree."""
    return tuple(row[i] for row in affine_cartan_matrix(n)) + (int(i == 0),)


def demazure_operator(n: int, i: int, char: dict) -> dict:
    """D_i on a character.  On e^mu with m = mu(h_i), D_i gives
    e^mu + e^{mu - alpha_i} + ... + e^{mu - m alpha_i} when m >= 0, and
    -(e^{mu + alpha_i} + ... + e^{mu - (m + 1) alpha_i}) when m < 0, which
    is 0 at m = -1."""
    root, out = simple_root(n, i), {}
    for weight, mult in char.items():
        m = weight[i]
        for _ in range(m + 1):
            out[weight] = out.get(weight, 0) + mult
            weight = tuple(map(sub, weight, root))
        for _ in range(-m - 1):
            weight = tuple(map(add, weight, root))
            out[weight] = out.get(weight, 0) - mult
    return {weight: mult for weight, mult in out.items() if mult}


@lru_cache(maxsize=None)
def demazure_character(n: int, level: int, lam: tuple) -> dict:
    """The character of D(level, lam), with lam given by its n coroot values."""
    top, word = descent(n, level, lam)
    char = {top: 1}
    for i in reversed(word):
        char = demazure_operator(n, i, char)
    return char


def dominant_part(char: dict) -> dict:
    """The weights of char whose finite part is dominant, keyed by (finite
    part, degree); a character invariant under s_1, ..., s_n is determined
    by them."""
    return {(weight[1:-1], weight[-1]): mult for weight, mult in char.items()
            if min(weight[1:-1]) >= 0}


def height(mu: tuple) -> int:
    """Twice the height of mu's root coefficients: it grows
    strictly along dominance, so a weight of largest height is maximal."""
    n = len(mu)
    return sum(x * r * (n + 1 - r) for r, x in enumerate(mu, start=1))


def peel(lam: FiniteWeight) -> dict:
    """{mu: {s: c}} with ch D(1, lam) = sum c e^{s delta} ch D(2, mu): take
    a dominant mu of largest height among the weights left, and for each
    degree s at which it is left with multiplicity c, subtract c times
    ch D(2, mu) shifted by s delta.  Raises AssertionError if a
    multiplicity left turns negative or D(1, lam) is not invariant under
    s_1, ..., s_n, so that its dominant part does not determine it."""
    n = lam.n
    full = demazure_character(n, 1, lam.coords)
    for weight, mult in full.items():
        for i in range(1, n + 1):
            mirror = tuple(x - weight[i] * a for x, a in zip(weight, simple_root(n, i)))
            assert full.get(mirror) == mult, "D(1, lam) is not W-invariant"
    left, out = dominant_part(full), {}
    while left:
        mu = max((weight for weight, _ in left), key=height)
        below = dominant_part(demazure_character(n, 2, mu))
        for s in sorted(s for weight, s in left if weight == mu):
            c = left.get((mu, s), 0)
            out.setdefault(FiniteWeight(n, mu), {})[s] = c
            for (weight, t), mult in below.items():
                key = (weight, t + s)
                left[key] = left.get(key, 0) - c * mult
                assert left[key] >= 0, "the peel left a negative multiplicity"
                if not left[key]:
                    del left[key]
    return out
