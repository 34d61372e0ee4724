"""Affine Weyl group action: socle (dominant orbit representative)
formulas, the reflection descent, and orbit parameterizations at level 2.

The key coordinates: for an integral finite weight mu and a level l,
write the epsilon-coordinates a_i of mu as a_i = p_i * l + m_i with
0 < m_i <= l.  The pair (m, p) determines the dominant representative
of l*Lambda_0 + w0(mu) in closed form, and at level 2 parameterizes the
orbit sets indexing the multiplicity sums.  ``level_two_family``
generates those level-2 pairs directly, pruning by the integer form
(n + 1)*f, and re-checks every member it returns.  ``ball_leaves``,
``family_passes`` and ``descent_length`` bound passes that the CLI prices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, isqrt
from typing import Sequence

from .affine_cartan import (
    AffineWeight,
    FiniteWeight,
    bilinear,
    eps_coords,
    scaled_cap,
    scaled_f,
    weight_from_eps,
)
from .records import Record


class SocleResult(Record):
    """Dominant representative of an affine Weyl orbit, degree included."""

    __slots__ = ("weight",)


def _descend(cvals: Sequence[int]):
    """Reflection descent of the coroot values (v_0, ..., v_n) of a weight
    of positive level: repeatedly reflect at the smallest index i with
    v_i < 0.  On the cycle of A_n^(1) the reflection s_i sets v_i to -v_i
    and adds v_i to v_{i-1} and v_{(i+1) mod (n+1)}; at n = 1 both
    neighbours are one entry, which gains 2*v_i.  Returns (values, sign,
    shift): the dominant values, (-1)^(number of reflections), and the sum
    of v_i over the reflections at index 0, by which the degree drops."""
    v = list(cvals)
    m = len(v)
    sign = 1
    shift = 0
    while True:
        for i, vi in enumerate(v):
            if vi < 0:
                break
        else:
            return tuple(v), sign, shift
        v[i] = -vi
        v[i - 1] += vi
        v[(i + 1) % m] += vi
        if i == 0:
            shift += vi
        sign = -sign


def socle_oracle(xi: AffineWeight) -> SocleResult:
    """Reflection descent to the dominant orbit representative, by
    _descend on the integer coroot values; only reflections at index 0
    change the degree."""
    if xi.level <= 0:
        raise ValueError("descent requires positive level")
    values, _sign, shift = _descend(xi.c_values())
    return SocleResult(AffineWeight.from_c_values(xi.n, values, xi.degree - shift))


def descent_length(xi: AffineWeight) -> int:
    """The number of reflections socle_oracle makes on xi, found without
    descending: the length of the shortest affine Weyl element taking xi
    to the dominant chamber, that is the number of positive real roots
    beta with xi(beta^vee) < 0.  Each step reflects at a simple root where
    xi is negative and lowers that number by one.

    For the positive finite root alpha = alpha_a + ... + alpha_b, let s be
    the sum of the coroot values of xi at a..b and l the level.  The
    roots alpha + k*delta (k >= 0) with s + k*l < 0 number ceil(-s/l)
    when s < 0, and the roots -alpha + k*delta (k >= 1) with
    -s + k*l < 0 number ceil(s/l) - 1 when s > 0."""
    if xi.level <= 0:
        raise ValueError("descent requires positive level")
    ell = xi.level
    c = xi.finite.coords
    total = 0
    for a in range(len(c)):
        s = 0
        for cb in c[a:]:
            s += cb
            if s < 0:
                total -= s // ell
            elif s > 0:
                total += (s - 1) // ell
    return total


def _sorted_nonneg_eps(mu: FiniteWeight) -> tuple:
    """Epsilon-coordinates of the dominant finite Weyl conjugate of mu:
    append the implicit 0, sort decreasingly, renormalize so the last
    entry is 0, drop it."""
    a = list(eps_coords(mu)) + [0]
    a.sort(reverse=True)
    low = a[-1]
    return tuple(x - low for x in a[:-1])


def orbit_division(level: int, a: Sequence[int]):
    """Unique division a_i = p_i * level + m_i with 0 < m_i <= level."""
    m, p = [], []
    for ai in a:
        pi, mi = divmod(ai - 1, level)
        m.append(mi + 1)
        p.append(pi)
    return tuple(m), tuple(p)


def res_p(p: Sequence[int], n: int) -> int:
    """The index in [0, n] with res + p_1 + ... + p_n = 0 mod (n+1)."""
    return (-sum(p)) % (n + 1)


class OrbitPair(Record):
    """Pair (m, p) with a_i = p_i * level + m_i, 0 < m_i <= level."""

    __slots__ = ("m", "p", "level")

    @property
    def n(self) -> int:
        return len(self.m)

    def a_vector(self) -> tuple:
        return tuple(pi * self.level + mi for pi, mi in zip(self.p, self.m))

    def residue(self) -> int:
        return res_p(self.p, self.n)

    def in_dominant_set(self) -> bool:
        """Whether the pair comes from a dominant weight: the recombined
        a-vector must be weakly decreasing and non-negative."""
        a = self.a_vector()
        return all(a[i] >= a[i + 1] for i in range(len(a) - 1)) and (not a or a[-1] >= 0)

    def weight(self) -> FiniteWeight:
        return weight_from_eps(self.n, self.a_vector())


def orbit_pair(level: int, mu: FiniteWeight) -> OrbitPair:
    if level < 1:
        raise ValueError("level must be >= 1")
    m, p = orbit_division(level, eps_coords(mu))
    return OrbitPair(m, p, level)


def socle_formula(level: int, mu: FiniteWeight) -> SocleResult:
    """Closed form for the dominant representative of
    level*Lambda_0 + w0(mu) (taken at degree 0).

    With (m, p) the division of the sorted epsilon-coordinates and
    m' the decreasing rearrangement of (level, m_1, ..., m_n), the
    representative has coroot value m'_{j+1} - m'_{j+2} at index
    (res(p) - j) mod (n+1); its degree follows from the orbit-degree
    relation 2*level*(deg) = (mu, mu) - (soc, soc)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    n = mu.n
    mm = n + 1
    a = _sorted_nonneg_eps(mu)
    m, p = orbit_division(level, a)
    pr = res_p(p, n)
    mp = sorted((level,) + m, reverse=True) + [0]
    cvals = [0] * mm
    for j in range(mm):
        cvals[(pr - j) % mm] = mp[j] - mp[j + 1]
    soc_fin = FiniteWeight(n, tuple(cvals[1:]))
    # (n + 1) times both norms is an integer: scaled_f of the eps-coordinates
    deg = Fraction(scaled_f(a) - scaled_f(eps_coords(soc_fin)), 2 * level * mm)
    return SocleResult(AffineWeight(soc_fin, level, deg))


def r_of(mu: FiniteWeight, phi: AffineWeight) -> Fraction:
    """Degree label r(mu, phi) = phi(d) - ((mu,mu) - (phibar,phibar)) / (2 phi(c))."""
    if phi.level < 1:
        raise ValueError("require positive level")
    return phi.degree - Fraction(
        bilinear(mu, mu) - bilinear(phi.finite, phi.finite), 2 * phi.level
    )


def _dominant_eps_in_ball(n: int, norm_bound):
    """Weakly decreasing non-negative integer vectors a of length n with
    f(a) <= norm_bound, in decreasing lexicographic order.

    The walk covers the box a_i^2 <= cap, with cap = scaled_cap(n + 1,
    norm_bound): the C(M + n, n) weakly decreasing vectors in [0, M]^n,
    M = isqrt(cap), that ball_leaves counts, in one flat loop over
    combinations_with_replacement.  Each leaf is tested in integers:
    (n+1)*f(a) is the integer scaled_f(a), so f(a) <= norm_bound exactly
    when scaled_f(a) <= cap."""
    cap = scaled_cap(n + 1, norm_bound)
    if cap < 0:
        return
    for a in combinations_with_replacement(range(isqrt(cap), -1, -1), n):
        if scaled_f(a) <= cap:
            yield a


def enumerate_gamma(xi: AffineWeight, norm_bound) -> list:
    """All dominant finite mu in the orbit set of xi with
    (mu, mu) <= norm_bound, each with its (m, p) pair, in decreasing
    lexicographic order of the epsilon vector a = eps_coords(mu)."""
    if not xi.is_dominant() or xi.level < 1:
        raise ValueError("xi must be dominant of positive level")
    n = xi.n
    level = xi.level
    out = []
    for a in _dominant_eps_in_ball(n, norm_bound):
        mu = weight_from_eps(n, a)
        if socle_formula(level, mu).weight.equiv_mod_delta(xi):
            out.append((mu, OrbitPair(*orbit_division(level, a), level)))
    return out


def ball_leaves(n: int, bound, scale: int) -> int:
    """C(M + n, n), M = isqrt(scaled_cap(scale, bound)): at scale n + 1 the
    leaves _dominant_eps_in_ball tests, at scale 2 a box holding the kept
    ones, as a_1^2 <= 2 f(a) <= 2 bound.

    Past 2^64, where no estimate accepts the walk, it returns a power of
    two 2^e <= C(M + n, n), e > 64, from C(M + n, n) = C(M + n, k) >=
    ((M + n)/k)^k for k = min(M, n): the exact count has about n log2(M)
    bits, and at n = 1000 and a bound of 4,200 digits took 6 s of a 2-core
    VM to multiply out."""
    cap = scaled_cap(scale, bound)
    if cap < 0:
        return 0
    m = isqrt(cap)
    k = min(m, n)
    e = k * (((m + n) // k).bit_length() - 1) if k else 0
    return 1 << e if e > 64 else comb(m + n, n)


def family_passes(n: int, bound, shapes=None) -> int:
    """A bound on the passes of level_two_family(n, j, k, bound): a pass at
    depth t names a weakly decreasing vector of t entries in [0, M], M =
    isqrt(scaled_cap(2, bound)), distinct passes distinct vectors, and there are
    C(M + t, t) <= C(M + n, n) of them, so n * ball_leaves(n, bound, 2) in
    all.  Given the shapes the tableau route counts for the weight, also
    n(n + 1)(M + 1) a shape and one more: measured, not derived (under 0.4
    of it at ranks up to 40)."""
    box = n * ball_leaves(n, bound, 2)
    return box if shapes is None else min(
        box, (shapes + 1) * n * (n + 1) * (isqrt(scaled_cap(2, bound)) + 1))


def family_residues(n: int, j: int, k: int, s: int) -> set:
    """Allowed residues res(p) for the (j, k) family at part-multiset
    index s: (j-1) mod (n+1) when s = j - k, (k-1) mod (n+1) when
    s = k - j (both mod n+1)."""
    m = n + 1
    out = set()
    if (s - (j - k)) % m == 0:
        out.add((j - 1) % m)
    if (s - (k - j)) % m == 0:
        out.add((k - 1) % m)
    return out


class LevelTwoFamily(Record):
    """Materialized orbit-pair family for a level-2 weight Lambda_j + Lambda_k;
    ``members`` is a tuple of OrbitPair values."""

    __slots__ = ("j", "k", "n", "members")


def level_two_family(n: int, j: int, k: int, norm_bound) -> LevelTwoFamily:
    """All pairs (m, p) in the (j, k) family with f(a(m, p)) <= norm_bound,
    in decreasing order of a = 2p + m: a is weakly decreasing and
    non-negative, the parts m are m(s) = (2^{s-1}, 1^{n+1-s}) up to order
    for an admissible s, and res(p) is allowed for s.

    The members are generated directly, with no recursion: the live
    prefixes of a grow one entry at a time, each by its next entries
    largest first, so the full ones come in decreasing order.  The prunes
    work on the integer N*f with N = n + 1.  For the N coordinates
    x = (a, 0), N*f(a) = N*sum x^2 - (sum x)^2, which is N times the sum
    of squared deviations of x from its mean.  As N*f is an integer,
    f(a) <= norm_bound exactly when N*f(a) <= scaled_cap(N, norm_bound).

    * Box.  (x_i - x_j)^2 <= 2((x_i - mean)^2 + (x_j - mean)^2) <= 2f, so
      with x_j = 0, a_i^2 <= 2f(a) and a_1 <= isqrt(scaled_cap(2, norm_bound)).
    * Prune by f.  After a prefix of t entries, let S and Q be the sum and
      the square sum of the prefix and the trailing 0 (t + 1 entries).
      The r = n - t remaining entries lie in [0, v], v the last entry of
      the prefix.  N*f is convex and symmetric in them, so over real
      completions it is least with all r equal to some y, where it reads
      N(Q + r y^2) - (S + r y)^2 with derivative 2r((t+1)y - S).  The
      least N*f is therefore N((t+1)Q - S^2)/(t+1) at y = S/(t+1) when
      S <= v(t+1), and N(Q + r v^2) - (S + r v)^2 at y = v otherwise.
      A branch whose least N*f exceeds scaled_cap(N, norm_bound) is dropped.
    * Prune by parity.  m_i = 2 exactly when a_i is even, so the count of
      even entries is s - 1.  A branch is dropped once no admissible
      s - 1 lies between the even entries so far and that count plus r.
    * Residue of the last entry.  With P the sum of p_i = (a_i - 1) // 2
      over the first n - 1 entries, the last entry x fixes
      res(p) = -(P + (x - 1) // 2) mod N, so a last entry whose residue
      is not allowed for its s is skipped before the f test.  Each leaf
      is then a member, and only members are divided by orbit_division.

    Every member is re-checked against the f bound, the part multiset and
    the residue; a failure raises AssertionError.
    """
    N = n + 1
    j, k = j % N, k % N
    # s is admissible exactly when it allows a residue
    admissible = {s: res for s in range(1, N + 1) if (res := family_residues(n, j, k, s))}
    cap = scaled_cap(N, norm_bound)
    if cap < 0:
        return LevelTwoFamily(j, k, n, ())
    evens = [s - 1 for s in admissible]
    # a live prefix: (S, Q, even entries, last entry, P, link), where the
    # link (entry, parent link) names its entries, last first
    live = [(0, 0, 0, isqrt(scaled_cap(2, norm_bound)), 0, None)]
    for t in range(n):
        r = n - t - 1  # entries left after the next one
        size = t + 2  # the prefix with the next entry and the trailing 0
        grown = []
        for S, Q, e, v, P, link in live:
            for x in range(v, -1, -1):
                e1 = e + 1 - x % 2
                if not any(e1 <= c <= e1 + r for c in evens):
                    continue
                if r == 0 and (-P - (x - 1) // 2) % N not in admissible[e1 + 1]:
                    continue
                S1, Q1 = S + x, Q + x * x
                if S1 <= x * size:
                    if N * (size * Q1 - S1 * S1) > cap * size:
                        continue
                elif N * (Q1 + r * x * x) - (S1 + r * x) ** 2 > cap:
                    continue
                grown.append((S1, Q1, e1, x, P + (x - 1) // 2, (x, link)))
        live = grown
    members = []
    for *_, link in live:
        a = []
        while link is not None:
            x, link = link
            a.append(x)
        members.append(OrbitPair(*orbit_division(2, a[::-1]), 2))
    for pair in members:
        s = pair.m.count(2) + 1
        if not (pair.in_dominant_set() and set(pair.m) <= {1, 2}
                and scaled_f(pair.a_vector()) <= cap
                and s in admissible and pair.residue() in admissible[s]):
            raise AssertionError(f"generated pair {pair} is not in the "
                                 f"({j}, {k}) family within f <= {norm_bound}")
    return LevelTwoFamily(j, k, n, tuple(members))


def b_vector(pair: OrbitPair) -> tuple:
    """Bound vector of a level-2 pair: with sentinels p_{n+1} = -1 and
    m_{n+1} = 2, entry r is p_r - p_{r+1} + (m_r - m_{r+1} - |m_r - m_{r+1}|)/2."""
    if pair.level != 2:
        raise ValueError("bound vector defined at level 2")
    if not pair.in_dominant_set():
        raise ValueError("pair must come from a dominant weight")
    m = pair.m + (2,)
    p = pair.p + (-1,)
    out = []
    for r in range(pair.n):
        d = m[r] - m[r + 1]
        out.append(p[r] - p[r + 1] + (d - abs(d)) // 2)
    return tuple(out)
