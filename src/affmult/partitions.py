"""Bounded partitions, multipartitions and Gaussian binomials.

A partition is a weakly decreasing tuple of positive integers (canonical
form has no trailing zeros).  The counting function rho(m, b) counts
partitions of m with parts at most b, with the convention that rho is 0
off the non-negative integers — callers feed it exact rationals coming
from quadratic-form evaluations, and non-integral arguments must count
as zero rather than raise.

The convention is checked once per call of the public ``rho`` and
``rho_multi``.  The cached recursions behind them, ``_count`` and
``_rho_multi_sorted``, take non-negative ints only, and
``_rho_multi_sorted`` calls ``_count`` on the same keys as ``rho``:
(m, b, cap) with the part-count cap lowered to at most m.
The bounds on their passes, which the CLI prices, sit beside them:
``count_steps``, ``flag_count_steps``, ``binomial_steps``, and
``LIMIT_MAX_KMAX`` for the depth of ``_count``'s recursion.

``times_q_factors`` is the one loop over factors 1 - q^r: the Gaussian
binomials and the oracle's coloured-partition counts are built with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, isqrt
from typing import Optional, Sequence

from .affine_cartan import scaled_cap
from .laurent import LaurentPoly

Partition = tuple  # weakly decreasing tuple of positive integers


def canonical(parts: Sequence[int]) -> Partition:
    """Strip trailing zeros; validate weak decrease."""
    parts = tuple(parts)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts must be weakly decreasing")
    if parts and parts[-1] < 0:
        raise ValueError("parts must be non-negative")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


# not work: a count not filled bottom-up recurses about as deep as its length
# cap, two of 1000 frames a level, and the limit route's caps grow with k_max
LIMIT_MAX_KMAX = 400


@lru_cache(maxsize=None)
def _count(m: int, b: int, max_parts: int) -> int:
    """Partitions of m with parts <= b and at most max_parts parts."""
    if m == 0:
        return 1
    if m < 0 or b == 0 or max_parts == 0:
        return 0
    # either no part equals b, or remove one part b
    return _count(m, b - 1, max_parts) + _count(m - b, b, max_parts - 1)


def _is_bad_number(m) -> bool:
    """True when m is negative or non-integral (rho convention)."""
    if isinstance(m, Fraction):
        return m.denominator != 1 or m < 0
    return m < 0 or m != int(m)


def rho(m, b: int, max_parts: Optional[int] = None) -> int:
    """|P_b(m)| (with optional part-count cap); 0 off Z_{>=0}, and 0
    under a negative cap, as in rho_multi."""
    if _is_bad_number(m) or (max_parts is not None and max_parts < 0):
        return 0
    m = int(m)
    cap = m if max_parts is None else min(max_parts, m)
    return _count(m, b, cap)


def rho_multi(m, b: Sequence[int], a: Optional[Sequence[int]] = None) -> int:
    """Number of multipartitions of m with component j bounded by b_j
    (parts) and, when a is given, by a_j (number of parts)."""
    if a is not None and len(a) != len(b):
        raise ValueError("length caps must match bounds")
    if _is_bad_number(m):
        return 0
    m = int(m)
    caps = tuple(a) if a is not None else (None,) * len(b)
    if any(c is not None and c < 0 for c in caps):
        return 0

    # components with b_j = 0 (or cap 0) only admit the empty partition;
    # the count is invariant under permuting components, so sort for
    # cache hits across reorderings
    comps = tuple(sorted(
        (bj, cj if cj is not None else -1)
        for bj, cj in zip(b, caps) if bj > 0 and cj != 0))
    return _rho_multi_sorted(m, comps)


@lru_cache(maxsize=None)
def _rho_multi_sorted(m: int, comps: tuple) -> int:
    """Multipartition count over sorted (bound, cap) components; a cap of
    -1 means unbounded length."""
    if not comps:
        return 1 if m == 0 else 0
    bj, cj = comps[0]
    rest = comps[1:]
    # the keys of rho: a partition of s has at most s parts
    return sum(
        _count(s, bj, s if cj == -1 else min(cj, s)) * _rho_multi_sorted(m - s, rest)
        for s in range(m + 1)
    )


def count_steps(n: int, bound, rows: int) -> int:
    """A bound on the calls of _count and _rho_multi_sorted, cold, made by an
    orbit sum of at most rows rows at a norm bound: a call a row, then
    memos of (m + 1)^2 values a part and component, to arguments m <= bound/4
    with parts up to floor(M/2), M the f-ball walk's largest entry."""
    m, parts = floor(Fraction(max(bound, 0)) / 4), isqrt(max(scaled_cap(n, bound), 0)) // 2
    return rows + (m + 1) ** 2 * (parts + 1) * n


def flag_count_steps(arg, b: Sequence[int], caps: Sequence[int], kmax: int) -> int:
    """A bound on the calls of _count and _rho_multi_sorted, cold, made by
    the k_max + 1 flag multiplicities of a limit-route member, the k-th
    rho_multi(arg + k|b|, b, caps + k) (flag_progression), none where its
    argument is negative or fractional.  To m' on L components with
    b_j > 0, _rho_multi_sorted makes 2(m' + 1) calls at the top and, as the
    caps change with k, (m' + 1)(m' + 2) at each of the L - 1 levels below;
    _count 2 a miss, on keys (s, b', c'), s <= m, b' <= max b and
    c' <= min(max caps + k_max, m), m the last argument."""
    s = sum(b)
    m, top = arg + kmax * s, max(caps) + kmax  # the last count's argument and largest cap
    if m < 0 or Fraction(m).denominator != 1:
        return 0
    m = int(m)
    t = min(kmax + 1, m // s + 1) if s else kmax + 1  # the k that count
    x1 = t * (m + 1) - s * t * (t - 1) // 2  # the sum of m' + 1
    x2 = t * (m + 1) ** 2 - (m + 1) * s * t * (t - 1) + s * s * (t - 1) * t * (2 * t - 1) // 6
    lower = max(sum(1 for x in b if x) - 1, 0)
    return t + 2 * x1 + lower * (x2 + x1) + 2 * (m + 1) * (max(b) + 1) * (min(top, m) + 1)


def times_q_factors(coeffs: list, exponents, power: int = 1) -> list:
    """Multiply the series coeffs, truncated after q^(len(coeffs) - 1), in
    place by (1 - q^r)^power for each r of exponents, and return it.  A
    factor 1 - q^r takes c_{k-r} from c_k, top down; a negative power
    divides, each 1/(1 - q^r) a running sum of step r, bottom up.  Truncation
    commutes with both, so the result is exact up to its length."""
    top = len(coeffs)
    for r in exponents:
        for _ in range(abs(power)):
            if power > 0:
                for k in range(top - 1, r - 1, -1):
                    coeffs[k] -= coeffs[k - r]
            else:
                for k in range(r, top):
                    coeffs[k] += coeffs[k - r]
    return coeffs


@lru_cache(maxsize=None)
def q_binomial(m: int, p: int) -> LaurentPoly:
    """Gaussian binomial [m choose p]_q; coefficient of q^s counts
    partitions of s inside a p x (m-p) box.  It is the polynomial
    prod_{r <= p} (1 - q^{m-p+r}) / (1 - q^r) of degree p(m - p), with p
    the smaller side, as [m choose p] = [m choose m - p]."""
    if p < 0 or p > m:
        raise ValueError("require 0 <= p <= m")
    p = min(p, m - p)
    coeffs = times_q_factors([1] + [0] * (p * (m - p)), range(m - p + 1, m + 1))
    return LaurentPoly(dict(enumerate(times_q_factors(coeffs, range(1, p + 1), -1))))


def binomial_steps(a: Sequence[int], b: Sequence[int]) -> int:
    """A bound on the coefficients that q_binomial_product(a + b, a), cold,
    and a prefactor shift update: the factors with a_j b_j > 0, l of them
    of degree d = sum a_j b_j in all, take 2 s (a_j b_j + 1) kernel updates
    each, s = min(a_j, b_j) (s passes of times_q_factors each way, none
    longer than the list); the product (D + 1)(d_j + 1) pairs into a
    running product of degree D <= d, at most (d + 1)(d + l); the shift
    d + 1."""
    d = sum(x * y for x, y in zip(a, b))
    kernel = sum(2 * min(x, y) * (x * y + 1) for x, y in zip(a, b))
    return kernel + (d + 1) * (d + sum(1 for x, y in zip(a, b) if x * y) + 1)


def q_binomial_product(m: Sequence[int], p: Sequence[int]) -> LaurentPoly:
    """Product of Gaussian binomials [m_j choose p_j]_q; the factors
    [m choose 0] = [m choose m] = 1 are skipped."""
    if len(m) != len(p):
        raise ValueError("vectors must have equal length")
    out = LaurentPoly.one()
    for mj, pj in zip(m, p):
        if not 0 <= pj <= mj:
            raise ValueError("require 0 <= p <= m")
        if 0 < pj < mj:
            out = out * q_binomial(mj, pj)
    return out


def stabilize_threshold(f: int, a: Sequence[int], b: Sequence[int]):
    """Smallest k from which the capped count stabilizes: the max of
    f + max(a) and (f + <a,b>)/|b| (second term only when |b| > 0)."""
    kmin = f + max(a) if a else f
    size = sum(b)
    if size > 0:
        dot = sum(x * y for x, y in zip(a, b))
        kmin = max(kmin, -((-(f + dot)) // size))  # ceil division
    return kmin


def compositions(m: int, l: int):
    """All ways to write m as an ordered sum of l non-negative integers."""
    if l == 0:
        if m == 0:
            yield ()
        return
    for first in range(m + 1):
        for rest in compositions(m - first, l - 1):
            yield (first,) + rest


def part_multiplicities(parts: Partition) -> list:
    """Distinct part sizes with multiplicities, largest first:
    [(k_1, r_1), ..., (k_s, r_s)] with k_1 > ... > k_s."""
    out = []
    for p in parts:
        if out and out[-1][0] == p:
            out[-1][1] += 1
        else:
            out.append([p, 1])
    return [(k, r) for k, r in out]
