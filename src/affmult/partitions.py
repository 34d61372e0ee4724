"""Bounded partitions, multipartitions and Gaussian binomials.

A partition is a weakly decreasing tuple of positive integers (canonical
form has no trailing zeros).  The counting function rho(m, b) counts
partitions of m with parts at most b, with the convention that rho is 0
off the non-negative integers — callers feed it exact rationals coming
from quadratic-form evaluations, and non-integral arguments must count
as zero rather than raise.

The convention is one predicate, ``_is_bad_number``: ``rho_multi``
(whose one-component case ``rho`` is), ``flag_count_steps`` and the limit
route's thresholds call it.  The cached recursions behind ``rho_multi``,
``_count`` and ``_rho_multi_sorted``, take non-negative ints only, and
``_rho_multi_sorted`` calls ``_count`` on keys (m, b, cap) with the
part-count cap lowered to at most m.
The bounds on their passes, which the CLI prices, sit beside them:
``count_steps``, ``flag_count_steps``, ``binomial_steps``, and
``LIMIT_MAX_KMAX`` for the depth of ``_count``'s recursion.

``times_q_factors`` is the one loop over factors 1 - q^r: the Gaussian
binomials and the oracle's coloured-partition counts are built with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
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
    """|P_b(m)|, with an optional part-count cap: rho_multi's one-component
    case."""
    return rho_multi(m, (b,), None if max_parts is None else (max_parts,))


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
    # a partition of s has at most s parts, so caps at or above s share a key
    return sum(
        _count(s, bj, s if cj == -1 else min(cj, s)) * _rho_multi_sorted(m - s, rest)
        for s in range(m + 1)
    )


def count_steps(n: int, bound, rows: int) -> int:
    """A bound on the calls of _count and _rho_multi_sorted, cold, made by an
    orbit sum of at most rows rows at a norm bound: a call a row, then
    memos of (m + 1)^2 values a part and component, to arguments m <= bound/4
    with parts up to floor(M/2), M = isqrt(scaled_cap(n + 1, bound)) the walk's box."""
    m, parts = floor(Fraction(max(bound, 0)) / 4), isqrt(max(scaled_cap(n + 1, bound), 0)) // 2
    return rows + (m + 1) ** 2 * (parts + 1) * n


def flag_count_steps(arg, b: Sequence[int], caps: Sequence[int], kmax: int) -> int:
    """A bound on the calls of _count and _rho_multi_sorted, cold, made by
    the k_max + 1 flag multiplicities of a limit-route member, the k-th
    rho_multi(arg + k|b|, b, caps + k) (flag_progression), none where its
    argument is off the non-negative integers (_is_bad_number).  To m' on
    L components with b_j > 0, _rho_multi_sorted makes 2(m' + 1) calls at
    the top and, as the caps change with k, (m' + 1)(m' + 2) at each of the
    L - 1 levels below; _count 2 a miss, on keys (s, b', c'), s <= m,
    b' <= max b and c' <= min(max caps + k_max, m), m the last argument."""
    s = sum(b)
    m, top = arg + kmax * s, max(caps) + kmax  # the last count's argument and largest cap
    if _is_bad_number(m):
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


def q_binomial_product(m: Sequence[int], p: Sequence[int]) -> LaurentPoly:
    """Product of Gaussian binomials [m_j choose p_j]_q, of degree d = sum
    p_j(m_j - p_j), on one list of d + 1 coefficients, each factor
    prod_{r <= s} (1 - q^{m_j-s+r}) / (1 - q^r) with s = min(p_j, m_j - p_j),
    as [m choose p] = [m choose m - p]; truncation commutes with each pass."""
    if len(m) != len(p):
        raise ValueError("vectors must have equal length")
    if not all(0 <= pj <= mj for mj, pj in zip(m, p)):
        raise ValueError("require 0 <= p <= m")
    coeffs = [1] + [0] * sum(pj * (mj - pj) for mj, pj in zip(m, p))
    for mj, pj in zip(m, p):
        s = min(pj, mj - pj)
        times_q_factors(coeffs, range(mj - s + 1, mj + 1))
        times_q_factors(coeffs, range(1, s + 1), -1)
    return LaurentPoly(dict(enumerate(coeffs)))


def q_binomial(m: int, p: int) -> LaurentPoly:
    """Gaussian binomial [m choose p]_q; coefficient of q^s counts
    partitions of s inside a p x (m-p) box."""
    return q_binomial_product((m,), (p,))


def binomial_steps(a: Sequence[int], b: Sequence[int]) -> int:
    """A bound on the coefficients that q_binomial_product(a + b, a) and a
    prefactor shift update: d + 1 for the shift, d = sum a_j b_j, and for
    each factor s = min(a_j, b_j) passes of times_q_factors each way, none
    longer than the list of d + 1 coefficients."""
    d = sum(x * y for x, y in zip(a, b))
    return (d + 1) * (2 * sum(min(x, y) for x, y in zip(a, b)) + 1)


def stabilize_threshold(f: int, a: Sequence[int], b: Sequence[int]):
    """Smallest k from which the capped count stabilizes: the max of
    f + max(a) and (f + <a,b>)/|b| (second term only when |b| > 0)."""
    kmin = f + max(a) if a else f
    size = sum(b)
    if size > 0:
        dot = sum(x * y for x, y in zip(a, b))
        kmin = max(kmin, -((-(f + dot)) // size))  # ceil division
    return kmin


def part_multiplicities(parts: Partition) -> list:
    """Distinct part sizes with multiplicities, largest first:
    [(k_1, r_1), ..., (k_s, r_s)] with k_1 > ... > k_s, one per run."""
    return [(k, len(list(run))) for k, run in groupby(parts)]
