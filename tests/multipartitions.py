"""Listings behind the multipartition counts, for the tests only: the
partitions and multipartitions that ``partitions.rho`` and
``partitions.rho_multi`` count, the box-complement bijection behind
``partitions.stabilize_threshold``, which the limit route uses, and one
flag multiplicity counted as multipartitions, the reference of the limit
route's ``flag_progression``; and the Gaussian binomials by the q-Pascal
recurrence, the reference of ``partitions.q_binomial``."""

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from affmult.affine_cartan import FiniteWeight
from affmult.laurent import LaurentPoly
from affmult.multiplicities import _flag_data
from affmult.partitions import (
    Partition, _is_bad_number, canonical, rho_multi, stabilize_threshold,
)


def enumerate_bounded(m: int, b: int, max_parts: Optional[int] = None) -> list:
    """All partitions of m with parts <= b (and at most max_parts parts),
    in lexicographically decreasing order."""
    out = []

    def rec(remaining, largest, count, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_parts is not None and count >= max_parts:
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, count + 1, prefix)
            prefix.pop()

    if max_parts is not None and max_parts < 0:
        return []
    if m == 0:
        return [()]
    if m < 0 or b == 0:
        return []
    rec(m, b, 0, [])
    return out


def enumerate_multi(m: int, b: Sequence[int], a: Optional[Sequence[int]] = None) -> list:
    """Materialize the multipartitions counted by rho_multi."""
    caps = tuple(a) if a is not None else (None,) * len(b)

    def rec(j: int, rem: int):
        if j == len(b):
            if rem == 0:
                yield ()
            return
        for s in range(rem + 1):
            for comp in enumerate_bounded(s, b[j], caps[j]):
                for rest in rec(j + 1, rem - s):
                    yield (comp,) + rest

    return list(rec(0, m)) if not _is_bad_number(m) else []


def box_complement(parts: Partition, b: int, length: int) -> Partition:
    """Complement a partition inside a length x b box: pad with zeros to
    the given length, replace each part by b minus it, re-sort."""
    padded = list(parts) + [0] * (length - len(parts))
    return canonical(sorted((b - s for s in padded), reverse=True))


def stabilize_bijection(f: int, a: Sequence[int], b: Sequence[int], k: int) -> list:
    """Explicit pairing between the capped multipartitions of
    k|b| - <a,b> - f (caps k - a_j, bounds b) and the multipartitions of
    f (bounds b), by componentwise box complement."""
    if len(a) != len(b):
        raise ValueError("vectors must have equal length")
    if sum(b) == 0:
        raise ValueError("require |b| > 0")
    if k < stabilize_threshold(f, a, b):
        raise ValueError("k below the stabilization threshold")
    caps = [k - aj for aj in a]
    total = k * sum(b) - sum(x * y for x, y in zip(a, b)) - f
    pairs = []
    for multi in enumerate_multi(total, b, caps):
        image = tuple(
            box_complement(comp, bj, cap)
            for comp, bj, cap in zip(multi, b, caps)
        )
        pairs.append((multi, image))
    # sanity: the images exhaust P_b(f) exactly once
    targets = set(enumerate_multi(f, b))
    images = [im for _, im in pairs]
    if len(set(images)) != len(images) or set(images) != targets:
        raise AssertionError("complement map failed to be a bijection")
    return pairs


def flag_multiplicity_at(lam: FiniteWeight, mu: FiniteWeight, r) -> int:
    """Coefficient extraction without building the polynomial: the number
    of multipartitions of r - (lam+mu1, lam-mu)/2 with bounds from mu and
    length caps from lam - mu; zero off the admissible range."""
    data = _flag_data(lam, mu)
    if data is None:
        return 0
    a, b, shift = data
    return rho_multi(Fraction(r) - shift, b, a)


@lru_cache(maxsize=None)
def pascal_triangle(size: int) -> list:
    """Rows m = 0..size of the Gaussian binomials [m choose p]_q, p = 0..m,
    by the q-Pascal recurrence [m, p] = [m - 1, p] + q^(m - p) [m - 1, p - 1]."""
    rows = [[LaurentPoly.one()]]
    for m in range(1, size + 1):
        prev = rows[-1]
        rows.append([LaurentPoly.one()]
                    + [prev[p] + prev[p - 1].shift(m - p) for p in range(1, m)]
                    + [LaurentPoly.one()])
    return rows
