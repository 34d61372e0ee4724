"""Extended Young tableaux of rank n and their content characters.

A box (r, c) of an i-charged tableau is forced to carry the residue
c - r + i mod (n + 1).  A shape is admissible for charge i when it is
n-regular (no part repeats more than n times) and its distinct part
sizes satisfy a system of congruences; counting admissible shapes with
a prescribed content character gives the tableau route to the outer
multiplicities.

That count (``tau_count``, behind ``tau_bruteforce``) walks the tree of
shapes built block by block, largest part first, and cuts a branch only
when no shape below it can qualify, because a residue count already
exceeds the content character or a block of equal rows breaks the
congruences.  It memoizes the count below each node on a small state,
so its cost follows the number of states rather than the answer, and it
uses no orbit and no multipartition, so it stays an independent check
of the formula.  The state does not name the character it started from,
so ``tau_counts`` counts many characters of one length and charge
through one memo: the characters of a delta-string xi - eta_0 delta
(each the last plus 1 in every entry) reach largely the same subtrees.
``mw_shapes_with_character`` lists the same tree shape by shape and
re-checks every shape with ``is_mw`` and ``shape_character``; it gives
the rows of the CLI ``tau`` command and the tests' reference.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .partitions import canonical, part_multiplicities
from .records import Record


class ExtendedTableau(Record):
    """Filling of a Young diagram by residues in [0, n]."""

    __slots__ = ("n", "shape", "charge")

    def __init__(self, n: int, shape: tuple, charge: Optional[int] = None):
        # charge is set when contents follow the charge rule
        super().__init__(n, shape, charge)

    def content(self, r: int, c: int) -> int:
        """Entry at row r, column c (1-based)."""
        if not (1 <= r <= len(self.shape) and 1 <= c <= self.shape[r - 1]):
            raise IndexError("box outside the diagram")
        if self.charge is None:
            raise ValueError("tableau has no charge rule")
        return (c - r + self.charge) % (self.n + 1)

    def boxes(self) -> Iterator[tuple]:
        for r, row_len in enumerate(self.shape, start=1):
            for c in range(1, row_len + 1):
                yield (r, c)


def charged_tableau(shape, i: int, n: int) -> ExtendedTableau:
    """The unique i-charged tableau on the given shape."""
    return ExtendedTableau(n, canonical(shape), i % (n + 1))


def content_character(T: ExtendedTableau) -> tuple:
    """Vector counting boxes of each residue class."""
    return shape_character(T.shape, T.charge, T.n)


def shape_character(shape, i: int, n: int) -> tuple:
    """Content character of the i-charged tableau on shape, computed
    row by row from the cyclic structure of the residues."""
    m = n + 1
    eta = [0] * m
    for r, length in enumerate(canonical(shape), start=1):
        full, rem = divmod(length, m)
        if full:
            for l in range(m):
                eta[l] += full
        start = (1 - r + i) % m
        for c in range(rem):
            eta[(start + c) % m] += 1
    return tuple(eta)


def is_regular(shape, n: int) -> bool:
    """True iff every part size repeats at most n times."""
    return all(r <= n for _, r in part_multiplicities(canonical(shape)))


def is_mw(shape, i: int, n: int) -> bool:
    """Admissibility of a shape at charge i: n-regularity plus the
    congruences k_l + i = r_l + 2(r_1 + ... + r_{l-1}) mod (n+1) on all
    distinct part sizes k_l.  Equivalently: r_1 = i + k_1 together with
    k_{l+1} - k_l = r_l + r_{l+1}, all mod (n+1)."""
    shape = canonical(shape)
    mults = part_multiplicities(shape)
    if any(r > n for _, r in mults):
        return False
    m = n + 1
    prefix = 0
    for k_l, r_l in mults:
        if (k_l + i - r_l - 2 * prefix) % m != 0:
            return False
        prefix += r_l
    return True


def mw_shapes_with_character(eta, i: int) -> list:
    """All admissible i-charged shapes whose content character is eta,
    in the order of the n-regular partitions of |eta| listed by distinct
    part sizes from the largest down, each with its multiplicity.

    Shapes are built row by row, largest part first.  A branch is
    abandoned as soon as some residue count exceeds eta (counts only
    grow), and a block of equal rows is extended below only when its
    size satisfies the is_mw congruence, which depends on the blocks
    above alone.  Every returned shape is re-checked against is_mw and
    shape_character."""
    eta = tuple(eta)
    n = len(eta) - 1
    m = n + 1
    out = []
    if any(e < 0 for e in eta):
        return out
    counts = [0] * m
    rows = []

    def place(r: int, length: int, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) the residues of row r."""
        full, rem = divmod(length, m)
        if full:
            for l in range(m):
                counts[l] += sign * full
        start = (1 - r + i) % m
        for c in range(rem):
            counts[(start + c) % m] += sign

    def rec(remaining: int, largest: int, prefix: int) -> None:
        if remaining == 0:
            out.append(tuple(rows))
            return
        for part in range(min(largest, remaining), 0, -1):
            # the congruence of is_mw fixes the block size modulo n + 1
            reps = (part + i - 2 * prefix) % m
            if reps == 0 or part * reps > remaining:
                continue
            placed = 0
            while placed < reps:
                placed += 1
                place(prefix + placed, part, 1)
                if any(c > e for c, e in zip(counts, eta)):
                    break
            else:
                rows.extend([part] * reps)
                rec(remaining - part * reps, part - 1, prefix + reps)
                del rows[-reps:]
            for r in range(prefix + 1, prefix + placed + 1):
                place(r, part, -1)

    rec(sum(eta), sum(eta), 0)
    for shape in out:
        if not (is_mw(shape, i, n) and shape_character(shape, i, n) == eta):
            raise AssertionError(f"enumerated shape {shape} is not admissible "
                                 f"with character {eta}")
    return out


def _shape_counter(m: int, i: int, stop: Optional[int] = None):
    """The tableau count at charge i for characters of length m, as a
    function count(eta) of a tuple eta over one memo; see tau_count.

    The memo is keyed on (residue counts left, largest part allowed, rows
    placed mod m), which names the same subtree whatever character it was
    reached from, so one counter serves any number of characters.  With a
    stop, a memoized value may be only some number above stop, so a
    stopped counter answers one character and is then dropped."""
    # blocks[p][c], for parts = c mod m placed below p rows (mod m): the
    # block size, the residues its rows hold beyond their full cycles,
    # and the row count after the block (mod m)
    blocks = []
    for p in range(m):
        row = []
        for c in range(m):
            reps = (c + i - 2 * p) % m
            extra = [0] * m
            for r in range(p + 1, p + reps + 1):
                for col in range(c):
                    extra[(1 - r + i + col) % m] += 1
            row.append((reps, extra, (p + reps) % m))
        blocks.append(row)
    memo = {}

    def below(rest: tuple, remaining: int, largest: int, prefix: int) -> int:
        total = 0
        for part in range(largest, 0, -1):
            full, c = divmod(part, m)
            reps, extra, after = blocks[prefix][c]
            if reps == 0 or part * reps > remaining:
                continue
            left = [x - full * reps - y for x, y in zip(rest, extra)]
            low = min(left)
            if low < 0:
                continue
            under = remaining - part * reps
            if under == 0:
                total += 1
            else:
                # a row of m * (low + 1) boxes or more holds too many boxes
                # of some residue, so larger bounds name the same subtree
                key = (tuple(left), min(part - 1, under, m * low + m - 1), after)
                sub = memo.get(key)
                if sub is None:
                    sub = memo[key] = below(key[0], under, key[1], after)
                total += sub
            if stop is not None and total > stop:
                return total
        return total

    def count(eta) -> int:
        if any(e < 0 for e in eta):
            return 0
        size = sum(eta)
        if size == 0:
            return 1
        key = (eta, min(size, m * min(eta) + m - 1), 0)
        total = memo.get(key)
        if total is None:
            total = memo[key] = below(eta, size, key[1], 0)
        return total

    return count


def tau_count(eta, i: int, stop: Optional[int] = None) -> int:
    """Number of admissible i-charged shapes with content character eta,
    that is len(mw_shapes_with_character(eta, i)), without listing them.

    The count walks the tree of mw_shapes_with_character: blocks of
    equal rows, largest part first, each block size fixed modulo n + 1
    by the is_mw congruence, and a branch dropped once a residue count
    exceeds eta.  Below a node the count depends only on the residue
    counts still to fill, the largest part still allowed and the number
    of rows placed so far modulo n + 1, because row r's residues start
    at (1 - r + i) mod (n + 1) and the congruence reads the rows so far
    only through 2 * prefix mod (n + 1).  Counts are memoized on that
    state, in a memo made for this call (tau_counts shares one memo
    across many characters).

    With a stop, every node returns as soon as its running total passes
    stop, and the result is then some number above stop.  A memoized
    value above stop only ever feeds a total above stop, so a count at or
    below stop is exact."""
    eta = tuple(eta)
    return _shape_counter(len(eta), i, stop)(eta)


def tau_counts(etas, i: int) -> list:
    """[tau_count(eta, i) for eta in etas], through one counter: the
    characters share one memo, so subtrees that several of them reach
    (as the characters of one delta-string do) are counted once.  The
    characters must all have one length; no stop is taken, because a
    stopped memo holds values that are only bounds."""
    etas = [tuple(eta) for eta in etas]
    lengths = {len(eta) for eta in etas}
    if len(lengths) > 1:
        raise ValueError(f"characters of mixed lengths {sorted(lengths)}")
    if not etas:
        return []
    count = _shape_counter(lengths.pop(), i)
    return [count(eta) for eta in etas]


def tau_bruteforce(eta, i: int) -> int:
    """Count admissible i-charged tableaux with content character eta,
    independently of the orbit-sum formula: see tau_count."""
    return tau_count(eta, i)


def eta_prime(eta, i: int) -> tuple:
    """The transformed vector with cyclic entries
    delta_{0,r} + delta_{i,r} - 2 eta_r + eta_{r-1} + eta_{r+1};
    eta indexes a dominant weight iff all entries are >= 0."""
    eta = tuple(eta)
    m = len(eta)
    n = m - 1
    i = i % m
    return tuple(
        (1 if r == 0 else 0) + (1 if r == i else 0)
        - 2 * eta[r] + eta[(r - 1) % m] + eta[(r + 1) % m]
        for r in range(m)
    )


def jk_from_eta(eta, i: int):
    """Indices {j, k} with eta' = e_j + e_k; requires eta' >= 0 with
    total 2.  Then j + k = i mod (n + 1)."""
    ep = eta_prime(eta, i)
    if any(x < 0 for x in ep) or sum(ep) != 2:
        raise ValueError("eta' is not of the form e_j + e_k")
    idx = [r for r, x in enumerate(ep) for _ in range(x)]
    j, k = idx
    return (j, k)
