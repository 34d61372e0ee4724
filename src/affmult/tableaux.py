"""Charged shapes of rank n, their content characters and their count.

A box (r, c) of an i-charged tableau is forced to carry the residue
c - r + i mod (n + 1).  A shape is admissible for charge i when it is
n-regular (no part repeats more than n times) and its distinct part
sizes satisfy a system of congruences; counting admissible shapes with
a prescribed content character gives the tableau route to the outer
multiplicities.

One tree of shapes serves the count and the listing.  It builds shapes
block by block of equal rows, largest part first, and cuts a branch
only when no shape below it can qualify, because a residue count
already exceeds the content character or a block of equal rows breaks
the congruences.  The count (``tau_counts``, and ``tau_bruteforce``
for one character) memoizes the number of shapes below each node on a
small state that does not name the character it started from, so it
counts many characters of one length and charge through one memo: those
of a delta-string xi - eta_0 delta reach largely the same subtrees.  The
listing (``mw_shapes_with_character``, the rows of the CLI ``tau``
command) runs the same child loop but enters only nodes of positive
count, so it costs about its output.  The tree uses no orbit and no
multipartition, so it stays an independent check of the formula.
The bounds on its passes, which the CLI prices, sit beside it:
``block_steps``, ``count_passes`` and ``listing_passes``.
"""

from __future__ import annotations

from typing import Optional

from .partitions import canonical, part_multiplicities


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


def mw_shapes_with_character(eta, i: int, tree=None) -> list:
    """All admissible i-charged shapes whose content character is eta,
    in the order of the n-regular partitions of |eta| listed by distinct
    part sizes from the largest down, each with its multiplicity: the
    leaves of tau_counts' tree, reached through the nodes whose
    memoized count is positive, in tree when given (a _shape_tree(len(eta),
    i, stop) that may have counted eta already).  Every shape is re-checked
    against is_mw and shape_character."""
    eta = tuple(eta)
    n = len(eta) - 1
    out = (tree or _shape_tree(n + 1, i))[1](eta)
    for shape in out:
        if not (is_mw(shape, i, n) and shape_character(shape, i, n) == eta):
            raise AssertionError(f"enumerated shape {shape} is not admissible "
                                 f"with character {eta}")
    return out


def _blocks(m: int, i: int) -> tuple:
    """blocks[p][c], for parts = c mod m placed below p rows (mod m): the
    block size, the residues its rows hold beyond their full cycles, and
    the row count after the block (mod m)."""
    blocks = []
    for p in range(m):
        row = []
        for c in range(m):
            reps = (c + i - 2 * p) % m
            extra = [0] * m
            for r in range(p + 1, p + reps + 1):
                for col in range(c):
                    extra[(1 - r + i + col) % m] += 1
            row.append((reps, tuple(extra), (p + reps) % m))
        blocks.append(tuple(row))
    return tuple(blocks)


def block_steps(m: int) -> int:
    """A bound on the passes of _blocks(m, i): reps < m rows of c columns
    for each pair (p, c), and as p runs reps runs through one parity class
    of residues at most twice, so at most m^4/4 passes."""
    return m ** 4 // 4


def count_passes(m: int) -> int:
    """The child-loop passes of a count of rows shapes are at most
    count_passes(m) * (rows + 1): measured, not derived, as a dead node
    costs passes but no shape (under 7m(rows + 1) on the tests' queries)."""
    return 8 * m


def listing_passes(rows: int, size: int) -> int:
    """The child-loop passes of shapes(eta) past its count, rows shapes of
    size boxes: it enters only nodes above some shape, each once; the root
    loops over at most size parts, the node below a block of part k over
    fewer than k, and a shape's parts but its last sum to less than size."""
    return (rows + 1) * size


def _shape_tree(m: int, i: int, stop: Optional[int] = None):
    """The tree of admissible shapes at charge i for characters of length
    m, as count(eta) and shapes(eta) over one memo (see tau_counts and
    mw_shapes_with_character).  A node is the state (residue counts
    left, largest part allowed, rows placed mod m) and a leaf is 0.  With a
    stop, a memoized count may be only some number above stop, so a
    stopped tree answers one count, and lists its shapes only if that
    count is at most stop: no node's running total can then have passed
    stop, so every count memoized below its root is exact."""
    blocks = _blocks(m, i)
    memo = {}

    def children(node: tuple) -> dict:
        """{part: child} for the blocks that fit below node, largest first,
        child 0 when the block ends the shape; memoizes the count of node."""
        out, total = {}, 0
        rest, largest, prefix = node
        remaining = sum(rest)
        row = blocks[prefix]
        for part in range(largest, 0, -1):
            full, c = divmod(part, m)
            reps, extra, after = row[c]
            under = remaining - part * reps
            if reps == 0 or under < 0:
                continue
            cycles = full * reps
            left = [x - cycles - y for x, y in zip(rest, extra)]
            low = min(left)
            if low < 0:
                continue
            if not under:
                out[part] = 0
                total += 1
            else:
                # a row of m * (low + 1) boxes or more holds too many boxes
                # of some residue, so larger bounds name the same subtree
                child = out[part] = (tuple(left), min(part - 1, under, m * low + m - 1), after)
                sub = memo.get(child)
                if sub is None:
                    children(child)
                    sub = memo[child]
                total += sub
            if stop is not None and total > stop:
                break
        memo[node] = total
        return out

    def root(eta):
        """The node of eta: None if an entry is negative, 0 if all are 0."""
        size = sum(eta)
        if min(eta) >= 0:
            return size and (eta, min(size, m * min(eta) + m - 1), 0)

    def count(eta) -> int:
        node = root(eta)
        if not node:
            return 0 if node is None else 1
        if node not in memo:
            children(node)
        return memo[node]

    def shapes(eta) -> list:
        out, live = [], {}

        def walk(node, rows: tuple) -> None:
            if not node:
                out.append(rows)
                return
            kids = live.get(node)
            if kids is None:
                row = blocks[node[2]]
                kids = live[node] = [((part,) * row[part % m][0], child)
                                     for part, child in children(node).items()
                                     if not child or memo[child]]
            for block, child in kids:
                walk(child, rows + block)

        total = count(eta)
        if stop is not None and total > stop:
            raise AssertionError(f"a count above its stop {stop} has inexact memoized counts")
        if total:
            walk(root(eta), ())
        return out

    return count, shapes


def tau_counts(etas, i: int) -> list:
    """For each eta of etas, the number of admissible i-charged shapes
    with content character eta, that is len(mw_shapes_with_character(eta,
    i)), without listing them.  The count below a node depends only on its
    state, because row r's residues start at (1 - r + i) mod (n + 1) and
    the is_mw congruence reads the rows so far only through 2 * prefix mod
    (n + 1); it is memoized on that state, in one memo made for this call,
    so subtrees that several characters reach (as the characters of one
    delta-string do) are counted once.  The characters must all have one
    length; no stop is taken, because a stopped memo holds values that are
    only bounds."""
    etas = [tuple(eta) for eta in etas]
    lengths = {len(eta) for eta in etas}
    if len(lengths) > 1:
        raise ValueError(f"characters of mixed lengths {sorted(lengths)}")
    if not etas:
        return []
    count = _shape_tree(lengths.pop(), i)[0]
    return [count(eta) for eta in etas]


def tau_bruteforce(eta, i: int) -> int:
    """The tableau count of the one character eta: tau_counts([eta], i)."""
    return tau_counts([eta], i)[0]
