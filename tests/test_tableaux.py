"""Charged tableaux, content characters, shape admissibility and the
tableau multiplicity count."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmult import cli, tableaux
from affmult.affine_cartan import affine_Lambda
from affmult.multiplicities import (
    delta_string,
    eta_from_xi,
    eta_prime,
    general_fundamental,
    jk_from_eta,
    tau_formula,
)
from affmult.tableaux import (
    block_steps,
    count_passes,
    is_mw,
    listing_passes,
    mw_shapes_with_character,
    shape_character,
    tau_bruteforce,
    tau_counts,
)
from charged_tableaux import charged_tableau, content_character, is_regular
from pass_counters import counting
from weyl_group import affine_alpha


shapes = st.lists(st.integers(1, 8), min_size=0, max_size=5).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


def partitions_regular(m, n):
    """Partitions of m in which no part repeats more than n times, by
    distinct part sizes from the largest down, each with its multiplicity
    from 1 up."""

    def rec(remaining, largest, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(largest, remaining), 0, -1):
            for reps in range(1, n + 1):
                used = part * reps
                if used > remaining:
                    break
                prefix.extend([part] * reps)
                yield from rec(remaining - used, part - 1, prefix)
                del prefix[-reps:]

    yield from rec(m, m, [])


def reference_shapes(eta, i):
    """Unpruned filter: every regular partition of |eta|, kept when it is
    admissible and has content character eta."""
    eta = tuple(eta)
    n = len(eta) - 1
    return [shape for shape in partitions_regular(sum(eta), n)
            if is_mw(shape, i, n) and shape_character(shape, i, n) == eta]


def signature_epsilons(shape, b, n):
    """[epsilon_0, ..., epsilon_n] of an (n+1)-regular partition in
    Misra-Miwa's realization of the crystal B(Lambda_b), where a box
    (r, c) has residue c - r + b mod (n + 1): list the addable and the
    removable j-nodes from the top row down, cancel each addable node
    that sits directly above a removable one in that list (after the
    cancellations between them), and count the removable nodes left.
    With this order, f_j adds the topmost addable node left, and the
    f_j from the empty partition reach exactly the regular ones."""
    m = n + 1
    parts = tuple(shape) + (0,)
    nodes = []  # (residue, +1 addable or -1 removable), from the top down
    for r, part in enumerate(parts, start=1):
        if r == 1 or parts[r - 2] > part:
            nodes.append(((part + 1 - r + b) % m, 1))
        if r < len(parts) and part > parts[r]:
            nodes.append(((part - r + b) % m, -1))
    eps, open_addable = [0] * m, [0] * m
    for j, kind in nodes:
        if kind > 0:
            open_addable[j] += 1
        elif open_addable[j]:
            open_addable[j] -= 1
        else:
            eps[j] += 1
    return eps


def reduced_signature(shape, b, n, j):
    """Rows of the removable and of the addable j-nodes that the
    cancellation of signature_epsilons leaves, from the top row down; each
    removable node cancels the nearest addable one above it.  e_j removes
    the lowest removable node left, the node f_j re-adds, and f_j adds the
    topmost addable node left."""
    m = n + 1
    parts = tuple(shape) + (0,)
    removable, addable = [], []
    for r, part in enumerate(parts, start=1):
        if (r == 1 or parts[r - 2] > part) and (part + 1 - r + b) % m == j:
            addable.append(r)
        if r < len(parts) and part > parts[r] and (part - r + b) % m == j:
            if addable:
                addable.pop()
            else:
                removable.append(r)
    return removable, addable


def add_box(shape, r, step):
    """shape with step (1 or -1) boxes added at the end of row r."""
    parts = list(shape) + [0]
    parts[r - 1] += step
    return tuple(part for part in parts if part)


def mirror_shape(shape, b, n):
    """The image of shape under the crystal isomorphism B(Lambda_b) ->
    B(Lambda_{-b}) with e_j -> e_{-j}: remove good nodes down to the empty
    shape, the smallest residue j with epsilon_j > 0 each time, then, at
    charge -b, add good nodes of the residues -j in reverse order."""
    m = n + 1
    path = []
    while shape:
        j = next(j for j in range(m) if reduced_signature(shape, b, n, j)[0])
        shape = add_box(shape, reduced_signature(shape, b, n, j)[0][-1], -1)
        path.append(j)
    for j in reversed(path):
        shape = add_box(shape, reduced_signature(shape, -b % m, n, -j % m)[1][0], 1)
    return shape


@st.composite
def characters(draw):
    """(eta, i) at rank 1-4 with |eta| <= 24: an arbitrary vector, or the
    character of a random shape, so that non-empty results are common."""
    n = draw(st.integers(1, 4))
    i = draw(st.integers(0, n))
    if draw(st.booleans()):
        eta = draw(st.lists(st.integers(0, 6), min_size=n + 1, max_size=n + 1))
    else:
        parts = sorted(draw(st.lists(st.integers(1, 24), max_size=8)), reverse=True)
        while sum(parts) > 24:
            parts.pop(0)
        eta = shape_character(parts, i, n)
    return tuple(eta), i


@st.composite
def charge_mixes(draw):
    """(etas, i): a shuffled mix of characters of one (n, i), n <= 3, drawn
    from the delta-strings of every (j, k) down to eta0 = 8, with repeats
    and the zero character."""
    n = draw(st.integers(1, 3))
    i = draw(st.integers(0, n))
    pool = []
    for j in range(n + 1):
        k = (i - j) % (n + 1)
        top = affine_Lambda(n, j) + affine_Lambda(n, k)
        for eta0 in range(9):
            try:
                pool.append(eta_from_xi(n, i, top.shift_delta(-eta0)))
            except ValueError:
                pass
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    repeats = draw(st.lists(st.sampled_from(chosen), max_size=4))
    return draw(st.permutations(chosen + repeats + [(0,) * (n + 1)])), i


def distinct_part_counts(size: int, parts) -> list:
    """Coefficients up to q^size of prod_{p in parts} (1 + q^p)."""
    out = [1] + [0] * size
    for p in parts:
        for s in range(size, p - 1, -1):
            out[s] += out[s - p]
    return out


class TestChargedTableau:
    def test_empty(self):
        T = charged_tableau((), 1, 2)
        assert content_character(T) == (0, 0, 0)

    def test_small_hook(self):
        T = charged_tableau((2, 1), 0, 2)
        assert T.content(1, 1) == 0
        assert T.content(1, 2) == 1
        assert T.content(2, 1) == 2

    def test_column(self):
        T = charged_tableau((1, 1, 1), 1, 2)
        assert [T.content(r, 1) for r in (1, 2, 3)] == [1, 0, 2]


class TestContentCharacter:
    def test_hook_at_charge_zero(self):
        assert content_character(charged_tableau((2, 1), 0, 2)) == (1, 1, 1)

    def test_headline_shape(self):
        assert content_character(charged_tableau((15, 2), 1, 2)) == (6, 6, 5)

    @given(shapes, st.integers(0, 3), st.integers(1, 3))
    def test_total_boxes(self, shape, i, n):
        eta = content_character(charged_tableau(shape, i % (n + 1), n))
        assert sum(eta) == sum(shape)

    @given(shapes, st.integers(0, 3), st.integers(1, 3))
    def test_matches_boxwise_count(self, shape, i, n):
        T = charged_tableau(shape, i % (n + 1), n)
        counts = [0] * (n + 1)
        for r, c in T.boxes():
            counts[T.content(r, c)] += 1
        assert content_character(T) == tuple(counts)


class TestRegularity:
    def test_examples(self):
        assert is_regular((3, 3, 1), 2)
        assert not is_regular((2, 2, 2), 2)
        assert is_regular((), 3)


class TestAdmissibility:
    def test_headline_shapes(self):
        assert is_mw((15, 2), 1, 2)
        assert is_mw((6, 5, 4, 1, 1), 1, 2)

    def test_empty(self):
        for n in (1, 2, 3):
            for i in range(n + 1):
                assert is_mw((), i, n)

    def test_irregular_rejected(self):
        assert not is_mw((2, 2, 2), 1, 2)

    def test_is_the_crystal_rule(self):
        # B(Lambda_0) (x) B(Lambda_i) holds B(Lambda_0 + wt b) for exactly the
        # b in B(Lambda_i) with epsilon_j(b) <= delta_{j0} (Kashiwara), so the
        # congruences of is_mw must pick out those partitions at every charge
        checked = admitted = 0
        for n, top in zip(range(1, 8), (24, 20, 18, 16, 15, 14, 13)):
            for size in range(top + 1):
                for shape in partitions_regular(size, n):
                    for i in range(n + 1):
                        eps = signature_epsilons(shape, i, n)
                        crystal = eps[0] <= 1 and not any(eps[1:])
                        assert is_mw(shape, i, n) == crystal, (shape, i, n, eps)
                        checked += 1
                        admitted += crystal
        assert (checked, admitted) == (21359, 773)

    def test_general_pairs_are_the_crystal_rule(self):
        # B(Lambda_a) (x) B(Lambda_b) holds B(Lambda_a + wt b) for the b in
        # B(Lambda_b) with epsilon_j(b) <= delta_{ja}, so the multiplicity of
        # Lambda_a + Lambda_b - sum_j eta_j alpha_j counts those charge-b
        # shapes of character eta; the tableau count reads it at charge
        # b - a on eta rotated by a, with no delta-shift
        characters = nonzero = 0
        for n, top in zip(range(1, 5), (12, 10, 9, 8)):
            m = n + 1
            for a in range(m):
                for b in range(m):
                    crystal = {}
                    for size in range(top + 1):
                        for shape in partitions_regular(size, n):
                            eta = shape_character(shape, b, n)
                            eps = signature_epsilons(shape, b, n)
                            admitted = all(e <= (j == a) for j, e in enumerate(eps))
                            crystal[eta] = crystal.get(eta, 0) + admitted
                    for eta, count in crystal.items():
                        xi = affine_Lambda(n, a) + affine_Lambda(n, b)
                        for j, e in enumerate(eta):
                            xi = xi - e * affine_alpha(n, j)
                        formula = general_fundamental(n, a, b, xi) if xi.is_dominant() else 0
                        rotated = eta[a:] + eta[:a]
                        assert count == formula == tau_bruteforce(rotated, (b - a) % m), (n, a, b, eta)
                        characters += 1
                        nonzero += count > 0
        assert (characters, nonzero) == (1958, 317)

    def test_single_part_size_congruence(self):
        # one distinct part size k with multiplicity r: requires
        # k + i = r mod (n + 1)
        assert is_mw((3,), 1, 2)       # 3 + 1 = 1 mod 3
        assert not is_mw((4,), 1, 2)   # 4 + 1 = 2 mod 3
        assert is_mw((2, 2), 0, 2)     # 2 + 0 = 2 mod 3


class TestMirrorBijection:
    def test_mirror_maps_listings_one_to_one(self):
        # the diagram reflection sigma: r -> -r mod (n + 1) fixes node 0, so
        # as a crystal isomorphism it keeps epsilon_0 <= 1 and the other
        # epsilon_j = 0, and maps the charge-i shapes of character eta onto
        # the charge -i shapes of (eta_0, eta_n, ..., eta_1)
        start = time.process_time()
        instances = shapes = 0
        for n in (1, 2, 3):
            m = n + 1
            for i in range(m):
                for j in range(m):
                    k = (i - j) % m
                    for eta in delta_string(n, i, j, k, 6) if j <= k else ():
                        listing = mw_shapes_with_character(eta, i)
                        for shape in listing:
                            assert [len(reduced_signature(shape, i, n, r)[0])
                                    for r in range(m)] == signature_epsilons(shape, i, n)
                        image = [mirror_shape(shape, i, n) for shape in listing]
                        mirrored = mw_shapes_with_character(eta[:1] + eta[:0:-1], -i % m)
                        assert sorted(image) == sorted(mirrored), (n, i, eta)
                        assert len(set(image)) == len(image), (n, i, eta)
                        assert [mirror_shape(shape, -i % m, n) for shape in image] == listing
                        instances, shapes = instances + 1, shapes + len(listing)
        assert time.process_time() - start < 2.0
        assert (instances, shapes) == (122, 452)


class TestBruteForce:
    def test_headline(self):
        assert tau_bruteforce((6, 6, 5), 1) == 5

    def test_headline_shapes(self):
        assert mw_shapes_with_character((6, 6, 5), 1) == [
            (15, 2), (12, 5), (9, 8), (9, 3, 3, 1, 1), (6, 5, 4, 1, 1)]

    def test_empty_character(self):
        for n in (1, 2):
            for i in range(n + 1):
                assert tau_bruteforce((0,) * (n + 1), i) == 1

    @given(characters())
    @settings(max_examples=300, deadline=None)
    def test_pruned_enumeration_matches_reference(self, case):
        eta, i = case
        assert mw_shapes_with_character(eta, i) == reference_shapes(eta, i)

    def test_every_charge_matches_reference(self):
        for n, etas in [(1, [(4, 4), (6, 5), (0, 0)]),
                        (2, [(4, 4, 4), (6, 6, 5), (0, 0, 0)]),
                        (3, [(4, 4, 4, 4), (6, 6, 6, 5), (0, 0, 0, 0)]),
                        (4, [(3, 3, 3, 3, 3), (4, 4, 4, 4, 3), (4, 4, 3, 3, 3)]),
                        (5, [(2, 2, 2, 2, 2, 2), (3, 3, 3, 3, 3, 2), (3, 3, 2, 2, 2, 2)])]:
            for i in range(n + 1):
                for eta in etas:
                    assert mw_shapes_with_character(eta, i) == reference_shapes(eta, i)


class TestTauCount:
    @given(characters())
    @settings(max_examples=300, deadline=None)
    def test_matches_listing(self, case):
        # the listing walks the count's own tree, so the count is checked
        # against the unpruned filter instead
        eta, i = case
        assert tau_bruteforce(eta, i) == len(reference_shapes(eta, i))

    def test_pinned_values(self):
        assert tau_bruteforce((6, 6, 5), 1) == 5
        assert tau_bruteforce((40, 40, 39), 1) == 10584

    def test_deep_character_is_fast(self):
        # the listing does not finish this one in 20 s
        start = time.process_time()
        assert tau_bruteforce((60, 60, 59), 1) == 206878
        assert time.process_time() - start < 5

    def test_zero_character(self):
        for n in (1, 2, 3, 4):
            for i in range(n + 1):
                assert tau_bruteforce((0,) * (n + 1), i) == 1

    def test_negative_entry(self):
        assert tau_bruteforce((3, -1, 3), 1) == 0
        assert tau_bruteforce((-1, 0), 0) == 0
        assert tau_bruteforce((1, -1), 0) == 0
        assert mw_shapes_with_character((3, -1, 3), 1) == []

    @given(characters(), st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_stop_keeps_counts_up_to_it(self, case, stop):
        eta, i = case
        full = tau_bruteforce(eta, i)
        stopped = tableaux._shape_tree(len(eta), i, stop)[0](eta)
        if full <= stop:
            assert stopped == full
        else:
            assert stopped > stop

    def test_stop_cuts_a_deep_count_short(self):
        eta, deep = (40, 40, 39), (300, 300, 299)
        assert tableaux._shape_tree(len(eta), 1, 20000)[0](eta) == 10584
        assert tableaux._shape_tree(len(eta), 1, 10584)[0](eta) == 10584
        assert tableaux._shape_tree(len(eta), 1, 10583)[0](eta) > 10583
        start = time.process_time()
        assert tableaux._shape_tree(len(deep), 1, 20000)[0](deep) > 20000
        assert time.process_time() - start < 1

    def test_bruteforce_is_the_count(self):
        assert tau_bruteforce((40, 40, 39), 1) == 10584


class TestListingSteps:
    def test_listing_passes_are_the_cli_term(self):
        """On accepted tau queries at ranks 1-7, listing the shapes makes
        at most listing_passes(rows, |eta|) passes of the child loop past
        the count, and the count at most count_passes(n + 1) * (rows + 1),
        the bounds tau's work estimate prices."""
        parser = cli.build_parser()
        for n, depth in [(1, 30), (2, 20), (3, 12), (4, 10), (5, 8), (6, 7), (7, 6)]:
            for i in range(n + 1):
                for j in range(n + 1):
                    top = affine_Lambda(n, j) + affine_Lambda(n, (i - j) % (n + 1))
                    for eta0 in range(depth + 1):
                        try:
                            eta = eta_from_xi(n, i, top.shift_delta(-eta0))
                        except ValueError:
                            continue
                        # every query of the grid is accepted
                        cli.Query(parser.parse_args(["tau", "--n", str(n), "--i", str(i),
                                                     "--eta", ",".join(map(str, eta))]))
                        count, shapes = tableaux._shape_tree(n + 1, i)
                        with counting() as counted:
                            rows = count(eta)
                        assert counted["count"] <= count_passes(n + 1) * (rows + 1)
                        with counting() as listed:
                            assert len(shapes(eta)) == rows
                        assert listed["listing"] <= listing_passes(rows, sum(eta)), (n, i, eta)

    def test_block_table_passes(self):
        """The block table of charge i makes sum(reps * c) passes, at most
        block_steps(m)."""
        for m in range(1, 17):
            for i in range(m):
                table = tableaux._blocks(m, i)
                passes = sum(reps * c for row in table for c, (reps, _, _) in enumerate(row))
                assert passes <= block_steps(m), (m, i)


class TestTauCounts:
    @given(charge_mixes())
    @settings(max_examples=100, deadline=None)
    def test_shared_memo_matches_fresh_counts(self, case):
        etas, i = case
        assert tau_counts(etas, i) == [tau_bruteforce(eta, i) for eta in etas]

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="mixed lengths"):
            tau_counts([(1, 1), (1, 1, 1)], 0)

    def test_no_characters(self):
        assert tau_counts([], 1) == []

    def test_ising_strings_at_rank_one(self):
        # At n = 1 the delta-strings are the Ising (c = 1/2) characters:
        # 2 Lambda_0 - d delta has eta = (d, d) and 2 Lambda_1 - (d + 1) delta
        # has eta = (d + 1, d), both at charge 0, and they are the even and
        # odd parts of prod_{r >= 1} (1 + q^(r - 1/2)); Lambda_0 + Lambda_1
        # - d delta has eta = (d, d) at charge 1 and gives prod_{r >= 1}
        # (1 + q^r).  In x = q^(1/2) the first product counts partitions
        # into distinct odd parts.
        D = 20
        odd = distinct_part_counts(2 * D + 1, range(1, 2 * D + 2, 2))
        cases = [
            (0, [(d, d) for d in range(D + 1)], odd[0::2]),
            (0, [(d + 1, d) for d in range(D + 1)], odd[1::2]),
            (1, [(d, d) for d in range(D + 1)],
             distinct_part_counts(D, range(1, D + 1))),
        ]
        for i, etas, series in cases:
            assert tau_counts(etas, i) == series
            assert [tau_formula(1, i, eta) for eta in etas] == series


class TestEtaPrime:
    def test_constant_character(self):
        assert eta_prime((2, 2, 2), 1) == (1, 1, 0)

    def test_dropped_last_entry(self):
        assert eta_prime((2, 2, 1), 1) == (0, 0, 2)

    def test_rank_one_zero(self):
        assert eta_prime((0, 0), 0) == (2, 0)


class TestJKFromEta:
    def test_constant_character(self):
        assert jk_from_eta((3, 3, 3), 1) == (0, 1)

    def test_dropped_last_entry(self):
        assert jk_from_eta((3, 3, 2), 1) == (2, 2)

    def test_rank_one_zero(self):
        assert jk_from_eta((0, 0), 0) == (0, 0)

    def test_rejects_non_dominant(self):
        try:
            jk_from_eta((2, 0, 0), 1)
        except ValueError:
            pass
        else:
            raise AssertionError("expected an error for a bad character")

    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 4),
           st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_index_sum_congruence(self, n, i, eta0, bump):
        # characters of the form eta0*(1,...,1) minus a small correction
        # often land in the admissible set; skip the rest
        i = i % (n + 1)
        eta = [eta0] * (n + 1)
        if bump and eta0 > 0:
            eta[-1] -= 1
        try:
            j, k = jk_from_eta(tuple(eta), i)
        except ValueError:
            return
        assert (j + k - i) % (n + 1) == 0
