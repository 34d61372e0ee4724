"""Bounded partitions, multipartition counts, Gaussian binomials and the
box-complement stabilization bijection."""

from fractions import Fraction
from functools import reduce
from itertools import chain, combinations_with_replacement, product
from math import prod
from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st

from affmult.affine_cartan import AffineWeight
from affmult.laurent import LaurentPoly
from affmult.multiplicities import f_ball_bound, orbit_terms
from affmult.partitions import (
    _count,
    _rho_multi_sorted,
    binomial_steps,
    canonical,
    count_steps,
    q_binomial,
    q_binomial_product,
    rho,
    rho_multi,
    stabilize_threshold,
    times_q_factors,
)
from affmult.weyl_orbits import ball_leaves
from multipartitions import (
    box_complement, enumerate_bounded, enumerate_multi, pascal_triangle, stabilize_bijection,
)
from pass_counters import counting


class TestEnumerateBounded:
    def test_three_bounded_by_two(self):
        assert enumerate_bounded(3, 2) == [(2, 1), (1, 1, 1)]

    def test_zero_has_empty_partition(self):
        assert enumerate_bounded(0, 7) == [()]

    def test_part_count_cap(self):
        assert enumerate_bounded(3, 2, 2) == [(2, 1)]

    def test_zero_bound_positive_target(self):
        assert enumerate_bounded(3, 0) == []

    def test_lexicographically_decreasing(self):
        out = enumerate_bounded(8, 4)
        assert out == sorted(out, reverse=True)


class TestRho:
    def test_three_bounded_by_two(self):
        assert rho(3, 2) == 2

    def test_five_bounded_by_one(self):
        assert rho(5, 1) == 1

    def test_non_integer_argument(self):
        assert rho(Fraction(1, 2), 4) == 0

    def test_negative_argument(self):
        assert rho(-3, 4) == 0
        assert rho(Fraction(-1, 2), 4) == 0

    @given(st.integers(0, 30), st.integers(0, 10))
    def test_matches_enumeration(self, m, b):
        assert rho(m, b) == len(enumerate_bounded(m, b))

    @given(st.integers(0, 20), st.integers(0, 6), st.integers(0, 6))
    def test_conjugation_symmetry(self, s, p, b):
        # transposing diagrams swaps the part bound and the length cap
        assert rho(s, b, p) == rho(s, p, b)


class TestRhoMulti:
    def test_one_with_bounds_two_one(self):
        assert rho_multi(1, (2, 1)) == 2

    def test_three_with_bounds_zero_two(self):
        assert rho_multi(3, (0, 2)) == 2

    def test_zero_target(self):
        for b in [(), (1,), (3, 2), (0, 0, 5)]:
            assert rho_multi(0, b) == 1

    def test_bad_arguments(self):
        assert rho_multi(Fraction(1, 3), (2, 2)) == 0
        assert rho_multi(-1, (2, 2)) == 0

    @given(st.integers(0, 10),
           st.lists(st.integers(0, 4), min_size=1, max_size=3))
    def test_matches_enumeration(self, m, b):
        assert rho_multi(m, b) == len(enumerate_multi(m, b))

    @given(st.integers(0, 8),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=3))
    def test_capped_matches_enumeration(self, m, ba):
        b = [x for x, _ in ba]
        a = [y for _, y in ba]
        assert rho_multi(m, b, a) == len(enumerate_multi(m, b, a))

    def test_zero_bounds_are_inert(self):
        assert rho_multi(4, (2, 0, 2)) == rho_multi(4, (2, 2))

    @given(st.integers(0, 10), st.integers(0, 5), st.integers(-3, 6))
    def test_single_component_matches_rho(self, m, b, c):
        # a negative part-count cap admits no partition, not even the empty one
        assert rho(m, b, c) == rho_multi(m, (b,), (c,)) == len(enumerate_bounded(m, b, c))


class TestCountKeys:
    """The multipartition recursion feeds _count the keys of the counts
    rho(s, b, cap) that it multiplies, (s, b, cap) with the cap lowered to
    at most s, so that every cap at or above s shares one cache entry."""

    @staticmethod
    def _by_keys(m, comps):
        if not comps:
            return 1 if m == 0 else 0
        (b, c), rest = comps[0], comps[1:]
        return sum(_count(s, b, s if c == -1 else min(c, s)) * TestCountKeys._by_keys(m - s, rest)
                   for s in range(m + 1))

    def test_same_keys_as_rho(self):
        cases = [(9, ((1, -1), (2, 3), (3, -1))), (12, ((2, 1), (2, 20), (4, -1))),
                 (7, ((3, 2), (5, -1))), (10, ((1, 4), (1, 6), (2, 2), (6, -1)))]
        for m, comps in cases:
            _count.cache_clear()
            _rho_multi_sorted.cache_clear()
            value = _rho_multi_sorted(m, comps)
            entries = _count.cache_info().currsize
            _count.cache_clear()
            assert value == self._by_keys(m, comps)
            assert _count.cache_info().currsize == entries


class TestCountSteps:
    def test_orbit_sum_calls_within_count_steps(self):
        """An orbit sum at ranks 1-3, cold, calls _count and _rho_multi_sorted
        at most count_steps(n, bound, rows) times, one call a row and the
        memos; the rows are at most the kept leaves of its walk."""
        for n in (1, 2, 3):
            for cv in ((2,) + (0,) * n, (0, 2) + (0,) * (n - 1), (1, 1) + (0,) * (n - 1)):
                for i in range(n + 1):
                    for eta0 in range(6):
                        xi = AffineWeight.from_c_values(n, cv, -eta0)
                        bound = f_ball_bound(n, i, xi)
                        with counting() as counts:
                            orbit_terms(n, i, xi)
                        rows = ball_leaves(n, bound, 2)
                        assert counts["memo"] <= count_steps(n, bound, rows), (n, cv, i, eta0)


class TestQBinomial:
    def test_four_choose_two(self):
        assert q_binomial(4, 2) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    def test_choose_zero(self):
        for m in range(7):
            assert q_binomial(m, 0) == LaurentPoly({0: 1})

    def test_three_choose_one(self):
        assert q_binomial(3, 1) == LaurentPoly({0: 1, 1: 1, 2: 1})

    def test_rejects_p_above_m(self):
        try:
            q_binomial(2, 3)
        except ValueError:
            pass
        else:
            raise AssertionError("expected an error for p > m")

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_coefficients_count_boxed_partitions(self, m, p):
        if p > m:
            return
        poly = q_binomial(m, p)
        for s in range(p * (m - p) + 1):
            assert poly.coeff(s) == rho(s, m - p, p)

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_palindromic(self, m, p):
        if p > m:
            return
        assert q_binomial(m, p).is_palindromic()

    def test_equals_the_pascal_reference(self):
        rows = pascal_triangle(40)
        for m in range(41):
            for p in range(m + 1):
                assert q_binomial(m, p) == rows[m][p], (m, p)

    @settings(deadline=None)  # the first draw builds the reference triangle
    @given(st.integers(0, 60), st.integers(0, 60))
    def test_equals_the_pascal_reference_on_draws(self, m, p):
        if p > m:
            return
        assert q_binomial(m, p) == pascal_triangle(60)[m][p]

    @given(st.integers(1, 12), st.integers(1, 11))
    def test_pascal_recurrence(self, m, p):
        if p > m - 1:
            return
        lhs = q_binomial(m, p)
        rhs = q_binomial(m - 1, p) + q_binomial(m - 1, p - 1).shift(m - p)
        assert lhs == rhs


class TestQFactors:
    def test_division_is_a_running_sum(self):
        # 1/(1 - q)^2 = sum (k + 1) q^k, and 1/(1 - q^2) steps by two
        assert times_q_factors([1, 0, 0, 0, 0], [1], -2) == [1, 2, 3, 4, 5]
        assert times_q_factors([1, 0, 0, 0, 0], [2], -1) == [1, 0, 1, 0, 1]

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=12),
           st.lists(st.integers(1, 14), max_size=4), st.integers(1, 3))
    def test_division_undoes_multiplication(self, coeffs, exponents, power):
        series = times_q_factors(list(coeffs), exponents, power)
        assert times_q_factors(series, exponents, -power) == coeffs


class TestQBinomialProduct:
    def test_two_squares(self):
        assert q_binomial_product((2, 2), (1, 1)) == LaurentPoly({0: 1, 1: 2, 2: 1})

    def test_trivial_factor(self):
        assert q_binomial_product((5,), (0,)) == LaurentPoly({0: 1})

    def test_trivial_factors_are_skipped(self):
        with counting() as counts:
            assert q_binomial_product((5, 3, 0), (5, 0, 0)) == LaurentPoly({0: 1})
        assert counts["coefficients"] == 0
        try:
            q_binomial_product((2,), (3,))
        except ValueError:
            pass
        else:
            raise AssertionError("expected an error for p > m")

    def test_factors_multiply(self):
        assert q_binomial_product((4, 3), (2, 1)) == q_binomial(4, 2) * q_binomial(3, 1)

    def test_equals_the_pascal_product(self):
        """Every tuple of at most 3 factors [m choose p] with m <= 12; those
        of 3 up to order, as the product commutes, with p <= m - p, as the
        product reads [m choose p] as [m choose m - p], and without the
        factors [m choose 0] = [m choose m] = 1, which make no pass (the
        tuples of 1 and 2 have them all).  A coefficient
        of the product is at most its value at q = 1, prod C(m, p) <= 924^3
        < 2^30, so a polynomial with coefficients in [0, 2^30) equals it
        exactly when their values at q = 2^30 agree."""
        rows = pascal_triangle(12)
        factors = [(m, p) for m in range(13) for p in range(m + 1)]
        at_base = {f: sum(c << 30 * e for e, c in rows[f[0]][f[1]].coeffs.items())
                   for f in factors}
        inner = [(m, p) for m, p in factors if 0 < p <= m - p]
        for fs in chain(product(factors, repeat=1), product(factors, repeat=2),
                        combinations_with_replacement(inner, 3)):
            poly = q_binomial_product(*zip(*fs))
            assert all(0 <= c < 1 << 30 for c in poly.coeffs.values()), fs
            assert sum(c << 30 * e for e, c in poly.coeffs.items()) == prod(
                at_base[f] for f in fs), fs

    @settings(deadline=None)  # the first draw may build the reference triangle
    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=5))
    def test_equals_the_pascal_product_on_draws(self, mp):
        m = [max(x, y) for x, y in mp]
        p = [min(x, y) for x, y in mp]
        rows = pascal_triangle(60)
        assert q_binomial_product(m, p) == reduce(
            mul, (rows[mj][pj] for mj, pj in zip(m, p)), LaurentPoly({0: 1}))

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=1, max_size=3), st.integers(0, 12))
    def test_coefficients_count_multipartitions(self, mp, s):
        m = [max(x, y) for x, y in mp]
        p = [min(x, y) for x, y in mp]
        poly = q_binomial_product(m, p)
        bounds = [mj - pj for mj, pj in zip(m, p)]
        assert poly.coeff(s) == rho_multi(s, bounds, p)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=5))
    def test_coefficients_within_binomial_steps(self, ab):
        """The kernel's updates on the product's one list and the
        prefactor's shift come to at most binomial_steps(a, b) coefficients."""
        a, b = [x for x, _ in ab], [y for _, y in ab]
        with counting() as counts:
            q_binomial_product([x + y for x, y in ab], a).shift(Fraction(1, 2))
        assert counts["coefficients"] <= binomial_steps(a, b)


class TestStabilization:
    def test_zero_target_is_singleton(self):
        pairs = stabilize_bijection(0, (1, 0), (2, 1), 5)
        assert len(pairs) == 1
        assert pairs[0][1] == ((), ())

    def test_single_component(self):
        pairs = stabilize_bijection(1, (0,), (2,), 3)
        assert len(pairs) == 1 == rho_multi(1, (2,))

    def test_two_components(self):
        # P_{(1,2)}(2) = {((1,1),()), ((1),(1)), ((),(2)), ((),(1,1))}
        pairs = stabilize_bijection(2, (1, 0), (1, 2), 4)
        assert len(pairs) == 4 == rho_multi(2, (1, 2))

    def test_rejects_small_k(self):
        try:
            stabilize_bijection(3, (2,), (2,), 2)
        except ValueError:
            pass
        else:
            raise AssertionError("expected an error below the threshold")

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=3),
           st.integers(0, 5), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_sequence_constant_past_threshold(self, ab, f, extra):
        a = [x for x, _ in ab]
        b = [y for _, y in ab]
        if sum(b) == 0:
            return
        k = stabilize_threshold(f, a, b) + extra
        total = k * sum(b) - sum(x * y for x, y in zip(a, b)) - f
        caps = [k - aj for aj in a]
        assert rho_multi(total, b, caps) == rho_multi(f, b)

    def test_box_complement(self):
        assert box_complement((2, 1), 3, 3) == (3, 2, 1)
        assert box_complement((), 2, 2) == (2, 2)
        assert box_complement((3, 3), 3, 2) == ()


class TestCanonical:
    def test_strips_trailing_zeros(self):
        assert canonical((3, 2, 0, 0)) == (3, 2)
        assert canonical(()) == ()

    def test_rejects_increasing(self):
        try:
            canonical((1, 2))
        except ValueError:
            pass
        else:
            raise AssertionError("expected an error for increasing parts")
