"""The three multiplicity routes, flag multiplicity polynomials, and the
rotation reduction for general fundamental tensor products."""

import hashlib
import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import affmult.multiplicities
from affmult.affine_cartan import (
    AffineWeight,
    FiniteWeight,
    affine_Lambda,
    bilinear,
    omega,
    theta,
)
from affmult.char_oracle import tensor_outer_multiplicities
from affmult.laurent import LaurentPoly
from affmult.multiplicities import (
    _flag_data,
    _level_two_rows,
    a_of_eta,
    delta_string,
    direct_split,
    eta_from_xi,
    f_ball_bound,
    f_eps,
    f_weight,
    flag_multiplicity_poly,
    flag_progression,
    general_fundamental,
    mu_split,
    orbit_terms,
    outer_multiplicity_formula,
    outer_multiplicity_limit,
    rotate,
    tau_bound,
    tau_formula,
    tau_terms,
    xi_from_eta,
)
from affmult.partitions import rho, rho_multi
from affmult.tableaux import tau_bruteforce
from affmult.weyl_orbits import enumerate_gamma, orbit_pair, r_of
from demazure import height, peel
from multipartitions import flag_multiplicity_at
from test_cli import below
from test_imports import package_imports
from test_shared_code import clear_caches
from weyl_group import affine_alpha, affine_bilinear, affine_delta, alpha, inverse_cartan


class TestIndependence:
    def test_no_import_from_the_tableau_route(self):
        # the tableau count checks tau_formula, so the formula side must not
        # share its code: nothing in multiplicities is imported from tableaux
        assert "tableaux" not in package_imports(Path(affmult.multiplicities.__file__))


class TestMuSplit:
    def test_zero(self):
        s = mu_split(FiniteWeight(2, (0, 0)))
        assert s.mu0 == s.mu1 == FiniteWeight(2, (0, 0))

    def test_rank_one_parity(self):
        s = mu_split(5 * omega(1, 1))
        assert s.mu0 == 2 * omega(1, 1)
        assert s.mu1 == omega(1, 1)

    def test_reversal(self):
        s = mu_split(2 * omega(2, 1))
        assert s.mu0 == omega(2, 2)
        assert s.mu1 == FiniteWeight(2, (0, 0))
        assert s.bounds == (0, 1)

    def test_direct_split_reconstruction(self):
        mu = FiniteWeight(3, (3, 0, 5))
        mu0, mu1 = direct_split(mu)
        assert 2 * mu0 + mu1 == mu
        assert all(c in (0, 1) for c in mu1.coords)


class TestRootCoefficients:
    def test_simple_roots(self):
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                expected = tuple(1 if j == i else 0 for j in range(1, n + 1))
                assert a_of_eta(alpha(n, i)) == expected

    def test_theta(self):
        assert a_of_eta(theta(2)) == (1, 1)

    def test_rank_one_doubled(self):
        assert a_of_eta(2 * omega(1, 1)) == (1,)

    def test_rejects_non_lattice(self):
        try:
            a_of_eta(omega(2, 1))
        except ValueError:
            pass
        else:
            raise AssertionError("expected an error outside the root lattice")

    @given(st.integers(1, 40).flatmap(lambda n: st.one_of(
        # arbitrary weights, and sums of simple roots (on the root lattice)
        st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(
            lambda c: FiniteWeight(n, tuple(c))),
        st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(
            lambda a: sum((x * alpha(n, l) for l, x in enumerate(a, 1)),
                          FiniteWeight(n, (0,) * n))))))
    def test_integer_solve_matches_fraction_formula(self, eta):
        n = eta.n
        inv = inverse_cartan(n)
        expected = [sum(inv[i][j] * eta.coords[j] for j in range(n))
                    for i in range(n)]
        # eta lies in the root lattice iff sum_j j * eta(h_j) = 0 mod n + 1
        on_lattice = sum(j * c for j, c in enumerate(eta.coords, 1)) % (n + 1) == 0
        assert on_lattice == all(x.denominator == 1 for x in expected)
        if on_lattice:
            assert a_of_eta(eta) == tuple(expected)
        else:
            with pytest.raises(ValueError):
                a_of_eta(eta)


class TestFlagMultiplicity:
    def test_equal_weights(self):
        lam = FiniteWeight(2, (1, 3))
        assert flag_multiplicity_poly(lam, lam) == LaurentPoly({0: 1})
        assert flag_multiplicity_at(lam, lam, 0) == 1

    def test_rank_one_two_boxes(self):
        poly = flag_multiplicity_poly(2 * omega(1, 1), FiniteWeight(1, (0,)))
        assert poly == LaurentPoly({1: 1})
        assert flag_multiplicity_at(2 * omega(1, 1), FiniteWeight(1, (0,)), 1) == 1
        assert flag_multiplicity_at(2 * omega(1, 1), FiniteWeight(1, (0,)), 0) == 0

    def test_incomparable_weights(self):
        assert flag_multiplicity_poly(omega(2, 1), omega(2, 2)).is_zero()
        assert flag_multiplicity_at(omega(2, 1), omega(2, 2), 0) == 0

    def test_prefactor_exponent_is_an_integer(self):
        for n in (1, 2, 3):
            for mu, lam in product(product(range(4), repeat=n), repeat=2):
                mu, lam = FiniteWeight(n, mu), FiniteWeight(n, lam)
                data = _flag_data(lam, mu)
                if data is not None:
                    assert data[2] == Fraction(bilinear(lam + direct_split(mu)[1], lam - mu), 2)
                    assert type(data[2]) is int

    def test_coefficients_non_negative_and_palindromic(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 3)
            mu = FiniteWeight(n, tuple(rng.randint(0, 3) for _ in range(n)))
            step = sum((rng.randint(0, 2) * alpha(n, i + 1) for i in range(n)),
                       FiniteWeight(n, (0,) * n))
            lam = mu + step
            if not lam.is_dominant():
                continue
            poly = flag_multiplicity_poly(lam, mu)
            if poly.is_zero():
                continue
            assert all(c > 0 for c in poly.coeffs.values())
            assert poly.is_palindromic()

    def test_demazure_peel(self):
        # the peel of ch D(1, lam) into ch D(2, mu) shifted by s delta, with
        # s read as q^s, against the q-binomial product in both directions:
        # the same mu, and the same polynomial for each.  The mu are every
        # dominant one of height at most lam's, which holds every mu <= lam
        nonzero = 0
        for n, top in ((1, 12), (2, 5), (3, 3)):
            for coords in product(range(top + 1), repeat=n):
                lam = FiniteWeight(n, coords)
                polys = {}
                for mu in product(range(height(coords) // n + 1), repeat=n):
                    if height(mu) <= height(coords):
                        poly = flag_multiplicity_poly(lam, FiniteWeight(n, mu))
                        if not poly.is_zero():
                            polys[FiniteWeight(n, mu)] = poly.coeffs
                assert peel(lam) == polys
                nonzero += len(polys)
        assert nonzero == 912

    def test_value_extraction_matches_polynomial(self):
        rng = random.Random(9)
        checked = 0
        while checked < 50:
            n = rng.randint(1, 3)
            mu = FiniteWeight(n, tuple(rng.randint(0, 3) for _ in range(n)))
            step = sum((rng.randint(0, 2) * alpha(n, i + 1) for i in range(n)),
                       FiniteWeight(n, (0,) * n))
            lam = mu + step
            if not lam.is_dominant():
                continue
            poly = flag_multiplicity_poly(lam, mu)
            lo = 0 if poly.is_zero() else poly.min_degree()
            hi = 0 if poly.is_zero() else poly.max_degree()
            for r in [lo, hi, lo + 1, Fraction(2 * lo + 1, 2)]:
                assert flag_multiplicity_at(lam, mu, r) == poly.coeff(r)
            checked += 1


class TestCharacterWeightCorrespondence:
    def test_trivial_character(self):
        for n in (1, 2):
            for i in range(n + 1):
                xi = xi_from_eta(n, i, (0,) * (n + 1))
                assert xi == affine_Lambda(n, 0) + affine_Lambda(n, i)

    def test_headline_weight(self):
        xi = xi_from_eta(2, 1, (6, 6, 5))
        assert xi.finite == 2 * omega(2, 2)
        assert xi.level == 2 and xi.degree == -6

    def test_theta_shift(self):
        xi = xi_from_eta(2, 1, (1, 1, 1))
        top = affine_Lambda(2, 0) + affine_Lambda(2, 1)
        assert xi == top - affine_delta(2)

    def test_round_trip(self):
        for eta in [(0, 0, 0), (2, 1, 1), (6, 6, 5), (3, 3, 3)]:
            xi = xi_from_eta(2, 1, eta)
            assert eta_from_xi(2, 1, xi) == eta

    def test_inverse_rejects_unreachable(self):
        with pytest.raises(ValueError, match="level 2"):
            eta_from_xi(2, 1, affine_Lambda(2, 0))
        top = affine_Lambda(2, 0) + affine_Lambda(2, 1)
        # a negative alpha_0 coefficient, a non-integer delta coefficient,
        # off the root lattice, a negative alpha_1 coefficient
        for xi in (xi_from_eta(2, 1, (-1, 0, 0)), top.shift_delta(Fraction(-1, 2)),
                   affine_Lambda(2, 0) + affine_Lambda(2, 2),
                   xi_from_eta(2, 1, (0, -1, 0))):
            with pytest.raises(ValueError, match="not below Lambda_0 \\+ Lambda_i"):
                eta_from_xi(2, 1, xi)


class TestOrbitSumFormula:
    def test_top_component(self):
        for n in (1, 2, 3):
            for i in range(n + 1):
                top = affine_Lambda(n, 0) + affine_Lambda(n, i)
                assert outer_multiplicity_formula(n, i, top) == 1

    def test_headline(self):
        xi = AffineWeight(2 * omega(2, 2), 2, Fraction(-6))
        assert outer_multiplicity_formula(2, 1, xi) == 5

    def test_terms_reject_bad_weight(self):
        with pytest.raises(ValueError, match="level 2"):
            orbit_terms(2, 1, affine_Lambda(2, 0))
        with pytest.raises(ValueError, match="dominant"):
            orbit_terms(2, 1, AffineWeight(FiniteWeight(2, (-1, 2)), 2, Fraction(0)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_formula_is_sum_of_terms(self, n, data):
        i = data.draw(st.integers(0, n))
        j = data.draw(st.integers(0, n))
        k = data.draw(st.integers(j, n))
        eta0 = data.draw(st.integers(0, 7))
        xi = (affine_Lambda(n, j) + affine_Lambda(n, k)).shift_delta(-eta0)
        terms = orbit_terms(n, i, xi)
        assert outer_multiplicity_formula(n, i, xi) == sum(count for *_, count in terms)
        members = [mu for mu, _pair in enumerate_gamma(xi, f_ball_bound(n, i, xi))]
        assert [mu for mu, *_ in terms] == members
        for mu, b, f, count in terms:
            assert b == mu_split(mu).bounds
            assert f == f_weight(n, i, xi, mu)
            assert count == rho_multi(f, b)


class TestLevelTwoRows:
    def test_rows_are_split_and_f_weight(self):
        # the row of each dominant mu's pair, read off the pair alone: the
        # bounds of mu_split(mu), the argument f_{i,xi}(mu) and their count
        for n in (1, 2, 3):
            for i in range(n + 1):
                xi = (affine_Lambda(n, 0) + affine_Lambda(n, i)).shift_delta(-3)
                mus = [FiniteWeight(n, c) for c in product(range(4), repeat=n)]
                rows = _level_two_rows(n, [orbit_pair(2, mu) for mu in mus],
                                       (n + 1) * f_ball_bound(n, i, xi))
                for mu, (b, arg, count) in zip(mus, rows, strict=True):
                    assert b == mu_split(mu).bounds and arg == f_weight(n, i, xi, mu)
                    assert count == rho_multi(arg, b)


class TestTauFormula:
    def test_headline(self):
        assert tau_formula(2, 1, (6, 6, 5)) == 5

    def test_headline_terms(self):
        counts = sorted((tuple(b), arg, c) for _, b, arg, c in tau_terms(2, 1, (6, 6, 5)))
        assert counts == [((0, 2), 3, 2), ((1, 0), 5, 1), ((2, 1), 1, 2)]
        assert rho_multi(5, (1, 0)) == 1
        assert rho_multi(1, (2, 1)) == 2
        assert rho_multi(3, (0, 2)) == 2

    def test_empty_character(self):
        assert tau_formula(2, 0, (0, 0, 0)) == 1
        assert tau_formula(1, 0, (0, 0)) == 1
        # a walk of 5000 entries: a RecursionError when it recursed once an entry
        assert tau_formula(5000, 0, (0,) * 5001) == 1

    def test_closed_double_sum_rank_two(self):
        # independent regression formula for characters (e, e, e-1):
        # sum over p >= -1, k >= ceil((2p+1)/3) of
        # rho_{(3k-2p-1, p+1)}(e - 1 - 2(3k^2 - 3kp - k + p^2 + p))
        def closed(e):
            total = 0
            for p in range(-1, e + 2):
                for k in range(max(0, -((-(2 * p + 1)) // 3)), e + 2):
                    arg = e - 1 - 2 * (3 * k * k - 3 * k * p - k + p * p + p)
                    total += rho_multi(arg, (3 * k - 2 * p - 1, p + 1))
            return total

        for e in range(1, 8):
            assert tau_formula(2, 1, (e, e, e - 1)) == closed(e)

    def test_terms_reject_wrong_length_eta(self):
        # three entries for rank 3: the rows must not be read off a
        # truncated character
        with pytest.raises(ValueError, match="n \\+ 1 entries"):
            tau_terms(3, 1, (6, 6, 5))
        with pytest.raises(ValueError, match="n \\+ 1 entries"):
            tau_formula(3, 1, (6, 6, 5))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_formula_is_sum_of_terms(self, n, data):
        j = data.draw(st.integers(0, n))
        k = data.draw(st.integers(j, n))
        eta0 = data.draw(st.integers(0, 8 if n <= 3 else 5))
        i = (j + k) % (n + 1)
        xi = (affine_Lambda(n, j) + affine_Lambda(n, k)).shift_delta(-eta0)
        try:
            eta = eta_from_xi(n, i, xi)
        except ValueError:
            assume(False)
        terms = tau_terms(n, i, eta)
        assert tau_formula(n, i, eta) == sum(count for *_, count in terms)
        for pair, b, arg, count in terms:
            assert arg == f_eps(n, i, j, k, eta[0], pair.a_vector())
            assert count == rho_multi(arg, b)

    def test_matches_bruteforce_small(self):
        assert tau_formula(2, 1, (1, 1, 1)) == tau_bruteforce((1, 1, 1), 1)
        assert tau_formula(1, 1, (2, 2)) == tau_bruteforce((2, 2), 1)
        assert tau_formula(1, 0, (3, 2)) == tau_bruteforce((3, 2), 0)

    def test_walk_bound_is_f_ball_bound(self, monkeypatch):
        # the CLI prices the tableau route's walks at tau_bound: it is the
        # bound tau_terms walks at, equal to f_ball_bound, at most
        # (n + 1)/2 + 4 eta_0, and 4 more a step down a delta-string
        walked = []

        def walk(n, j, k, bound):
            walked.append(bound)
            return SimpleNamespace(members=())

        monkeypatch.setattr(affmult.multiplicities, "level_two_family", walk)
        for n in range(1, 7):
            for i, j in product(range(n + 1), repeat=2):
                k = (i - j) % (n + 1)
                if j > k:
                    continue
                bounds = []
                for eta in delta_string(n, i, j, k, 12):
                    assert tau_terms(n, i, eta) == []
                    bound = walked.pop()
                    assert bound == tau_bound(n, i, j, k, eta[0])
                    assert bound == f_ball_bound(n, i, xi_from_eta(n, i, eta))
                    assert bound <= Fraction(n + 1, 2) + 4 * eta[0]
                    bounds.append(bound)
                assert bounds and all(b - a == 4 for a, b in zip(bounds, bounds[1:]))


class TestLimitRoute:
    def test_top_component(self):
        for n in (1, 2):
            for i in range(n + 1):
                top = affine_Lambda(n, 0) + affine_Lambda(n, i)
                res = outer_multiplicity_limit(n, i, top, 3)
                assert res.value == 1
                assert res.stabilized_at in (0, 1)

    def test_headline(self):
        xi = AffineWeight(2 * omega(2, 2), 2, Fraction(-6))
        res = outer_multiplicity_limit(2, 1, xi, 8)
        assert res.value == 5
        limits = sorted(vals[-1] for _, _, vals in res.sequences)
        assert limits == [1, 2, 2]
        for _, threshold, vals in res.sequences:
            assert all(vals[k] <= vals[k + 1] for k in range(len(vals) - 1))
            assert len(set(vals[threshold:])) == 1

    def test_negative_kmax_rejected(self):
        xi = AffineWeight(2 * omega(2, 2), 2, Fraction(-6))
        with pytest.raises(ValueError, match="k_max"):
            outer_multiplicity_limit(2, 1, xi, -1)

    def test_each_member_stabilizes_at_its_count(self):
        # criterion 5 checks the sum; here every member whose threshold is
        # reached must end on its own orbit_terms count
        checked = 0
        for n in (1, 2, 3):
            for i in range(n + 1):
                for j in range(n + 1):
                    k = (i - j) % (n + 1)
                    if j > k:
                        continue
                    for eta0 in range(14 - 2 * n):
                        xi = (affine_Lambda(n, j) + affine_Lambda(n, k)).shift_delta(-eta0)
                        counts = {mu: count for mu, _b, _f, count in orbit_terms(n, i, xi)}
                        res = outer_multiplicity_limit(n, i, xi, eta0 + 2)
                        assert [mu for mu, *_ in res.sequences] == list(counts)
                        for mu, threshold, vals in res.sequences:
                            if threshold <= eta0 + 2:
                                assert vals[-1] == counts[mu], (n, i, xi, mu)
                                checked += 1
        assert checked > 600

    def test_stabilizes_exactly_at_eta0(self):
        # observed, not yet derived: the largest member threshold of
        # Lambda_j + Lambda_k - eta0 delta is eta0 itself, so k_max = eta0
        # is deep enough and no shallower k_max is
        checked = 0
        for n in (1, 2, 3):
            for i in range(n + 1):
                for j in range(n + 1):
                    k = (i - j) % (n + 1)
                    if j > k:
                        continue
                    for eta0 in range(9):
                        xi = (affine_Lambda(n, j) + affine_Lambda(n, k)).shift_delta(-eta0)
                        try:
                            eta = eta_from_xi(n, i, xi)
                        except ValueError:  # not below Lambda_0 + Lambda_i
                            continue
                        res = outer_multiplicity_limit(n, i, xi, eta0)
                        assert res.stabilized_at == eta0, (n, i, j, eta0)
                        assert res.value == tau_formula(n, i, eta), (n, i, j, eta0)
                        checked += 1
        assert checked == 160


class TestRotation:
    def test_permutes_coroot_values(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = n + 1
            lam = AffineWeight(
                FiniteWeight(n, tuple(rng.randint(-3, 3) for _ in range(n))),
                0, Fraction(0))
            lam = AffineWeight(lam.finite, rng.randint(0, 3) + sum(
                abs(c) for c in lam.finite.coords), Fraction(rng.randint(-4, 4)))
            c = rng.randint(0, n)
            rot = rotate(c, lam)
            cv = lam.c_values()
            assert rot.c_values() == tuple(cv[(k - c) % m] for k in range(m))
            assert affine_bilinear(rot, rot) == affine_bilinear(lam, lam)

    def test_delta_fixed(self):
        for n in (1, 2, 3):
            for c in range(n + 1):
                assert rotate(c, affine_delta(n)) == affine_delta(n)

    # The norm of a level-0 weight does not involve its degree, so the
    # checks below pin the delta-coefficient as well: on the simple roots,
    # on Lambda_0, under addition and under composition, for every c in
    # [-(n + 1), 2(n + 1)).
    def test_simple_roots_and_lambda_zero(self):
        for n in range(1, 9):
            m = n + 1
            for c in range(-m, 2 * m):
                for k in range(m):
                    assert rotate(c, affine_alpha(n, k)) == affine_alpha(n, (k + c) % m)
                wc = omega(n, c % m)
                expected = affine_Lambda(n, c).shift_delta(-bilinear(wc, wc) / 2)
                assert rotate(c, affine_Lambda(n, 0)) == expected

    def test_additive_and_composes(self):
        rng = random.Random(5)

        def weight(n):
            return AffineWeight(
                FiniteWeight(n, tuple(rng.randint(-4, 4) for _ in range(n))),
                rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

        for n in range(1, 9):
            m = n + 1
            for c in range(-m, 2 * m):
                x, y = weight(n), weight(n)
                d = rng.randint(-m, 2 * m)
                assert rotate(c, x + y) == rotate(c, x) + rotate(c, y)
                assert rotate(c, rotate(d, x)) == rotate(c + d, x)


class TestDiagramMirror:
    """The reflection sigma: r -> -r mod (n + 1) of the A_n^(1) diagram fixes
    node 0, so [V(Lambda_0) (x) V(Lambda_i) : V(Lambda_j + Lambda_k - d delta)]
    equals the multiplicity with -i, -j, -k, and a character eta maps to
    (eta_0, eta_n, ..., eta_1).  On finite weights sigma reverses the
    coordinates."""

    @staticmethod
    def mirror(v: tuple) -> tuple:
        return v[:1] + v[:0:-1]

    def test_tau_routes(self):
        # the shapes of charges i and -i are different sets, so the count
        # meets sigma only through its values
        instances = 0
        for n in range(1, 6):
            m = n + 1
            for i in range(m):
                for j in range(m):
                    k = (i - j) % m
                    if j > k:
                        continue
                    for eta in delta_string(n, i, j, k, 8 if n <= 3 else 5):
                        image = self.mirror(eta)
                        values = {tau_formula(n, i, eta), tau_bruteforce(eta, i),
                                  tau_formula(n, -i % m, image), tau_bruteforce(image, -i % m)}
                        assert len(values) == 1, (n, i, eta)
                        instances += 1
        assert instances == 341

    def test_flag_multiplicity_poly(self):
        nonzero = 0
        for n in range(1, 5):
            weights = [FiniteWeight(n, coords) for coords in product(range(4), repeat=n)]
            polys = {(lam.coords, mu.coords): flag_multiplicity_poly(lam, mu)
                     for lam in weights for mu in weights}
            for (lam, mu), poly in polys.items():
                assert poly == polys[lam[::-1], mu[::-1]], (lam, mu)
                nonzero += not poly.is_zero()
        assert nonzero == 6350

    def test_oracle_tables(self):
        for n in (1, 2):
            for i in range(n + 1):
                table = tensor_outer_multiplicities(affine_Lambda(n, 0), affine_Lambda(n, i), 2)
                image = tensor_outer_multiplicities(affine_Lambda(n, 0),
                                                    affine_Lambda(n, -i % (n + 1)), 2)
                assert any(table.values())
                assert ({(self.mirror(xi.c_values()), xi.degree): value
                         for xi, value in table.items()}
                        == {(xi.c_values(), xi.degree): value for xi, value in image.items()})


class TestGeneralFundamental:
    def test_zero_index_reduces_to_formula(self):
        xi = AffineWeight(2 * omega(2, 2), 2, Fraction(-6))
        assert general_fundamental(2, 0, 1, xi) == outer_multiplicity_formula(2, 1, xi)

    def test_rejects_unreachable(self):
        xi = AffineWeight(2 * omega(2, 2), 2, Fraction(0))
        try:
            general_fundamental(2, 1, 1, xi)
        except ValueError:
            pass
        else:
            raise AssertionError("expected an error for an unreachable weight")

    def test_top_components(self):
        for n in (1, 2):
            for i in range(n + 1):
                for j in range(n + 1):
                    top = affine_Lambda(n, i) + affine_Lambda(n, j)
                    assert general_fundamental(n, i, j, top) == 1


class TestLimitRegression:
    """outer_multiplicity_limit pinned on three small instances: the value,
    where it stabilized and every sequence, with each mu by its coroot
    values."""

    CASES = [
        ((2, 1, (0, 0, 2), -6, 8), 5, 6, [
            ((2, 4), 4, (0, 0, 0, 1, 2, 2, 2, 2, 2)),
            ((4, 0), 5, (0, 0, 0, 0, 1, 2, 2, 2, 2)),
            ((0, 2), 6, (0, 0, 0, 0, 0, 0, 1, 1, 1)),
        ]),
        ((3, 2, (0, 2, 0, 0), -4, 6), 3, 4, [
            ((0, 2, 2), 3, (0, 0, 0, 2, 2, 2, 2)),
            ((2, 0, 0), 4, (0, 0, 0, 0, 1, 1, 1)),
        ]),
        ((4, 1, (1, 1, 0, 0, 0), -3, 4), 4, 3, [
            ((3, 0, 0, 2), 2, (0, 0, 1, 1, 1)),
            ((0, 2, 1, 1), 3, (0, 0, 0, 1, 1)),
            ((1, 1, 0, 2), 3, (0, 0, 0, 1, 1)),
            ((2, 0, 0, 1), 3, (0, 0, 0, 1, 1)),
            ((1, 0, 0, 0), 3, (0, 0, 0, 0, 0)),
        ]),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_pinned(self, case):
        (n, i, cvals, degree, kmax), value, stabilized_at, sequences = case
        res = outer_multiplicity_limit(n, i, AffineWeight.from_c_values(n, cvals, degree), kmax)
        assert (res.value, res.stabilized_at) == (value, stabilized_at)
        assert [(mu.coords, thr, vals) for mu, thr, vals in res.sequences] == sequences


def route_digest(n, i, xi, k_max):
    """(value, stabilized_at, sha256) of a route: with k_max None, the orbit
    sum and the digest of its rows (mu, bounds, f, count), stabilized_at
    None; else the limit route and the digest of its value, stabilized_at and
    sequences.  Each mu is given by its coroot values."""
    if k_max is None:
        out = [(mu.coords, b, f, count) for mu, b, f, count in orbit_terms(n, i, xi)]
        value, stabilized_at = sum(row[-1] for row in out), None
    else:
        res = outer_multiplicity_limit(n, i, xi, k_max)
        value, stabilized_at = res.value, res.stabilized_at
        out = (value, stabilized_at,
               [(mu.coords, thr, vals) for mu, thr, vals in res.sequences])
    return value, stabilized_at, hashlib.sha256(repr(out).encode()).hexdigest()


class TestReachPins:
    """The routes at the depths where the parked speed-ups of ROADMAP items
    15 (one walk for the orbit sum and the limit route) and 4b (the limit
    route's counts) will land, pinned before either does: the orbit sum at
    n = 8 and the limit route at n = 8 and n = 4, each under a CPU bound of
    at least 3x its cold time on a 2-core VM (0.33, 0.30, 0.14 and 0.11 s).
    tau_formula gives each value."""

    CASES = [
        # (n, i, j, eta0, k_max or None for the orbit sum) at xi = Lambda_j +
        # Lambda_{i-j} - eta0 delta, what route_digest gives, CPU bound in s
        ((8, 1, 0, 6, None), (20, None,
         "378bfd9ce0c799ed495dcc359ed7ea1979a6d5759f6ed3ebdd069099ff421ef6"), 1.5),
        ((8, 1, 0, 6, 6), (20, 6,
         "69b506cbc716745b69471506507451cb90866bd2c43f577840b148df8ed34b96"), 2.0),
        ((4, 1, 0, 20, 20), (1900, 20,
         "496caa2150f063ddf7a830eb746e311f3b81d9fb1610a689f7adb66bf5e55a7f"), 1.0),
        ((4, 2, 1, 20, 20), (980, 20,
         "3122e1f2b5cdcffa8f137d8b323875abcfdad435c6c3841ba680079d59e0fcc3"), 1.0),
    ]

    @pytest.mark.parametrize("case", CASES, ids=["item 15 orbit sum", "item 15 limit",
                                                 "item 4b i=1", "item 4b i=2"])
    def test_pinned(self, case):
        (n, i, j, eta0, k_max), pinned, cpu = case
        xi, eta = below(n, i, j, eta0)
        clear_caches()
        start = time.process_time()
        assert route_digest(n, i, xi, k_max) == pinned
        assert time.process_time() - start < cpu
        assert tau_formula(n, i, eta) == pinned[0]


def tau_at(n, i, j, d):
    """tau_formula at Lambda_j + Lambda_{i-j} - d delta and charge i, 0 where
    that weight is not below Lambda_0 + Lambda_i."""
    found = below(n, i, j, d)
    return 0 if found is None else tau_formula(n, i, found[1])


class TestRankThreshold:
    """ROADMAP item 6's rank threshold n*: an observation on computed
    values, not a derived result."""

    def test_constant_from_the_larger_index(self):
        """At xi = Lambda_j + Lambda_k - d delta with charge i = j + k and
        k >= j, tau_formula is constant in n from n* = max(d + k - 1, i, 1)
        on: all 42 strings with i <= 3, d <= 6, checked up to n = 12 (also
        seen on the 81 strings with i <= 4, d <= 8, up to n = 16)."""
        strings = 0
        for i in range(4):
            for j in range(i // 2 + 1):
                k = i - j
                for d in range(7):
                    start = max(d + k - 1, i, 1)
                    values = {tau_at(n, i, j, d) for n in range(start, 13)}
                    assert len(values) == 1, (i, j, k, d, start)
                    strings += 1
        assert strings == 42

    def test_smaller_index_is_too_early(self):
        """n* = d + j - 1 would put (i, j, k, d) = (1, 0, 1, 2) constant
        from n = 1 on, but its values are 1 at n = 1 and 2 from n = 2 on."""
        assert [tau_at(n, 1, 0, 2) for n in range(1, 6)] == [1, 2, 2, 2, 2]


class TestFlagProgression:
    def test_progression_is_the_flag_multiplicity(self):
        """At every member mu of the orbit sets of Lambda_j + Lambda_k - eta0
        delta at n = 1-4, the t-th count of flag_progression is the limit
        route's t-th flag multiplicity, flag_multiplicity_at(omega_i +
        t theta, mu, r(mu, xi) + t(|omega_i| + t)), zero included where a
        cap of the 0-th count is negative."""
        checked = negative = 0
        for n in range(1, 5):
            th = theta(n)
            for i in range(n + 1):
                wi = omega(n, i)
                for j in range(n + 1):
                    for k in range(j, n + 1):
                        for eta0 in range(5 - n, 8 - n):
                            xi = (affine_Lambda(n, j) + affine_Lambda(n, k)).shift_delta(-eta0)
                            for mu, *_ in orbit_terms(n, i, xi):
                                progression = flag_progression(n, i, xi, mu)
                                r0 = r_of(mu, xi)
                                for t in range(6):
                                    want = flag_multiplicity_at(wi + t * th, mu,
                                                                r0 + t * (wi.height_sum() + t))
                                    got = 0
                                    if progression is not None:
                                        arg, b, caps = progression
                                        got = rho_multi(arg + t * sum(b), b, [c + t for c in caps])
                                    assert got == want, (n, i, xi, mu, t)
                                    checked += 1
                                negative += progression is not None and min(progression[2]) < 0
        assert (checked, negative) == (6510, 265)
