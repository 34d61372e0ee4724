"""Cartan data: bilinear forms, epsilon-coordinates, the quadratic form,
and affine weight arithmetic."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from affmult.affine_cartan import (
    AffineWeight,
    FiniteWeight,
    affine_Lambda,
    bilinear,
    eps_coords,
    omega,
    quadratic_f,
    theta,
    varpi_eps,
    weight_from_eps,
)
from weyl_group import (
    affine_alpha,
    affine_bilinear,
    affine_delta,
    alpha,
    cartan_matrix,
    in_root_lattice,
    inverse_cartan,
    inverse_cartan_scaled,
)

ranks = st.integers(1, 4)


def finite_weights(n):
    return st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(
        lambda c: FiniteWeight(n, tuple(c)))


class TestCartanMatrices:
    def test_rank_one(self):
        assert cartan_matrix(1) == ((2,),)
        assert inverse_cartan(1) == ((Fraction(1, 2),),)

    def test_rank_two_inverse(self):
        assert inverse_cartan(2) == (
            (Fraction(2, 3), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(2, 3)),
        )

    def test_rank_three_corner(self):
        assert inverse_cartan(3)[0][0] == Fraction(3, 4)

    @given(ranks)
    def test_inverse_is_inverse(self, n):
        C = cartan_matrix(n)
        inv = inverse_cartan(n)
        for i in range(n):
            for j in range(n):
                val = sum(C[i][k] * inv[k][j] for k in range(n))
                assert val == (1 if i == j else 0)


class TestScaledInverse:
    @given(st.integers(1, 8))
    def test_is_scaled_inverse(self, n):
        C = cartan_matrix(n)
        inv = inverse_cartan_scaled(n)
        for i in range(n):
            for j in range(n):
                val = sum(C[i][k] * inv[k][j] for k in range(n))
                assert val == (n + 1 if i == j else 0)

    @given(st.integers(1, 40).flatmap(
        lambda n: st.tuples(finite_weights(n), finite_weights(n))))
    def test_integer_bilinear_matches_fraction_formula(self, pair):
        lam, mu = pair
        inv = inverse_cartan(lam.n)
        expected = sum((a * b * inv[i][j]
                        for i, a in enumerate(lam.coords)
                        for j, b in enumerate(mu.coords)), Fraction(0))
        value = bilinear(lam, mu)
        assert isinstance(value, Fraction)
        assert value == expected


class TestBilinear:
    def test_roots_have_norm_two(self):
        for n in range(1, 5):
            for i in range(1, n + 1):
                assert bilinear(alpha(n, i), alpha(n, i)) == 2

    def test_omega_one_rank_two(self):
        assert bilinear(omega(2, 1), omega(2, 1)) == Fraction(2, 3)

    def test_duality(self):
        for n in range(1, 4):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert bilinear(omega(n, i), alpha(n, j)) == (1 if i == j else 0)

    def test_theta_norm(self):
        for n in range(1, 5):
            assert bilinear(theta(n), theta(n)) == 2


class TestQuadraticForm:
    def test_zero_vector(self):
        assert quadratic_f((0, 0, 0)) == 0

    def test_rank_two_example(self):
        assert quadratic_f((2, 2)) == Fraction(8, 3)

    def test_fundamental_directions(self):
        for n in range(1, 7):
            for i in range(n + 1):
                assert quadratic_f(varpi_eps(n, i)) == Fraction(i * (n + 1 - i), n + 1)

    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=6))
    def test_positive_definite(self, a):
        val = quadratic_f(a)
        if any(a):
            assert val > 0
        else:
            assert val == 0


class TestEpsCoords:
    def test_zero(self):
        assert eps_coords(FiniteWeight(3, (0, 0, 0))) == (0, 0, 0)

    def test_rank_two_example(self):
        assert eps_coords(2 * omega(2, 1)) == (2, 2)

    @given(ranks.flatmap(lambda n: finite_weights(n)))
    def test_round_trip(self, mu):
        assert weight_from_eps(mu.n, eps_coords(mu)) == mu

    @given(ranks.flatmap(lambda n: finite_weights(n)))
    def test_norm_identity(self, mu):
        assert quadratic_f(eps_coords(mu)) == bilinear(mu, mu)


class TestRootLattice:
    def test_rank_three_ones(self):
        assert not in_root_lattice((1, 1, 1))

    def test_zero(self):
        for n in range(1, 5):
            assert in_root_lattice((0,) * n)

    def test_rank_two_example(self):
        assert in_root_lattice((2, 1))


def affine_weights(n):
    return st.tuples(finite_weights(n), st.integers(-3, 3),
                     st.integers(-6, 6)).map(
        lambda t: AffineWeight(t[0], t[1], Fraction(t[2])))


class TestAffineWeights:
    def test_lambda_zero_norm(self):
        L0 = affine_Lambda(2, 0)
        assert affine_bilinear(L0, L0) == 0
        assert affine_bilinear(affine_delta(2), affine_delta(2)) == 0

    def test_lambda_zero_delta_pairing(self):
        for n in range(1, 4):
            assert affine_bilinear(affine_Lambda(n, 0), affine_delta(n)) == 1

    def test_mixed_norm(self):
        lam = AffineWeight(omega(1, 1), 1, Fraction(-1))
        assert affine_bilinear(lam, lam) == Fraction(-3, 2)

    @given(ranks.flatmap(lambda n: affine_weights(n)))
    def test_norm_decomposition(self, lam):
        assert affine_bilinear(lam, lam) == (
            bilinear(lam.finite, lam.finite) + 2 * lam.level * lam.degree)

    def test_c_values_round_trip(self):
        lam = AffineWeight.from_c_values(2, (1, 0, 3), Fraction(-5, 2))
        assert lam.c_values() == (1, 0, 3)
        assert lam.level == 4
        assert lam.degree == Fraction(-5, 2)

    def test_alpha_zero(self):
        a0 = affine_alpha(2, 0)
        assert a0.finite == -theta(2)
        assert a0.level == 0 and a0.degree == 1
        assert affine_bilinear(a0, a0) == 2

    def test_dominance(self):
        assert affine_Lambda(2, 1).is_dominant()
        assert not AffineWeight(theta(2), 1, Fraction(0)).is_dominant()
