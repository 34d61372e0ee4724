"""Character oracle: Freudenthal weight multiplicities, the Frenkel-Kac
level-1 weights, and the Brauer-Klimyk tensor decomposition with its
derived depth bound."""

from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import affmult.char_oracle
from affmult.affine_cartan import (
    AffineWeight,
    FiniteWeight,
    affine_Lambda,
    bilinear,
    omega,
    weight_from_eps,
)
from affmult.char_oracle import (
    _admitted_weights,
    _brauer_klimyk,
    _coloured_partition_counts,
    _maximal_weights,
    freudenthal_character,
    tensor_character,
    tensor_outer_multiplicities,
)
from affmult.multiplicities import outer_multiplicity_formula
from affmult.partitions import rho_multi
from affmult.weyl_orbits import socle_oracle
from test_imports import package_imports
from weyl_group import simple_reflection


class TestIndependence:
    def test_no_import_from_the_checked_module(self):
        # the oracle checks the multiplicity routes, so it must not share
        # their code: nothing in it is imported from multiplicities
        assert "multiplicities" not in package_imports(Path(affmult.char_oracle.__file__))


class TestBasicModuleStrings:
    def test_rank_one(self):
        ch = freudenthal_character(affine_Lambda(1, 0), 3)
        vals = [ch.mult(affine_Lambda(1, 0).shift_delta(-k)) for k in range(4)]
        assert vals == [1, 1, 2, 3]

    def test_rank_two(self):
        ch = freudenthal_character(affine_Lambda(2, 0), 2)
        vals = [ch.mult(affine_Lambda(2, 0).shift_delta(-k)) for k in range(3)]
        assert vals == [1, 2, 5]

    def test_highest_weight_multiplicity_one(self):
        for n in (1, 2):
            for i in range(n + 1):
                lam = affine_Lambda(n, i)
                assert freudenthal_character(lam, 2).mult(lam) == 1

    def test_rejects_non_dominant(self):
        bad = AffineWeight(FiniteWeight(2, (2, 0)), 1, Fraction(0))
        try:
            freudenthal_character(bad, 1)
        except ValueError:
            pass
        else:
            raise AssertionError("expected an error for a non-dominant weight")


class TestCharacterInvariance:
    def test_weyl_invariance_spot_checks(self):
        lam = affine_Lambda(2, 1)
        ch = freudenthal_character(lam, 3)
        for w, m in ch.mults.items():
            for i in range(3):
                refl = simple_reflection(i, w)
                if lam.degree - refl.degree <= 3:
                    assert ch.mult(refl) == m

    def test_dominant_representative_degree_bound(self):
        # every weight of the module descends to a dominant weight whose
        # degree is at least its own
        ch = freudenthal_character(affine_Lambda(1, 1), 3)
        for w in ch.mults:
            assert socle_oracle(w).weight.degree >= w.degree


def reconstruction_check(Lam, Lam2, depth: int) -> bool:
    """Full reconstruction identity: the Brauer-Klimyk table re-summed
    with Freudenthal characters equals the product of the factors'
    Freudenthal characters at every weight within depth."""
    c1 = freudenthal_character(Lam, depth)
    c2 = freudenthal_character(Lam2, depth)
    expected = tensor_character(c1, c2, depth)
    table = tensor_outer_multiplicities(Lam, Lam2, depth)
    top = Lam + Lam2
    recon = {}
    for xi, m in table.items():
        if m == 0:
            continue
        rem = depth - int(top.degree - xi.degree)
        ch = freudenthal_character(xi, rem)
        for w, mw in ch.mults.items():
            if top.degree - w.degree <= depth:
                recon[w] = recon.get(w, 0) + m * mw
    return recon == expected


class TestTensorPeeling:
    def test_cartan_component(self):
        table = tensor_outer_multiplicities(affine_Lambda(2, 0),
                                            affine_Lambda(2, 1), 2)
        top = affine_Lambda(2, 0) + affine_Lambda(2, 1)
        assert table[top] == 1

    def test_headline_weight(self):
        table = tensor_outer_multiplicities(affine_Lambda(2, 0),
                                            affine_Lambda(2, 1), 6)
        target = AffineWeight(2 * omega(2, 2), 2, Fraction(-6))
        assert table[target] == 5

    def test_rank_one_table_matches_formula(self):
        table = tensor_outer_multiplicities(affine_Lambda(1, 0),
                                            affine_Lambda(1, 1), 4)
        assert table
        for xi, m in table.items():
            assert outer_multiplicity_formula(1, 1, xi) == m

    def test_reconstruction_identity(self):
        assert reconstruction_check(affine_Lambda(1, 0), affine_Lambda(1, 1), 4)
        assert reconstruction_check(affine_Lambda(2, 0), affine_Lambda(2, 2), 3)
        assert reconstruction_check(affine_Lambda(3, 0), affine_Lambda(3, 1), 2)
        assert reconstruction_check(affine_Lambda(3, 0), affine_Lambda(3, 1), 4)


def frenkel_kac_character(n, j, depth):
    """Closed-form character of V(Lambda_j) to delta-depth <= depth,
    built from the oracle's maximal weights and string multiplicities."""
    lam = affine_Lambda(n, j)
    w = omega(n, j)
    # t0 <= depth bounds |mu_bar|^2 by 2*depth + |omega_j|^2; a_i^2 <= 2 f(a)
    amax = isqrt(int(2 * (2 * depth + bilinear(w, w))))
    counts = _coloured_partition_counts(n, depth)
    mults = {}
    for a, t0 in _maximal_weights(n, j, amax):
        for t in range(t0, depth + 1):
            weight = AffineWeight(weight_from_eps(n, a), 1, lam.degree - t)
            mults[weight] = counts[t - t0]
    return mults


class TestFrenkelKac:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_freudenthal(self, n):
        for j in range(n + 1):
            expected = freudenthal_character(affine_Lambda(n, j), 4).mults
            assert frenkel_kac_character(n, j, 4) == expected

    def test_coloured_partition_counts(self):
        assert _coloured_partition_counts(1, 6) == [1, 1, 2, 3, 5, 7, 11]
        assert _coloured_partition_counts(2, 4) == [1, 2, 5, 10, 20]

    def test_coloured_partitions_are_multipartitions(self):
        # an n-coloured partition of k is a multipartition of k with n
        # components, each with parts at most k
        for n in range(7):
            assert _coloured_partition_counts(n, 30) == [rho_multi(k, (k,) * n)
                                                         for k in range(31)], n


class TestBrauerKlimyk:
    @pytest.mark.parametrize("n,i,j,depth", [
        (1, 0, 1, 5), (2, 0, 1, 5), (3, 0, 1, 3), (2, 0, 0, 6),
        (1, 0, 0, 8), (2, 1, 2, 4),
    ])
    def test_wider_enumeration_same_table(self, n, i, j, depth):
        lam, lam2 = affine_Lambda(n, i), affine_Lambda(n, j)
        admitted = list(_admitted_weights(lam, lam2, depth))
        amax = max(max(abs(x) for x in a) for a, _t0 in admitted)
        wide = list(_maximal_weights(n, j, amax + 3))
        assert set(admitted) < set(wide)

        def nonzero(sums):
            return {key: val for key, val in sums.items() if val}

        assert (nonzero(_brauer_klimyk(lam, lam2, depth, wide))
                == nonzero(_brauer_klimyk(lam, lam2, depth, admitted)))

    def test_zero_entries_are_kept(self):
        table = tensor_outer_multiplicities(affine_Lambda(1, 0),
                                            affine_Lambda(1, 0), 2)
        assert len(table) == 5
        assert sorted(table.values()) == [0, 1, 1, 1, 1]

    def test_rank_three_tables_match_formula(self):
        for i in range(4):
            table = tensor_outer_multiplicities(affine_Lambda(3, 0),
                                                affine_Lambda(3, i), 4)
            assert table
            for xi, m in table.items():
                assert outer_multiplicity_formula(3, i, xi) == m

    @pytest.mark.parametrize("lam,lam2,depth", [
        (affine_Lambda(2, 0) + affine_Lambda(2, 1), affine_Lambda(2, 0), 2),
        (affine_Lambda(2, 0), AffineWeight(FiniteWeight(2, (2, 0)), 1, Fraction(0)), 2),
        (affine_Lambda(2, 0), affine_Lambda(1, 0), 2),
        (affine_Lambda(2, 0), affine_Lambda(2, 1), -1),
    ])
    def test_rejects_bad_input(self, lam, lam2, depth):
        with pytest.raises(ValueError):
            tensor_outer_multiplicities(lam, lam2, depth)
