"""What the two sides of each cross-check share, pinned in one table.

A cross-check of two routes shows nothing about code both sides run: a
fault there moves both sides alike.  Each check below runs its two sides
on one small instance under sys.setprofile, with every affmult lru_cache
cleared before each side, and records the functions of the route layers
(weyl_orbits, partitions, multiplicities, tableaux, char_oracle) that
each side calls.  The functions both sides call must be exactly those
pinned in SHARED, where each names the test that checks it against a
reference that neither side computes it with."""

import importlib
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from affmult.affine_cartan import AffineWeight, FiniteWeight, affine_Lambda
from affmult.char_oracle import (
    freudenthal_character, tensor_character, tensor_outer_multiplicities,
)
from affmult.multiplicities import (
    flag_multiplicity_poly, general_fundamental, orbit_terms, outer_multiplicity_formula,
    outer_multiplicity_limit, tau_formula, tau_terms, xi_from_eta,
)
from affmult.tableaux import tau_bruteforce
from affmult.weyl_orbits import socle_formula, socle_oracle
from demazure import peel

ROUTE_LAYERS = {"weyl_orbits", "partitions", "multiplicities", "tableaux", "char_oracle"}

ETA = (6, 6, 5)  # the headline character, and its weight at rank 2, charge 1
XI = xi_from_eta(2, 1, ETA)
SHALLOW = xi_from_eta(2, 1, (2, 2, 1))  # a weight of the oracle's table to depth 2
LAM = FiniteWeight(2, (2, 2))  # lam of the flag check; mu = (1, 1) is in its peel


def socles(socle):
    """socle(level, mu) for every mu of rank 2 with entries in [-3, 3], at
    levels 1-3, as criterion 4 runs its two sides."""
    for coords in product(range(-3, 4), repeat=2):
        for level in (1, 2, 3):
            socle(level, FiniteWeight(2, coords))


def descended(level, mu):
    return socle_oracle(AffineWeight(mu.w0_image(), level, Fraction(0)))


def oracle(i, j, depth):
    return lambda: tensor_outer_multiplicities(affine_Lambda(2, i), affine_Lambda(2, j), depth)


# each cross-check of the tier-1 tests and its two sides
CHECKS = {
    # acceptance criterion 2: the orbit-pair formula against the tableau count
    "criterion2": (lambda: tau_formula(2, 1, ETA), lambda: tau_bruteforce(ETA, 1)),
    # criterion 3: the orbit sum against the Brauer-Klimyk oracle
    "criterion3": (lambda: outer_multiplicity_formula(2, 1, SHALLOW), oracle(0, 1, 2)),
    # criterion 4: the closed-form socle against the reflection descent
    "criterion4": (lambda: socles(socle_formula), lambda: socles(descended)),
    # criterion 5: the limit route against the oracle
    "criterion5": (lambda: outer_multiplicity_limit(2, 1, SHALLOW, 12), oracle(0, 1, 2)),
    # criterion 7: the orbit sum's rows against the orbit-pair family's rows
    "criterion7": (lambda: orbit_terms(2, 1, XI), lambda: tau_terms(2, 1, ETA)),
    # criterion 8: a general pair by the rotation reduction against the oracle
    "criterion8": (lambda: general_fundamental(2, 1, 2, 2 * affine_Lambda(2, 0)),
                   oracle(1, 2, 1)),
    # the oracle's table against the product of Freudenthal characters
    "brauer_klimyk_vs_freudenthal": (oracle(0, 1, 2), lambda: tensor_character(
        freudenthal_character(affine_Lambda(2, 0), 2),
        freudenthal_character(affine_Lambda(2, 1), 2), 2)),
    # the orbit sum against the stabilizing limit
    "orbit_sum_vs_limit": (lambda: outer_multiplicity_formula(2, 1, XI),
                           lambda: outer_multiplicity_limit(2, 1, XI, 12)),
    # the flag multiplicities against the peel of Demazure characters
    "flag_vs_demazure": (lambda: flag_multiplicity_poly(LAM, FiniteWeight(2, (1, 1))),
                         lambda: peel(LAM)),
}

ORBIT_PAIR = "tests/test_weyl_orbits.py::TestOrbitPair::test_division_round_trip_and_dominance"
SOCLE = "tests/test_acceptance.py::TestCriterion4Socle::test_exhaustive"
MEMBERS = "tests/test_acceptance.py::TestCriterion7RouteBridge::test_term_by_term"

# the code of a row of both level-2 sums, (bounds, argument, count) of a pair
ROW_CODE = {
    "multiplicities._level_two_rows":
        "tests/test_multiplicities.py::TestLevelTwoRows::test_rows_are_split_and_f_weight",
    "partitions._count": "tests/test_partitions.py::TestRho::test_matches_enumeration",
    "partitions._is_bad_number": "tests/test_partitions.py::TestRhoMulti::test_bad_arguments",
    "partitions._rho_multi_sorted":
        "tests/test_partitions.py::TestRhoMulti::test_capped_matches_enumeration",
    "partitions.rho_multi": "tests/test_partitions.py::TestRhoMulti::test_matches_enumeration",
    "weyl_orbits.OrbitPair.a_vector": ORBIT_PAIR,
    "weyl_orbits.OrbitPair.in_dominant_set": ORBIT_PAIR,
    "weyl_orbits.OrbitPair.n": ORBIT_PAIR,
    "weyl_orbits.b_vector": "tests/test_weyl_orbits.py::TestBVector::test_rank_two_family_form",
    "weyl_orbits.orbit_division": ORBIT_PAIR,
    "weyl_orbits.res_p": SOCLE,
}

# for each check, the route-layer functions both sides run, each with the
# test that checks it against a reference neither side computes it with
SHARED = {
    "criterion2": {},
    "criterion3": {},
    "criterion4": {},
    "criterion5": {},
    "criterion7": ROW_CODE,
    "criterion8": {},
    "brauer_klimyk_vs_freudenthal": {},
    "flag_vs_demazure": {},
    # the limit route reads its members, f and bounds off orbit_terms
    "orbit_sum_vs_limit": {
        **ROW_CODE,
        "multiplicities.f_ball_bound": MEMBERS,
        "multiplicities.orbit_terms":
            "tests/test_acceptance.py::TestCriterion3OracleAgreement::test_sweep",
        "weyl_orbits._dominant_eps_in_ball":
            "tests/test_weyl_orbits.py::TestIntegerWalk::test_leaf_count_is_the_cli_cap",
        "weyl_orbits._sorted_nonneg_eps": SOCLE,
        "weyl_orbits.enumerate_gamma": MEMBERS,
        "weyl_orbits.socle_formula": SOCLE,
    },
}


def clear_caches():
    """Empty every lru_cache of the package, so that a cached function runs
    in each side that calls it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "affmult":
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                    value.cache_clear()


def route_functions(side) -> set:
    """'module.qualname' of each route-layer function that side() calls,
    comprehensions and lambdas counted as part of the function around them."""
    clear_caches()
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            package, _, module = frame.f_globals.get("__name__", "").partition(".")
            name = frame.f_code.co_qualname
            if (package == "affmult" and module in ROUTE_LAYERS
                    and not name.rpartition(".")[2].startswith("<")):
                called.add(f"{module}.{name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        side()
    finally:
        sys.setprofile(previous)
    return called


@pytest.mark.parametrize("check", CHECKS)
def test_shared_functions_are_pinned(check):
    side, other = CHECKS[check]
    assert sorted(route_functions(side) & route_functions(other)) == sorted(SHARED[check])


def test_every_shared_function_names_a_test():
    assert SHARED.keys() == CHECKS.keys()
    for check, shared in SHARED.items():
        for function, test_id in shared.items():
            path, *names = test_id.split("::")
            test = importlib.import_module(Path(path).stem)
            for name in names:
                test = getattr(test, name, None)
            assert names[-1].startswith("test_") and callable(test), (check, function, test_id)
