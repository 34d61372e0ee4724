"""Exact computation of outer multiplicities of level-2 simple modules
in tensor products of level-1 fundamental modules of affine type A,
together with the supporting combinatorics: bounded partitions and
Gaussian binomials, charged tableaux, affine Weyl orbit formulas, flag
multiplicity polynomials, and a verification oracle that decomposes the
tensor product by the Brauer-Klimyk rule over the closed-form level-1
characters, within a derived depth bound.
"""

from .affine_cartan import (  # noqa: F401
    AffineWeight,
    FiniteWeight,
    affine_Lambda,
    bilinear,
    eps_coords,
    omega,
    quadratic_f,
    theta,
    weight_from_eps,
)
from .char_oracle import freudenthal_character, tensor_outer_multiplicities  # noqa: F401
from .laurent import LaurentPoly  # noqa: F401
from .multiplicities import (  # noqa: F401
    eta_from_xi,
    flag_multiplicity_poly,
    general_fundamental,
    jk_from_eta,
    mu_split,
    outer_multiplicity_formula,
    outer_multiplicity_limit,
    tau_formula,
    xi_from_eta,
)
from .partitions import q_binomial, q_binomial_product, rho, rho_multi  # noqa: F401
from .tableaux import is_mw, tau_bruteforce, tau_counts  # noqa: F401
from .weyl_orbits import (  # noqa: F401
    OrbitPair,
    b_vector,
    enumerate_gamma,
    level_two_family,
    r_of,
    socle_formula,
    socle_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
