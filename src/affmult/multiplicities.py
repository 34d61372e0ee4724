"""Outer multiplicities of level-2 simple modules in tensor products of
two level-1 fundamental modules, by three routes:

* a closed-form sum of bounded-multipartition counts over an orbit set
  indexed by dominant finite weights (``outer_multiplicity_formula``,
  with its per-member breakdown ``orbit_terms``);
* the same sum re-indexed by level-2 orbit pairs and driven by a tableau
  content character (``tau_formula``, with its per-pair breakdown
  ``tau_terms``);
* a stabilizing limit of level-1 to level-2 flag multiplicities along a
  cofinal orbit sequence (``outer_multiplicity_limit``), one sequence
  per row of ``orbit_terms``.

Both breakdowns read their rows off one function, ``_level_two_rows``.

Also: the level-1 to level-2 flag multiplicity generating polynomials,
and the rotation reduction expressing a general fundamental pair
(i, j) through the (0, j - i) case.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .affine_cartan import (
    AffineWeight,
    FiniteWeight,
    _below,
    _q_plus_coeffs,
    a_of_eta,
    affine_Lambda,
    bilinear,
    nonneg_root_coeffs,
    omega,
    quadratic_f,
    residue,
    scaled_f,
    varpi_eps,
)
from .laurent import LaurentPoly
from .partitions import _is_bad_number, q_binomial_product, rho_multi, stabilize_threshold
from .records import Record
from .weyl_orbits import b_vector, enumerate_gamma, level_two_family, r_of


class MuSplit(Record):
    """Parity split -w0(mu) = 2*mu0 + mu1 with mu1 coordinates in {0,1}."""

    __slots__ = ("mu0", "mu1")

    @property
    def bounds(self) -> tuple:
        return self.mu0.coords


def direct_split(mu: FiniteWeight):
    """Parity split of mu itself: mu = 2*mu0 + mu1, mu1 coords in {0,1}.
    This is the convention of the flag-multiplicity formula; it differs
    from mu_split by the coordinate reversal -w0, which permutes the
    bound vector but leaves plain multipartition counts unchanged."""
    mu0 = FiniteWeight(mu.n, tuple(c // 2 for c in mu.coords))
    mu1 = FiniteWeight(mu.n, tuple(c % 2 for c in mu.coords))
    return mu0, mu1


def mu_split(mu: FiniteWeight) -> MuSplit:
    """The direct split of -w0(mu), for dominant mu."""
    if not mu.is_dominant():
        raise ValueError("mu must be dominant")
    return MuSplit(*direct_split(mu.minus_w0()))


def _flag_data(lam: FiniteWeight, mu: FiniteWeight):
    """Shared setup: root coefficients a of lam - mu (None if lam - mu is
    not a non-negative root sum), bounds from the split of mu, and the
    integer (lam + mu1, lam - mu)/2, as lam + mu1 = 2(mu0 + mu1) + lam - mu."""
    if not lam.is_dominant() or not mu.is_dominant():
        raise ValueError("weights must be dominant")
    diff = lam - mu
    a = nonneg_root_coeffs(diff)
    if a is None:
        return None
    mu0, mu1 = direct_split(mu)
    return a, mu0.coords, bilinear(lam + mu1, diff) // 2


def flag_multiplicity_poly(lam: FiniteWeight, mu: FiniteWeight) -> LaurentPoly:
    """Generating polynomial of the level-1 to level-2 flag multiplicities:
    q^{(lam+mu1, lam-mu)/2} * prod_j [a_j + b_j choose a_j]_q, where a is
    the root-coefficient vector of lam - mu and b the bound vector of mu.
    Zero when lam - mu is not a non-negative sum of simple roots."""
    data = _flag_data(lam, mu)
    if data is None:
        return LaurentPoly()
    a, b, shift = data
    return q_binomial_product([x + y for x, y in zip(a, b)], a).shift(shift)


def eta_prime(eta, i: int) -> tuple:
    """The transformed vector with cyclic entries
    delta_{0,r} + delta_{i,r} - 2 eta_r + eta_{r-1} + eta_{r+1};
    eta indexes a dominant weight iff all entries are >= 0."""
    eta = tuple(eta)
    m, i = len(eta), i % len(eta)
    return tuple((r == 0) + (r == i) - 2 * eta[r] + eta[r - 1] + eta[(r + 1) % m]
                 for r in range(m))


def jk_from_eta(eta, i: int):
    """Indices {j, k} with eta' = e_j + e_k; requires eta' >= 0 with
    total 2.  Then j + k = i mod (n + 1)."""
    ep = eta_prime(eta, i)
    if any(x < 0 for x in ep) or sum(ep) != 2:
        raise ValueError("eta' is not of the form e_j + e_k")
    return tuple(r for r, x in enumerate(ep) for _ in range(x))


def xi_from_eta(n: int, i: int, eta: Sequence[int]) -> AffineWeight:
    """xi = Lambda_0 + Lambda_i - sum_l eta_l alpha_l (level 2): its
    coroot values are eta_prime(eta, i), and its degree is -eta_0, as
    alpha_0 = delta - theta is the only simple root with a degree."""
    if len(eta) != n + 1:
        raise ValueError("eta must have n + 1 entries")
    return AffineWeight.from_c_values(n, eta_prime(eta, i), -eta[0])


def eta_from_xi(n: int, i: int, xi: AffineWeight) -> tuple:
    """Inverse of xi_from_eta; errors unless Lambda_0 + Lambda_i - xi is
    a non-negative integer combination of the simple affine roots."""
    if xi.level != 2:
        raise ValueError("xi must have level 2")
    eta = _q_plus_coeffs(affine_Lambda(n, 0) + affine_Lambda(n, i), xi)
    if eta is None:
        raise ValueError("xi is not below Lambda_0 + Lambda_i")
    return eta


def delta_string(n: int, i: int, j: int, k: int, eta0_max: int) -> list:
    """eta_from_xi of Lambda_j + Lambda_k - eta0 delta for each eta0 <= eta0_max
    at which it lies below Lambda_0 + Lambda_i.  As theta = sum_l alpha_l, it
    is (eta0, a_1 + eta0, ..., a_n + eta0) with a = a_of_eta(omega_i - omega_j
    - omega_k), below from eta0 = max(0, -min a) on.  There is none unless
    j + k = i mod n + 1, which puts omega_i - omega_j - omega_k in Q."""
    if residue(j + k - i, n):
        return []
    a = a_of_eta((affine_Lambda(n, i) - affine_Lambda(n, j) - affine_Lambda(n, k)).finite)
    return [(eta0,) + tuple(x + eta0 for x in a) for eta0 in range(max(0, -min(a)), eta0_max + 1)]


def f_ball_bound(n: int, i: int, xi: AffineWeight) -> Fraction:
    """Norm bound 2(omega_i, omega_i) - (xibar, xibar) - 4 xi(d) on the
    orbit-set members with a non-zero count."""
    w = omega(n, residue(i, n))
    return 2 * bilinear(w, w) - bilinear(xi.finite, xi.finite) - 4 * xi.degree


def f_weight(n: int, i: int, xi: AffineWeight, mu: FiniteWeight) -> Fraction:
    """f_{i,xi}(mu) = (2(omega_i,omega_i) - (xibar,xibar) - 4 xi(d) - (mu,mu))/4."""
    return Fraction(f_ball_bound(n, i, xi) - bilinear(mu, mu), 4)


def _level_two_rows(n: int, pairs, K):
    """The terms of both orbit sums, one row (bounds, argument, count) per
    level-2 pair: b_vector(pair), (K - scaled_f(a))/(4(n + 1)) with
    a = pair.a_vector() and K = (n + 1) * f_ball_bound, and rho_multi of
    the two.  For the pair of a member mu these are mu_split(mu).bounds
    and f_{i,xi}(mu), as scaled_f(a) = (n + 1)(mu, mu)."""
    scale = 4 * (n + 1)
    for pair in pairs:
        b = b_vector(pair)
        arg = Fraction(K - scaled_f(pair.a_vector()), scale)
        yield b, arg, rho_multi(arg, b)


def orbit_terms(n: int, i: int, xi: AffineWeight) -> list:
    """Per-member breakdown of outer_multiplicity_formula: one row
    (mu, bounds, f, count) per member of the orbit set of xi, in the order
    of enumerate_gamma, with bounds = mu_split(mu).bounds, f = f_{i,xi}(mu)
    and count = rho_multi(f, bounds).  xi must be dominant of level 2;
    enumerate_gamma refuses one that is not dominant."""
    if xi.level != 2:
        raise ValueError("xi must have level 2")
    bound = f_ball_bound(n, i, xi)
    members = enumerate_gamma(xi, bound)
    rows = _level_two_rows(n, [pair for _mu, pair in members], (n + 1) * bound)
    return [(mu, *row) for (mu, _pair), row in zip(members, rows)]


def outer_multiplicity_formula(n: int, i: int, xi: AffineWeight) -> int:
    """Multiplicity of the simple module with highest weight xi in the
    tensor product of the 0-th and i-th level-1 fundamental modules:
    sum over the orbit set of xi of bounded-multipartition counts at
    argument f_{i,xi}(mu)."""
    return sum(count for *_, count in orbit_terms(n, i, xi))


def f_eps(n: int, i: int, j: int, k: int, eta0: int, a: Sequence[int]) -> Fraction:
    """Epsilon-coordinate form of f_{i,xi}, (tau_bound - f(a))/4: that is
    f(w_i)/2 - f(w_j + w_k)/4 + eta_0 - f(a)/4, w_* as in tau_bound."""
    return (tau_bound(n, i, j, k, eta0) - quadratic_f(a)) / 4


def tau_bound(n: int, i: int, j: int, k: int, eta0: int) -> Fraction:
    """The norm bound of tau_terms' walk of the (j, k) family at charge i
    and depth eta0: K/N, N = n + 1, with K = N*(2f(w_i) - f(w_j + w_k) +
    4 eta_0) in integers, w_* the fundamental direction vectors.  It equals
    f_ball_bound at Lambda_j + Lambda_k - eta0 delta, which the tableau
    route does not call, so that it stays independent of the orbit sum."""
    N = n + 1
    wi = varpi_eps(n, residue(i, n))
    wjk = tuple(x + y for x, y in zip(varpi_eps(n, residue(j, n)), varpi_eps(n, residue(k, n))))
    return Fraction(2 * scaled_f(wi) - scaled_f(wjk) + 4 * N * eta0, N)


def tau_terms(n: int, i: int, eta: Sequence[int]) -> list:
    """Per-pair breakdown of tau_formula: one row (pair, bounds, argument,
    count) per member of the level-2 family of the indices (j, k) read
    off eta, walked at tau_bound; each argument equals f_eps."""
    eta = tuple(eta)
    if len(eta) != n + 1:
        raise ValueError("eta must have n + 1 entries")
    j, k = jk_from_eta(eta, i)
    bound = tau_bound(n, i, j, k, eta[0])
    members = level_two_family(n, j, k, bound).members
    rows = _level_two_rows(n, members, int((n + 1) * bound))  # K, an integer
    return [(pair, *row) for pair, row in zip(members, rows)]


def tau_formula(n: int, i: int, eta: Sequence[int]) -> int:
    """Tableau-counting route: the same multiplicity computed from the
    content character eta, summing bounded-multipartition counts over
    the level-2 orbit-pair family of the indices (j, k) read off eta."""
    return sum(count for *_, count in tau_terms(n, i, eta))


class LimitResult(Record):
    """Outcome of the flag-multiplicity limit route: the ``value``, the k
    it was ``stabilized_at`` (an int, or the string "not stabilized"),
    and the ``sequences``, per-mu tuples (mu, threshold, values by k)."""

    __slots__ = ("value", "stabilized_at", "sequences")


def outer_multiplicity_limit(n: int, i: int, xi: AffineWeight,
                             k_max: int) -> LimitResult:
    """Limit route: for each row (mu, bounds, f, count) of orbit_terms
    evaluate the flag multiplicity
    [D(1, omega_i + k*theta) : D(2, mu, r(mu,xi) + k(|omega_i|+k))]
    for k = 0..k_max, the counts of flag_progression.  Each sequence is
    non-decreasing and constant from the explicit stabilization threshold
    on; the stabilized sum is the outer multiplicity."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    sequences = []
    for mu, _bounds, f, _count in orbit_terms(n, i, xi):
        progression = flag_progression(n, i, xi, mu)
        if progression is None:  # mu - omega_i off the root lattice
            sequences.append((mu, 0, (0,) * (k_max + 1)))
            continue
        arg, b, caps = progression
        values = tuple(rho_multi(arg + k * sum(b), b, [c + k for c in caps])
                       for k in range(k_max + 1))
        # b is the row's bounds reversed and -caps is a_of_eta(mu - omega_i);
        # at an f off the non-negative integers the count is 0 at every k
        threshold = (0 if _is_bad_number(f)
                     else max(0, stabilize_threshold(int(f), [-c for c in caps], b)))
        sequences.append((mu, threshold, values))
    last = max((threshold for _mu, threshold, _values in sequences), default=0)
    return LimitResult(sum(values[-1] for *_, values in sequences),
                       last if last <= k_max else "not stabilized", tuple(sequences))


def flag_progression(n: int, i: int, xi: AffineWeight, mu: FiniteWeight):
    """(argument, bounds, caps) of the limit route's 0-th flag multiplicity
    at mu, whose k-th is rho_multi(argument + k|bounds|, bounds, caps + k),
    or None when mu - omega_i is off the root lattice and every count is 0:
    at lam = omega_i + k theta, the flag multiplicity counts to r(mu, xi) +
    k(|omega_i| + k) - (lam + mu1, lam - mu)/2 with bounds mu0 and caps the
    root coefficients of lam - mu (0 at a negative one); theta adds 1 to
    each cap and (theta, mu0 - omega_i) + |omega_i| = |mu0| to the argument."""
    wi = omega(n, residue(i, n))
    try:
        caps = a_of_eta(wi - mu)
    except ValueError:
        return None
    mu0, mu1 = direct_split(mu)
    return r_of(mu, xi) - Fraction(bilinear(wi + mu1, wi - mu), 2), mu0.coords, caps


def rotate(c: int, lam: AffineWeight) -> AffineWeight:
    """Diagram rotation by c steps: delta is fixed, alpha_k maps to
    alpha_{k+c}, and Lambda_0 maps to Lambda_c - ((omega_c, omega_c)/2) delta.
    An isometry of the affine weight lattice that permutes the coroot
    values cyclically.

    It sends Lambda_k to Lambda_{k'} + d_k delta with k' = (k + c) mod m,
    m = n + 1, and as (Lambda_k, Lambda_k) = k(m - k)/m, keeping the norm
    fixes d_k = (k(m - k) - k'(m - k'))/(2m)."""
    m = lam.n + 1
    cv, s = lam.c_values(), -c % m  # the k-th value of the image is cv[(k + s) % m]
    scaled_shift = sum(v * (k * (m - k) - (k + c) % m * (m - (k + c) % m))  # 2m sum_k v_k d_k
                       for k, v in enumerate(cv) if v)
    return AffineWeight.from_c_values(lam.n, cv[s:] + cv[:s],
                                      lam.degree + Fraction(scaled_shift, 2 * m))


def rotated_to_zero(n: int, i: int, j: int, xi: AffineWeight) -> tuple:
    """The (0, j - i) instance equal to the multiplicity of V(xi) in
    V(Lambda_i) (x) V(Lambda_j): the charge (j - i) mod (n + 1) and xi
    under the diagram rotation taking Lambda_i to Lambda_0, shifted by
    the delta that the rotation adds to Lambda_i + Lambda_j."""
    m = n + 1
    i, j = i % m, j % m
    if xi.level != 2:
        raise ValueError("xi must have level 2")
    top = affine_Lambda(n, i) + affine_Lambda(n, j)
    if not _below(top, xi):
        raise ValueError("xi is not below Lambda_i + Lambda_j")
    c = (-i) % m
    # rotate is additive: top goes to Lambda_0 + Lambda_{j-i} + shift * delta
    return (j - i) % m, rotate(c, xi).shift_delta(-rotate(c, top).degree)


def general_fundamental(n: int, i: int, j: int, xi: AffineWeight) -> int:
    """Multiplicity of V(xi) in V(Lambda_i) (x) V(Lambda_j), reduced to
    the (0, j - i) case by the diagram rotation taking Lambda_i to
    Lambda_0 up to a delta shift (rotated_to_zero)."""
    return outer_multiplicity_formula(n, *rotated_to_zero(n, i, j, xi))
