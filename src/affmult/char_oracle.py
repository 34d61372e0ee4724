"""Independent verification oracle for the outer multiplicities.

``tensor_outer_multiplicities`` decomposes V(Lam) (x) V(Lam2), for two
dominant weights of level 1, by the Brauer-Klimyk rule

    ch V(Lam) ch V(Lam2) = sum over the weights mu of V(Lam2) of
        mult(mu) * sign(w) * ch V(w(Lam + mu + rho_hat) - rho_hat),

where w(Lam + mu + rho_hat) is dominant and terms on a wall drop out.
The weights of V(Lam2) come from the Frenkel-Kac closed form: with Lam2
of finite part omega_j they are Lam2 + (mu_bar - omega_j) - t*delta for
mu_bar in omega_j + Q and t = (|mu_bar|^2 - |omega_j|^2)/2 + k, with
multiplicity the number of n-coloured partitions of k.  A norm
inequality, derived at ``_admitted_weights`` and checked on every
reflection descent, bounds the weights that reach a summand within the
requested delta-depth; ``descent_passes`` bounds the passes of the
descents, which the CLI prices.  No level-2 character is built and
nothing is peeled.

``freudenthal_character`` runs the affine Freudenthal recursion (Kac,
Ch. 11) in integers on the root-coefficient vector k of Lam - mu =
sum k_i alpha_i: k_0 is the delta-depth, mu(h) = Lam(h) - A k, and
|Lam + rho_hat|^2 - |mu + rho_hat|^2 = 2 sum k_i (Lam(h_i) + 1) - k.Ak.
Weights grow height by height from Lam, by +e_i out of the nonzero ones,
while k_0 <= depth.  The positive roots are r*delta + e_[a,b] (r >= 0)
and r*delta - e_[a,b] (r >= 1), e_[a,b] = alpha_a + ... + alpha_b, of
multiplicity 1, and r*delta of multiplicity n; with b the coefficient
vector of beta, (mu + t*beta, beta) = b.mu(h) + t*(beta, beta).  It uses
no Brauer-Klimyk sum, descent or Frenkel-Kac form, so the tests'
reconstruction check (the table re-summed with Freudenthal characters
against ``tensor_character``, the product of the factors' characters)
is an independent check of the table.

Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt

# a_of_eta is not called here; the benchmark's tracer and its harness test
# still look it up in this module, so it stays importable from it
from .affine_cartan import (  # noqa: F401
    AffineWeight,
    FiniteWeight,
    _below,
    a_of_eta,
    eps_coords,
    omega,
    rho_hat,
    scaled_f,
    weight_from_eps,
)
from .partitions import times_q_factors
from .records import Record
from .weyl_orbits import _descend


class TruncatedCharacter(Record):
    """Weight multiplicities of V(highest) down to delta-depth <= depth;
    ``mults`` maps AffineWeight to multiplicity."""

    __slots__ = ("highest", "depth", "mults")


def freudenthal_character(Lam: AffineWeight, depth: int) -> TruncatedCharacter:
    """Weight multiplicities of the simple module V(Lam) at all weights
    of delta-depth at most `depth` below Lam."""
    if not Lam.is_dominant() or Lam.level < 1:
        raise ValueError("highest weight must be dominant of positive level")
    n = Lam.n
    m = n + 1
    lam_h = Lam.c_values()

    def coroot_values(k):
        """mu(h) = Lam(h) - A k on the cycle (A_01 = -2 at n = 1)."""
        return [lam_h[i] - 2 * k[i] + k[i - 1] + k[(i + 1) % m] for i in range(m)]

    # positive roots (b, (beta, beta), multiplicity) by delta-coefficient r
    roots = []
    for r in range(depth + 1):
        roots += [(tuple(r + sign if lo <= i <= hi else r for i in range(m)), 2, 1)
                  for lo in range(1, m) for hi in range(lo, m)
                  for sign in ((1, -1) if r else (1,))]
        if r:
            roots.append(((r,) * m, 0, n))
    # every weight below Lam has a weight mu + alpha_i, so the nonzero
    # weights of one height give every candidate of the next; a positive
    # root has positive height, so mu + t*beta is done before mu
    mults = {(0,) * m: 1}
    layer = list(mults)
    while layer:
        grown = dict.fromkeys(k[:i] + (k[i] + 1,) + k[i + 1:]
                              for k in layer for i in range(m) if i or k[0] < depth)
        layer = []
        for k in grown:
            mu_h = coroot_values(k)
            # |Lam + rho_hat|^2 - |mu + rho_hat|^2
            den = sum(x * (y + z + 2) for x, y, z in zip(k, lam_h, mu_h))
            if den <= 0:
                # strict norm inequality: such mu has multiplicity 0
                continue
            acc = 0
            for b, norm, mult in roots:
                if b[0] > k[0]:
                    break  # mu + t*beta would lie above Lam in delta
                # (mu + t*beta, beta) = (mu, beta) + t*(beta, beta)
                pair = sum(x * y for x, y in zip(b, mu_h))
                w = k
                while True:
                    w = tuple(x - y for x, y in zip(w, b))
                    if min(w) < 0:
                        break
                    pair += norm
                    mw = mults.get(w)
                    if mw:
                        acc += mult * mw * pair
            val, rem = divmod(2 * acc, den)
            if rem or val < 0:
                raise ArithmeticError("non-integral weight multiplicity")
            if val:
                mults[k] = val
                layer.append(k)
    return TruncatedCharacter(Lam, depth, {
        AffineWeight.from_c_values(n, coroot_values(k), Lam.degree - k[0]): val
        for k, val in mults.items()})


def tensor_character(c1: TruncatedCharacter, c2: TruncatedCharacter,
                     depth: int) -> dict:
    """Product of two truncated characters, kept to delta-depth <= depth
    below the sum of the highest weights."""
    top_deg = c1.highest.degree + c2.highest.degree
    out = {}
    for w1, m1 in c1.mults.items():
        for w2, m2 in c2.mults.items():
            w = w1 + w2
            if top_deg - w.degree <= depth:
                out[w] = out.get(w, 0) + m1 * m2
    return out


def _coloured_partition_counts(n: int, kmax: int) -> list:
    """Number of n-coloured partitions of k for k = 0..kmax: the
    coefficients of prod_{r >= 1} (1 - q^r)^(-n) to q^kmax, n divisions by
    (q;q)_kmax."""
    return times_q_factors([1] + [0] * kmax, range(1, kmax + 1), -n)


def _maximal_weights(n: int, j: int, amax: int):
    """Maximal weights of V(Lambda_j) modulo delta (Frenkel-Kac): every
    mu_bar in omega_j + Q whose epsilon vector a has all |a_i| <= amax,
    as (a, t0) with t0 = (|mu_bar|^2 - |omega_j|^2)/2 the delta-depth of
    Lambda_j + mu_bar - omega_j - t0*delta.  Its string continues at
    depth t0 + k with multiplicity the number of n-coloured partitions
    of k."""
    m = n + 1
    w = eps_coords(omega(n, j))
    norm_w = scaled_f(w)
    cls = sum(w) % m
    for a in product(range(-amax, amax + 1), repeat=n):
        if sum(a) % m != cls:
            continue
        t0, rem = divmod(scaled_f(a) - norm_w, 2 * m)
        if rem:
            raise ArithmeticError("non-integral depth of a maximal weight")
        yield a, t0


def _admitted_weights(Lam: AffineWeight, Lam2: AffineWeight, depth: int):
    """The maximal weights (a, t0) of V(Lam2) whose strings can reach a
    summand of V(Lam) (x) V(Lam2) at delta-depth <= depth.

    Let mu = Lam2 + mu_bar - omega_j - t*delta reach xi: nu = Lam + mu +
    rho_hat is W-conjugate to xi + rho_hat, both of level L = n + 3.
    Equal norms give t = depth(xi) + (|nu_bar|^2 - |xi_bar + rho_bar|^2)/(2L),
    and |xi_bar + rho_bar|^2 >= |rho_bar|^2 as xi_bar is dominant, so

        t <= depth + (|nu_bar|^2 - |rho_bar|^2)/(2L),  nu_bar = mu_bar + c,

    with c = Lam_bar + rho_bar; Frenkel-Kac gives t >= t0.  Both together,
    times 2L, read (L-1)|mu_bar - c/(L-1)|^2 <= R with
    R = 2L*depth + L|omega_j|^2 - |rho_bar|^2 + L|c|^2/(L-1), a ball since
    L > 1, so |mu_bar|^2 <= 2|c|^2/(L-1)^2 + 2R/(L-1).  An epsilon vector
    has a_i^2 <= 2 f(a), which bounds the box searched, |a_i| <= amax."""
    j, lev, c, norm_rho, big_r, amax = _ball(Lam, Lam2, depth)
    radius_sq = 2 * Fraction(scaled_f(c), (lev - 1) ** 2) + 2 * big_r / (lev - 1)
    for a, t0 in _maximal_weights(Lam.n, j, amax):
        nu = [x + y for x, y in zip(a, c)]
        if 2 * lev * (Lam.n + 1) * (t0 - depth) > scaled_f(nu) - norm_rho:
            continue
        # (L-1)|mu_bar - c/(L-1)|^2 = |(L-1) mu_bar - c|^2 / (L-1)
        off_centre = [(lev - 1) * x - y for x, y in zip(a, c)]
        if (scaled_f(off_centre) > (lev - 1) * big_r
                or scaled_f(a) > radius_sq):
            raise AssertionError("admitted weight outside the derived ball")
        yield a, t0


def _ball(Lam: AffineWeight, Lam2: AffineWeight, depth: int) -> tuple:
    """j with Lam2 = Lambda_j, and L, c, |rho_bar|^2, R and the box radius
    amax of the ball of _admitted_weights: L is the level of Lam + Lam2 +
    rho_hat, c the epsilon vector of Lam_bar + rho_bar, and each norm is
    scaled by n + 1, as scaled_f gives it."""
    n = Lam.n
    m = n + 1
    j = Lam2.c_values().index(1)
    rho_bar = rho_hat(n).finite
    lev = Lam.level + Lam2.level + m
    c = eps_coords(Lam.finite + rho_bar)
    norm_rho = scaled_f(eps_coords(rho_bar))
    if lev <= 1:
        raise AssertionError("the depth bound needs level > 1")
    norm_c = scaled_f(c)
    norm_w = scaled_f(eps_coords(omega(n, j)))
    # every norm below is scaled by m = n + 1; R = r + L|c|^2/(L-1), so the
    # squared radius 2|c|^2/(L-1)^2 + 2R/(L-1) is 2((L+1)|c|^2 + (L-1)r)/(L-1)^2
    r = 2 * lev * depth * m + lev * norm_w - norm_rho
    amax = isqrt(4 * ((lev + 1) * norm_c + (lev - 1) * r) // (m * (lev - 1) ** 2))
    return j, lev, c, norm_rho, r + Fraction(lev * norm_c, lev - 1), amax


def descent_passes(Lam: AffineWeight, Lam2: AffineWeight, depth: int) -> int:
    """A bound on the scans of _descend in tensor_outer_multiplicities(Lam,
    Lam2, depth): at most (2 amax + 1)^n admitted weights, each descended
    with a scan a reflection and one more, and by descent_length at most
    |s|//L + 1 reflections for each of the n(n + 1)/2 positive finite roots
    alpha, s = (nu_bar, alpha) a difference of two entries of a + c and 0."""
    _, lev, c, _, _, amax = _ball(Lam, Lam2, depth)
    n, spread = Lam.n, 2 * amax + max(0, *c) - min(0, *c)
    return (2 * amax + 1) ** n * (n * (n + 1) // 2 * (spread // lev + 1) + 1)


def _brauer_klimyk(Lam: AffineWeight, Lam2: AffineWeight, depth: int,
                   weights) -> dict:
    """Brauer-Klimyk sum over the weight strings of V(Lam2) with the
    given maximal weights (a, t0): reflect nu = Lam + mu + rho_hat to the
    dominant chamber, drop it on a wall, else add sign * multiplicity at
    xi = w(nu) - rho_hat.  Keys are (c-values of xi, delta-depth of xi
    below Lam + Lam2), for depths <= depth."""
    n = Lam.n
    m = n + 1
    _, lev, c, norm_rho, _, _ = _ball(Lam, Lam2, depth)
    strings = []
    for a, t0 in weights:
        nu_eps = [x + y for x, y in zip(a, c)]
        nu = weight_from_eps(n, nu_eps)
        # shift: change of delta-depth, from reflections at index 0
        v, sign, shift = _descend((lev - nu.height_sum(),) + nu.coords)
        if 0 in v:
            continue
        # the norm identity and the dominance inequality behind
        # _admitted_weights, checked on every descent
        norm_xi = scaled_f(eps_coords(FiniteWeight(n, tuple(v[1:]))))
        if (scaled_f(nu_eps) - norm_xi != -2 * lev * m * shift
                or norm_xi < norm_rho):
            raise AssertionError("descent breaks the norm identity")
        if t0 + shift <= depth:
            strings.append((tuple(x - 1 for x in v), t0 + shift, sign))
    if not strings:
        return {}
    counts = _coloured_partition_counts(n, depth - min(s[1] for s in strings))
    sums = {}
    for cv, d0, sign in strings:
        for d in range(d0, depth + 1):
            sums[(cv, d)] = sums.get((cv, d), 0) + sign * counts[d - d0]
    return sums


def tensor_outer_multiplicities(Lam: AffineWeight, Lam2: AffineWeight,
                                depth: int) -> dict:
    """Multiplicity of V(xi) in V(Lam) (x) V(Lam2) for two dominant
    weights of level 1, by the Brauer-Klimyk rule over the Frenkel-Kac
    character of V(Lam2): for every dominant xi with Lam + Lam2 - xi in
    Q+ at delta-depth <= depth, zeros included."""
    for name, w in (("Lam", Lam), ("Lam2", Lam2)):
        if w.level != 1 or not w.is_dominant():
            raise ValueError(f"{name} must be a dominant weight of level 1")
    if Lam.n != Lam2.n:
        raise ValueError("rank mismatch")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = Lam.n
    sums = _brauer_klimyk(Lam, Lam2, depth, _admitted_weights(Lam, Lam2, depth))
    top = Lam + Lam2
    table = {}
    for d in range(depth + 1):
        # top has level 2: xi is Lambda_a + Lambda_b - d delta, a <= b
        for a in range(n, -1, -1):
            for b in range(n, a - 1, -1):
                cv = tuple((r == a) + (r == b) for r in range(n + 1))
                xi = AffineWeight.from_c_values(n, cv, top.degree - d)
                if _below(top, xi):
                    table[xi] = sums.pop((cv, d), 0)
    if any(sums.values()):
        raise AssertionError("Brauer-Klimyk summand not below Lam + Lam2")
    if any(val < 0 for val in table.values()):
        raise ArithmeticError("negative outer multiplicity")
    return table
