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
requested delta-depth.  No level-2 character is built and nothing is
peeled.

``freudenthal_character`` computes truncated characters by the affine
Freudenthal recursion.  ``reconstruction_check`` re-sums the
Brauer-Klimyk table with Freudenthal characters and compares it with the
product of the two factors' Freudenthal characters, an independent check
of the table.  The positive roots of the recursion are the real roots
alpha + r*delta (alpha any finite root, r >= 1; alpha positive at r = 0),
each of multiplicity 1, and the imaginary roots r*delta of multiplicity n.

Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

from .affine_cartan import (
    AffineWeight,
    FiniteWeight,
    affine_bilinear,
    alpha,
    bilinear,
    eps_coords,
    omega,
    quadratic_f,
    rho_hat,
    theta,
    weight_from_eps,
)
from .multiplicities import _below, a_of_eta
from .partitions import compositions
from .records import Record
from .weyl_orbits import _descend, scaled_f


class TruncatedCharacter(Record):
    """Weight multiplicities of V(highest) down to delta-depth <= depth;
    ``mults`` maps AffineWeight to multiplicity."""

    __slots__ = ("highest", "depth", "mults")

    def mult(self, w: AffineWeight) -> int:
        return self.mults.get(w, 0)


@lru_cache(maxsize=None)
def _finite_roots(n: int) -> tuple:
    """All roots of the finite part, as FiniteWeight values."""
    pos = []
    for lo in range(1, n + 1):
        root = alpha(n, lo)
        pos.append(root)
        for hi in range(lo + 1, n + 1):
            root = root + alpha(n, hi)
            pos.append(root)
    return tuple(pos) + tuple(-r for r in pos)


def freudenthal_character(Lam: AffineWeight, depth: int) -> TruncatedCharacter:
    """Weight multiplicities of the simple module V(Lam) at all weights
    of delta-depth at most `depth` below Lam."""
    if not Lam.is_dominant() or Lam.level < 1:
        raise ValueError("highest weight must be dominant of positive level")
    n = Lam.n
    rh = rho_hat(n)
    top_shift = Lam + rh
    top_norm = affine_bilinear(top_shift, top_shift)
    lev = Lam.level
    rho_bar = rh.finite
    mults = {Lam: 1}
    fin_roots = _finite_roots(n)

    def root_coeffs(beta_fin, r):
        """alpha-basis coefficients of the affine root beta_fin + r*delta."""
        base = a_of_eta(beta_fin + r * theta(n))
        return (r,) + base

    # layer by delta-depth; depth d weights have degree Lam(d) - d
    for d in range(0, depth + 1):
        candidates = _layer_candidates(Lam, d, top_norm, rho_bar)
        # ascending height of Lam - mu so that mu + t*positive-root is done
        candidates.sort(key=lambda item: item[1])
        for (nu, _height, cvec) in candidates:
            mu = AffineWeight(nu, lev, Lam.degree - d)
            if mu == Lam:
                continue
            mu_shift = mu + rh
            den = top_norm - affine_bilinear(mu_shift, mu_shift)
            if den <= 0:
                # strict norm inequality: such mu has multiplicity 0
                continue
            acc = Fraction(0)
            # real roots beta + r*delta
            for r in range(0, d + 1):
                for beta in (fin_roots if r >= 1 else fin_roots[: len(fin_roots) // 2]):
                    rc = root_coeffs(beta, r)
                    tmax = _t_limit(cvec, rc)
                    for t in range(1, tmax + 1):
                        w = AffineWeight(nu + t * beta, lev, mu.degree + t * r)
                        mw = mults.get(w, 0)
                        if mw:
                            acc += mw * (bilinear(w.finite, beta) + r * lev)
            # imaginary roots r*delta, multiplicity n
            for r in range(1, d + 1):
                tmax = d // r
                for t in range(1, tmax + 1):
                    if t * r > cvec[0]:
                        break
                    w = AffineWeight(nu, lev, mu.degree + t * r)
                    mw = mults.get(w, 0)
                    if mw:
                        acc += n * mw * (r * lev)
            val = Fraction(2 * acc, den)
            if val.denominator != 1 or val < 0:
                raise ArithmeticError("non-integral weight multiplicity")
            if val:
                mults[mu] = int(val)
    return TruncatedCharacter(Lam, depth, mults)


def _t_limit(cvec, root_coeffs) -> int:
    """Largest t with cvec - t*root_coeffs componentwise >= 0."""
    tmax = None
    for c, rc in zip(cvec, root_coeffs):
        if rc > 0:
            cap = c // rc
            tmax = cap if tmax is None else min(tmax, cap)
    return 0 if tmax is None else max(tmax, 0)


def _layer_candidates(Lam: AffineWeight, d: int, top_norm, rho_bar):
    """Finite parts nu of potential weights at delta-depth d: the shifted
    norm bound (nu + rho_bar, nu + rho_bar) <= top_norm + 2(level + n + 1)d
    cut down to Lam_bar + d*theta - Q+."""
    n = Lam.n
    # (mu + rho_hat, mu + rho_hat) <= top_norm with mu at degree Lam(d) - d
    ball = top_norm - 2 * (Lam.level + n + 1) * (Lam.degree - d)
    if ball < 0:
        return []
    amax = isqrt(int(2 * ball))  # a_i^2 <= 2 f(a), as in _admitted_weights
    rho_eps = list(range(n, 0, -1))  # epsilon-coordinates of rho_bar
    shift_top = Lam.finite + d * theta(n)
    out = []

    def rec(prefix):
        if len(prefix) == n:
            if quadratic_f(prefix) <= ball:
                nu = weight_from_eps(n, [prefix[i] - rho_eps[i] for i in range(n)])
                diff = shift_top - nu
                try:
                    coeffs = a_of_eta(diff)
                except ValueError:
                    return
                if all(x >= 0 for x in coeffs):
                    height = sum(coeffs)
                    out.append((nu, height, (d,) + coeffs))
            return
        for v in range(-amax, amax + 1):
            prefix.append(v)
            rec(prefix)
            prefix.pop()

    rec([])
    return out


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
    coefficients of prod_{r >= 1} (1 - q^r)^(-n)."""
    counts = [1] + [0] * kmax
    for r in range(1, kmax + 1):
        for _ in range(n):
            for k in range(r, kmax + 1):
                counts[k] += counts[k - r]
    return counts


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


def _shift_data(Lam: AffineWeight, Lam2: AffineWeight):
    """Level L of Lam + Lam2 + rho_hat, epsilon vector of
    c = Lam_bar + rho_bar, and the scaled norm of rho_bar."""
    n = Lam.n
    rho_bar = rho_hat(n).finite
    return (Lam.level + Lam2.level + n + 1, eps_coords(Lam.finite + rho_bar),
            scaled_f(eps_coords(rho_bar)))


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
    has a_i^2 <= 2 f(a), which bounds the box searched."""
    n = Lam.n
    m = n + 1
    j = Lam2.c_values().index(1)
    lev, c, norm_rho = _shift_data(Lam, Lam2)
    if lev <= 1:
        raise AssertionError("the depth bound needs level > 1")
    norm_c = scaled_f(c)
    norm_w = scaled_f(eps_coords(omega(n, j)))
    # every norm below is scaled by m = n + 1
    big_r = (2 * lev * depth * m + lev * norm_w - norm_rho
             + Fraction(lev * norm_c, lev - 1))
    radius_sq = 2 * Fraction(norm_c, (lev - 1) ** 2) + 2 * big_r / (lev - 1)
    amax = isqrt(int(2 * radius_sq / m))
    for a, t0 in _maximal_weights(n, j, amax):
        nu = [x + y for x, y in zip(a, c)]
        if 2 * lev * m * (t0 - depth) > scaled_f(nu) - norm_rho:
            continue
        # (L-1)|mu_bar - c/(L-1)|^2 = |(L-1) mu_bar - c|^2 / (L-1)
        off_centre = [(lev - 1) * x - y for x, y in zip(a, c)]
        if (scaled_f(off_centre) > (lev - 1) * big_r
                or scaled_f(a) > radius_sq):
            raise AssertionError("admitted weight outside the derived ball")
        yield a, t0


def _brauer_klimyk(Lam: AffineWeight, Lam2: AffineWeight, depth: int,
                   weights) -> dict:
    """Brauer-Klimyk sum over the weight strings of V(Lam2) with the
    given maximal weights (a, t0): reflect nu = Lam + mu + rho_hat to the
    dominant chamber, drop it on a wall, else add sign * multiplicity at
    xi = w(nu) - rho_hat.  Keys are (c-values of xi, delta-depth of xi
    below Lam + Lam2), for depths <= depth."""
    n = Lam.n
    m = n + 1
    lev, c, norm_rho = _shift_data(Lam, Lam2)
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
        for cv in compositions(top.level, n + 1):
            xi = AffineWeight.from_c_values(n, cv, top.degree - d)
            if _below(top, xi):
                table[xi] = sums.pop((cv, d), 0)
    if any(sums.values()):
        raise AssertionError("Brauer-Klimyk summand not below Lam + Lam2")
    if any(val < 0 for val in table.values()):
        raise ArithmeticError("negative outer multiplicity")
    return table


def reconstruction_check(Lam: AffineWeight, Lam2: AffineWeight,
                         depth: int) -> bool:
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
