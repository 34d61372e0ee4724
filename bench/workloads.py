"""Seeded instance lists for the benchmark workloads.

Pure Python with no import of ``affmult``: the instances are generated
before the package under test is loaded, so the generator cannot be
slowed or changed by the code it measures.  The same seed always gives
the same list.

Weights are built from the integer identity
(n+1) * [omega_a]_l = min(a, l) * (n + 1 - max(a, l)) for the
simple-root coordinates of a fundamental weight (omega_0 = 0).
"""

from __future__ import annotations

import random

# formula_ladder: rank -> (eta0, three (i, j) with k = i - j).  eta0 is
# near the edge each rank reaches in about a third of a second per
# instance on a 2-core box.  Each rank has one orbit family with j == k
# (one part-multiset) and two with j != k (two part-multisets, about twice
# the work).  The seed replaces each (i, j, k) by its mirror (-i, -j, -k)
# or not; the diagram automorphism makes the two cost the same, so every
# seed gives other inputs at the same cost.
LADDER = {
    2: (26, ((1, 2), (1, 0), (0, 1))),
    3: (20, ((2, 1), (1, 0), (1, 2))),
    4: (16, ((2, 1), (1, 2), (2, 3))),
    5: (12, ((2, 1), (1, 2), (2, 3))),
    6: (7, ((2, 1), (1, 2), (2, 3))),
    7: (5, ((2, 1), (1, 2), (2, 3))),
}

# verify_sweep: one fixed command; the seed does not change it.  Its
# oracle sweep (ranks <= 2 at depth 2) keeps char_oracle measured.
VERIFY_RANKS = (1, 2, 3)
VERIFY_ETA0_MAX = 11
VERIFY_DEPTH = 2
VERIFY_THREADS = 2

# cli_cold: queries per subcommand in one repetition.  The pools hold
# light queries only (rank <= 3, small eta0 and bounds), so that a query
# costs start-up plus a little work and no single draw dominates the tail.
CLI_PER_COMMAND = 8
CLI_COMMANDS = ("tau", "multiplicity", "limit", "tensor-general", "flag-mult",
                "socle", "orbit", "gamma")


def _omega_num(n: int, a: int, l: int) -> int:
    """(n+1) times the alpha_l coefficient of omega_a."""
    if a == 0:
        return 0
    return min(a, l) * (n + 1 - max(a, l))


def below_coeffs(n: int, top: tuple, low: tuple, eta0: int):
    """Simple-root coefficients (c_0, ..., c_n) of
    (Lambda_top[0] + Lambda_top[1]) - (Lambda_low[0] + Lambda_low[1] - eta0*delta),
    or None unless they are all non-negative integers."""
    if eta0 < 0:
        return None
    m = n + 1
    out = [eta0]
    for l in range(1, m):
        num = (m * eta0 + sum(_omega_num(n, a, l) for a in top)
               - sum(_omega_num(n, a, l) for a in low))
        if num < 0 or num % m:
            return None
        out.append(num // m)
    return tuple(out)


def eta_vector(n: int, i: int, j: int, k: int, eta0: int):
    """Content character eta of xi = Lambda_j + Lambda_k - eta0*delta with
    respect to Lambda_0 + Lambda_i, or None when xi is not below it."""
    return below_coeffs(n, (0, i), (j, k), eta0)


def level_two_cvals(n: int, j: int, k: int) -> tuple:
    """Coroot values of Lambda_j + Lambda_k."""
    cv = [0] * (n + 1)
    cv[j] += 1
    cv[k] += 1
    return tuple(cv)


def charge_pairs(n: int) -> list:
    """(i, j) with k = i - j mod (n+1) and j <= k, as in ``affmult verify``."""
    return [(i, j) for i in range(n + 1) for j in range(n + 1) if j <= (i - j) % (n + 1)]


def mirror(n: int, i: int, j: int) -> tuple:
    """(i, j) of the mirror (-i, -j, -k) of the instance (i, j, k = i - j),
    with j <= k as in charge_pairs."""
    m = n + 1
    i2, j2, k2 = (-i) % m, (-j) % m, (j - i) % m
    return i2, min(j2, k2)


def formula_ladder(seed: int) -> list:
    """Instances (n, i, j, k, eta0, eta, kmax), ranks ascending; kmax = eta0
    is where every limit sequence of these instances has stabilized."""
    rng = random.Random(f"formula_ladder:{seed}")
    out = []
    for n, (eta0, pairs) in LADDER.items():
        for i, j in pairs:
            if rng.random() < 0.5:
                i, j = mirror(n, i, j)
            k = (i - j) % (n + 1)
            out.append((n, i, j, k, eta0, eta_vector(n, i, j, k, eta0), eta0))
    return out


VERIFY_ARGV = ("verify", "--n", f"{VERIFY_RANKS[0]}..{VERIFY_RANKS[-1]}",
               "--eta0-max", str(VERIFY_ETA0_MAX), "--depth", str(VERIFY_DEPTH),
               "--format", "json")


def verify_instance_count(eta0_max: int = VERIFY_ETA0_MAX, depth: int = VERIFY_DEPTH) -> int:
    """Instances ``verify`` must report: every (n, i, j, k, eta0) of its
    sweep whose weight lies below Lambda_0 + Lambda_i, plus, when depth > 0,
    one oracle table for each charge i at every rank n <= 2."""
    tau = sum(
        1
        for n in VERIFY_RANKS
        for i, j in charge_pairs(n)
        for eta0 in range(eta0_max + 1)
        if eta_vector(n, i, j, (i - j) % (n + 1), eta0) is not None
    )
    oracle = sum(n + 1 for n in VERIFY_RANKS if n <= 2) if depth > 0 else 0
    return tau + oracle


def verify_sweep(seed: int) -> list:
    """The single fixed ``verify`` command; independent of the seed."""
    return [VERIFY_ARGV]


def _csv(v) -> str:
    return ",".join(str(x) for x in v)


def _dominant_pool(n: int, eta0s) -> list:
    """Level-2 weights Lambda_j + Lambda_k - eta0*delta below Lambda_0 + Lambda_i."""
    return [(i, j, (i - j) % (n + 1), e)
            for i, j in charge_pairs(n) for e in eta0s
            if eta_vector(n, i, j, (i - j) % (n + 1), e) is not None]


def _cli_pool(command: str) -> list:
    """Every valid query of one subcommand, as (argv, params)."""
    pool = []
    if command == "tau":
        for n in (1, 2, 3):
            for i, j, k, e in _dominant_pool(n, range(2, 7)):
                eta = eta_vector(n, i, j, k, e)
                pool.append((["tau", "--n", str(n), "--i", str(i), "--eta", _csv(eta)],
                             {"n": n, "i": i, "eta": eta}))
    elif command in ("multiplicity", "limit"):
        for n in (2, 3):
            for i, j, k, e in _dominant_pool(n, range(2, 7)):
                argv = [command, "--n", str(n), "--i", str(i),
                        "--cvals", _csv(level_two_cvals(n, j, k)), f"--degree={-e}"]
                params = {"n": n, "i": i, "j": j, "k": k, "eta0": e}
                if command == "limit":
                    argv += ["--kmax", str(max(e, 1))]
                    params["kmax"] = max(e, 1)
                pool.append((argv, params))
    elif command == "tensor-general":
        for n in (2, 3):
            m = n + 1
            for i in range(m):
                for j in range(i, m):
                    for a in range(m):
                        b = (i + j - a) % m
                        if a > b:
                            continue
                        for e in range(1, 7):
                            if below_coeffs(n, (i, j), (a, b), e) is None:
                                continue
                            pool.append((["tensor-general", "--n", str(n), "--i", str(i),
                                          "--j", str(j), "--cvals",
                                          _csv(level_two_cvals(n, a, b)), f"--degree={-e}"],
                                         {"n": n, "i": i, "j": j, "a": a, "b": b, "eta0": e}))
    elif command == "flag-mult":
        for n in (2, 3):
            for mu in _grid(n, range(3)):
                for c in _grid(n, range(3)):
                    lam = tuple(mu[r] + 2 * c[r] - (c[r - 1] if r else 0)
                                - (c[r + 1] if r + 1 < n else 0) for r in range(n))
                    if min(lam) >= 0 and any(c):
                        pool.append((["flag-mult", "--n", str(n), "--lam", _csv(lam),
                                      "--mu", _csv(mu)],
                                     {"n": n, "lam": lam, "mu": mu}))
    elif command in ("socle", "orbit"):
        for n in (1, 2, 3):
            for level in (1, 2, 3):
                for mu in _grid(n, range(-2, 3)):
                    pool.append(([command, "--n", str(n), "--level", str(level),
                                  f"--mu={_csv(mu)}"],
                                 {"n": n, "level": level, "mu": mu}))
    elif command == "gamma":
        for n in (2, 3):
            for j in range(n + 1):
                for k in range(j, n + 1):
                    for bound in range(4, 17):
                        pool.append((["gamma", "--n", str(n), "--cvals",
                                      _csv(level_two_cvals(n, j, k)), "--degree", "0",
                                      "--norm-bound", str(bound)],
                                     {"n": n, "j": j, "k": k, "bound": bound}))
    else:
        raise ValueError(f"unknown subcommand {command}")
    return pool


def _grid(n: int, values) -> list:
    out = [()]
    for _ in range(n):
        out = [v + (x,) for v in out for x in values]
    return out


def cli_cold(seed: int) -> list:
    """Queries (command, argv, params): CLI_PER_COMMAND distinct draws from
    each subcommand's pool, in a seeded interleaved order."""
    rng = random.Random(f"cli_cold:{seed}")
    out = []
    for command in CLI_COMMANDS:
        for argv, params in rng.sample(_cli_pool(command), CLI_PER_COMMAND):
            out.append((command, tuple(argv + ["--format", "json"]), params))
    rng.shuffle(out)
    return out


def instances(workload: str, seed: int) -> list:
    makers = {"formula_ladder": formula_ladder, "verify_sweep": verify_sweep,
              "cli_cold": cli_cold}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return makers[workload](seed)
