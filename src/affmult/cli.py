"""Command-line interface.

Every computation in the library is exposed as a subcommand with
machine-readable output.  Vectors are comma-separated integers; affine
weights are passed as the n + 1 values on the simple coroots plus a
rational degree (``--cvals h0,...,hn --degree p/q``).

Exit codes: 0 success, 1 cross-check mismatch, 2 parameter validation
failure, 141 (128 + SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction
from math import comb, isqrt

from .affine_cartan import AffineWeight, FiniteWeight, affine_Lambda, scaled_cap
from .char_oracle import tensor_outer_multiplicities
from .multiplicities import (
    eta_from_xi,
    f_ball_bound,
    flag_multiplicity_at,
    flag_multiplicity_poly,
    orbit_terms,
    outer_multiplicity_formula,
    outer_multiplicity_limit,
    rotated_to_zero,
    tau_formula,
)
from .tableaux import jk_from_eta, mw_shapes_with_character, tau_count, tau_counts
from .weyl_orbits import (
    b_vector,
    descent_length,
    enumerate_gamma,
    orbit_pair,
    socle_formula,
    socle_oracle,
)

# Input caps (times on a 2-core VM, CPython 3.11).  `tau` builds every
# admissible shape and prints one row each: 17,180 rows take 2.3 s, and
# `tau_count`, stopped once it passes the cap, refuses in well under a
# second.  The reflection descent of `socle` makes `descent_length` steps,
# which grow with both |mu| and n, and each step scans up to n + 1 coroot
# values for the first negative one and changes at most three: entries of
# -1000 take 119,964 steps at n = 8 (0.08 s) and 11,479,180 at n = 40.
# The f-ball walk of `gamma`, `multiplicity`, `limit` and `tensor-general`
# (on the rotated weight) tests C(M + n, n) leaves,
# M = isqrt(floor((n + 1) * bound)); a leaf costs most at n = 1, where
# every leaf is a ball point: 150,000 leaves take 3.1 s there
# (`gamma --n 1`), against 6,096,454 leaves in 10.9 s at n = 6.
# The last three count multipartitions at arguments up to floor(bound / 4), which the walk cap
# does not bound: `multiplicity --n 1 --i 0 --cvals 2,0` takes 0.14 s at
# `--degree=-200`, 0.40 s at -300, 0.93 s at -400 (930k `_count`
# entries) and 18 s at -1000; at -400, n = 2 takes 0.96 s, n = 3 3.9 s and
# `limit --n 1` with `--kmax 100` 5.8 s.
# `limit` evaluates k_max + 1 flag multiplicities per member: at k_max = 100
# `--n 2 --i 1 --cvals 0,0,2 --degree=-6` takes 1.0 s, and 8.6 s at 200.
# `verify` counts the tableaux of each (rank, charge) through one memo, so
# its cost grows with --n and --eta0-max about as the formula side does:
# `--n 1 --eta0-max 100` takes 0.4 s, `--n 3 --eta0-max 100` 12 s and
# `--n 4 --eta0-max 100` 54 s; the oracle rows (ranks <= 2) take 3.4 s at
# `--depth 100`.  The worst accepted sweep, `--n 1..4 --eta0-max 100
# --depth 100`, takes 79 s.
TAU_MAX_ROWS = 20_000
SOCLE_MAX_ENTRY = 1_000
SOCLE_MAX_SCANNED = 2_000_000
BALL_MAX_LEAVES = 150_000
RHO_MAX_ARGUMENT = 400
LIMIT_MAX_KMAX = 100
VERIFY_MAX_RANK = 4
VERIFY_MAX_ETA0 = 100
VERIFY_MAX_DEPTH = 100


class ValidationError(Exception):
    """Raised for bad parameters; maps to exit code 2."""


def parse_vec(text: str, name: str) -> tuple:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"parameter {name}: expected comma-separated integers")


def parse_rat(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"parameter {name}: expected a rational like -3 or 5/2")


def parse_weight(n: int, text: str, name: str) -> FiniteWeight:
    coords = parse_vec(text, name)
    if len(coords) != n:
        raise ValidationError(f"parameter {name}: need n values")
    return FiniteWeight(n, coords)


def parse_affine(n: int, cvals: str, degree: str) -> AffineWeight:
    cv = parse_vec(cvals, "--cvals")
    if len(cv) != n + 1:
        raise ValidationError("parameter --cvals: need n + 1 values")
    return AffineWeight.from_c_values(n, cv, parse_rat(degree, "--degree"))


def check_rank(n: int) -> None:
    if n < 1:
        raise ValidationError("parameter --n: rank must be >= 1")


def check_index(i: int, n: int, name: str) -> None:
    if not 0 <= i <= n:
        raise ValidationError(f"parameter {name}: index must lie in [0, n]")


def check_ball(n: int, bound, name: str) -> None:
    """Refuse a bound whose f-ball walk tests more than BALL_MAX_LEAVES
    leaves: the weakly decreasing vectors in [0, M]^n, C(M + n, n) of them."""
    cap = scaled_cap(n, bound)
    leaves = comb(isqrt(cap) + n, n) if cap >= 0 else 0
    if leaves > BALL_MAX_LEAVES:
        raise ValidationError(f"parameter {name}: the f-ball walk would test {leaves} "
                              f"leaves, more than {BALL_MAX_LEAVES}")


def check_formula_cost(n: int, i: int, xi: AffineWeight) -> None:
    """Refuse an orbit sum of charge i at xi whose f-ball walk is over
    BALL_MAX_LEAVES or whose multipartition counts run past argument
    RHO_MAX_ARGUMENT; both grow with the depth of xi, so name --degree."""
    bound = f_ball_bound(n, i, xi)
    check_ball(n, bound, "--degree")
    if bound // 4 > RHO_MAX_ARGUMENT:
        raise ValidationError(f"parameter --degree: the multipartition counts would run "
                              f"to argument {bound // 4}, more than {RHO_MAX_ARGUMENT}")


def emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
        return
    result = payload["result"]
    if fmt == "csv":
        import csv  # only here, so JSON and table queries do not load _csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        rows = result.get("rows")
        if rows is not None:
            writer.writerow(result.get("header", []))
            writer.writerows(rows)
        else:
            for key in sorted(result):
                writer.writerow([key, result[key]])
        sys.stdout.write(buf.getvalue())
        return
    # table format: aligned key/value lines, rows printed as a block
    rows = result.get("rows")
    if rows is not None:
        header = result.get("header", [])
        print("\t".join(str(h) for h in header))
        for row in rows:
            print("\t".join(str(x) for x in row))
    for key in sorted(result):
        if key in ("rows", "header"):
            continue
        print(f"{key}: {result[key]}")


def _payload(command: str, params: dict, result: dict, rule: str) -> dict:
    return {
        "command": command,
        "params": params,
        "result": result,
        "provenance": {"rule": rule},
    }


def cmd_tau(args) -> int:
    check_rank(args.n)
    check_index(args.i, args.n, "--i")
    eta = parse_vec(args.eta, "--eta")
    if len(eta) != args.n + 1:
        raise ValidationError("parameter --eta: need n + 1 entries")
    if any(x < 0 for x in eta):
        raise ValidationError("parameter --eta: entries must be non-negative")
    try:
        jk_from_eta(eta, args.i)
    except ValueError as exc:
        raise ValidationError(f"parameter --eta: {exc}")
    if tau_count(eta, args.i, TAU_MAX_ROWS) > TAU_MAX_ROWS:
        raise ValidationError(f"parameter --eta: more than {TAU_MAX_ROWS} admissible "
                              f"shapes, the most rows tau lists")
    value = tau_formula(args.n, args.i, eta)
    shapes = mw_shapes_with_character(eta, args.i)
    result = {
        "value": value,
        "brute_force": len(shapes),
        "rows": [[str(s)] for s in shapes],
        "header": ["shape"],
    }
    emit(_payload("tau", {"n": args.n, "i": args.i, "eta": list(eta)},
                  result, "orbit-pair multipartition count"), args.format)
    if value != len(shapes):
        print(f"mismatch: formula {value} != brute force {len(shapes)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_socle(args) -> int:
    check_rank(args.n)
    if args.level < 1:
        raise ValidationError("parameter --level: must be >= 1")
    mu = parse_weight(args.n, args.mu, "--mu")
    if any(abs(c) > SOCLE_MAX_ENTRY for c in mu.coords):
        raise ValidationError(f"parameter --mu: entries must lie in "
                              f"[-{SOCLE_MAX_ENTRY}, {SOCLE_MAX_ENTRY}]")
    probe = AffineWeight(mu.w0_image(), args.level, Fraction(0))
    steps = descent_length(probe)
    if steps * (args.n + 1) > SOCLE_MAX_SCANNED:
        raise ValidationError(f"parameter --mu: the reflection descent makes {steps} steps "
                              f"and scans up to {args.n + 1} coroot values in each, "
                              f"more than {SOCLE_MAX_SCANNED} values scanned")
    formula = socle_formula(args.level, mu).weight
    oracle = socle_oracle(probe).weight
    result = {
        "cvals": list(formula.c_values()),
        "degree": str(formula.degree),
        "oracle_cvals": list(oracle.c_values()),
        "oracle_degree": str(oracle.degree),
    }
    emit(_payload("socle", {"n": args.n, "level": args.level, "mu": list(mu.coords)},
                  result, "closed-form dominant representative"), args.format)
    if formula != oracle:
        print("mismatch: closed form disagrees with reflection descent",
              file=sys.stderr)
        return 1
    return 0


def cmd_orbit(args) -> int:
    check_rank(args.n)
    if args.level < 1:
        raise ValidationError("parameter --level: must be >= 1")
    mu = parse_weight(args.n, args.mu, "--mu")
    pair = orbit_pair(args.level, mu)
    result = {
        "m": list(pair.m),
        "p": list(pair.p),
        "a": list(pair.a_vector()),
        "residue": pair.residue(),
        "dominant": pair.in_dominant_set(),
    }
    if args.level == 2 and pair.in_dominant_set():
        result["b_vector"] = list(b_vector(pair))
    emit(_payload("orbit", {"n": args.n, "level": args.level, "mu": list(mu.coords)},
                  result, "orbit-pair division"), args.format)
    return 0


def cmd_gamma(args) -> int:
    check_rank(args.n)
    xi = parse_affine(args.n, args.cvals, args.degree)
    if not xi.is_dominant():
        raise ValidationError("parameter --cvals: weight must be dominant")
    if xi.level < 1:
        raise ValidationError("parameter --cvals: level must be >= 1")
    bound = parse_rat(args.norm_bound, "--norm-bound")
    check_ball(args.n, bound, "--norm-bound")
    rows = []
    for mu, pair in enumerate_gamma(xi, bound):
        rows.append([list(mu.coords), list(pair.m), list(pair.p)])
    result = {"count": len(rows), "rows": rows, "header": ["mu", "m", "p"]}
    emit(_payload("gamma", {"n": args.n, "cvals": list(xi.c_values()),
                            "degree": str(xi.degree),
                            "norm_bound": str(bound)},
                  result, "orbit-set enumeration"), args.format)
    return 0


def cmd_flag_mult(args) -> int:
    check_rank(args.n)
    lam = parse_weight(args.n, args.lam, "--lam")
    mu = parse_weight(args.n, args.mu, "--mu")
    if not lam.is_dominant() or not mu.is_dominant():
        raise ValidationError("parameters --lam/--mu: weights must be dominant")
    if args.r is not None:
        r = parse_rat(args.r, "--r")
        result = {"value": flag_multiplicity_at(lam, mu, r)}
    else:
        poly = flag_multiplicity_poly(lam, mu)
        result = {
            "polynomial": repr(poly),
            "rows": [[str(e), poly.coeffs[e]] for e in poly.support()],
            "header": ["exponent", "coefficient"],
        }
    emit(_payload("flag-mult", {"n": args.n, "lam": list(lam.coords),
                                "mu": list(mu.coords), "r": args.r},
                  result, "flag-multiplicity generating polynomial"), args.format)
    return 0


def cmd_multiplicity(args) -> int:
    check_rank(args.n)
    check_index(args.i, args.n, "--i")
    xi = parse_affine(args.n, args.cvals, args.degree)
    if xi.level != 2 or not xi.is_dominant():
        raise ValidationError("parameter --cvals: weight must be dominant of level 2")
    check_formula_cost(args.n, args.i, xi)
    rows = [[list(mu.coords), list(b), str(f), count]
            for mu, b, f, count in orbit_terms(args.n, args.i, xi)]
    result = {"value": sum(row[-1] for row in rows), "rows": rows,
              "header": ["mu", "bounds", "f", "count"]}
    emit(_payload("multiplicity", {"n": args.n, "i": args.i,
                                   "cvals": list(xi.c_values()),
                                   "degree": str(xi.degree)},
                  result, "orbit-sum multiplicity formula"), args.format)
    return 0


def cmd_limit(args) -> int:
    check_rank(args.n)
    check_index(args.i, args.n, "--i")
    xi = parse_affine(args.n, args.cvals, args.degree)
    if xi.level != 2 or not xi.is_dominant():
        raise ValidationError("parameter --cvals: weight must be dominant of level 2")
    if args.kmax < 1:
        raise ValidationError("parameter --kmax: must be >= 1")
    if args.kmax > LIMIT_MAX_KMAX:
        raise ValidationError(f"parameter --kmax: must be <= {LIMIT_MAX_KMAX}")
    check_formula_cost(args.n, args.i, xi)
    res = outer_multiplicity_limit(args.n, args.i, xi, args.kmax)
    rows = [[list(mu.coords), thr, list(vals)] for mu, thr, vals in res.sequences]
    result = {"value": res.value, "stabilized_at": res.stabilized_at,
              "rows": rows, "header": ["mu", "threshold", "sequence"]}
    emit(_payload("limit", {"n": args.n, "i": args.i,
                            "cvals": list(xi.c_values()),
                            "degree": str(xi.degree), "kmax": args.kmax},
                  result, "stabilizing flag-multiplicity limit"), args.format)
    return 0


def cmd_tensor_general(args) -> int:
    check_rank(args.n)
    check_index(args.i, args.n, "--i")
    check_index(args.j, args.n, "--j")
    xi = parse_affine(args.n, args.cvals, args.degree)
    if xi.level != 2 or not xi.is_dominant():
        raise ValidationError("parameter --cvals: weight must be dominant of level 2")
    try:
        charge, xi_rot = rotated_to_zero(args.n, args.i, args.j, xi)
    except ValueError as exc:
        raise ValidationError(f"parameter --cvals: {exc}")
    check_formula_cost(args.n, charge, xi_rot)
    result = {"value": outer_multiplicity_formula(args.n, charge, xi_rot)}
    emit(_payload("tensor-general", {"n": args.n, "i": args.i, "j": args.j,
                                     "cvals": list(xi.c_values()),
                                     "degree": str(xi.degree)},
                  result, "rotation reduction to the (0, j - i) case"), args.format)
    return 0


def _parse_range(text: str, name: str) -> range:
    try:
        lo, hi = text.split("..") if ".." in text else (text, text)
        values = range(int(lo), int(hi) + 1)
    except ValueError:
        raise ValidationError(f"parameter {name}: expected N or LO..HI")
    if not values:
        raise ValidationError(f"parameter {name}: empty range {text}")
    return values


def _verify_instance(task):
    """The rows of one task: formula against brute force for every
    character of one (n, i), or one oracle table (at small n)."""
    kind, data = task
    if kind == "tau":
        n, i, etas = data
        brutes = tau_counts(etas, i)  # one memo for the whole task
        rows = []
        for eta, b in zip(etas, brutes):
            a = tau_formula(n, i, eta)
            rows.append((a == b, f"tau n={n} i={i} eta={eta}", f"formula={a} brute={b}"))
        return rows
    n, i, depth = data
    table = tensor_outer_multiplicities(affine_Lambda(n, 0), affine_Lambda(n, i), depth)
    for xi, m in sorted(table.items(), key=lambda kv: -kv[0].degree):
        f = outer_multiplicity_formula(n, i, xi)
        if f != m:
            return [(False, f"oracle n={n} i={i} depth={depth}",
                     f"xi={xi.c_values()} deg={xi.degree}: oracle={m} formula={f}")]
    return [(True, f"oracle n={n} i={i} depth={depth}", f"{len(table)} entries")]


def _delta_string(n: int, i: int, j: int, k: int, eta0_max: int) -> list:
    """Characters of Lambda_j + Lambda_k - eta0 * delta for eta0 <= eta0_max
    that lie below Lambda_0 + Lambda_i.  Lowering by delta = sum_l alpha_l
    adds 1 to every entry, so once one eta0 lies below, every deeper one
    does, and its character is the first one plus the difference of the
    eta0 in every entry."""
    top = affine_Lambda(n, j) + affine_Lambda(n, k)
    for eta0 in range(eta0_max + 1):
        try:
            first = eta_from_xi(n, i, top.shift_delta(-eta0))
        except ValueError:
            continue
        return [tuple(e + d for e in first) for d in range(eta0_max + 1 - eta0)]
    return []


def cmd_verify(args) -> int:
    ranks = _parse_range(args.n, "--n")
    if ranks[0] < 1:
        raise ValidationError("parameter --n: ranks must be >= 1")
    if ranks[-1] > VERIFY_MAX_RANK:
        raise ValidationError(f"parameter --n: ranks must be <= {VERIFY_MAX_RANK}")
    if args.eta0_max < 0:
        raise ValidationError("parameter --eta0-max: must be >= 0")
    if args.eta0_max > VERIFY_MAX_ETA0:
        raise ValidationError(f"parameter --eta0-max: must be <= {VERIFY_MAX_ETA0}")
    if args.depth < 0:
        raise ValidationError("parameter --depth: must be >= 0")
    if args.depth > VERIFY_MAX_DEPTH:
        raise ValidationError(f"parameter --depth: must be <= {VERIFY_MAX_DEPTH}")
    tasks = []
    for n in ranks:
        for i in range(n + 1):
            etas = []
            for j in range(n + 1):
                k = (i - j) % (n + 1)
                if j <= k:
                    etas += _delta_string(n, i, j, k, args.eta0_max)
            if etas:
                tasks.append(("tau", (n, i, etas)))
    if args.depth > 0:
        for n in ranks:
            if n > 2:
                continue  # oracle rows cover ranks <= 2; the tests check rank 3
            for i in range(n + 1):
                tasks.append(("oracle", (n, i, args.depth)))
    outcomes = [row for t in tasks for row in _verify_instance(t)]
    rows = []
    failures = []
    for ok, key, detail in outcomes:
        rows.append([key, "pass" if ok else "FAIL", detail])
        if not ok:
            failures.append((key, detail))
    result = {"instances": len(rows), "failures": len(failures),
              "rows": rows, "header": ["instance", "status", "detail"]}
    emit(_payload("verify", {"n": args.n, "eta0_max": args.eta0_max,
                             "depth": args.depth},
                  result, "cross-check suite"), args.format)
    if failures:
        key, detail = failures[0]
        print(f"first failing instance: {key} ({detail})", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affmult",
        description="Exact outer multiplicities for affine type A tensor products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["table", "json", "csv"],
                       default="table")

    p = sub.add_parser("tau", help="tableau-count multiplicity from a content character")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--eta", required=True)
    add_common(p)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("socle", help="dominant orbit representative")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mu", required=True)
    add_common(p)
    p.set_defaults(func=cmd_socle)

    p = sub.add_parser("orbit", help="orbit-pair division of a finite weight")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mu", required=True)
    add_common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("gamma", help="enumerate the orbit set of a dominant weight")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cvals", required=True)
    p.add_argument("--degree", default="0")
    p.add_argument("--norm-bound", required=True)
    add_common(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("flag-mult", help="flag multiplicity polynomial or value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--r", default=None)
    add_common(p)
    p.set_defaults(func=cmd_flag_mult)

    p = sub.add_parser("multiplicity", help="outer multiplicity via the orbit sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--cvals", required=True)
    p.add_argument("--degree", default="0")
    add_common(p)
    p.set_defaults(func=cmd_multiplicity)

    p = sub.add_parser("limit", help="outer multiplicity via the stabilizing limit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--cvals", required=True)
    p.add_argument("--degree", default="0")
    p.add_argument("--kmax", type=int, default=20)
    add_common(p)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("tensor-general",
                       help="multiplicity in a general fundamental tensor product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--cvals", required=True)
    p.add_argument("--degree", default="0")
    add_common(p)
    p.set_defaults(func=cmd_tensor_general)

    p = sub.add_parser("verify", help="run the cross-check suites")
    p.add_argument("--n", default="1..2")
    p.add_argument("--eta0-max", dest="eta0_max", type=int, default=3)
    p.add_argument("--depth", type=int, default=0,
                   help="also run the character-oracle sweep to this depth")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # written here, not at exit, so that a closed reader is caught below
        sys.stdout.flush()
        return code
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): point stdout at
        # devnull so that the interpreter's last flush cannot fail, and
        # exit with 128 + SIGPIPE, the status of a process the signal ends
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
