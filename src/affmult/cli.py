"""Command-line interface.

Every computation in the library is exposed as a subcommand with
machine-readable output.  Vectors are comma-separated integers; affine
weights are passed as the n + 1 values on the simple coroots plus a
rational degree (``--cvals h0,...,hn --degree p/q``).

Exit codes: 0 success, 1 cross-check mismatch, 2 parameter validation
failure, 141 (128 + SIGPIPE) when the reader closes stdout early.

The subcommands are one table, ``COMMANDS``: each entry names its help
text, provenance rule, rank bound, options and handler.  ``main`` checks
the options in the order of the entry, runs the handler on the checked
values and prints the one payload.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction
from math import comb, floor, isqrt

from .affine_cartan import (
    AffineWeight,
    FiniteWeight,
    affine_Lambda,
    nonneg_root_coeffs,
    scaled_cap,
)
from .char_oracle import tensor_outer_multiplicities
from .multiplicities import (
    direct_split,
    eta_from_xi,
    f_ball_bound,
    flag_multiplicity_poly,
    orbit_terms,
    outer_multiplicity_formula,
    outer_multiplicity_limit,
    rotated_to_zero,
    tau_formula,
    xi_from_eta,
)
from .records import Record
from .tableaux import jk_from_eta, mw_shapes_with_character, tau_count, tau_counts
from .weyl_orbits import (
    b_vector,
    descent_length,
    enumerate_gamma,
    orbit_pair,
    socle_formula,
    socle_oracle,
)

# Input caps, one derivation line each; README's "CLI" table gives the worst
# query each one accepts and its time.
TAU_MAX_ROWS = 20_000  # `tau` prints one row per admissible shape
TAU_MAX_RANK = 30  # the tableau count's block table takes (n + 1)^4 / 4 steps, 231k at 30
SOCLE_MAX_ENTRY = 1_000  # bounds |mu|, and with it the descent's steps at each rank
SOCLE_MAX_SCANNED = 2_000_000  # descent steps times the n + 1 coroot values each scans
SOCLE_MAX_RANK = 1_999  # descent_length's n(n + 1)/2 partial sums stay <= SOCLE_MAX_SCANNED
BALL_MAX_LEAVES = 150_000  # f-ball walk leaves, C(M + n, n) with M = isqrt(cap)
WALK_MAX_RANK = 64  # a leaf is one O(n) test, so a walk takes <= 150,000 * 64 steps
RHO_MAX_ARGUMENT = 400  # counts run to floor(bound/4), and in `limit` to k_max * floor(M/2)
LIMIT_MAX_KMAX = 100  # `limit` evaluates k_max + 1 flag multiplicities per member
FLAG_MAX_RANK = 300  # the flag data reads the n x n inverse Cartan matrix three times
FLAG_MAX_DEPTH = 400  # q_binomial recurses a_j + b_j deep, two of Python's 1000 frames a level
FLAG_MAX_DEGREE = 1_000  # Pascal table and product take about (sum a_j b_j)^2 steps
VERIFY_MAX_RANK = 4  # the tableau counts and walks of rank 4 take 54 s at --eta0-max 100
VERIFY_MAX_ETA0 = 100  # each (rank, charge) counts eta0_max + 1 characters per delta-string
VERIFY_MAX_DEPTH = 100  # the oracle tables of ranks <= 2 grow with the depth


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


def check_rank(lo: int, hi: int, bound: int, noun: str = "rank") -> None:
    if lo < 1:
        raise ValidationError(f"parameter --n: {noun} must be >= 1")
    if hi > bound:
        raise ValidationError(f"parameter --n: {noun} must be <= {bound}")


def check_ball(n: int, bound, name: str, scale=None) -> None:
    """Refuse a bound whose f-ball walk tests more than BALL_MAX_LEAVES
    leaves: the weakly decreasing vectors in [0, M]^n, C(M + n, n) of them,
    with M = isqrt(floor(scale * bound)).  The orbit-set walk has scale
    n + 1 (the default); level_two_family's box a_1^2 <= 2f has scale 2,
    and its prunes only cut, so the count bounds its leaves too."""
    cap = floor((n + 1 if scale is None else scale) * Fraction(bound))
    leaves = comb(isqrt(cap) + n, n) if cap >= 0 else 0
    if leaves > BALL_MAX_LEAVES:
        raise ValidationError(f"parameter {name}: the f-ball walk would test {leaves} "
                              f"leaves, more than {BALL_MAX_LEAVES}")


def check_formula_cost(n: int, i: int, xi: AffineWeight, kmax: int = 0) -> None:
    """Refuse an orbit sum of charge i at xi whose f-ball walk is over
    BALL_MAX_LEAVES or whose multipartition counts run past argument
    RHO_MAX_ARGUMENT; both grow with the depth of xi, so name --degree.
    With kmax, refuse also a limit route whose k_max-th flag multiplicities
    count past RHO_MAX_ARGUMENT: a member's k-th one counts at about k|b|,
    and |b| <= floor(M/2) for the walk's largest entry M."""
    bound = f_ball_bound(n, i, xi)
    check_ball(n, bound, "--degree")
    if bound // 4 > RHO_MAX_ARGUMENT:
        raise ValidationError(f"parameter --degree: the multipartition counts would run "
                              f"to argument {bound // 4}, more than {RHO_MAX_ARGUMENT}")
    reach = kmax * (isqrt(max(scaled_cap(n, bound), 0)) // 2)
    if reach > RHO_MAX_ARGUMENT:
        raise ValidationError(f"parameters --kmax/--degree: the flag multiplicities would "
                              f"count to argument {reach}, more than {RHO_MAX_ARGUMENT}")


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


class Query:
    """The checked values of one command line, as attributes, and
    ``params``, the values its payload echoes."""

    def __init__(self, command):
        self.command = command
        self.params = {}

    def set(self, **values):
        """Keep checked values that the payload echoes as given."""
        self.__dict__.update(values)
        self.params.update(values)


class Option(Record):
    """Options declared and checked together: ``flags`` are (flag,
    add_argument keywords) pairs, and ``check(args, q)`` validates their
    values into the Query q, after the options before it in the entry."""

    __slots__ = ("flags", "check")


def _check_n(args, q):
    check_rank(args.n, args.n, q.command.max_rank)
    q.set(n=args.n)


def _index(name: str) -> Option:
    def check(args, q):
        value = getattr(args, name)
        if not 0 <= value <= q.n:
            raise ValidationError(f"parameter --{name}: index must lie in [0, n]")
        q.set(**{name: value})
    return Option(((f"--{name}", dict(type=int, required=True)),), check)


def _bounded(flag: str, lo: int, hi: int, **kwargs) -> Option:
    """An integer option that must lie in [lo, hi]."""
    dest = flag[2:].replace("-", "_")

    def check(args, q):
        value = getattr(args, dest)
        if value < lo:
            raise ValidationError(f"parameter {flag}: must be >= {lo}")
        if value > hi:
            raise ValidationError(f"parameter {flag}: must be <= {hi}")
        q.set(**{dest: value})
    return Option(((flag, dict(type=int, **kwargs)),), check)


def _check_eta(args, q):
    eta = parse_vec(args.eta, "--eta")
    if len(eta) != q.n + 1:
        raise ValidationError("parameter --eta: need n + 1 entries")
    if any(x < 0 for x in eta):
        raise ValidationError("parameter --eta: entries must be non-negative")
    try:
        jk_from_eta(eta, q.i)
    except ValueError as exc:
        raise ValidationError(f"parameter --eta: {exc}")
    q.eta = eta
    q.params["eta"] = list(eta)


def _check_level_mu(args, q):
    if args.level < 1:
        raise ValidationError("parameter --level: must be >= 1")
    q.mu = parse_weight(q.n, args.mu, "--mu")
    q.set(level=args.level)
    q.params["mu"] = list(q.mu.coords)


def _affine(level_two: bool):
    """The check of --cvals/--degree: a dominant weight of level 2, or
    (level_two False) of any positive level."""
    def check(args, q):
        cv = parse_vec(args.cvals, "--cvals")
        if len(cv) != q.n + 1:
            raise ValidationError("parameter --cvals: need n + 1 values")
        xi = AffineWeight.from_c_values(q.n, cv, parse_rat(args.degree, "--degree"))
        if level_two and (xi.level != 2 or not xi.is_dominant()):
            raise ValidationError("parameter --cvals: weight must be dominant of level 2")
        if not xi.is_dominant():
            raise ValidationError("parameter --cvals: weight must be dominant")
        if xi.level < 1:
            raise ValidationError("parameter --cvals: level must be >= 1")
        q.xi = xi
        q.params.update(cvals=list(xi.c_values()), degree=str(xi.degree))
    return check


def _check_norm_bound(args, q):
    q.bound = parse_rat(args.norm_bound, "--norm-bound")
    q.params["norm_bound"] = str(q.bound)


def _check_lam_mu(args, q):
    q.lam = parse_weight(q.n, args.lam, "--lam")
    q.mu = parse_weight(q.n, args.mu, "--mu")
    if not q.lam.is_dominant() or not q.mu.is_dominant():
        raise ValidationError("parameters --lam/--mu: weights must be dominant")
    q.params.update(lam=list(q.lam.coords), mu=list(q.mu.coords))


def _check_r(args, q):
    q.r = None if args.r is None else parse_rat(args.r, "--r")
    q.params["r"] = args.r


def _check_ranks(args, q):
    try:
        lo, hi = args.n.split("..") if ".." in args.n else (args.n, args.n)
        q.ranks = range(int(lo), int(hi) + 1)
    except ValueError:
        raise ValidationError("parameter --n: expected N or LO..HI")
    if not q.ranks:
        raise ValidationError(f"parameter --n: empty range {args.n}")
    check_rank(q.ranks[0], q.ranks[-1], q.command.max_rank, "ranks")
    q.params["n"] = args.n


RANK = Option((("--n", dict(type=int, required=True)),), _check_n)
INDEX_I, INDEX_J = _index("i"), _index("j")
ETA = Option((("--eta", dict(required=True)),), _check_eta)
LEVEL_MU = Option((("--level", dict(type=int, required=True)), ("--mu", dict(required=True))),
                  _check_level_mu)
CVALS_DEGREE = (("--cvals", dict(required=True)), ("--degree", dict(default="0")))
WEIGHT = Option(CVALS_DEGREE, _affine(level_two=False))
LEVEL_TWO = Option(CVALS_DEGREE, _affine(level_two=True))
NORM_BOUND = Option((("--norm-bound", dict(required=True)),), _check_norm_bound)
LAM_MU = Option((("--lam", dict(required=True)), ("--mu", dict(required=True))), _check_lam_mu)
R = Option((("--r", dict(default=None)),), _check_r)
KMAX = _bounded("--kmax", 1, LIMIT_MAX_KMAX, default=20)
RANKS = Option((("--n", dict(default="1..2")),), _check_ranks)
ETA0_MAX = _bounded("--eta0-max", 0, VERIFY_MAX_ETA0, default=3)
DEPTH = _bounded("--depth", 0, VERIFY_MAX_DEPTH, default=0,
                 help="also run the character-oracle sweep to this depth")


def cmd_tau(q):
    if tau_count(q.eta, q.i, TAU_MAX_ROWS) > TAU_MAX_ROWS:
        raise ValidationError(f"parameter --eta: more than {TAU_MAX_ROWS} admissible "
                              f"shapes, the most rows tau lists")
    check_ball(q.n, f_ball_bound(q.n, q.i, xi_from_eta(q.n, q.i, q.eta)), "--eta", scale=2)
    value = tau_formula(q.n, q.i, q.eta)
    shapes = mw_shapes_with_character(q.eta, q.i)
    result = {
        "value": value,
        "brute_force": len(shapes),
        "rows": [[str(s)] for s in shapes],
        "header": ["shape"],
    }
    return result, (value != len(shapes)
                    and f"mismatch: formula {value} != brute force {len(shapes)}")


def cmd_socle(q):
    if any(abs(c) > SOCLE_MAX_ENTRY for c in q.mu.coords):
        raise ValidationError(f"parameter --mu: entries must lie in "
                              f"[-{SOCLE_MAX_ENTRY}, {SOCLE_MAX_ENTRY}]")
    probe = AffineWeight(q.mu.w0_image(), q.level, Fraction(0))
    steps = descent_length(probe)
    if steps * (q.n + 1) > SOCLE_MAX_SCANNED:
        raise ValidationError(f"parameter --mu: the reflection descent makes {steps} steps "
                              f"and scans up to {q.n + 1} coroot values in each, "
                              f"more than {SOCLE_MAX_SCANNED} values scanned")
    formula = socle_formula(q.level, q.mu).weight
    oracle = socle_oracle(probe).weight
    result = {
        "cvals": list(formula.c_values()),
        "degree": str(formula.degree),
        "oracle_cvals": list(oracle.c_values()),
        "oracle_degree": str(oracle.degree),
    }
    return result, (formula != oracle
                    and "mismatch: closed form disagrees with reflection descent")


def cmd_orbit(q):
    pair = orbit_pair(q.level, q.mu)
    result = {
        "m": list(pair.m),
        "p": list(pair.p),
        "a": list(pair.a_vector()),
        "residue": pair.residue(),
        "dominant": pair.in_dominant_set(),
    }
    if q.level == 2 and pair.in_dominant_set():
        result["b_vector"] = list(b_vector(pair))
    return result, None


def cmd_gamma(q):
    check_ball(q.n, q.bound, "--norm-bound")
    rows = [[list(mu.coords), list(pair.m), list(pair.p)]
            for mu, pair in enumerate_gamma(q.xi, q.bound)]
    return {"count": len(rows), "rows": rows, "header": ["mu", "m", "p"]}, None


def cmd_flag_mult(q):
    """Both modes read the generating polynomial, the product of the
    Gaussian binomials [a_j + b_j choose a_j]_q, with a the root
    coefficients of lam - mu and b the bounds of mu; --r reads one
    coefficient."""
    a = nonneg_root_coeffs(q.lam - q.mu)
    if a is not None:
        b = direct_split(q.mu)[0].coords
        # [a_j + b_j choose a_j]_q is 1 at once when a_j or b_j is 0
        depth = max((x + y for x, y in zip(a, b) if x and y), default=0)
        if depth > FLAG_MAX_DEPTH:
            raise ValidationError(f"parameters --lam/--mu: the Gaussian binomials recurse "
                                  f"{depth} deep, more than {FLAG_MAX_DEPTH}")
        degree = sum(x * y for x, y in zip(a, b))
        if degree > FLAG_MAX_DEGREE:
            raise ValidationError(f"parameters --lam/--mu: the polynomial has degree "
                                  f"{degree}, more than {FLAG_MAX_DEGREE}")
    poly = flag_multiplicity_poly(q.lam, q.mu)
    if q.r is not None:
        return {"value": poly.coeff(q.r)}, None
    return {
        "polynomial": repr(poly),
        "rows": [[str(e), poly.coeffs[e]] for e in poly.support()],
        "header": ["exponent", "coefficient"],
    }, None


def cmd_multiplicity(q):
    check_formula_cost(q.n, q.i, q.xi)
    rows = [[list(mu.coords), list(b), str(f), count]
            for mu, b, f, count in orbit_terms(q.n, q.i, q.xi)]
    return {"value": sum(row[-1] for row in rows), "rows": rows,
            "header": ["mu", "bounds", "f", "count"]}, None


def cmd_limit(q):
    check_formula_cost(q.n, q.i, q.xi, q.kmax)
    res = outer_multiplicity_limit(q.n, q.i, q.xi, q.kmax)
    rows = [[list(mu.coords), thr, list(vals)] for mu, thr, vals in res.sequences]
    return {"value": res.value, "stabilized_at": res.stabilized_at,
            "rows": rows, "header": ["mu", "threshold", "sequence"]}, None


def cmd_tensor_general(q):
    try:
        charge, xi_rot = rotated_to_zero(q.n, q.i, q.j, q.xi)
    except ValueError as exc:
        raise ValidationError(f"parameter --cvals: {exc}")
    check_formula_cost(q.n, charge, xi_rot)
    return {"value": outer_multiplicity_formula(q.n, charge, xi_rot)}, None


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


def cmd_verify(q):
    tasks = []
    for n in q.ranks:
        for i in range(n + 1):
            etas = []
            for j in range(n + 1):
                k = (i - j) % (n + 1)
                if j <= k:
                    etas += _delta_string(n, i, j, k, q.eta0_max)
            if etas:
                tasks.append(("tau", (n, i, etas)))
    if q.depth > 0:
        for n in q.ranks:
            if n > 2:
                continue  # oracle rows cover ranks <= 2; the tests check rank 3
            for i in range(n + 1):
                tasks.append(("oracle", (n, i, q.depth)))
    rows = [[key, "pass" if ok else "FAIL", detail]
            for t in tasks for ok, key, detail in _verify_instance(t)]
    failures = [row for row in rows if row[1] == "FAIL"]
    result = {"instances": len(rows), "failures": len(failures),
              "rows": rows, "header": ["instance", "status", "detail"]}
    return result, (failures
                    and f"first failing instance: {failures[0][0]} ({failures[0][2]})")


class Command(Record):
    """One subcommand: its help text, provenance rule, the largest --n it
    takes, its options in the order they are checked, and its handler,
    which returns the result and a mismatch message or a false value."""

    __slots__ = ("help", "rule", "max_rank", "options", "run")


COMMANDS = {
    "tau": Command("tableau-count multiplicity from a content character",
                   "orbit-pair multipartition count", TAU_MAX_RANK, (RANK, INDEX_I, ETA), cmd_tau),
    "socle": Command("dominant orbit representative", "closed-form dominant representative",
                     SOCLE_MAX_RANK, (RANK, LEVEL_MU), cmd_socle),
    # orbit_pair is linear in n; the bound is that of socle, on the same weight
    "orbit": Command("orbit-pair division of a finite weight", "orbit-pair division",
                     SOCLE_MAX_RANK, (RANK, LEVEL_MU), cmd_orbit),
    "gamma": Command("enumerate the orbit set of a dominant weight", "orbit-set enumeration",
                     WALK_MAX_RANK, (RANK, WEIGHT, NORM_BOUND), cmd_gamma),
    "flag-mult": Command("flag multiplicity polynomial or value",
                         "flag-multiplicity generating polynomial", FLAG_MAX_RANK,
                         (RANK, LAM_MU, R), cmd_flag_mult),
    "multiplicity": Command("outer multiplicity via the orbit sum",
                            "orbit-sum multiplicity formula", WALK_MAX_RANK,
                            (RANK, INDEX_I, LEVEL_TWO), cmd_multiplicity),
    "limit": Command("outer multiplicity via the stabilizing limit",
                     "stabilizing flag-multiplicity limit", WALK_MAX_RANK,
                     (RANK, INDEX_I, LEVEL_TWO, KMAX), cmd_limit),
    "tensor-general": Command("multiplicity in a general fundamental tensor product",
                              "rotation reduction to the (0, j - i) case", WALK_MAX_RANK,
                              (RANK, INDEX_I, INDEX_J, LEVEL_TWO), cmd_tensor_general),
    "verify": Command("run the cross-check suites", "cross-check suite", VERIFY_MAX_RANK,
                      (RANKS, ETA0_MAX, DEPTH), cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affmult",
        description="Exact outer multiplicities for affine type A tensor products",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in command.options:
            for flag, kwargs in option.flags:
                p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    q = Query(command)
    try:
        for option in command.options:
            option.check(args, q)
        result, mismatch = command.run(q)
        emit({"command": args.command, "params": q.params, "result": result,
              "provenance": {"rule": command.rule}}, args.format)
        if mismatch:
            print(mismatch, file=sys.stderr)
        # written here, not at exit, so that a closed reader is caught below
        sys.stdout.flush()
        return 1 if mismatch else 0
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
