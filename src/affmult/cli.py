"""Command-line interface.

Every computation in the library is exposed as a subcommand with
machine-readable output.  Vectors are comma-separated integers; affine
weights are passed as the n + 1 values on the simple coroots plus a
rational degree (``--cvals h0,...,hn --degree p/q``).

Exit codes: 0 success, 1 cross-check mismatch, 2 parameter validation
failure, 141 (128 + SIGPIPE) when the reader closes stdout early.

The subcommands are one table, ``COMMANDS``: each entry names its help
text, provenance rule, options, work estimate and handler.  ``main``
checks the options in the order of the entry, refuses a query whose work
estimate passes ``WORK_MAX``, runs the handler on the checked values and
prints the one payload.
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
    jk_from_eta,
    orbit_terms,
    outer_multiplicity_formula,
    outer_multiplicity_limit,
    rotated_to_zero,
    tau_formula,
)
from .records import Record
from .tableaux import mw_shapes_with_character, tau_count, tau_counts
from .weyl_orbits import (
    b_vector,
    descent_length,
    enumerate_gamma,
    orbit_pair,
    socle_formula,
    socle_oracle,
)

# A work estimate counts steps, about one pass of an inner loop each, over
# the loops its command runs; README's "CLI" table gives each estimate's
# worst accepted query and its time.
WORK_MAX = 5_000_000  # 1.5 s at the slowest rate measured for the estimated loops, 3.3M steps/s
TAU_MAX_ROWS = 20_000  # not work: the most rows `tau` prints, one per admissible shape
LIMIT_MAX_KMAX = 400  # not work: `limit` counts recurse about k_max deep, two of 1000 frames each


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


def _num(x: int) -> str:
    """x in decimal, or a power of two below it where str(x) would pass
    Python's limit of 4300 digits."""
    return str(x) if x.bit_length() < 14_000 else f"over 2^{x.bit_length() - 1}"


def ball_leaves(n: int, bound, scale: int) -> int:
    """C(M + n, n) vectors, M = isqrt(floor(scale * bound)): the orbit-set
    walk's leaves at scale n + 1, and at scale 2 a box holding every a with
    f(a) <= bound, as a_1^2 <= 2 f(a)."""
    cap = floor(scale * Fraction(bound))
    return comb(isqrt(cap) + n, n) if cap >= 0 else 0


def walk_steps(n: int, bound) -> int:
    """enumerate_gamma: n + 5 steps a leaf test and 16 times that a socle
    test (0.5 + 0.03n us and 7.5 + 0.47n us measured)."""
    return (ball_leaves(n, bound, n + 1) + 16 * ball_leaves(n, bound, 2)) * (n + 5)


def count_steps(n: int, bound) -> int:
    """rho_multi on n components to arguments m <= bound/4, with parts up to
    floor(M/2) for the walk's largest entry M: memos of (m + 1)^2 values."""
    m, parts = floor(Fraction(max(bound, 0)) / 4), isqrt(max(scaled_cap(n, bound), 0)) // 2
    return (m + 1) ** 2 * (parts + 1) * n


def listing_passes(rows: int, size: int) -> int:
    """The tableau tree's child-loop passes to list rows shapes of size
    boxes, past their count, at most; see tau_steps."""
    return (rows + 1) * size


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
    """The checked values of parsed arguments, as attributes, and ``params``,
    the values the payload echoes: each option's check in the order of the
    command's entry, then its work estimate, refused once its steps so far
    pass WORK_MAX."""

    def __init__(self, args):
        self.params = {}
        command = COMMANDS[args.command]
        for option in command.options:
            option.check(args, self)
        total = 0
        for steps, name, what in command.estimate(self):
            total += steps
            if total > WORK_MAX:
                raise ValidationError(f"parameter {name}: {what}: {_num(total)} steps of "
                                      f"work, more than {WORK_MAX}")

    def set(self, **values):
        """Keep checked values that the payload echoes as given."""
        self.__dict__.update(values)
        self.params.update(values)


class Option(Record):
    """Options declared and checked together: ``flags`` are (flag,
    add_argument keywords) pairs, and ``check(args, q)`` validates their
    values into the Query q, after the options before it in the entry."""

    __slots__ = ("flags", "check")


def _index(name: str) -> Option:
    def check(args, q):
        value = getattr(args, name)
        if not 0 <= value <= q.n:
            raise ValidationError(f"parameter --{name}: index must lie in [0, n]")
        q.set(**{name: value})
    return Option(((f"--{name}", dict(type=int, required=True)),), check)


def _at_least(flag: str, lo: int, **kwargs) -> Option:
    """An integer option that must be at least lo."""
    dest = flag[2:].replace("-", "_")

    def check(args, q):
        value = getattr(args, dest)
        if value < lo:
            raise ValidationError(f"parameter {flag}: must be >= {lo}")
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


def _check_mu(args, q):
    q.mu = parse_weight(q.n, args.mu, "--mu")
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
    if q.ranks[0] < 1:
        raise ValidationError("parameter --n: ranks must be >= 1")
    q.params["n"] = args.n


RANK = _at_least("--n", 1, required=True)
INDEX_I, INDEX_J = _index("i"), _index("j")
ETA = Option((("--eta", dict(required=True)),), _check_eta)
LEVEL = _at_least("--level", 1, required=True)
MU = Option((("--mu", dict(required=True)),), _check_mu)
CVALS_DEGREE = (("--cvals", dict(required=True)), ("--degree", dict(default="0")))
WEIGHT = Option(CVALS_DEGREE, _affine(level_two=False))
LEVEL_TWO = Option(CVALS_DEGREE, _affine(level_two=True))
NORM_BOUND = Option((("--norm-bound", dict(required=True)),), _check_norm_bound)
LAM_MU = Option((("--lam", dict(required=True)), ("--mu", dict(required=True))), _check_lam_mu)
R = Option((("--r", dict(default=None)),), _check_r)
KMAX = _at_least("--kmax", 1, default=20)
RANKS = Option((("--n", dict(default="1..2")),), _check_ranks)
ETA0_MAX = _at_least("--eta0-max", 0, default=3)
DEPTH = _at_least("--depth", 0, default=0,
                  help="also run the character-oracle sweep to this depth")


def tau_steps(q):
    """The count's block table, (n + 1)^4/4 passes of 2 steps (0.14 us a
    pass measured); then per shape 8(n + 1) steps of the count (up to
    0.7(n + 1) us measured), which stops once its shapes would pass
    WORK_MAX, and the formula's level_two_family walk, which had at most
    two members a shape, each reached in about n(M + 1) loop passes of 16
    steps, M = isqrt(n + 1 + 8 eta_0) its largest entry (measured at ranks
    up to 30); and the listing of rows shapes of |eta| boxes.  It enters
    only nodes above some shape, each once: the root loops over at most
    |eta| parts, the node below a block of part k over fewer than k, and
    a shape's parts but its last sum to less than |eta|, so it makes at
    most (rows + 1)|eta| passes (listing_passes) of n + 3 steps."""
    block, count = (q.n + 1) ** 4 // 2, 8 * (q.n + 1)
    yield block, "--n", "the tableau count's block table"
    rows = tau_count(q.eta, q.i, min(TAU_MAX_ROWS, (WORK_MAX - block) // count))
    if rows > TAU_MAX_ROWS:
        raise ValidationError(f"parameter --eta: more than {TAU_MAX_ROWS} admissible "
                              f"shapes, the most rows tau lists")
    per_shape = count + 32 * q.n * (isqrt(q.n + 1 + 8 * q.eta[0]) + 1)
    yield (rows * per_shape + listing_passes(rows, sum(q.eta)) * (q.n + 3), "--eta",
           f"{rows} shapes of {_num(sum(q.eta))} boxes")


def cmd_tau(q):
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


def socle_steps(q):
    """descent_length's n(n + 1)/2 partial sums, 2 steps each, then the
    descent, which scans up to n + 1 coroot values a step."""
    yield q.n * (q.n + 1), "--n", "descent_length's partial sums"
    steps = descent_length(AffineWeight(q.mu.w0_image(), q.level, Fraction(0)))
    yield (steps * (q.n + 1), "--mu", f"the reflection descent makes {_num(steps)} steps "
           f"and scans up to {q.n + 1} coroot values in each")


def cmd_socle(q):
    formula = socle_formula(q.level, q.mu).weight
    oracle = socle_oracle(AffineWeight(q.mu.w0_image(), q.level, Fraction(0))).weight
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
    rows = [[list(mu.coords), list(pair.m), list(pair.p)]
            for mu, pair in enumerate_gamma(q.xi, q.bound)]
    return {"count": len(rows), "rows": rows, "header": ["mu", "m", "p"]}, None


def flag_steps(q):
    """The inverse Cartan matrix, as in orbit_sum_steps, then about d^2 steps
    for the Gaussian binomials and their product, of degree d = sum a_j b_j."""
    yield 8 * q.n * q.n, "--n", "the inverse Cartan matrix"
    a = nonneg_root_coeffs(q.lam - q.mu) or ()
    degree = sum(x * y for x, y in zip(a, direct_split(q.mu)[0].coords))
    yield degree * degree, "--lam/--mu", f"the polynomial has degree {_num(degree)}"


def cmd_flag_mult(q):
    """Both modes read the generating polynomial; --r reads one
    coefficient."""
    poly = flag_multiplicity_poly(q.lam, q.mu)
    if q.r is not None:
        return {"value": poly.coeff(q.r)}, None
    return {
        "polynomial": repr(poly),
        "rows": [[str(e), poly.coeffs[e]] for e in poly.support()],
        "header": ["exponent", "coefficient"],
    }, None


def orbit_sum_steps(q, weight=lambda q: (q.i, q.xi)):
    """The inverse Cartan matrix, 8 steps an entry (0.7 us measured), then
    the orbit sum at the charge and weight of weight(q); returns its bound."""
    yield 8 * q.n * q.n, "--n", "the inverse Cartan matrix"
    bound = f_ball_bound(q.n, *weight(q))
    yield walk_steps(q.n, bound) + count_steps(q.n, bound), "--degree", "the orbit sum"
    return bound


def cmd_multiplicity(q):
    rows = [[list(mu.coords), list(b), str(f), count]
            for mu, b, f, count in orbit_terms(q.n, q.i, q.xi)]
    return {"value": sum(row[-1] for row in rows), "rows": rows,
            "header": ["mu", "bounds", "f", "count"]}, None


def limit_steps(q):
    """The orbit sum, then k_max + 1 flag multiplicities a member of the box
    a_1^2 <= 2 * bound: the k-th reads the matrix twice and counts to about
    k|b|, |b| <= floor(M/2), (k|b|)^2/2 steps a component but the last, whose
    memo grows by k|b|^2 entries of about 4 steps (0.4 us measured)."""
    if q.kmax > LIMIT_MAX_KMAX:
        raise ValidationError(f"parameter --kmax: must be <= {LIMIT_MAX_KMAX}")
    n, k = q.n, q.kmax + 1
    bound = yield from orbit_sum_steps(q)
    b = isqrt(max(scaled_cap(n, bound), 0)) // 2
    per_member = k * (2 * n * n + (n - 1) * (b * k) ** 2 // 6 + 2 * b * b * k)
    yield ball_leaves(n, bound, 2) * per_member, "--kmax", f"{k} flag multiplicities a member"


def cmd_limit(q):
    res = outer_multiplicity_limit(q.n, q.i, q.xi, q.kmax)
    rows = [[list(mu.coords), thr, list(vals)] for mu, thr, vals in res.sequences]
    return {"value": res.value, "stabilized_at": res.stabilized_at,
            "rows": rows, "header": ["mu", "threshold", "sequence"]}, None


def _rotated(q) -> tuple:
    try:
        return rotated_to_zero(q.n, q.i, q.j, q.xi)
    except ValueError as exc:
        raise ValidationError(f"parameter --cvals: {exc}")


def cmd_tensor_general(q):
    return {"value": outer_multiplicity_formula(q.n, *_rotated(q))}, None


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


def verify_steps(q):
    """The count's block tables, (n + 1)^4/4 passes of 2 steps a charge, at
    every rank first; then at each rank the count's memos, about
    (n + 1)^3 (E + 1)^3/4 a charge for E = --eta0-max; for each of the
    m(m + 1)/2 weights Lambda_j + Lambda_k, m = n + 1, the formula walk
    (n + 5 steps a level_two_family box leaf) and counts of each character
    of its delta-string; and at ranks <= 2 the oracle table's orbit sums.
    The norm bounds reach m/2 + 4E, or 4 * --depth."""
    for n in q.ranks:
        yield (n + 1) ** 5 // 2, "--n", f"the block tables of rank {n}"
    for n in q.ranks:
        m, e, d = n + 1, q.eta0_max, q.depth
        yield m ** 4 * (e + 1) ** 3 // 4, "--eta0-max", f"the tableau counts of rank {n}"
        weights, bound = m * (m + 1) // 2, Fraction(m, 2) + 4 * e
        yield (weights * ((e + 1) * ball_leaves(n, bound, 2) * (n + 5) + count_steps(n, bound)),
               "--eta0-max", f"the formulas of rank {n}")
        if d and n <= 2:  # the oracle rows of cmd_verify
            bound = Fraction(m, 2) + 4 * d
            yield (weights * ((d + 1) * walk_steps(n, bound) + count_steps(n, bound)),
                   "--depth", f"the oracle table of rank {n}")


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
    """One subcommand: its help text, provenance rule, options in the order
    they are checked, work estimate, which yields (steps, parameter, what)
    for each stage, cheapest to compute first, and handler, which returns
    the result and a mismatch message or a false value."""

    __slots__ = ("help", "rule", "options", "estimate", "run")


COMMANDS = {
    "tau": Command("tableau-count multiplicity from a content character",
                   "orbit-pair multipartition count", (RANK, INDEX_I, ETA), tau_steps, cmd_tau),
    "socle": Command("dominant orbit representative", "closed-form dominant representative",
                     (RANK, LEVEL, MU), socle_steps, cmd_socle),
    # orbit_pair is linear in the command line, so orbit has no estimate
    "orbit": Command("orbit-pair division of a finite weight", "orbit-pair division",
                     (RANK, LEVEL, MU), lambda q: (), cmd_orbit),
    "gamma": Command("enumerate the orbit set of a dominant weight", "orbit-set enumeration",
                     (RANK, WEIGHT, NORM_BOUND),
                     lambda q: [(walk_steps(q.n, q.bound), "--norm-bound", "the walk")],
                     cmd_gamma),
    "flag-mult": Command("flag multiplicity polynomial or value",
                         "flag-multiplicity generating polynomial", (RANK, LAM_MU, R),
                         flag_steps, cmd_flag_mult),
    "multiplicity": Command("outer multiplicity via the orbit sum",
                            "orbit-sum multiplicity formula", (RANK, INDEX_I, LEVEL_TWO),
                            orbit_sum_steps, cmd_multiplicity),
    "limit": Command("outer multiplicity via the stabilizing limit",
                     "stabilizing flag-multiplicity limit", (RANK, INDEX_I, LEVEL_TWO, KMAX),
                     limit_steps, cmd_limit),
    "tensor-general": Command("multiplicity in a general fundamental tensor product",
                              "rotation reduction to the (0, j - i) case",
                              (RANK, INDEX_I, INDEX_J, LEVEL_TWO),
                              lambda q: orbit_sum_steps(q, _rotated), cmd_tensor_general),
    "verify": Command("run the cross-check suites", "cross-check suite",
                      (RANKS, ETA0_MAX, DEPTH), verify_steps, cmd_verify),
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
    try:
        q = Query(args)
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
