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
prints the one payload.  An estimate yields, stage by stage, the passes
of the loops its command runs, by kind, each bounded, with a derivation
and a counted test, beside its loop in ``weyl_orbits``, ``partitions``,
``tableaux`` or ``char_oracle``; ``PRICES`` prices a pass of each kind.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from .affine_cartan import AffineWeight, FiniteWeight, affine_Lambda, nonneg_root_coeffs
from .char_oracle import descent_passes, tensor_outer_multiplicities
from .multiplicities import (
    delta_string, direct_split, f_ball_bound, flag_multiplicity_poly, flag_progression,
    jk_from_eta, orbit_terms, outer_multiplicity_formula, outer_multiplicity_limit,
    rotated_to_zero, tau_formula,
)
from .partitions import LIMIT_MAX_KMAX, binomial_steps, count_steps, flag_count_steps
from .records import Record
from .tableaux import (
    _shape_tree, block_steps, count_passes, listing_passes, mw_shapes_with_character, tau_counts,
)
from .weyl_orbits import (
    FAMILY_MAX_RANK, b_vector, ball_leaves, descent_length, enumerate_gamma, family_passes,
    level_two_family, orbit_pair, socle_formula, socle_oracle,
)

# A work estimate counts steps of about 0.3 us; README's "CLI" table gives
# each estimate's worst accepted query and its time.
WORK_MAX = 5_000_000  # 1.5 s at the slowest rate measured for the estimated loops, 3.3M steps/s

# The steps of one pass of each kind of loop, at the stage's rank n;
# README's "CLI" table says what a pass is and where its bound sits.  The
# last four kinds are fixed terms, which no loop counter counts.
PRICES = {
    "leaves": lambda n: n + 5,             # an f-ball leaf, scaled_f of n entries: 0.5 + 0.03n us
    "socles": lambda n: 16 * (n + 5),      # a socle_formula test of a kept leaf: 7.5 + 0.47n us
    "family": lambda n: 8,                 # a pass of level_two_family's loop: 2.0-2.2 us
    "descent": lambda n: n + 2,            # a scan of _descend's n + 1 values: 0.5-0.8 us
    "memo": lambda n: 2,                   # a call of _count or _rho_multi_sorted: 0.4-0.5 us
    "coefficients": lambda n: 1,           # a coefficient a Gaussian binomial updates or multiplies
    "count": lambda n: 1,                  # a pass of the tableau tree's child loop, counting
    "listing": lambda n: n + 3,            # a pass of it that lists, and builds the rows
    "progressions": lambda n: 260 + 5 * n,  # a flag_progression, slowest orbit-set member:
                                            # 78 us at n = 1, 0.19 ms at 100, 0.8-1.35 ms at 1000
    "partial sums": lambda n: 2,           # one of descent_length's n(n + 1)/2 partial sums
    "blocks": lambda n: 2,                 # a pass of the tableau count's block table: 0.14 us
    "coordinates": lambda n: 16,           # a coordinate of flag-mult's weights, end to end: 2-5 us
}


class ValidationError(Exception):
    """Raised for bad parameters; maps to exit code 2."""


def parse_vec(text: str, name: str) -> tuple:
    if text.strip() == "":
        return ()
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ValidationError(f"parameter {name}: expected comma-separated integers")


def parse_rat(text: str, name: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"parameter {name}: expected a rational like -3 or 5/2")
    if not _printable(value.numerator) or not _printable(value.denominator):
        raise ValidationError(f"parameter {name}: too many digits to print")
    return value


def parse_weight(n: int, text: str, name: str) -> FiniteWeight:
    coords = parse_vec(text, name)
    if len(coords) != n:
        raise ValidationError(f"parameter {name}: need n values")
    return FiniteWeight(n, coords)


def _printable(x: int) -> bool:
    """Whether str(x) stays within Python's limit of 4300 digits."""
    return x.bit_length() < 14_000


def _num(x: int) -> str:
    """x in decimal, or a power of two below it where str(x) would pass
    Python's limit of 4300 digits."""
    return str(x) if _printable(x) else f"over 2^{x.bit_length() - 1}"


def emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
        return
    result = payload["result"]
    rows = result.get("rows")
    table = None if rows is None else [result.get("header", []), *rows]
    if fmt == "csv":
        import csv  # only here, so JSON and table queries do not load _csv

        buf = io.StringIO()
        csv.writer(buf).writerows(table or ([key, result[key]] for key in sorted(result)))
        sys.stdout.write(buf.getvalue())
        return
    # table format: aligned key/value lines, rows printed as a block
    for row in table or ():
        print("\t".join(map(str, row)))
    for key in sorted(result.keys() - {"rows", "header"}):
        print(f"{key}: {result[key]}")


class Query:
    """The checked values of parsed arguments, as attributes, and ``params``,
    the values the payload echoes: each option's check in the order of the
    command's entry, then its work estimate, whose passes by kind add up in
    ``passes`` and priced in ``steps``, refused once the steps pass WORK_MAX."""

    def __init__(self, args):
        self.params = {}
        command = COMMANDS[args.command]
        for option in command.options:
            option.check(args, self)
        self.steps, self.passes = 0, dict.fromkeys(PRICES, 0)
        for name, what, n, passes in command.estimate(self):
            for kind, count in passes.items():
                self.steps += PRICES[kind](n) * count
                self.passes[kind] += count
            if self.steps > WORK_MAX:
                raise ValidationError(f"parameter {name}: {what}: {_num(self.steps)} steps of "
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


def _at_least(flag: str, lo: int, hi=None, **kwargs) -> Option:
    """An integer option that must be at least lo, and at most hi if given."""
    dest = flag[2:].replace("-", "_")

    def check(args, q):
        value = getattr(args, dest)
        if value < lo:
            raise ValidationError(f"parameter {flag}: must be >= {lo}")
        if hi is not None and value > hi:
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


def _check_rotation(args, q):
    """The (0, j - i) instance of --cvals/--degree, by the diagram rotation:
    the charge and weight the orbit sum runs on, in q.i and q.xi, where the
    payload keeps the given values."""
    try:
        q.i, q.xi = rotated_to_zero(q.n, q.i, q.j, q.xi)
    except ValueError as exc:
        raise ValidationError(f"parameter --cvals: {exc}")


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
LIMIT_RANK = _at_least("--n", 1, FAMILY_MAX_RANK, required=True)
INDEX_I, INDEX_J = _index("i"), _index("j")
ETA = Option((("--eta", dict(required=True)),), _check_eta)
LEVEL = _at_least("--level", 1, required=True)
MU = Option((("--mu", dict(required=True)),), _check_mu)
CVALS_DEGREE = (("--cvals", dict(required=True)), ("--degree", dict(default="0")))
WEIGHT = Option(CVALS_DEGREE, _affine(level_two=False))
LEVEL_TWO = Option(CVALS_DEGREE, _affine(level_two=True))
ROTATED = Option((), _check_rotation)
NORM_BOUND = Option((("--norm-bound", dict(required=True)),), _check_norm_bound)
LAM_MU = Option((("--lam", dict(required=True)), ("--mu", dict(required=True))), _check_lam_mu)
R = Option((("--r", dict(default=None)),), _check_r)
KMAX = _at_least("--kmax", 1, LIMIT_MAX_KMAX, default=20)
RANKS = Option((("--n", dict(default="1..2")),), _check_ranks)
ETA0_MAX = _at_least("--eta0-max", 0, default=3)
DEPTH = _at_least("--depth", 0, default=0,
                  help="also run the character-oracle sweep to this depth")


def tau_steps(q):
    """The count's block table; then the count of the shapes, stopped once
    its passes would pass WORK_MAX, whose tree the listing then walks
    again without counting; the listing, and the formula's walk and
    counts, at its norm bound, at most (n + 1)/2 + 4 eta_0."""
    n, m, size = q.n, q.n + 1, sum(q.eta)
    yield "--n", "the tableau count's block table", n, {"blocks": block_steps(m)}
    stop = (WORK_MAX - q.steps) // (PRICES["count"](n) * count_passes(m))
    q.tree = _shape_tree(m, q.i, stop)
    rows = q.tree[0](q.eta)
    bound = Fraction(m, 2) + 4 * q.eta[0]
    walk = family_passes(n, bound, rows)
    yield ("--eta", f"{'more than ' * (rows > stop)}{min(rows, stop)} shapes of {_num(size)} "
           "boxes", n, {"count": (rows + 1) * count_passes(m), "family": walk,
                        "listing": listing_passes(rows, size), "memo": count_steps(n, bound, walk)})


def cmd_tau(q):
    value, shapes = tau_formula(q.n, q.i, q.eta), mw_shapes_with_character(q.eta, q.i, q.tree)
    result = {"value": value, "brute_force": len(shapes), "rows": [[str(s)] for s in shapes],
              "header": ["shape"]}
    return result, (value != len(shapes)
                    and f"mismatch: formula {value} != brute force {len(shapes)}")


def socle_steps(q):
    """descent_length's n(n + 1)/2 partial sums, then the descent: a step
    a reflection and one more, which finds no negative value."""
    yield "--n", "descent_length's partial sums", q.n, {"partial sums": q.n * (q.n + 1) // 2}
    steps = descent_length(AffineWeight(q.mu.w0_image(), q.level, Fraction(0)))
    yield ("--mu", f"the reflection descent makes {_num(steps)} steps and scans up to "
           f"{q.n + 1} coroot values in each", q.n, {"descent": steps + 1})


def cmd_socle(q):
    formula = socle_formula(q.level, q.mu).weight
    oracle = socle_oracle(AffineWeight(q.mu.w0_image(), q.level, Fraction(0))).weight
    result = {"cvals": list(formula.c_values()), "degree": str(formula.degree),
              "oracle_cvals": list(oracle.c_values()), "oracle_degree": str(oracle.degree)}
    return result, (formula != oracle
                    and "mismatch: closed form disagrees with reflection descent")


def cmd_orbit(q):
    pair = orbit_pair(q.level, q.mu)
    if not all(map(_printable, pair.a_vector())):
        raise ValidationError("parameter --mu: an epsilon-coordinate has too many digits to print")
    result = {"m": list(pair.m), "p": list(pair.p), "a": list(pair.a_vector()),
              "residue": pair.residue(), "dominant": pair.in_dominant_set()}
    if q.level == 2 and pair.in_dominant_set():
        result["b_vector"] = list(b_vector(pair))
    return result, None


def cmd_gamma(q):
    rows = [[list(mu.coords), list(pair.m), list(pair.p)]
            for mu, pair in enumerate_gamma(q.xi, q.bound)]
    return {"count": len(rows), "rows": rows, "header": ["mu", "m", "p"]}, None


def flag_steps(q):
    """The passes over the weights' coordinates, which grow with the rank
    alone; then the coefficients of the Gaussian binomials and their
    product."""
    yield "--lam/--mu", "the weights' coordinates", q.n, {"coordinates": q.n}
    a = nonneg_root_coeffs(q.lam - q.mu) or ()
    yield ("--lam/--mu", "the Gaussian binomials", q.n,
           {"coefficients": binomial_steps(a, direct_split(q.mu)[0].coords)})


def cmd_flag_mult(q):
    """Both modes read the generating polynomial; --r reads one
    coefficient."""
    poly = flag_multiplicity_poly(q.lam, q.mu)
    if q.r is not None:
        return {"value": poly.coeff(q.r)}, None
    return {"polynomial": repr(poly), "rows": [[str(e), poly.coeffs[e]] for e in poly.support()],
            "header": ["exponent", "coefficient"]}, None


def orbit_sum_steps(q):
    """The orbit sum at the charge q.i and weight q.xi: its walk's leaves,
    the socle tests of those kept, and the counts of its rows, one a kept
    leaf at most; returns its norm bound."""
    bound = f_ball_bound(q.n, q.i, q.xi)
    kept = ball_leaves(q.n, bound, 2)
    yield "--degree", "the orbit sum", q.n, {"leaves": ball_leaves(q.n, bound, q.n + 1),
                                             "socles": kept, "memo": count_steps(q.n, bound, kept)}
    return bound


def cmd_multiplicity(q):
    rows = [[list(mu.coords), list(b), str(f), count]
            for mu, b, f, count in orbit_terms(q.n, q.i, q.xi)]
    return {"value": sum(row[-1] for row in rows), "rows": rows,
            "header": ["mu", "bounds", "f", "count"]}, None


def limit_steps(q):
    """The orbit sum; the estimate's own walk of its members by
    level_two_family; the flag_progression of each member, made by the
    estimate and by the route; then the counts of the k_max + 1 flag
    multiplicities of each."""
    bound = yield from orbit_sum_steps(q)
    yield "--degree", "the walk of the orbit set", q.n, {"family": family_passes(q.n, bound)}
    # Lambda_j + Lambda_k has values 1 at j and k, or 2 at j = k
    jk = (r for r, v in enumerate(q.xi.c_values()) for _ in range(v))
    members = level_two_family(q.n, *jk, bound).members
    what = f"{q.kmax + 1} flag multiplicities for each of {len(members)} members"
    yield "--kmax", what, q.n, {"progressions": 2 * len(members)}
    progressions = [flag_progression(q.n, q.i, q.xi, pair.weight()) for pair in members]
    yield "--kmax", what, q.n, {"memo": sum(flag_count_steps(*p, q.kmax)
                                           for p in progressions if p)}


def cmd_limit(q):
    res = outer_multiplicity_limit(q.n, q.i, q.xi, q.kmax)
    rows = [[list(mu.coords), thr, list(vals)] for mu, thr, vals in res.sequences]
    return {"value": res.value, "stabilized_at": res.stabilized_at,
            "rows": rows, "header": ["mu", "threshold", "sequence"]}, None


def cmd_tensor_general(q):
    return {"value": outer_multiplicity_formula(q.n, q.i, q.xi)}, None


def _verify_instance(task):
    """The rows of one task: formula against brute force for every
    character of one (n, i), or one oracle table (at small n)."""
    kind, data = task
    if kind == "tau":
        n, i, etas = data
        rows = []
        for eta, b in zip(etas, tau_counts(etas, i)):  # one memo for the whole task
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


def verify_steps(q):
    """At every rank first the count's block tables, one a charge; then at
    each rank the counts, about (n + 1)^3 (E + 1)^3/4 passes a charge for
    E = --eta0-max; for each of the m(m + 1)/2 weights Lambda_j + Lambda_k,
    m = n + 1, the formula walks of its delta-string, at norm bounds
    m/2 + 4 eta_0, and the counts of all their rows through one memo; at
    ranks <= 2 the oracle tables' descents and orbit sums, to D = --depth."""
    for n in q.ranks:
        yield "--n", f"the block tables of rank {n}", n, {"blocks": (n + 1) * block_steps(n + 1)}
    for n in q.ranks:
        m, e, d = n + 1, q.eta0_max, q.depth
        yield ("--eta0-max", f"the tableau counts of rank {n}", n,
               {"count": m ** 4 * (e + 1) ** 3 // 4})
        weights, bounds = m * (m + 1) // 2, [Fraction(m + 8 * k, 2) for k in range(e + 1)]
        rows = weights * sum(ball_leaves(n, b, 2) for b in bounds)
        yield "--eta0-max", f"the formulas of rank {n}", n, {
            "family": weights * sum(family_passes(n, b) for b in bounds),
            "memo": count_steps(n, bounds[-1], rows)}
        if d and n <= 2:  # the oracle rows of cmd_verify
            bound = Fraction(m, 2) + 4 * d
            rows = weights * (d + 1) * ball_leaves(n, bound, 2)
            yield "--depth", f"the oracle tables of rank {n}", n, {
                "descent": sum(descent_passes(affine_Lambda(n, 0), affine_Lambda(n, i), d)
                               for i in range(m)),
                "leaves": weights * (d + 1) * ball_leaves(n, bound, n + 1),
                "socles": rows, "memo": count_steps(n, bound, rows)}


def cmd_verify(q):
    tasks = []
    for n in q.ranks:
        for i in range(n + 1):
            etas = []
            for j in range(n + 1):
                k = (i - j) % (n + 1)
                if j <= k:
                    etas += delta_string(n, i, j, k, q.eta0_max)
            if etas:
                tasks.append(("tau", (n, i, etas)))
    if q.depth > 0:  # oracle rows cover ranks <= 2; the tests check rank 3
        tasks += [("oracle", (n, i, q.depth)) for n in q.ranks if n <= 2 for i in range(n + 1)]
    rows = [[key, "pass" if ok else "FAIL", detail]
            for t in tasks for ok, key, detail in _verify_instance(t)]
    failures = [row for row in rows if row[1] == "FAIL"]
    result = {"instances": len(rows), "failures": len(failures),
              "rows": rows, "header": ["instance", "status", "detail"]}
    return result, (failures
                    and f"first failing instance: {failures[0][0]} ({failures[0][2]})")


class Command(Record):
    """One subcommand: its help text, provenance rule, options in the order
    they are checked, work estimate, which yields (parameter, what, rank,
    passes by kind) for each stage, cheapest to compute first, and
    handler, which returns the result and a mismatch message or a false
    value."""

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
                     lambda q: [("--norm-bound", "the walk", q.n,
                                 {"leaves": ball_leaves(q.n, q.bound, q.n + 1),
                                  "socles": ball_leaves(q.n, q.bound, 2)})],
                     cmd_gamma),
    "flag-mult": Command("flag multiplicity polynomial or value",
                         "flag-multiplicity generating polynomial", (RANK, LAM_MU, R),
                         flag_steps, cmd_flag_mult),
    "multiplicity": Command("outer multiplicity via the orbit sum",
                            "orbit-sum multiplicity formula", (RANK, INDEX_I, LEVEL_TWO),
                            orbit_sum_steps, cmd_multiplicity),
    "limit": Command("outer multiplicity via the stabilizing limit",
                     "stabilizing flag-multiplicity limit", (LIMIT_RANK, INDEX_I, LEVEL_TWO, KMAX),
                     limit_steps, cmd_limit),
    "tensor-general": Command("multiplicity in a general fundamental tensor product",
                              "rotation reduction to the (0, j - i) case",
                              (RANK, INDEX_I, INDEX_J, LEVEL_TWO, ROTATED),
                              orbit_sum_steps, cmd_tensor_general),
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
