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
prints the one payload.  An estimate weighs the passes of the loops its
command runs, each bounded, with a derivation and a counted test, beside
its loop in ``weyl_orbits``, ``partitions`` or ``tableaux``.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from .affine_cartan import AffineWeight, FiniteWeight, affine_Lambda, nonneg_root_coeffs
from .char_oracle import tensor_outer_multiplicities
from .multiplicities import (
    delta_string, direct_split, f_ball_bound, flag_count_data, flag_multiplicity_poly,
    jk_from_eta, orbit_terms, outer_multiplicity_formula, outer_multiplicity_limit,
    rotated_to_zero, tau_formula,
)
from .partitions import LIMIT_MAX_KMAX, binomial_steps, count_steps, flag_count_steps
from .records import Record
from .tableaux import (
    block_steps, count_passes, listing_passes, mw_shapes_with_character, tau_count, tau_counts,
)
from .weyl_orbits import (
    b_vector, ball_leaves, descent_length, enumerate_gamma, family_passes, level_two_family,
    orbit_pair, socle_formula, socle_oracle, walk_steps,
)

# A work estimate counts steps, about one pass of an inner loop each, over
# the loops its command runs; README's "CLI" table gives each estimate's
# worst accepted query and its time.
WORK_MAX = 5_000_000  # 1.5 s at the slowest rate measured for the estimated loops, 3.3M steps/s


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
    """The count's block table; then the count and the listing, at 1 and
    n + 3 steps a pass, the formula's walk at 16 steps a pass and its
    counts, at its norm bound, at most (n + 1)/2 + 4 eta_0.  The count
    stops once its own passes would pass WORK_MAX."""
    n, size = q.n, sum(q.eta)
    block = block_steps(n + 1)
    yield block, "--n", "the tableau count's block table"
    stop = (WORK_MAX - block) // count_passes(n + 1)
    rows = tau_count(q.eta, q.i, stop)
    bound = Fraction(n + 1, 2) + 4 * q.eta[0]
    walk = family_passes(n, bound, rows)
    yield ((rows + 1) * count_passes(n + 1) + listing_passes(rows, size) * (n + 3)
           + 16 * walk + count_steps(n, bound, walk), "--eta",
           f"{'more than ' * (rows > stop)}{min(rows, stop)} shapes of {_num(size)} boxes")


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
    if not all(map(_printable, pair.a_vector())):
        raise ValidationError("parameter --mu: an epsilon-coordinate has too many digits to print")
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
    """The inverse Cartan matrix, as in orbit_sum_steps, then a step a
    coefficient of the Gaussian binomials and their product."""
    yield 8 * q.n * q.n, "--n", "the inverse Cartan matrix"
    a = nonneg_root_coeffs(q.lam - q.mu) or ()
    yield binomial_steps(a, direct_split(q.mu)[0].coords), "--lam/--mu", "the Gaussian binomials"


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
    yield (walk_steps(q.n, bound) + count_steps(q.n, bound, ball_leaves(q.n, bound, 2)),
           "--degree", "the orbit sum")
    return bound


def cmd_multiplicity(q):
    rows = [[list(mu.coords), list(b), str(f), count]
            for mu, b, f, count in orbit_terms(q.n, q.i, q.xi)]
    return {"value": sum(row[-1] for row in rows), "rows": rows,
            "header": ["mu", "bounds", "f", "count"]}, None


def limit_steps(q):
    """The orbit sum, whose steps also price the walk of its members
    (walk_steps), then for each member k_max + 1 flag multiplicities, each
    reading the matrix twice, 2n^2 steps, and counting in flag_count_steps
    calls of 2 steps (0.3-0.4 us a call measured)."""
    if q.kmax > LIMIT_MAX_KMAX:
        raise ValidationError(f"parameter --kmax: must be <= {LIMIT_MAX_KMAX}")
    bound = yield from orbit_sum_steps(q)
    # Lambda_j + Lambda_k has values 1 at j and k, or 2 at j = k
    jk = (r for r, v in enumerate(q.xi.c_values()) for _ in range(v))
    members = level_two_family(q.n, *jk, bound).members
    data = [flag_count_data(q.n, q.i, q.xi, pair.weight(), q.kmax) for pair in members]
    steps = 2 * q.n * q.n * (q.kmax + 1) * len(members) + sum(
        2 * flag_count_steps(*d, q.kmax) for d in data if d)
    yield steps, "--kmax", f"{q.kmax + 1} flag multiplicities for each of {len(members)} members"


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


def verify_steps(q):
    """At every rank first the count's block tables, one a charge; then at
    each rank the count's memos, about (n + 1)^3 (E + 1)^3/4 a charge for
    E = --eta0-max; for each of the m(m + 1)/2 weights Lambda_j + Lambda_k,
    m = n + 1, the formula walk (n + 5 steps a box leaf) and counts of its
    delta-string; and at ranks <= 2 the oracle table's orbit sums.  The
    norm bounds reach m/2 + 4E, or 4 * --depth."""
    for n in q.ranks:
        yield (n + 1) * block_steps(n + 1), "--n", f"the block tables of rank {n}"
    for n in q.ranks:
        m, e, d = n + 1, q.eta0_max, q.depth
        yield m ** 4 * (e + 1) ** 3 // 4, "--eta0-max", f"the tableau counts of rank {n}"
        weights, bound = m * (m + 1) // 2, Fraction(m, 2) + 4 * e
        rows = (e + 1) * ball_leaves(n, bound, 2)
        yield (weights * (rows * (n + 5) + count_steps(n, bound, rows)),
               "--eta0-max", f"the formulas of rank {n}")
        if d and n <= 2:  # the oracle rows of cmd_verify
            bound = Fraction(m, 2) + 4 * d
            rows = (d + 1) * ball_leaves(n, bound, 2)
            yield (weights * ((d + 1) * walk_steps(n, bound) + count_steps(n, bound, rows)),
                   "--depth", f"the oracle table of rank {n}")


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
