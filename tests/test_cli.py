"""Command-line surface: output formats, exit codes, determinism."""

import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affmult import cli
from affmult.affine_cartan import affine_Lambda
from affmult.cli import COMMANDS as TABLE
from affmult.cli import Query, build_parser, main
from affmult.multiplicities import delta_string, eta_from_xi, rotate, rotated_to_zero
from affmult.tableaux import mw_shapes_with_character
from pass_counters import KINDS, counting


ROOT = Path(__file__).resolve().parents[1]


def src_env():
    """The environment with the package source first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


# the message of a query whose work estimate passes WORK_MAX
WORK_REFUSAL = re.compile(r"\d+ steps of work, more than 5000000$")

# one query of each subcommand, and the parameter of its estimate's last stage
CAPS = [
    (["tau", "--n", "2", "--i", "1", "--eta", "6,6,5"], "--eta"),
    (["socle", "--n", "2", "--level", "1", "--mu=-1000,1000"], "--mu"),
    (["gamma", "--n", "1", "--cvals", "2,0", "--norm-bound", "1000"], "--norm-bound"),
    (["flag-mult", "--n", "1", "--lam", "6", "--mu", "2"], "--lam/--mu"),
    (["multiplicity", "--n", "2", "--i", "1", "--cvals", "0,0,2", "--degree=-6"], "--degree"),
    (["limit", "--n", "2", "--i", "1", "--cvals", "0,0,2", "--degree=-6", "--kmax", "8"],
     "--kmax"),
    (["tensor-general", "--n", "2", "--i", "1", "--j", "2", "--cvals", "2,0,0", "--degree=-4"],
     "--degree"),
    (["verify", "--n", "1..2", "--eta0-max", "2", "--depth", "1"], "--depth"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTau:
    def test_headline(self, capsys):
        code, out, _ = run(capsys, "tau", "--n", "2", "--i", "1", "--eta", "6,6,5")
        assert code == 0
        assert "value: 5" in out
        for shape in ["(15, 2)", "(12, 5)", "(9, 8)",
                      "(9, 3, 3, 1, 1)", "(6, 5, 4, 1, 1)"]:
            assert shape in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "tau", "--n", "2", "--i", "1",
                           "--eta", "6,6,5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "tau"
        assert payload["params"] == {"n": 2, "i": 1, "eta": [6, 6, 5]}
        assert payload["result"]["value"] == 5
        assert "rule" in payload["provenance"]

    def test_row_cap_exits_two_before_listing(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "tau", "--n", "2", "--i", "1", "--eta", "60,60,59")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "--eta" in err and WORK_REFUSAL.search(err)

    @pytest.mark.parametrize("eta", ["200,200,199", "300,300,299"])
    def test_row_cap_stops_the_count(self, capsys, eta):
        # (300, 300, 299) took 8.3 s to refuse when the whole count came first
        start = time.process_time()
        code, out, err = run(capsys, "tau", "--n", "2", "--i", "1", "--eta", eta)
        assert time.process_time() - start < 1.0
        assert code == 2 and out == ""
        assert "--eta" in err and WORK_REFUSAL.search(err)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "tau", "--n", "2", "--i", "1",
                         "--eta", "3,3,3", "--format", "json")
        _, out2, _ = run(capsys, "tau", "--n", "2", "--i", "1",
                         "--eta", "3,3,3", "--format", "json")
        assert out1 == out2


class TestSocle:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "socle", "--n", "2", "--level", "2",
                           "--mu", "2,0")
        assert code == 0
        assert "cvals: [0, 2, 0]" in out
        assert "degree: 0" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "socle", "--n", "2", "--level", "2",
                           "--mu", "2,0", "--format", "csv")
        assert code == 0
        assert "cvals,\"[0, 2, 0]\"" in out

    def test_largest_entries_allowed(self, capsys):
        code, out, _ = run(capsys, "socle", "--n", "2", "--level", "1",
                           "--mu=-1000,1000", "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["cvals"] == result["oracle_cvals"] == [0, 1, 0]
        assert result["degree"] == result["oracle_degree"] == "333333"


    def test_descent_budget_exits_two(self, capsys):
        # 11,479,180 reflections of 41 values: 58 s when it was descended
        start = time.process_time()
        code, out, err = run(capsys, "socle", "--n", "40", "--level", "1",
                             "--mu=" + ",".join(["-1000"] * 40))
        assert time.process_time() - start < 1.0
        assert code == 2 and out == ""
        assert "--mu" in err and "11479180 steps" in err

    def test_descent_within_budget(self, capsys):
        # 119,964 reflections of 9 values, about half the budget
        code, out, _ = run(capsys, "socle", "--n", "8", "--level", "1",
                           "--mu=" + ",".join(["-1000"] * 8), "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["cvals"] == result["oracle_cvals"]


class TestMultiplicity:
    def test_headline(self, capsys):
        code, out, _ = run(capsys, "multiplicity", "--n", "2", "--i", "1",
                           "--cvals", "0,0,2", "--degree", "-6",
                           "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["value"] == 5
        assert result["value"] == sum(row[-1] for row in result["rows"])

    def test_limit_route(self, capsys):
        code, out, _ = run(capsys, "limit", "--n", "2", "--i", "1",
                           "--cvals", "0,0,2", "--degree", "-6",
                           "--kmax", "8", "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["value"] == 5
        assert result["stabilized_at"] == 6


class TestValidation:
    @pytest.mark.parametrize("argv,param", [
        (["tau", "--n", "0", "--i", "0", "--eta", "1"], "--n"),
        (["tau", "--n", "2", "--i", "5", "--eta", "1,1,1"], "--i"),
        (["tau", "--n", "2", "--i", "1", "--eta", "1,x,1"], "--eta"),
        (["tau", "--n", "2", "--i", "1", "--eta", "1,1"], "--eta"),
        (["socle", "--n", "2", "--level", "0", "--mu", "1,0"], "--level"),
        (["multiplicity", "--n", "2", "--i", "1", "--cvals", "1,0,0",
          "--degree", "0"], "--cvals"),
        (["limit", "--n", "1", "--i", "0", "--cvals", "2,0",
          "--degree", "x"], "--degree"),
        (["socle", "--n", "2", "--level", "2", "--mu", "99999999999999999999,0"], "--mu"),
        (["socle", "--n", "2", "--level", "1", "--mu=-10000000,0"], "--mu"),
        # deep queries: the f-ball walk's leaf count and the limit's k_max
        (["gamma", "--n", "6", "--cvals", "2,0,0,0,0,0,0", "--norm-bound", "200"],
         "--norm-bound"),
        (["gamma", "--n", "1", "--cvals", "2,0", "--norm-bound", "11250000000"],
         "--norm-bound"),
        (["multiplicity", "--n", "6", "--i", "1", "--cvals", "1,1,0,0,0,0,0",
          "--degree=-50"], "--degree"),
        (["limit", "--n", "6", "--i", "1", "--cvals", "1,1,0,0,0,0,0",
          "--degree=-50", "--kmax", "4"], "--degree"),
        (["limit", "--n", "2", "--i", "1", "--cvals", "0,0,2", "--degree=-6",
          "--kmax", "101"], "--kmax"),
        # deep degrees: the multipartition argument (90 leaves, but 18 s
        # of rho_multi when it was counted), and the rotated ball of
        # tensor-general
        (["multiplicity", "--n", "1", "--i", "0", "--cvals", "2,0",
          "--degree=-1000"], "--degree"),
        (["limit", "--n", "1", "--i", "0", "--cvals", "2,0", "--degree=-1000",
          "--kmax", "4"], "--degree"),
        (["tensor-general", "--n", "1", "--i", "1", "--j", "1", "--cvals", "2,0",
          "--degree=-1000"], "--degree"),
        (["tensor-general", "--n", "6", "--i", "1", "--j", "2",
          "--cvals", "1,0,0,1,0,0,0", "--degree=-50"], "--degree"),
        # verify's ranges
        (["verify", "--n", "1..40"], "--n"),
        (["verify", "--n", "1..1000000000000"], "--n"),
        (["verify", "--n=-1000000000000..1"], "--n"),
        (["verify", "--n", "1", "--eta0-max", "1000"], "--eta0-max"),
        (["verify", "--n", "1", "--depth", "100000"], "--depth"),
        # flag-mult: the Gaussian binomials' recursion depth (a RecursionError
        # after 4.9 s and 24 s when the count ran) and the polynomial's degree
        (["flag-mult", "--n", "1", "--lam", "1000", "--mu", "500", "--r", "125500"], "--lam"),
        (["flag-mult", "--n", "1", "--lam", "1600", "--mu", "800", "--r", "320800"], "--lam"),
        (["flag-mult", "--n", "1", "--lam", "200", "--mu", "100"], "--lam"),
        # limit: k_max times the largest |b| (over 60 s and 8.6 s when run at
        # degree -400, whose orbit sum alone now passes WORK_MAX: see the last)
        (["limit", "--n", "2", "--i", "1", "--cvals", "0,0,2", "--degree=-100",
          "--kmax", "100"], "--kmax"),
        (["limit", "--n", "1", "--i", "0", "--cvals", "2,0", "--degree=-200",
          "--kmax", "100"], "--kmax"),
        # work that grows with the rank alone: the tableau count's block table
        # (3.2 s) and descent_length (1.3 s); and limit's family walk, which
        # recurses once a coordinate (a RecursionError at rank 1000)
        (["tau", "--n", "100", "--i", "0", "--eta", ",".join(["0"] * 101)], "--n"),
        (["socle", "--n", "4000", "--level", "1", "--mu=" + ",".join(["-1000"] * 4000)],
         "--n"),
        (["limit", "--n", "1000", "--i", "0", "--cvals", "2" + ",0" * 1000], "--n"),
        # tau: listing 2,362 shapes of 620 boxes (10 s when it ran)
        (["tau", "--n", "30", "--i", "0", "--eta", ",".join(["20"] * 31)], "--eta"),
        # the orbit sum's memo calls, priced as the limit's, at 2 steps
        (["limit", "--n", "1", "--i", "0", "--cvals", "2,0", "--degree=-400",
          "--kmax", "100"], "--degree"),
        # a walk of about 2^6971000 leaves, which took 6 s to count exactly
        (["multiplicity", "--n", "1000", "--i", "0", "--cvals", "2" + ",0" * 1000,
          "--degree=-1e4200"], "--degree"),
        (["gamma", "--n", "1000", "--cvals", "2" + ",0" * 1000, "--norm-bound", "1e4200"],
         "--norm-bound"),
    ])
    def test_exit_code_two_names_parameter(self, capsys, argv, param):
        start = time.process_time()
        code, out, err = run(capsys, *argv)
        assert time.process_time() - start < 1.0
        assert code == 2 and out == ""
        assert param in err

    @pytest.mark.parametrize("argv,value", [
        (["multiplicity", "--n", "1000", "--i", "0", "--cvals", "2" + ",0" * 1000], 1),
        (["flag-mult", "--n", "3000", "--lam", "1" + ",0" * 2998 + ",1",
          "--mu", ",".join(["0"] * 3000), "--r", "1"], 1),
        (["tensor-general", "--n", "3000", "--i", "1", "--j", "1",
          "--cvals", "0,2" + ",0" * 2999], 1),
        (["limit", "--n", "800", "--i", "0", "--cvals", "2" + ",0" * 800], 1),
    ], ids=["multiplicity", "flag-mult", "tensor-general", "limit"])
    def test_high_rank_at_a_shallow_weight_is_accepted(self, capsys, argv, value):
        # the weight forms are linear in the rank: all four were refused when
        # they summed over the n x n inverse Cartan matrix
        start = time.process_time()
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert time.process_time() - start < 1.0
        assert code == 0 and json.loads(out)["result"]["value"] == value

    def test_rank_linear_flag_mult_is_refused(self, capsys):
        # 4-5 s when accepted: passes over the coordinates the binomials' bound
        # did not see, about 5 us each
        zeros = ",".join(["0"] * 1_000_000)
        start = time.process_time()
        code, out, err = run(capsys, "flag-mult", "--n", "1000000", "--lam", zeros,
                             "--mu", zeros)
        assert time.process_time() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("parameter --lam/--mu: the weights' coordinates: ")

    def test_caps_are_inclusive(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "limit", "--n", "1", "--i", "0", "--cvals", "2,0",
                           "--degree=-1", "--kmax", "100", "--format", "json")
        assert code == 0 and json.loads(out)["result"]["stabilized_at"] == 1
        # limit's counts recurse about k_max deep, so k_max has a cap of its own
        code, _, err = run(capsys, "limit", "--n", "1", "--i", "0", "--cvals", "2,0",
                           "--degree=0", "--kmax", "401")
        assert code == 2 and err.startswith("parameter --kmax: must be <= 400")
        assert run(capsys, "limit", "--n", "1", "--i", "0", "--cvals", "2,0", "--degree=0",
                   "--kmax", "400")[0] == 0
        # a query whose estimate is WORK_MAX runs, and one step less refuses it,
        # naming the parameter of the estimate's last stage
        for argv, param in CAPS:
            monkeypatch.setattr(cli, "WORK_MAX", float("inf"))
            total = Query(build_parser().parse_args(argv)).steps
            monkeypatch.setattr(cli, "WORK_MAX", total)
            assert run(capsys, *argv, "--format", "json")[0] == 0
            monkeypatch.setattr(cli, "WORK_MAX", total - 1)
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith(f"parameter {param}: ") and f"{total} steps" in err

    def test_deep_pascal_rows_are_accepted(self, capsys):
        # [401 choose 1]_q: q_binomial recursed 401 deep and was refused
        code, out, _ = run(capsys, "flag-mult", "--n", "1", "--lam", "802", "--mu", "800",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert len(rows) == 401 and all(c == 1 for _, c in rows)
        # [1000 choose 1000]_q and [0 choose 0]_q are 1 without a Pascal row
        for mu in ("0", "2000"):
            code, out, _ = run(capsys, "flag-mult", "--n", "1", "--lam", "2000", "--mu", mu,
                               "--format", "json")
            assert code == 0 and [c for _, c in json.loads(out)["result"]["rows"]] == [1]

    @pytest.mark.parametrize("eta,code", [(4, 0), (20, 2)])
    def test_tau_walk_estimate_is_tight(self, capsys, eta, code):
        # the walk's box, C(M + 30, 30) leaves, refused both (0.03 s and 10 s)
        start = time.process_time()
        got, _, err = run(capsys, "tau", "--n", "30", "--i", "0",
                          "--eta", ",".join([str(eta)] * 31))
        assert got == code
        if code:
            assert time.process_time() - start < 1.0 and err.startswith("parameter --eta: ")

    def test_deepest_sweep_is_refused(self, capsys):
        # 79 s when every rank, depth and eta0 had a cap of its own
        start = time.process_time()
        code, out, err = run(capsys, "verify", "--n", "1..4", "--eta0-max", "100",
                             "--depth", "100")
        assert time.process_time() - start < 1.0
        assert code == 2 and out == ""
        assert re.match(r"parameter --[a-z0-9-]+: ", err)

    def test_deepest_rank_one_sweep_is_accepted(self, capsys):
        # 6.4 s when every character had a memo of its own
        start = time.process_time()
        code, out, _ = run(capsys, "verify", "--n", "1", "--eta0-max", "100",
                           "--format", "json")
        assert time.process_time() - start < 3.0
        assert code == 0
        result = json.loads(out)["result"]
        assert result["instances"] == 302 and result["failures"] == 0

    @pytest.mark.parametrize("argv,param", [
        # eta' = (-1, 2, 1) is not of the form e_j + e_k
        (["tau", "--n", "2", "--i", "1", "--eta", "1,0,0"], "--eta"),
        (["socle", "--n", "2", "--level", "2", "--mu", "1"], "--mu"),
        (["flag-mult", "--n", "2", "--lam", "1", "--mu", "0,0"], "--lam"),
        (["verify", "--n", "1", "--depth", "-3"], "--depth"),
        (["verify", "--n", "2..1"], "--n"),
        (["gamma", "--n", "2", "--cvals", "0,0,0", "--norm-bound", "4"], "--cvals"),
        # numbers too long to print (Python's limit of 4300 digits)
        (["gamma", "--n", "1", "--cvals", "2,0", "--norm-bound", "1e5000"], "--norm-bound"),
        (["gamma", "--n", "1", "--cvals", "2,0", "--norm-bound", "1", "--degree=1e5000"],
         "--degree"),
        (["multiplicity", "--n", "1", "--i", "0", "--cvals", "2,0", "--degree=1e5000"],
         "--degree"),
        (["limit", "--n", "1", "--i", "0", "--cvals", "2,0", "--degree=1e5000"], "--degree"),
        (["tensor-general", "--n", "1", "--i", "0", "--j", "0", "--cvals", "2,0",
          "--degree=1e5000"], "--degree"),
        (["orbit", "--n", "20", "--level", "1", "--mu=" + ",".join(["9" * 4299] * 20)], "--mu"),
    ])
    def test_library_errors_exit_two_without_traceback(self, argv, param):
        proc = subprocess.run([sys.executable, "-m", "affmult.cli", *argv],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 2
        assert param in proc.stderr
        assert "Traceback" not in proc.stderr


# One value token: a small integer, or the kind of junk a user types.
TOKEN = st.one_of(st.integers(-3, 4).map(str),
                  st.sampled_from(["", "x", "1/2", "-3/2", "0.5", "1e3", " 1", "--n"]))


def mostly(good):
    """A value drawn from good four times in five, else a token or a
    list of tokens."""
    anything = st.one_of(TOKEN, st.lists(TOKEN, max_size=5).map(",".join))
    return st.sampled_from([good] * 4 + [anything]).flatmap(lambda s: s)


def ints(lo, hi, size=1):
    return st.lists(st.integers(lo, hi).map(str), min_size=size,
                    max_size=size).map(",".join)


def level_two_cvals(n, a, b):
    """Coroot values of Lambda_a + Lambda_b."""
    return ",".join(str((k == a) + (k == b)) for k in range(n + 1))


HUGE = 10 ** 12
# sizes near and past the caps, either sign
BIG = st.sampled_from([100, 1001, 10 ** 6, HUGE]).flatmap(lambda v: st.sampled_from([v, -v]))


def big(small):
    """A value from small, or from BIG one time in two."""
    return st.one_of(small, BIG).map(str)


def big_rational(small):
    """A value from big(small), or a power of ten in exponent notation,
    some of them too long to print."""
    return st.one_of(big(small), st.sampled_from(["1e5000", "-1e5000", "1e-5000", "1e4299",
                                                   "-2e12"]))


def spread(length, small):
    """A vector of one entry from big(small), repeated or followed by zeros."""
    return st.tuples(big(small), st.booleans()).map(
        lambda t: ",".join([t[0]] + [t[0] if t[1] else "0"] * (length - 1)))


class TestContractFuzz:
    """Every query subcommand on generated argv, every value given as
    --opt=value: the exit code is 0, or 2 with a message that names an
    option; any other exception fails.  The draws of options stay small
    (rank <= 3, entries in [-3, 4], --norm-bound <= 12, --kmax <= 4); those
    of large_options reach every cap."""

    COMMANDS = list(TABLE)

    @staticmethod
    def options(data, command):
        n = data.draw(st.integers(1, 3))
        opts = {"--n": mostly(st.just(str(n)))}
        if command == "verify":
            # ranks N or LO..HI in 0..3, both ways round
            bound = st.integers(0, 3).map(str)
            opts["--n"] = mostly(st.one_of(bound, st.tuples(bound, bound).map("..".join)))
            opts["--eta0-max"] = mostly(ints(-2, 8))
            opts["--depth"] = mostly(ints(-1, 2))
        elif command in ("socle", "orbit"):
            opts["--level"] = mostly(ints(-1, 3))
            opts["--mu"] = mostly(ints(-3, 4, n))
        elif command == "tau":
            opts["--i"] = mostly(ints(0, n))
            opts["--eta"] = mostly(ints(0, 4, n + 1))
        elif command == "gamma":
            # small entries, so that the level-0 weight comes up often
            opts["--cvals"] = mostly(ints(0, 1, n + 1))
            opts["--degree"] = mostly(ints(-3, 4))
            opts["--norm-bound"] = mostly(ints(-3, 12))
        elif command == "flag-mult":
            opts["--lam"] = mostly(ints(0, 4, n))
            opts["--mu"] = mostly(ints(0, 4, n))
            opts["--r"] = mostly(ints(-3, 4))
        else:
            # Lambda_a + Lambda_b with a + b = i + j mod n + 1, so that the
            # good values often give a weight below Lambda_i + Lambda_j
            # (j = 0 for multiplicity and limit)
            i, j, a = (data.draw(st.integers(0, n)) for _ in range(3))
            if command != "tensor-general":
                j = 0
            b = (i + j - a) % (n + 1)
            opts["--i"] = mostly(st.just(str(i)))
            if command == "tensor-general":
                opts["--j"] = mostly(st.just(str(j)))
            opts["--cvals"] = mostly(st.just(level_two_cvals(n, a, b)))
            opts["--degree"] = mostly(ints(-3, 4))
            if command == "limit":
                opts["--kmax"] = mostly(ints(-1, 4))
        # about one argv in five leaves an option out
        drop = data.draw(st.sampled_from([None] * 4 * len(opts) + list(opts)))
        return [f"{k}={data.draw(v)}" for k, v in opts.items() if k != drop]

    @staticmethod
    def large_options(data, command):
        """Options with --n at 1..3 or from 30 up, where the work that grows
        with the rank alone nears WORK_MAX, and with entries, levels,
        degrees, --norm-bound, --r and --kmax from BIG one time in two;
        degrees, --norm-bound and --r also in exponent notation, some of
        them too long to print.
        verify draws ranges and values on either side of its estimate's
        bound."""
        n = data.draw(st.sampled_from([1, 2, 3, 30, 64, 65, 300, 1000, 4000, HUGE]))
        size = min(n, 4000)
        opts = {"--n": st.just(str(n))}
        if command == "verify":
            opts["--n"] = st.sampled_from(["1", "1..2", "5", "1..5", f"1..{HUGE}", f"-{HUGE}..1"])
            opts["--eta0-max"] = st.sampled_from(["0", "3", "101", str(HUGE)])
            opts["--depth"] = st.sampled_from(["0", "1", "101", str(HUGE)])
        elif command in ("socle", "orbit"):
            opts["--level"] = big(st.integers(1, 3))
            opts["--mu"] = spread(size, st.integers(-3, 4))
        elif command == "tau":
            opts["--i"] = st.integers(0, size).map(str)
            opts["--eta"] = spread(size + 1, st.integers(0, 4))
        elif command == "gamma":
            opts["--cvals"] = spread(size + 1, st.integers(0, 2))
            opts["--degree"] = big_rational(st.integers(-3, 4))
            opts["--norm-bound"] = big_rational(st.integers(-3, 12))
        elif command == "flag-mult":
            opts["--lam"] = spread(size, st.integers(0, 4))
            opts["--mu"] = spread(size, st.integers(0, 4))
            opts["--r"] = big_rational(st.integers(-3, 4))
        else:
            i, j, a = (data.draw(st.integers(0, size)) for _ in range(3))
            if command != "tensor-general":
                j = 0
            opts["--i"] = st.just(str(i))
            if command == "tensor-general":
                opts["--j"] = st.just(str(j))
            opts["--cvals"] = st.just(level_two_cvals(size, a, (i + j - a) % (size + 1)))
            opts["--degree"] = big_rational(st.integers(-3, 4))
            if command == "limit":
                opts["--kmax"] = big(st.integers(1, 4))
        # about one argv in five leaves an option out (flag-mult --r, say)
        drop = data.draw(st.sampled_from([None] * 4 * len(opts) + list(opts)))
        return [f"{k}={data.draw(v)}" for k, v in opts.items() if k != drop]

    @staticmethod
    def check(command, argv):
        """Run argv: exit 0 with a payload, or 2 naming an option, within
        2 s of CPU, and 1 s for a refusal.  A query that runs on is stopped
        by a CPU-time alarm."""
        def overrun(signum, frame):
            raise TimeoutError

        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGPROF, overrun)
        signal.setitimer(signal.ITIMER_PROF, 2.0)
        start = time.process_time()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code
        except TimeoutError:
            pytest.fail(f"{argv} ran past 2 s of CPU")
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 0:
            assert json.loads(out.getvalue())["command"] == command
        else:
            assert time.process_time() - start < 1.0, argv
            assert re.search(r"(argument|parameters?|required:) --[a-z]",
                             err.getvalue()), (argv, err.getvalue())

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(COMMANDS), st.data())
    def test_exits_zero_or_two(self, command, data):
        self.check(command, [command, *self.options(data, command), "--format=json"])

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(COMMANDS), st.data())
    def test_large_values_exit_zero_or_two(self, command, data):
        self.check(command, [command, *self.large_options(data, command), "--format=json"])


def bench_workloads():
    """bench/workloads.py, read-only: it imports nothing from affmult."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


class TestBenchmarkInputs:
    def test_cli_pool_and_verify_argv_are_accepted(self):
        """Every query the benchmark can draw passes its option checks and
        its work estimate; the handlers are not run."""
        workloads = bench_workloads()
        argvs = [argv for command in workloads.CLI_COMMANDS
                 for argv, _ in workloads._cli_pool(command)]
        assert {argv[0] for argv in argvs} == set(TABLE) - {"verify"}
        parser = build_parser()
        for argv in argvs + [list(workloads.VERIFY_ARGV)]:
            Query(parser.parse_args(argv))

    def test_formula_ladder_inputs_are_accepted(self):
        """Every formula_ladder instance of seeds 1-3 passes the option
        checks and work estimates of tau, multiplicity and limit with
        --kmax eta_0, the routes the workload runs; the handlers are not
        run."""
        workloads = bench_workloads()
        parser = build_parser()
        for seed in (1, 2, 3):
            for n, i, j, k, eta0, eta, kmax in workloads.formula_ladder(seed):
                weight = ["--n", str(n), "--i", str(i), "--cvals",
                          ",".join(map(str, workloads.level_two_cvals(n, j, k))),
                          f"--degree={-eta0}"]
                tau = ["tau", "--n", str(n), "--i", str(i), "--eta", ",".join(map(str, eta))]
                for argv in (tau, ["multiplicity", *weight],
                             ["limit", *weight, "--kmax", str(kmax)]):
                    Query(parser.parse_args(argv))


def below(n, i, j, eta0):
    """Lambda_j + Lambda_{i-j} - eta0 delta and its character for charge i,
    or None where the weight is not below Lambda_0 + Lambda_i."""
    xi = (affine_Lambda(n, j) + affine_Lambda(n, (i - j) % (n + 1))).shift_delta(-eta0)
    try:
        return xi, eta_from_xi(n, i, xi)
    except ValueError:
        return None


# ranks drawn by TestCountedPasses, with the deepest eta_0 drawn at each
DEPTHS = {1: 60, 2: 30, 3: 16, 4: 10, 5: 8, 7: 5, 12: 3, 30: 2}


class TestCountedPasses:
    """Queries the work estimates accept, run under the counters of
    pass_counters: every count stays within the passes of its kind that
    the estimate Query ran yielded, as read from the loops' modules."""

    @staticmethod
    def draw(data, command):
        """argv of one query of command, near the sizes the estimates allow."""
        n = data.draw(st.sampled_from(sorted(DEPTHS)))
        if command in ("multiplicity", "limit", "tensor-general", "gamma", "socle", "orbit",
                       "flag-mult"):
            n = min(n, 4)
        i, j = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
        eta0 = data.draw(st.integers(0, DEPTHS[n]))
        if command == "verify":
            return ["verify", "--n", data.draw(st.sampled_from(["1", "2", "3", "1..2", "1..3"])),
                    "--eta0-max", str(data.draw(st.integers(0, 12))),
                    "--depth", str(data.draw(st.integers(0, 2)))]
        if command in ("socle", "orbit"):
            return [command, "--n", str(n), "--level", str(data.draw(st.integers(1, 3))),
                    "--mu=" + data.draw(ints(-60, 60, n))]
        if command == "flag-mult":
            argv = ["flag-mult", "--n", str(n), "--lam", data.draw(ints(0, 30, n)),
                    "--mu", data.draw(ints(0, 30, n))]
            return argv + data.draw(st.sampled_from([[], ["--r", str(eta0)]]))
        if command == "gamma":
            bound = data.draw(st.fractions(0, 60, max_denominator=7))
            return ["gamma", "--n", str(n), "--cvals", level_two_cvals(n, j, (i - j) % (n + 1)),
                    "--degree", str(-eta0), "--norm-bound", str(bound)]
        found = below(n, i, j, eta0)
        if found is None:
            return None
        xi, eta = found
        if command == "tau":
            return ["tau", "--n", str(n), "--i", str(i), "--eta", ",".join(map(str, eta))]
        argv = [command, "--n", str(n), "--i", str(i)]
        if command == "tensor-general":
            # the same weight, as a multiplicity of Lambda_a (x) Lambda_{i+a}
            a = data.draw(st.integers(0, n))
            argv = [command, "--n", str(n), "--i", str(a), "--j", str((a + i) % (n + 1))]
            xi = rotate(a, xi)
        argv += ["--cvals", ",".join(map(str, xi.c_values())), f"--degree={xi.degree}"]
        if command == "limit":
            kmax = data.draw(st.sampled_from([1, eta0 + 1, 3 * eta0 + 2, 40, 120]))
            argv += ["--kmax", str(kmax)]
        return argv

    @staticmethod
    def check(argv):
        """Run argv under the counters, if its estimate accepts it: every
        count stays within the passes of its kind that the estimate yielded."""
        args = build_parser().parse_args(argv + ["--format", "json"])
        with counting() as counts:
            q = Query(args)
            with redirect_stdout(io.StringIO()):
                TABLE[argv[0]].run(q)
        over = {kind: (count, q.passes[kind]) for kind, count in counts.items()
                if count > q.passes[kind]}
        assert not over, (argv, over)

    def test_every_priced_kind_is_counted_or_fixed(self):
        # the fixed terms grow with the rank, or with the members, alone
        assert set(cli.PRICES) == set(KINDS) | {"progressions", "partial sums", "blocks",
                                                "coordinates"}

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(list(TABLE)), st.data())
    def test_counts_are_within_their_bounds(self, command, data):
        argv = self.draw(data, command)
        assume(argv is not None)
        try:
            self.check(argv)
        except cli.ValidationError:
            assume(False)

    @pytest.mark.parametrize("argv", [argv for argv, _ in CAPS], ids=[argv[0] for argv, _ in CAPS])
    def test_cap_queries_are_within_their_bounds(self, argv):
        self.check(argv)

    @pytest.mark.parametrize("eta", ["6,6,5", "8,8,8,8"])
    def test_tau_lists_through_the_estimates_count(self, eta):
        # the estimate's count is at most its stop, so its memo is exact
        # and the handler lists through it without counting again
        argv = ["tau", "--n", str(eta.count(",")), "--i", "1", "--eta", eta]
        q = Query(build_parser().parse_args(argv))
        with counting() as counts, redirect_stdout(io.StringIO()):
            TABLE["tau"].run(q)
        assert counts["count"] == 0 and counts["listing"] > 0


# One small accepted query per subcommand and its exact output in json,
# table and csv.
GOLDEN = [
    (["tau", "--n", "2", "--i", "1", "--eta", "2,2,1"],
     '{"command": "tau", "params": {"eta": [2, 2, 1], "i": 1, "n": 2}, '
     '"provenance": {"rule": "orbit-pair multipartition count"}, '
     '"result": {"brute_force": 1, "header": ["shape"], "rows": [["(3, 2)"]], '
     '"value": 1}}\n',
     'shape\n'
     '(3, 2)\n'
     'brute_force: 1\n'
     'value: 1\n',
     'shape\r\n'
     '"(3, 2)"\r\n'),
    (["socle", "--n", "2", "--level", "2", "--mu", "2,0"],
     '{"command": "socle", "params": {"level": 2, "mu": [2, 0], "n": 2}, '
     '"provenance": {"rule": "closed-form dominant representative"}, '
     '"result": {"cvals": [0, 2, 0], "degree": "0", "oracle_cvals": [0, 2, '
     '0], "oracle_degree": "0"}}\n',
     'cvals: [0, 2, 0]\n'
     'degree: 0\n'
     'oracle_cvals: [0, 2, 0]\n'
     'oracle_degree: 0\n',
     'cvals,"[0, 2, 0]"\r\n'
     'degree,0\r\n'
     'oracle_cvals,"[0, 2, 0]"\r\n'
     'oracle_degree,0\r\n'),
    (["orbit", "--n", "2", "--level", "2", "--mu", "6,5"],
     '{"command": "orbit", "params": {"level": 2, "mu": [6, 5], "n": 2}, '
     '"provenance": {"rule": "orbit-pair division"}, "result": {"a": [11, 6], '
     '"b_vector": [2, 3], "dominant": true, "m": [1, 2], "p": [5, 2], '
     '"residue": 2}}\n',
     'a: [11, 6]\n'
     'b_vector: [2, 3]\n'
     'dominant: True\n'
     'm: [1, 2]\n'
     'p: [5, 2]\n'
     'residue: 2\n',
     'a,"[11, 6]"\r\n'
     'b_vector,"[2, 3]"\r\n'
     'dominant,True\r\n'
     'm,"[1, 2]"\r\n'
     'p,"[5, 2]"\r\n'
     'residue,2\r\n'),
    (["gamma", "--n", "2", "--cvals", "0,0,2", "--degree", "-6", "--norm-bound", "68/3"],
     '{"command": "gamma", "params": {"cvals": [0, 0, 2], "degree": "-6", '
     '"n": 2, "norm_bound": "68/3"}, '
     '"provenance": {"rule": "orbit-set enumeration"}, "result": {"count": 3, '
     '"header": ["mu", "m", "p"], "rows": [[[2, 4], [2, 2], [2, 0]], [[4, 0], '
     '[2, 2], [1, 1]], [[0, 2], [2, 2], [0, -1]]]}}\n',
     'mu\tm\tp\n'
     '[2, 4]\t[2, 2]\t[2, 0]\n'
     '[4, 0]\t[2, 2]\t[1, 1]\n'
     '[0, 2]\t[2, 2]\t[0, -1]\n'
     'count: 3\n',
     'mu,m,p\r\n'
     '"[2, 4]","[2, 2]","[2, 0]"\r\n'
     '"[4, 0]","[2, 2]","[1, 1]"\r\n'
     '"[0, 2]","[2, 2]","[0, -1]"\r\n'),
    (["flag-mult", "--n", "1", "--lam", "6", "--mu", "2"],
     '{"command": "flag-mult", "params": {"lam": [6], "mu": [2], "n": 1, '
     '"r": null}, '
     '"provenance": {"rule": "flag-multiplicity generating polynomial"}, '
     '"result": {"header": ["exponent", "coefficient"], '
     '"polynomial": "q^6 + q^7 + q^8", "rows": [["6", 1], ["7", 1], ["8", '
     '1]]}}\n',
     'exponent\tcoefficient\n'
     '6\t1\n'
     '7\t1\n'
     '8\t1\n'
     'polynomial: q^6 + q^7 + q^8\n',
     'exponent,coefficient\r\n'
     '6,1\r\n'
     '7,1\r\n'
     '8,1\r\n'),
    (["multiplicity", "--n", "2", "--i", "1", "--cvals", "0,0,2", "--degree", "-6"],
     '{"command": "multiplicity", "params": {"cvals": [0, 0, 2], '
     '"degree": "-6", "i": 1, "n": 2}, '
     '"provenance": {"rule": "orbit-sum multiplicity formula"}, '
     '"result": {"header": ["mu", "bounds", "f", "count"], "rows": [[[2, 4], '
     '[2, 1], "1", 2], [[4, 0], [0, 2], "3", 2], [[0, 2], [1, 0], "5", 1]], '
     '"value": 5}}\n',
     'mu\tbounds\tf\tcount\n'
     '[2, 4]\t[2, 1]\t1\t2\n'
     '[4, 0]\t[0, 2]\t3\t2\n'
     '[0, 2]\t[1, 0]\t5\t1\n'
     'value: 5\n',
     'mu,bounds,f,count\r\n'
     '"[2, 4]","[2, 1]",1,2\r\n'
     '"[4, 0]","[0, 2]",3,2\r\n'
     '"[0, 2]","[1, 0]",5,1\r\n'),
    (["limit", "--n", "2", "--i", "1", "--cvals", "0,0,2", "--degree", "-2", "--kmax", "3"],
     '{"command": "limit", "params": {"cvals": [0, 0, 2], "degree": "-2", '
     '"i": 1, "kmax": 3, "n": 2}, '
     '"provenance": {"rule": "stabilizing flag-multiplicity limit"}, '
     '"result": {"header": ["mu", "threshold", "sequence"], "rows": [[[0, 2], '
     '2, [0, 0, 1, 1]]], "stabilized_at": 2, "value": 1}}\n',
     'mu\tthreshold\tsequence\n'
     '[0, 2]\t2\t[0, 0, 1, 1]\n'
     'stabilized_at: 2\n'
     'value: 1\n',
     'mu,threshold,sequence\r\n'
     '"[0, 2]",2,"[0, 0, 1, 1]"\r\n'),
    (["tensor-general", "--n", "2", "--i", "1", "--j", "2", "--cvals", "2,0,0", "--degree", "-4"],
     '{"command": "tensor-general", "params": {"cvals": [2, 0, 0], '
     '"degree": "-4", "i": 1, "j": 2, "n": 2}, '
     '"provenance": {"rule": "rotation reduction to the (0, j - i) case"}, '
     '"result": {"value": 4}}\n',
     'value: 4\n',
     'value,4\r\n'),
    (["verify", "--n", "1", "--eta0-max", "0"],
     '{"command": "verify", "params": {"depth": 0, "eta0_max": 0, "n": "1"}, '
     '"provenance": {"rule": "cross-check suite"}, "result": {"failures": 0, '
     '"header": ["instance", "status", "detail"], "instances": 2, '
     '"rows": [["tau n=1 i=0 eta=(0, 0)", "pass", "formula=1 brute=1"], '
     '["tau n=1 i=1 eta=(0, 0)", "pass", "formula=1 brute=1"]]}}\n',
     'instance\tstatus\tdetail\n'
     'tau n=1 i=0 eta=(0, 0)\tpass\tformula=1 brute=1\n'
     'tau n=1 i=1 eta=(0, 0)\tpass\tformula=1 brute=1\n'
     'failures: 0\n'
     'instances: 2\n',
     'instance,status,detail\r\n'
     '"tau n=1 i=0 eta=(0, 0)",pass,formula=1 brute=1\r\n'
     '"tau n=1 i=1 eta=(0, 0)",pass,formula=1 brute=1\r\n'),
]



class TestGolden:
    @pytest.mark.parametrize("argv,json_text,table_text,csv_text", GOLDEN,
                             ids=[case[0][0] for case in GOLDEN])
    def test_exact_output(self, capsys, argv, json_text, table_text, csv_text):
        for fmt, text in [("json", json_text), ("table", table_text), ("csv", csv_text)]:
            assert run(capsys, *argv, "--format", fmt) == (0, text, "")


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["orbit", "--n", "2", "--level", "2", "--mu", "6,5"],
        ["verify", "--n", "1..3", "--eta0-max", "11", "--depth", "0",
         "--format", "table"],
    ])
    def test_exits_as_sigpipe_without_traceback(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "affmult.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=src_env())
        proc.stdout.close()  # before the interpreter has started up
        try:
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        finally:
            proc.stderr.close()
        assert code == 141
        assert err == ""


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1..2", "--eta0-max", "2",
                           "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["failures"] == 0
        assert result["instances"] > 0

    def test_sweep_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "--n", "2", "--eta0-max", "1",
                         "--format", "json")
        code, out2, _ = run(capsys, "verify", "--n", "2", "--eta0-max", "1",
                            "--format", "json")
        assert code == 0
        assert out1 == out2

    def test_brute_counts_match_listing(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1..2", "--eta0-max", "6",
                           "--depth", "1", "--format", "json")
        assert code == 0
        checked = 0
        for key, status, detail in json.loads(out)["result"]["rows"]:
            case = re.fullmatch(r"tau n=\d+ i=(\d+) eta=\(([\d, ]+)\)", key)
            if case is None:
                continue
            eta = tuple(int(x) for x in case.group(2).split(","))
            brute = int(detail.split("brute=")[1])
            assert status == "pass"
            assert brute == len(mw_shapes_with_character(eta, int(case.group(1))))
            checked += 1
        assert checked > 0


    def test_delta_strings_follow_eta_from_xi(self):
        # lowering by delta = sum_l alpha_l adds 1 to every entry of eta
        for n in range(1, 5):
            for i in range(n + 1):
                for j in range(n + 1):
                    k = (i - j) % (n + 1)
                    top = affine_Lambda(n, j) + affine_Lambda(n, k)
                    found = []
                    for eta0 in range(16):
                        try:
                            found.append(eta_from_xi(n, i, top.shift_delta(-eta0)))
                        except ValueError:
                            assert not found  # the string has no gap
                    assert found
                    assert delta_string(n, i, j, k, 15) == found
                    first, d0 = found[0], 16 - len(found)
                    for eta0, eta in enumerate(found, start=d0):
                        assert eta == tuple(e + eta0 - d0 for e in first)


class TestOtherCommands:
    def test_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "--n", "2", "--level", "2",
                           "--mu", "6,5", "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["a"] == [11, 6]
        assert result["m"] == [1, 2] and result["p"] == [5, 2]

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "gamma", "--n", "2", "--cvals", "0,0,2",
                           "--degree", "-6", "--norm-bound", "68/3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["count"] == 3

    def test_flag_mult(self, capsys):
        code, out, _ = run(capsys, "flag-mult", "--n", "1", "--lam", "2",
                           "--mu", "0", "--r", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["value"] == 1

    def test_tensor_general(self, capsys):
        code, out, _ = run(capsys, "tensor-general", "--n", "2", "--i", "1",
                           "--j", "2", "--cvals", "2,0,0", "--degree", "-4",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["value"] == 4

    def test_tensor_general_rotates_once(self, capsys, monkeypatch):
        calls = []

        def rotated(*args):
            calls.append(args)
            return rotated_to_zero(*args)

        monkeypatch.setattr(cli, "rotated_to_zero", rotated)
        code, out, _ = run(capsys, "tensor-general", "--n", "2", "--i", "1", "--j", "2",
                           "--cvals", "2,0,0", "--degree", "-4", "--format", "json")
        assert code == 0 and len(calls) == 1
        # the payload echoes the given charges and weight, not the rotated ones
        assert json.loads(out)["params"] == {"cvals": [2, 0, 0], "degree": "-4", "i": 1,
                                             "j": 2, "n": 2}
        calls.clear()
        code, _, err = run(capsys, "tensor-general", "--n", "2", "--i", "1", "--j", "2",
                           "--cvals", "2,0,0", "--degree", "1")
        assert code == 2 and len(calls) == 1 and err.startswith("parameter --cvals: ")


class TestScripts:
    def test_headline_breakdown(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "headline_breakdown.py")],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        rows = lines[lines.index("per-member breakdown of the orbit-pair formula:") + 2:-1]
        assert rows == [
            "((2, 2), (2, 0))           (2, 1)     1         2",
            "((2, 2), (1, 1))           (0, 2)     3         2",
            "((2, 2), (0, -1))          (1, 0)     5         1",
        ]
        assert lines[-1] == "total: 5"

    def test_stabilization_demo(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "stabilization_demo.py")],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[2:] == [
            "(2, 4)         4          [0, 0, 0, 1, 2, 2, 2, 2, 2, 2, 2]",
            "(4, 0)         5          [0, 0, 0, 0, 1, 2, 2, 2, 2, 2, 2]",
            "(0, 2)         6          [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1]",
            "",
            "stabilized at k = 6; limit sum = 5",
            "closed-formula value = 5",
        ]
