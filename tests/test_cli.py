"""Command-line surface: output formats, exit codes, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmult.affine_cartan import AffineWeight, affine_Lambda
from affmult.cli import ValidationError, _delta_string, check_ball, check_formula_cost, main
from affmult.multiplicities import eta_from_xi
from affmult.tableaux import mw_shapes_with_character


ROOT = Path(__file__).resolve().parents[1]


def src_env():
    """The environment with the package source first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


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
        assert "--eta" in err and "more than 20000 admissible shapes" in err

    @pytest.mark.parametrize("eta", ["200,200,199", "300,300,299"])
    def test_row_cap_stops_the_count(self, capsys, eta):
        # (300, 300, 299) took 8.3 s to refuse when the whole count came first
        start = time.process_time()
        code, out, err = run(capsys, "tau", "--n", "2", "--i", "1", "--eta", eta)
        assert time.process_time() - start < 1.0
        assert code == 2 and out == ""
        assert "--eta" in err and "more than 20000 admissible shapes" in err

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
        (["socle", "--n", "2", "--level", "1", "--mu=-1001,0"], "--mu"),
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
        (["verify", "--n", "1..5"], "--n"),
        (["verify", "--n", "1..1000000000000"], "--n"),
        (["verify", "--n=-1000000000000..1"], "--n"),
        (["verify", "--n", "1", "--eta0-max", "101"], "--eta0-max"),
        (["verify", "--n", "1", "--depth", "101"], "--depth"),
    ])
    def test_exit_code_two_names_parameter(self, capsys, argv, param):
        start = time.process_time()
        code, out, err = run(capsys, *argv)
        assert time.process_time() - start < 1.0
        assert code == 2 and out == ""
        assert param in err

    def test_caps_are_inclusive(self, capsys):
        # at n = 1 a bound of 11249700000 gives 149,998 leaves and one of
        # 11250000000 gives 150,001
        check_ball(1, 11249700000, "--norm-bound")
        with pytest.raises(ValidationError, match="150001 leaves"):
            check_ball(1, 11250000000, "--norm-bound")
        code, out, _ = run(capsys, "limit", "--n", "1", "--i", "0", "--cvals", "2,0",
                           "--degree=-1", "--kmax", "100", "--format", "json")
        assert code == 0 and json.loads(out)["result"]["stabilized_at"] == 1
        # 2 Lambda_0 - d delta at n = 1 has f_ball_bound 4d
        check_formula_cost(1, 0, AffineWeight.from_c_values(1, (2, 0), -400))
        with pytest.raises(ValidationError, match="argument 401, more than 400"):
            check_formula_cost(1, 0, AffineWeight.from_c_values(1, (2, 0), -401))

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


class TestContractFuzz:
    """Every query subcommand on generated argv, every value given as
    --opt=value: the exit code is 0, or 2 with a message that names an
    option; any other exception fails.  Draws stay small (rank <= 3,
    entries in [-3, 4], --norm-bound <= 12, --kmax <= 4)."""

    COMMANDS = ["tau", "socle", "orbit", "gamma", "flag-mult", "multiplicity",
                "limit", "tensor-general", "verify"]

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

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(COMMANDS), st.data())
    def test_exits_zero_or_two(self, command, data):
        argv = [command, *self.options(data, command), "--format=json"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 0:
            assert json.loads(out.getvalue())["command"] == command
        else:
            assert re.search(r"(argument|parameters?|required:) --[a-z]",
                             err.getvalue()), (argv, err.getvalue())


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
                    assert _delta_string(n, i, j, k, 15) == found
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
