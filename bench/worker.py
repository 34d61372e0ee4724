"""One repetition of a benchmark workload, in the fresh interpreter that
``run.py`` starts for it.

The worker times the import of ``affmult`` (set-up), asserts that every
``partitions`` cache is empty, runs the seeded instance list with a timer
around each op, checks every output after the timing, and prints one JSON
object on its last line of standard output.  Each op is timed in wall
time and in CPU time of the process and its children; the import in CPU
time.  Every time is reported raw and scaled to the reference speed of
``calibration.py``: a calibration loop runs right after the import, and
a sampler thread measures the machine's speed during the ops.

With ``--trace 1`` the instances run with the package patched by
``tracing.Tracer`` and the per-layer metrics are added; ``--spans PATH``
writes the raw spans there.  With ``--probe`` it only times the import;
with ``--op I`` it runs only instance I.

    python3 bench/worker.py --workload formula_ladder --seed 1 [--trace 1]
"""

# Nothing but what the interpreter has loaded anyway comes before the
# timed import, so that the import pays for every module the package needs.
import sys
import time


def _timed_import(src: str) -> tuple:
    """(CPU seconds, wall seconds) of importing affmult and its CLI."""
    sys.path.insert(0, src)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    import affmult  # noqa: F401
    import affmult.cli  # noqa: F401
    return time.process_time() - cpu0, time.perf_counter() - wall0


if __name__ == "__main__":
    from os.path import abspath, dirname, join
    _SETUP = _timed_import(join(dirname(dirname(abspath(__file__))), "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
KIB_PER_MIB = 1024.0  # ru_maxrss is in KiB on Linux
# verify's thread pool, and any process pool replacing it, may use every CPU
UNPINNED = {"verify_sweep"}
QUERY_TIMEOUT_S = 60


def lru_caches(package: str = "affmult") -> dict:
    """'module.function' -> lru_cache-wrapped function, over the package."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)) and value.__module__ == name:
                out[f"{name.split('.')[-1]}.{attr}"] = value
    return out


class CacheLedger:
    """Hits, misses and entries of the package's lru_caches, accumulated
    across ``clear`` calls that emulate a fresh process."""

    def __init__(self):
        self.caches = lru_caches()
        self.hits = dict.fromkeys(self.caches, 0)
        self.misses = dict.fromkeys(self.caches, 0)
        self.entries = dict.fromkeys(self.caches, 0)

    def sizes(self) -> dict:
        return {k: f.cache_info().currsize for k, f in self.caches.items()}

    def clear(self):
        """Fold the caches' statistics into the ledger, then empty them."""
        for k, f in self.caches.items():
            info = f.cache_info()
            self.hits[k] += info.hits
            self.misses[k] += info.misses
            self.entries[k] += info.currsize
        self.reset(counters=False)

    def reset(self, counters=True):
        """Empty every cache; with counters, also forget what was folded."""
        for f in self.caches.values():
            f.cache_clear()
        if counters:
            for table in (self.hits, self.misses, self.entries):
                table.update(dict.fromkeys(table, 0))

    def partitions_totals(self) -> dict:
        self.clear()
        keys = [k for k in self.caches if k.startswith("partitions.")]
        return {"hits": sum(self.hits[k] for k in keys),
                "misses": sum(self.misses[k] for k in keys),
                "entries": sum(self.entries[k] for k in keys)}


def _cpu_s() -> float:
    """User plus system time of this process and its finished children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / KIB_PER_MIB


def _failure(exc) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Raised:
    """Output of an op that raised."""

    def __init__(self, exc):
        self.text = _failure(exc)


def timed_ops(instances, op) -> list:
    """Run op on every instance while a speed sampler runs.  Per op:
    (output or Raised, raw s, raw cpu s, scaled s, scaled cpu s)."""
    out = []
    with calibration.Sampler() as sampler:
        for inst in instances:
            cpu0 = _cpu_s()
            start = time.perf_counter()
            try:
                output = op(inst)
            except Exception as exc:  # an op that raises counts as a failed op
                output = Raised(exc)
            end = time.perf_counter()
            out.append([output, end - start, _cpu_s() - cpu0, start, end])
    for row in out:
        loop = (sampler.loop_time_during(row[3], row[4]),)
        row[3:] = [calibration.scale(row[1], loop), calibration.scale(row[2], loop)]
    return out


# ---- the workloads: a timed op per instance, and a check after timing -----
# A check returns (result for the digest, outputs checked, outputs failed, detail).

def op_formula_ladder(inst):
    from affmult import affine_cartan as ac, multiplicities as mp
    n, i, j, k, eta0, eta, kmax = inst
    xi = ac.AffineWeight.from_c_values(n, workloads.level_two_cvals(n, j, k), Fraction(-eta0))
    tau = mp.tau_formula(n, i, eta)
    orbit_sum = mp.outer_multiplicity_formula(n, i, xi)
    limit = mp.outer_multiplicity_limit(n, i, xi, kmax)
    return tau, orbit_sum, limit.value, limit.stabilized_at


def check_formula_ladder(inst, output):
    tau, orbit_sum, limit, stab = output
    ok = tau == orbit_sum == limit and type(stab) is int
    return list(output), 1, int(not ok), f"instance {inst}: {list(output)}"


def op_verify_sweep(argv):
    import affmult.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = affmult.cli.main(list(argv))
    return code, buf.getvalue()


def check_verify_sweep(argv, output):
    """Every instance of the sweep is one checked output."""
    expected = workloads.verify_instance_count()
    code, stdout = output
    res = json.loads(stdout)["result"]
    bad = sum(1 for row in res["rows"] if row[1] != "pass")
    bad += abs(expected - res["instances"])
    if code != 0:
        bad = max(bad, 1)
    return res["rows"], expected, min(bad, expected), (
        f"exit {code}, {res['instances']} instances (want {expected}), {res['failures']} failures")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def op_cli_cold(query, env):
    _command, argv, _params = query
    proc = subprocess.run([sys.executable, "-m", "affmult.cli", *argv], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=QUERY_TIMEOUT_S)
    return proc.returncode, proc.stdout


def expected_cli(command: str, p: dict) -> dict:
    """The library's value for one CLI query, in the fields its JSON shows."""
    from affmult import affine_cartan as ac, multiplicities as mp, tableaux as tb, weyl_orbits as wo

    def xi_of(j, k, eta0):
        return ac.AffineWeight.from_c_values(p["n"], workloads.level_two_cvals(p["n"], j, k), -eta0)

    if command == "tau":
        return {"value": mp.tau_formula(p["n"], p["i"], p["eta"]),
                "brute_force": tb.tau_bruteforce(p["eta"], p["i"])}
    if command == "multiplicity":
        return {"value": mp.outer_multiplicity_formula(p["n"], p["i"], xi_of(p["j"], p["k"], p["eta0"]))}
    if command == "limit":
        res = mp.outer_multiplicity_limit(p["n"], p["i"], xi_of(p["j"], p["k"], p["eta0"]), p["kmax"])
        return {"value": res.value, "stabilized_at": res.stabilized_at}
    if command == "tensor-general":
        return {"value": mp.general_fundamental(p["n"], p["i"], p["j"], xi_of(p["a"], p["b"], p["eta0"]))}
    if command == "flag-mult":
        poly = mp.flag_multiplicity_poly(ac.FiniteWeight(p["n"], p["lam"]), ac.FiniteWeight(p["n"], p["mu"]))
        return {"rows": sorted((Fraction(e), c) for e, c in poly.coeffs.items() if c)}
    if command == "socle":
        w = wo.socle_formula(p["level"], ac.FiniteWeight(p["n"], p["mu"])).weight
        return {"cvals": list(w.c_values()), "degree": str(w.degree)}
    if command == "orbit":
        pair = wo.orbit_pair(p["level"], ac.FiniteWeight(p["n"], p["mu"]))
        return {"m": list(pair.m), "p": list(pair.p), "a": list(pair.a_vector())}
    if command == "gamma":
        members = wo.enumerate_gamma(xi_of(p["j"], p["k"], 0), p["bound"])
        return {"count": len(members),
                "rows": [[list(m.coords), list(pr.m), list(pr.p)] for m, pr in members]}
    raise ValueError(command)


def check_cli_cold(query, output):
    command, argv, params = query
    code, stdout = output
    expected = expected_cli(command, params)
    shown = None
    if code == 0:
        result = json.loads(stdout)["result"]
        shown = {k: result.get(k) for k in expected}
        if command == "flag-mult":
            shown["rows"] = sorted((Fraction(e), c) for e, c in result.get("rows", []))
    ok = code == 0 and shown == expected
    return ([command, code, expected], 1, int(not ok),
            f"{' '.join(argv)}: exit {code}, shown {shown}, library {expected}")


WORKLOADS = {
    "formula_ladder": (op_formula_ladder, check_formula_ladder),
    "verify_sweep": (op_verify_sweep, check_verify_sweep),
    "cli_cold": (op_cli_cold, check_cli_cold),
}


def check_all(workload, instances, timed) -> dict:
    """Checks every output after timing; an op or check that raised fails
    every output it stands for."""
    _op, check = WORKLOADS[workload]
    weight = workloads.verify_instance_count() if workload == "verify_sweep" else 1
    results, attempted, failed, errors = [], 0, 0, []
    for inst, (output, *_times) in zip(instances, timed):
        try:
            if isinstance(output, Raised):
                raise RuntimeError(output.text)
            result, checked, bad, detail = check(inst, output)
        except Exception as exc:
            result, checked, bad, detail = _failure(exc), weight, weight, f"{inst}: {_failure(exc)}"
        results.append(result)
        attempted += checked
        failed += bad
        if bad and len(errors) < 5:
            errors.append(detail)
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "result_digest": harness.digest(results)}


def replay_cli(instances, ledger: CacheLedger) -> list:
    """Each query through ``affmult.cli.main`` in this process, every cache
    emptied first as in a fresh process; raw seconds per query."""
    import affmult.cli
    times = []
    for _command, argv, _params in instances:
        ledger.clear()
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            affmult.cli.main(list(argv))
        times.append(time.perf_counter() - start)
    return times


def trace_layers(args, instances, report, tracer, ledger) -> dict:
    """Per-layer metrics of the traced run.  For cli_cold the queries are
    replayed in this process, untraced and then traced; the subprocess
    times give the share of interpreter start-up and import."""
    import tracing
    traced_wall = report["wall_raw_s"]
    startup_frac = 0.0
    if args.workload == "cli_cold":
        untraced = replay_cli(instances, ledger)
        ledger.reset()
        tracer = tracing.Tracer()
        with tracer:
            traced = replay_cli(instances, ledger)
        traced_wall = sum(traced)
        report["overhead_s"] = traced_wall - sum(untraced)
        startup_frac = 1 - harness.median(untraced) / harness.median(report["op_wall_raw_s"])
    spans = tracer.spans()
    workers = workloads.VERIFY_THREADS if args.workload == "verify_sweep" else 1
    layers = tracing.layer_metrics(spans, tracer.counts(), ledger.partitions_totals(),
                                   traced_wall, workers)
    layers["cli.startup_frac"] = startup_frac
    report["spans"] = len(spans)
    if args.spans:
        with open(args.spans, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return layers


def main(setup, argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--op", type=int, default=None,
                        help="run only the instance with this index")
    args = parser.parse_args(argv)

    setup_cpu, setup_wall = setup
    report = {"setup_raw_s": setup_cpu, "setup_wall_raw_s": setup_wall,
              "setup_s": calibration.scale(setup_cpu, (calibration.calibrate(),))}
    if args.probe:
        print(json.dumps(report))
        return 0

    ledger = CacheLedger()
    report["cache_start"] = ledger.sizes()
    dirty = {k: v for k, v in report["cache_start"].items() if k.startswith("partitions.") and v}
    if dirty:
        print(f"partitions caches not empty before the first op: {dirty}", file=sys.stderr)
        return 2

    instances = workloads.instances(args.workload, args.seed)
    report["instance_digest"] = harness.digest(instances)
    if args.op is not None:
        instances = instances[args.op:args.op + 1]
    op = WORKLOADS[args.workload][0]
    if args.workload not in UNPINNED:
        # the ops, and the sampler measuring the speed they ran at, on one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "cli_cold":
        op = functools.partial(op_cli_cold, env=cli_env())

    tracer = None
    if args.trace and args.workload != "cli_cold":
        import tracing
        tracer = tracing.Tracer().install()
    try:
        timed = timed_ops(instances, op)
    finally:
        if tracer is not None:
            tracer.restore()
    report.update({
        "peak_rss_mib": _peak_rss_mib(),
        "cache_end": ledger.sizes(),
        "op_wall_raw_s": [t[1] for t in timed],
        "op_wall_s": [t[3] for t in timed],
        "op_raw_s": [t[2] for t in timed],
        "op_s": [t[4] for t in timed],
        "wall_raw_s": sum(t[1] for t in timed),
        "wall_s": sum(t[3] for t in timed),
        "cpu_raw_s": sum(t[2] for t in timed),
        "cpu_s": sum(t[4] for t in timed),
    })
    report.update(check_all(args.workload, instances, timed))
    if args.trace:
        report["layers"] = trace_layers(args, instances, report, tracer, ledger)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(_SETUP))
