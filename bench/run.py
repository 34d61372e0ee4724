"""The affmult benchmark: one command per workload and seed.

    python3 bench/run.py --workload formula_ladder --seed 1 --seconds 20 --trace 0

Every timed repetition runs in a fresh interpreter (``worker.py``), so the
unbounded ``partitions`` caches start empty as they do for a CLI user;
in ``formula_ladder`` every op does.
With ``--trace 0`` the command times fresh imports and repeats the
workload for about ``--seconds``, checks every output, prints the
end-to-end metrics by name with their units, and ends with one JSON line.
With ``--trace 1`` it runs the instances once untraced and once traced
and reports the per-layer metrics instead.  Each run writes its raw
figures to ``bench/results/``.  The exit code is 1 when any output check
fails and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("formula_ladder", "verify_sweep", "cli_cold")
E2E_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
             "op_p50_ms": "ms", "op_tail_ms": "ms"}
# printed and kept in the result file, but not gated: the hypervisor's
# steal time moves wall time by up to a third between runs
REPORTED_UNITS = {"wall_s": "s"}
MIN_REPS = 2
# workloads whose every op runs in a fresh interpreter of its own, as a
# user's single deep query would; the others share one per repetition
OP_PER_PROCESS = {"formula_ladder"}
# nominal seconds of one repetition on the 2-core box the benchmark was
# built on: a run makes round(seconds / nominal) repetitions, at least
# MIN_REPS, so that every run of a workload pools the same number of ops
NOMINAL_REP_S = {"formula_ladder": 10.0, "verify_sweep": 5.0, "cli_cold": 10.0}
SETUP_PROBES = 5
DEADLINE_S = 170.0
# self-time shares that must dominate each workload for its design to hold
DESIGN = {
    "formula_ladder": ("weyl_orbits.self_frac", "partitions.self_frac"),
    "verify_sweep": ("tableaux.self_frac",),
    "cli_cold": ("cli.startup_frac",),
}


class WorkerFailed(Exception):
    pass


def run_worker(args: list, started: float, env: dict) -> dict:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise WorkerFailed("no time left for another repetition")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(args)} timed out after {left:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def head_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    sources = sorted((ROOT / "src").rglob("*.py"))
    return {
        "commit": head_commit(),
        "src_digest": harness.digest([[str(p.relative_to(ROOT)), p.read_text()] for p in sources]),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def merge_ops(parts: list) -> dict:
    """One repetition from the reports of its one-op processes."""
    rep = {key: [v for part in parts for v in part[key]]
           for key in ("op_s", "op_raw_s", "op_wall_s", "op_wall_raw_s", "errors")}
    for key in ("wall_s", "wall_raw_s", "cpu_s", "cpu_raw_s", "attempted", "failed"):
        rep[key] = sum(part[key] for part in parts)
    rep["peak_rss_mib"] = max(part["peak_rss_mib"] for part in parts)
    rep["instance_digest"] = parts[0]["instance_digest"]
    rep["result_digest"] = harness.digest([part["result_digest"] for part in parts])
    rep["processes"] = len(parts)
    return rep


def measure(args, env, started) -> tuple:
    """End-to-end run: fresh-import probes, then a fixed number of
    repetitions.  Returns (metrics, record, attempted, failed)."""
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    run_worker(base + ["--probe"], started, env)  # compiles the bytecode once
    count = max(MIN_REPS, round(args.seconds / NOMINAL_REP_S[args.workload]))
    if args.workload in OP_PER_PROCESS:
        ops = len(workloads.instances(args.workload, args.seed))
        per_op = [[run_worker(base + ["--op", str(i)], started, env) for i in range(ops)]
                  for _ in range(count)]
        reps = [merge_ops(parts) for parts in per_op]
        setups = [part for parts in per_op for part in parts]
    else:
        probes = [run_worker(base + ["--probe"], started, env) for _ in range(SETUP_PROBES)]
        reps = [run_worker(base, started, env) for _ in range(count)]
        setups = probes + reps
    tail = harness.op_tail([rep["op_s"] for rep in reps])

    def summary(suffix):
        # each op's time is the median of its repetitions
        per_op = [harness.median(ts) for ts in zip(*(rep[f"op{suffix}_s"] for rep in reps))]
        return {
            "setup_s": harness.median([r[f"setup{suffix}_s"] for r in setups]),
            "cpu_s": harness.median([rep[f"cpu{suffix}_s"] for rep in reps]),
            "peak_rss_mib": harness.median([rep["peak_rss_mib"] for rep in reps]),
            "op_p50_ms": harness.median(per_op) * 1000,
            "op_tail_ms": harness.op_tail([rep[f"op{suffix}_s"] for rep in reps])["value"] * 1000,
            "wall_s": harness.median([rep[f"wall{suffix}_s"] for rep in reps]),
        }

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    errors = [e for rep in reps for e in rep["errors"]]
    for key in ("instance_digest", "result_digest"):
        if len({rep[key] for rep in reps}) != 1:
            failed = max(failed, 1)
            errors.append(f"{key} differs between repetitions")
    record = {"setup_samples": [s["setup_s"] for s in setups], "reps": reps, "tail": tail,
              "raw": summary("_raw"),
              "failed_frac": failed / attempted, "errors": errors}
    return summary(""), record, attempted, failed


def traced(args, env, started) -> tuple:
    """Traced run: the per-layer metrics, and the tracing overhead as the
    traced minus the untraced wall time of the same instances."""
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    untraced = None if args.workload == "cli_cold" else run_worker(base, started, env)
    rep = run_worker(base + ["--trace", "1", "--spans", str(spans_path)], started, env)
    metrics = dict(rep["layers"])
    metrics["trace.overhead_s"] = (rep["overhead_s"] if untraced is None
                                   else rep["wall_s"] - untraced["wall_s"])
    failed = rep["failed"]
    errors = list(rep["errors"])
    if untraced is not None and untraced["result_digest"] != rep["result_digest"]:
        failed = max(failed, 1)
        errors.append("tracing changed the results")
    design = {name: metrics[name] for name in DESIGN[args.workload]}
    record = {"reps": [r for r in (untraced, rep) if r],
              "spans_file": str(spans_path.relative_to(ROOT)),
              "design": design, "design_holds": sum(design.values()) > 0.5,
              "failed_frac": failed / rep["attempted"], "errors": errors}
    return metrics, record, rep["attempted"], failed


def print_table(args, metrics, record, attempted, failed):
    print(f"affmult benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        for name, (unit, _better, moves) in tracing.LAYER_METRICS.items():
            print(f"  {name:36s} {metrics[name]:>14.6g} {unit:6s} moves {moves}")
        shares = " + ".join(f"{k}={v:.3f}" for k, v in record["design"].items())
        print(f"  design check: {shares} {'> 0.5, holds' if record['design_holds'] else '<= 0.5, NOT MET'}")
    else:
        tail = record["tail"]
        reps = len(record["reps"])
        notes = {
            "setup_s": f"CPU time, median of {len(record['setup_samples'])} fresh imports",
            "cpu_s": f"process and children, median of {reps} repetitions",
            "op_p50_ms": f"CPU time; median over {len(record['reps'][0]['op_s'])} ops of their "
                         f"{reps} repetitions' median",
            "op_tail_ms": (f"CPU time; p{tail['percentile']}, {tail['beyond']} of {tail['samples']} "
                           "samples beyond"
                           + ("; fewer than 11 samples, so the slowest op's median" if tail["percentile"] == 100 else "")),
            "wall_s": f"median of {reps} repetitions; reported, not gated",
        }
        print(f"  {'':14s} {'reference':>12s} {'':4s} {'raw':>10s}")
        for name, unit in {**E2E_UNITS, **REPORTED_UNITS}.items():
            print(f"  {name:14s} {metrics[name]:>12.6g} {unit:4s} {record['raw'][name]:>10.6g}  "
                  f"{notes.get(name, '')}")
        print(f"  {'failed_frac':14s} {record['failed_frac']:>12.6g} {'1':4s} {failed} of {attempted} outputs")
    for error in record["errors"][:5]:
        print(f"  FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="affmult benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "affmult" / "__init__.py").is_file():
        print(f"affmult sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = dict(os.environ, AFFMULT_THREADS=str(workloads.VERIFY_THREADS))
    RESULTS.mkdir(exist_ok=True)
    load_before = os.getloadavg()[0]
    try:
        metrics, record, attempted, failed = (traced if args.trace else measure)(args, env, started)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()} if args.trace else E2E_UNITS
    correct = failed == 0
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "load_1m_before": load_before,
        "load_1m_after": os.getloadavg()[0], "wall_clock_s": time.perf_counter() - started,
        "metrics": metrics, "correct": correct, "attempted": attempted, "failed": failed,
    })
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print_table(args, metrics, record, attempted, failed)
    print(f"  result file: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
