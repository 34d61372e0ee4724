"""Tests of the benchmark harness itself (not of affmult).

    python3 -m pytest bench/test_harness.py
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---- tail percentile ------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    t = harness.tail(range(1, 101))
    assert t == {"percentile": 90, "value": 90, "beyond": 10, "samples": 100}


def test_tail_is_the_highest_such_percentile():
    t = harness.tail(range(36))
    assert (t["percentile"], t["beyond"], t["samples"]) == (72, 10, 36)
    # one percentile higher would leave only nine samples beyond
    assert 36 - -(-73 * 36 // 100) == 9


def test_tail_with_eleven_samples_and_unsorted_input():
    t = harness.tail([5, 3, 9, 1, 7, 11, 2, 4, 8, 6, 10])
    assert (t["percentile"], t["value"], t["beyond"], t["samples"]) == (9, 1, 10, 11)


def test_tail_with_too_few_samples_is_the_slowest_ops_median():
    assert harness.tail([3.0, 1.0, 2.0]) is None
    reps = [[1.0, 5.0], [1.2, 9.0], [0.9, 4.0]]  # op 2 has one slow repetition
    t = harness.op_tail(reps)
    assert t == {"percentile": 100, "value": 5.0, "beyond": 0, "samples": 6}


def test_op_tail_pools_the_repetitions_when_they_suffice():
    reps = [list(range(10)), list(range(10, 20))]
    assert harness.op_tail(reps) == harness.tail(range(20))


# ---- self time ------------------------------------------------------------

def test_self_time_counts_overlapping_children_once():
    spans = [
        (1, None, "parent", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),   # pool thread 1
        (3, 1, "b", 3.0, 6.0),   # pool thread 2, overlaps a
        (4, 1, "c", 8.0, 9.0),
        (5, 1, "d", 9.5, 12.0),  # runs past the parent's end: clipped
        (6, 2, "grandchild", 1.5, 2.0),
    ]
    selfs = harness.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 1.0 + 0.5))
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)


def test_union_length_of_nested_and_empty_intervals():
    assert harness.union_length([(0, 5), (1, 2), (4, 7), (9, 9)], 0, 10) == 7
    assert harness.union_length([], 0, 10) == 0


@pytest.fixture
def fake_package():
    """A package 'fakepkg' whose module 'mod' is re-exported by 'user',
    like ``from .mod import work``."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        time.sleep(0.05)
        return x

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(user.work, [1, 2]))

    def leaf():
        return True

    mod.work, mod.outer, mod.leaf = work, outer, leaf
    user.work = work
    names = {"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user}
    sys.modules.update(names)
    yield mod, user
    for name in names:
        sys.modules.pop(name, None)


def test_pool_children_are_parented_and_overlap_counted_once(fake_package):
    mod, user = fake_package
    tracer = tracing.Tracer("fakepkg")
    specs = [tracing.Span("mod", "outer", None), tracing.Span("mod", "work", None)]
    with tracer.install(spans=specs, counts=()):
        assert mod.outer() == [1, 2]
    spans = tracer.spans()
    outer = [s for s in spans if s[2] == "mod.outer"]
    work = [s for s in spans if s[2] == "mod.work"]
    assert len(outer) == 1 and len(work) == 2
    assert {s[5] for s in work} != {outer[0][5]}  # ran on pool threads
    assert all(s[1] == outer[0][0] for s in work)  # adopted by the open span
    selfs = harness.self_times(s[:5] for s in spans)
    covered = harness.union_length([(s[3], s[4]) for s in work], outer[0][3], outer[0][4])
    assert sum(s[4] - s[3] for s in work) > covered  # the children overlapped
    assert selfs[outer[0][0]] == pytest.approx(outer[0][4] - outer[0][3] - covered)


def test_tracer_patches_every_namespace_and_restores(fake_package):
    mod, user = fake_package
    original_work, original_leaf = mod.work, mod.leaf
    tracer = tracing.Tracer("fakepkg")
    specs = [tracing.Span("mod", "work", None)]
    counts = [tracing.Count("mod", "leaf", None, None, True)]
    with tracer.install(spans=specs, counts=counts):
        assert mod.work is user.work is not original_work
        assert mod.work.__wrapped__ is original_work
        user.work(3)
        mod.leaf()
        mod.leaf()
    assert mod.work is original_work and user.work is original_work
    assert mod.leaf is original_leaf
    assert tracer.counts() == {"mod.leaf": 2, "mod.leaf.true": 2}
    assert [s[2] for s in tracer.spans()] == ["mod.work"]


def test_count_from_many_threads_loses_nothing(fake_package):
    mod, _user = fake_package
    tracer = tracing.Tracer("fakepkg")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.install(spans=(), counts=[tracing.Count("mod", "leaf", None, None, False)]):
            threads = [threading.Thread(target=lambda: [mod.leaf() for _ in range(2000)])
                       for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert tracer.counts()["mod.leaf"] == 12000


def test_affmult_reexports_are_patched_and_restored():
    sys.path.insert(0, str(ROOT / "src"))
    import affmult.char_oracle as co
    import affmult.cli as cli
    import affmult.multiplicities as mp
    import affmult.partitions as pt
    before = (pt.rho_multi, mp.rho_multi, cli.tau_formula, co.a_of_eta, mp.a_of_eta)
    with tracing.Tracer() as tracer:
        assert mp.rho_multi is pt.rho_multi is not before[0]
        assert cli.tau_formula.__wrapped__ is before[2]
        assert co.a_of_eta.__wrapped__ is before[3]
        assert mp.a_of_eta is before[4]  # only the oracle's calls are counted
        assert mp.outer_multiplicity_formula(2, 1, mp.xi_from_eta(2, 1, (4, 4, 3))) > 0
    assert (pt.rho_multi, mp.rho_multi, cli.tau_formula, co.a_of_eta, mp.a_of_eta) == before
    assert any(s[2] == "partitions.rho_multi" for s in tracer.spans())


# ---- seeded inputs --------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_instances(workload):
    a = workloads.instances(workload, 7)
    b = workloads.instances(workload, 7)
    assert a == b and harness.digest(a) == harness.digest(b) and a


@pytest.mark.parametrize("workload", ["formula_ladder", "cli_cold"])
def test_other_seed_other_instances(workload):
    assert workloads.instances(workload, 1) != workloads.instances(workload, 2)


def test_cli_cold_has_a_fixed_count_per_subcommand():
    queries = workloads.cli_cold(3)
    for command in workloads.CLI_COMMANDS:
        assert sum(1 for q in queries if q[0] == command) == workloads.CLI_PER_COMMAND


def test_verify_instance_count_matches_the_command():
    # instance counts reported by `affmult verify --n 1..3`
    assert workloads.verify_instance_count(11) == 222
    assert workloads.verify_instance_count(8, depth=0) == 160
    assert workloads.verify_instance_count(12, depth=0) == 236


def test_eta_vector_agrees_with_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    from affmult.affine_cartan import affine_Lambda
    from affmult.multiplicities import eta_from_xi
    for n in range(1, 5):
        for i, j in workloads.charge_pairs(n):
            k = (i - j) % (n + 1)
            for eta0 in range(6):
                xi = (affine_Lambda(n, j) + affine_Lambda(n, k)).shift_delta(-eta0)
                try:
                    want = eta_from_xi(n, i, xi)
                except ValueError:
                    want = None
                assert workloads.eta_vector(n, i, j, k, eta0) == want


# ---- BENCHMARK.json -------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _moves) in tracing.LAYER_METRICS.items()}
