"""Tracing of the ``affmult`` layers from outside the package.

``Tracer.install`` replaces public functions of the package's modules by
wrappers, in every module namespace that holds them: ``from .x import y``
binds ``y`` again in the importing module, so ``multiplicities.rho_multi``,
``cli.tau_formula`` and ``char_oracle.a_of_eta`` are patched alongside the
defining module.  ``restore`` puts every original back.

Two kinds of wrapper exist.  A *span* wrapper records (id, parent, name,
start, end) for each call; hot leaf functions get a *count* wrapper only,
because timing them would distort the trace.  Spans and counts go to
per-thread stores registered under a lock, so calls from the ``verify``
thread pool are kept apart and nothing is lost; the stores are read when
the run ends.  A span opened on a pool thread with an empty stack is
parented to the innermost open span of the thread that installed the
tracer, which is the span that started the pool.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import namedtuple

from harness import self_times

PACKAGE = "affmult"

Span = namedtuple("Span", "module attr post")
Count = namedtuple("Count", "module attr namespaces inside truthy")


def _add_members(counts, out):
    counts["weyl_orbits.members"] = counts.get("weyl_orbits.members", 0) + len(out)


def _add_family_members(counts, out):
    _add_members(counts, out.members)


def _threshold_max(counts, out):
    thresholds = [thr for _mu, thr, _values in out.sequences]
    if thresholds:
        key = "multiplicities.limit_threshold_max"
        counts[key] = max(counts.get(key, 0), max(thresholds))


def _add_weights(counts, out):
    counts["char_oracle.weights"] = counts.get("char_oracle.weights", 0) + len(out.mults)


def _add_table_entries(counts, out):
    counts["char_oracle.table_entries"] = counts.get("char_oracle.table_entries", 0) + len(out)


def _exit_code(counts, out):
    if out != 0:
        counts["cli.exit_nonzero"] = counts.get("cli.exit_nonzero", 0) + 1


SPANS = (
    Span("weyl_orbits", "enumerate_gamma", _add_members),
    Span("weyl_orbits", "level_two_family", _add_family_members),
    Span("partitions", "rho_multi", None),
    Span("multiplicities", "tau_formula", None),
    Span("multiplicities", "outer_multiplicity_formula", None),
    Span("multiplicities", "outer_multiplicity_limit", _threshold_max),
    Span("char_oracle", "freudenthal_character", _add_weights),
    Span("char_oracle", "tensor_character", None),
    Span("char_oracle", "tensor_outer_multiplicities", _add_table_entries),
    Span("tableaux", "mw_shapes_with_character", None),
    Span("tableaux", "tau_bruteforce", None),
    Span("laurent", "LaurentPoly.__mul__", None),
    Span("cli", "main", _exit_code),
    Span("cli", "_verify_instance", None),
)

COUNTS = (
    # candidates of the orbit-set enumerators: one per f-ball point
    Count("weyl_orbits", "socle_formula", None, "weyl_orbits.enumerate_gamma", False),
    Count("weyl_orbits", "orbit_division", None, "weyl_orbits.level_two_family", False),
    Count("tableaux", "is_mw", None, None, True),
    Count("affine_cartan", "quadratic_f", None, None, False),
    Count("affine_cartan", "bilinear", None, None, False),
    # only the oracle's own calls, not those of the multiplicity routes
    Count("multiplicities", "a_of_eta", ("char_oracle",), None, False),
)


class Tracer:
    """Patches the package on ``install`` and restores it on ``restore``;
    usable as a context manager."""

    def __init__(self, package: str = PACKAGE):
        self.package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stores = []  # per thread: (stack, spans, counts)
        self._ids = itertools.count(1)
        self._main_stack = None
        self._patches = []  # (owner, key, original)

    # ---- per-thread state -------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [], {})
            self._local.state = state
            with self._lock:
                self._stores.append(state)
        return state

    def _adopted_parent(self, stack):
        main = self._main_stack
        if stack is main or not main:
            return None
        try:
            return main[-1][0]
        except IndexError:  # the main thread closed its span meanwhile
            return None

    # ---- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name, fn, post):
        tracer = self

        def wrapper(*args, **kwargs):
            stack, spans, counts = tracer._state()
            parent = stack[-1][0] if stack else tracer._adopted_parent(stack)
            sid = next(tracer._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if post is not None:
                post(counts, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn, inside, truthy):
        tracer = self
        true_name = name + ".true"

        def wrapper(*args, **kwargs):
            stack, _spans, counts = tracer._state()
            if inside is not None and not (stack and stack[-1][1] == inside):
                return fn(*args, **kwargs)
            counts[name] = counts.get(name, 0) + 1
            out = fn(*args, **kwargs)
            if truthy and out:
                counts[true_name] = counts.get(true_name, 0) + 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- patching ---------------------------------------------------------
    def _modules(self):
        prefix = self.package + "."
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))]

    def _replace(self, owners, original, wrapper):
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def install(self, spans=SPANS, counts=COUNTS):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._state()[0]
        modules = self._modules()
        for spec in spans:
            home = sys.modules[f"{self.package}.{spec.module}"]
            name = f"{spec.module}.{spec.attr}"
            if "." in spec.attr:
                cls_name, meth = spec.attr.split(".")
                cls = getattr(home, cls_name)
                original = vars(cls)[meth]
                # aliases such as __rmul__ = __mul__ are patched too
                self._replace([cls], original, self._span_wrapper(name, original, spec.post))
            else:
                original = getattr(home, spec.attr)
                self._replace(modules, original, self._span_wrapper(name, original, spec.post))
        for spec in counts:
            home = sys.modules[f"{self.package}.{spec.module}"]
            original = getattr(home, spec.attr)
            name = f"{spec.module}.{spec.attr}"
            owners = modules if spec.namespaces is None else [
                sys.modules[f"{self.package}.{ns}"] for ns in spec.namespaces]
            self._replace(owners, original,
                          self._count_wrapper(name, original, spec.inside, spec.truthy))
        return self

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        """Installs the default wrappers unless ``install`` already ran."""
        return self if self._patches else self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # ---- results ----------------------------------------------------------
    def spans(self) -> list:
        """All spans as (id, parent, name, start, end, thread index)."""
        with self._lock:
            stores = list(self._stores)
        return [span + (t,) for t, (_stack, spans, _counts) in enumerate(stores)
                for span in spans]

    def counts(self) -> dict:
        with self._lock:
            stores = list(self._stores)
        total = {}
        for _stack, _spans, counts in stores:
            for key, value in counts.items():
                if key.endswith("_max"):
                    total[key] = max(total.get(key, 0), value)
                else:
                    total[key] = total.get(key, 0) + value
        return total


# per-layer metric -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "weyl_orbits.enumerate_s": ("s", "lower", "cpu_s and op_tail_ms on formula_ladder; none on cli_cold"),
    "weyl_orbits.enumerate_calls": ("count", "lower", "cpu_s on formula_ladder"),
    "weyl_orbits.candidates": ("count", "lower", "cpu_s and op_tail_ms on formula_ladder"),
    "weyl_orbits.members": ("count", "higher", "none: fixed by the instances; the base of keep_ratio"),
    "weyl_orbits.keep_ratio": ("ratio", "higher", "cpu_s and op_tail_ms on formula_ladder"),
    "weyl_orbits.self_frac": ("ratio", "lower", "cpu_s on formula_ladder"),
    "partitions.rho_multi_s": ("s", "lower", "cpu_s on formula_ladder; op_p50_ms on cli_cold"),
    "partitions.rho_multi_calls": ("count", "lower", "cpu_s on formula_ladder"),
    "partitions.cache_hits": ("count", "higher", "cpu_s on formula_ladder"),
    "partitions.cache_misses": ("count", "lower", "cpu_s on formula_ladder; op_p50_ms on cli_cold"),
    "partitions.cache_entries": ("count", "lower", "peak_rss_mib on formula_ladder"),
    "partitions.hit_ratio": ("ratio", "higher", "cpu_s on formula_ladder"),
    "partitions.self_frac": ("ratio", "lower", "cpu_s on formula_ladder"),
    "multiplicities.tau_formula_self_s": ("s", "lower", "cpu_s on formula_ladder"),
    "multiplicities.orbit_sum_self_s": ("s", "lower", "cpu_s on formula_ladder"),
    "multiplicities.limit_self_s": ("s", "lower", "cpu_s on formula_ladder"),
    "multiplicities.limit_threshold_max": ("count", "lower", "cpu_s on formula_ladder (k values the limit route must reach)"),
    "char_oracle.freudenthal_s": ("s", "lower", "cpu_s on verify_sweep (its oracle tables)"),
    "char_oracle.freudenthal_calls": ("count", "lower", "cpu_s on verify_sweep (its oracle tables)"),
    "char_oracle.weights": ("count", "lower", "cpu_s on verify_sweep (its oracle tables)"),
    "char_oracle.tensor_s": ("s", "lower", "cpu_s on verify_sweep (its oracle tables)"),
    "char_oracle.peel_self_s": ("s", "lower", "cpu_s on verify_sweep (its oracle tables)"),
    "char_oracle.a_of_eta_calls": ("count", "lower", "cpu_s on verify_sweep (its oracle tables)"),
    "char_oracle.table_entries": ("count", "higher", "none: fixed by the instances; the size of the checked output"),
    "char_oracle.self_frac": ("ratio", "lower", "cpu_s on verify_sweep (its oracle tables)"),
    "tableaux.bruteforce_s": ("s", "lower", "cpu_s on verify_sweep"),
    "tableaux.shapes_examined": ("count", "lower", "cpu_s on verify_sweep"),
    "tableaux.shapes_admitted": ("count", "higher", "none: fixed by the instances; the base of admit_ratio"),
    "tableaux.admit_ratio": ("ratio", "higher", "cpu_s on verify_sweep"),
    "tableaux.self_frac": ("ratio", "lower", "cpu_s on verify_sweep"),
    "affine_cartan.quadratic_f_calls": ("count", "lower", "cpu_s on formula_ladder"),
    "affine_cartan.bilinear_calls": ("count", "lower", "cpu_s on formula_ladder"),
    "laurent.mul_calls": ("count", "lower", "op_p50_ms on cli_cold"),
    "laurent.mul_s": ("s", "lower", "op_p50_ms on cli_cold"),
    "cli.self_s": ("s", "lower", "op_p50_ms on cli_cold"),
    "cli.exit_nonzero": ("count", "lower", "op_p50_ms and failed ops on cli_cold"),
    "cli.pool_busy_frac": ("ratio", "higher", "wall_s (reported) and cpu_s on verify_sweep"),
    "cli.startup_frac": ("ratio", "lower", "op_p50_ms on cli_cold"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced time of the same instances"),
}

SELF_FRAC_LAYERS = ("weyl_orbits", "partitions", "char_oracle", "tableaux")


def layer_metrics(spans, counts: dict, cache: dict, traced_wall_s: float,
                  pool_workers: int) -> dict:
    """Per-layer metrics from a finished trace.

    spans: (id, parent, name, start, end, ...) tuples; counts: Tracer.counts();
    cache: summed hits, misses and entries of the partitions caches."""
    spans = [s[:5] for s in spans]
    selfs = self_times(spans)
    name_of = {sid: name for sid, _p, name, _s, _e in spans}

    def inclusive(*names):
        """Summed duration of spans not nested in a span of the same set."""
        full = set(names)
        return sum(end - start for _sid, parent, name, start, end in spans
                   if name in full and name_of.get(parent) not in full)

    def calls(*names):
        return sum(1 for s in spans if s[2] in names)

    def self_of(*names):
        return sum(selfs[s[0]] for s in spans if s[2] in names)

    def layer_self(layer):
        return sum(selfs[s[0]] for s in spans if s[2].startswith(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    enum = ("weyl_orbits.enumerate_gamma", "weyl_orbits.level_two_family")
    candidates = counts.get("weyl_orbits.socle_formula", 0) + counts.get("weyl_orbits.orbit_division", 0)
    members = counts.get("weyl_orbits.members", 0)
    examined = counts.get("tableaux.is_mw", 0)
    admitted = counts.get("tableaux.is_mw.true", 0)
    hits, misses = cache["hits"], cache["misses"]
    verify_busy = inclusive("cli._verify_instance")
    out = {
        "weyl_orbits.enumerate_s": inclusive(*enum),
        "weyl_orbits.enumerate_calls": calls(*enum),
        "weyl_orbits.candidates": candidates,
        "weyl_orbits.members": members,
        "weyl_orbits.keep_ratio": ratio(members, candidates),
        "partitions.rho_multi_s": inclusive("partitions.rho_multi"),
        "partitions.rho_multi_calls": calls("partitions.rho_multi"),
        "partitions.cache_hits": hits,
        "partitions.cache_misses": misses,
        "partitions.cache_entries": cache["entries"],
        "partitions.hit_ratio": ratio(hits, hits + misses),
        "multiplicities.tau_formula_self_s": self_of("multiplicities.tau_formula"),
        "multiplicities.orbit_sum_self_s": self_of("multiplicities.outer_multiplicity_formula"),
        "multiplicities.limit_self_s": self_of("multiplicities.outer_multiplicity_limit"),
        "multiplicities.limit_threshold_max": counts.get("multiplicities.limit_threshold_max", 0),
        "char_oracle.freudenthal_s": inclusive("char_oracle.freudenthal_character"),
        "char_oracle.freudenthal_calls": calls("char_oracle.freudenthal_character"),
        "char_oracle.weights": counts.get("char_oracle.weights", 0),
        "char_oracle.tensor_s": inclusive("char_oracle.tensor_character"),
        "char_oracle.peel_self_s": self_of("char_oracle.tensor_outer_multiplicities"),
        "char_oracle.a_of_eta_calls": counts.get("multiplicities.a_of_eta", 0),
        "char_oracle.table_entries": counts.get("char_oracle.table_entries", 0),
        "tableaux.bruteforce_s": inclusive("tableaux.mw_shapes_with_character",
                                           "tableaux.tau_bruteforce"),
        "tableaux.shapes_examined": examined,
        "tableaux.shapes_admitted": admitted,
        "tableaux.admit_ratio": ratio(admitted, examined),
        "affine_cartan.quadratic_f_calls": counts.get("affine_cartan.quadratic_f", 0),
        "affine_cartan.bilinear_calls": counts.get("affine_cartan.bilinear", 0),
        "laurent.mul_calls": calls("laurent.LaurentPoly.__mul__"),
        "laurent.mul_s": inclusive("laurent.LaurentPoly.__mul__"),
        "cli.self_s": self_of("cli.main", "cli._verify_instance"),
        "cli.exit_nonzero": counts.get("cli.exit_nonzero", 0),
        "cli.pool_busy_frac": ratio(verify_busy, inclusive("cli.main") * pool_workers)
        if verify_busy else 0.0,
    }
    # share of the worker time available: wall time times pool workers
    for layer in SELF_FRAC_LAYERS:
        out[f"{layer}.self_frac"] = ratio(layer_self(layer), traced_wall_s * pool_workers)
    return out
