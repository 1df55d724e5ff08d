"""Span tracer for the traced benchmark run.

The tracer replaces module attributes that qregion looks up at call time
(``region.corner_point``, ``qstate.entropy_of_op``, ``cli.parse_state_spec``
...) with wrappers that time each call.  Nothing in ``src/`` is changed; the
wrappers are installed for the traced phase only and removed afterwards.

Every wrapped call inside a job is a span: name, start, end, parent span and
job id.  Per layer the tracer keeps the call count, busy time (sum of span
durations) and self time (busy time minus the time covered by child spans).
A function that recurses into itself (``cli._emit``) gets one span per
outermost call.  Spans of frequently called leaf layers are kept in memory
only up to a cap, so one traced run cannot grow without bound; their counts
and times are always aggregated in full.
"""
from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from time import perf_counter

import numpy

#: spans of ``hot`` layers kept in memory per run; all other spans are kept
HOT_SPAN_CAP = 20_000


class Tracer:
    def __init__(self):
        self.job = None              # id of the job in progress, else None
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans: list[tuple] = []
        self.hot_dropped = 0
        self._hot_kept = 0
        self.missing: list[str] = []  # layers whose attribute was not found
        self._stack: list[list] = []  # open spans: [child_time, span_id]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, make_wrapper, name):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, hot=False, on_result=None):
        """Wrap ``owner.attr`` so that each call inside a job is a span."""
        def make(original):
            def wrapper(*args, **kwargs):
                if self.job is None or self._depth[name]:
                    return original(*args, **kwargs)
                result = self._timed(name, hot, original, args, kwargs)
                if on_result is not None:
                    on_result(self, args, result)
                return result
            return wrapper
        self._replace(owner, attr, make, name)

    def count_eigensolves(self, owner, attr):
        """Add n**3 per matrix passed to ``owner.attr`` (an eigensolver)
        to ``qstate.eig_n3_sum``; no span, so its time stays in the
        caller's self time."""
        def make(original):
            def wrapper(a, *args, **kwargs):
                if self.job is not None:
                    *batch, _, n = numpy.shape(a)
                    work = math.prod(batch) * n ** 3
                    self.counters["qstate.eig_n3_sum"] += work
                return original(a, *args, **kwargs)
            return wrapper
        self._replace(owner, attr, make, f"{attr} counter")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- recording ----------------------------------------------------------

    def _timed(self, name, hot, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else None
        frame = [0.0, span_id]
        self._stack.append(frame)
        self._depth[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._depth[name] -= 1
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][0] += duration
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - frame[0]
            if hot and self._hot_kept >= HOT_SPAN_CAP:
                self.hot_dropped += 1
            else:
                self._hot_kept += hot
                self.spans.append((span_id, parent, name, start, end,
                                   self.job))

    def run_job(self, job_id, fn):
        """Run one job as the root span ``bench.job``."""
        self.job = job_id
        try:
            return self._timed("bench.job", False, fn, (), {})
        finally:
            self.job = None

    def count(self, name, amount):
        if self.job is not None:
            self.counters[name] += amount

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
        }

    def write(self, path, header: dict, summary: dict):
        """Write the header, every kept span and the summary as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header,
                                 "hot_spans_dropped": self.hot_dropped,
                                 "missing_layers": self.missing}) + "\n")
            for span_id, parent, name, start, end, job in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end, "job": job}) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


def delta(after: dict, before: dict) -> dict:
    """Per-key difference of two snapshots (one traced cycle)."""
    return {kind: {k: v - before[kind].get(k, 0) for k, v in values.items()}
            for kind, values in after.items()}


# ---------------------------------------------------------------------------
# hooks that derive counts from a layer's arguments and result

def _corner_set_counts(tracer, args, result):
    tracer.count("region.corner_set.kept", len(result.vertices))
    tracer.count("region.corner_set.visited", math.factorial(args[0].m))


def _enumerate_counts(tracer, args, result):
    m = args[0].m
    tracer.count("region.enumerate_vertices.kept", len(result.vertices))
    tracer.count("region.enumerate_vertices.visited",
                 math.comb(2 ** m - 1, m))


def _esq_counts(tracer, args, result):
    if result.baseline > 0:
        tracer.count("esq.bound_over_baseline.sum",
                     result.value / result.baseline)
        tracer.count("esq.bound_over_baseline.n", 1)


def _curve_counts(tracer, args, result):
    tracer.count("sim.trial_points", sum(p.trials for p in result.points))


def install(tracer: Tracer):
    """Wrap every traced layer of the imported qregion package; returns
    the layer names."""
    tracer.missing.clear()
    from qregion import cli, esq, hrep, qstate, region, sim

    layers = [
        (cli, "run_command", "cli.run_command", False, None),
        (cli, "_load_state", "cli._load_state", False, None),
        (cli, "parse_state_spec", "statespec.parse_state_spec", False, None),
        (cli, "_emit", "cli._emit", False, None),
        (qstate, "build_state", "qstate.build_state", False, None),
        (qstate, "entropy_of_op", "qstate.entropy_of_op", True, None),
        (qstate, "partial_trace_op", "qstate.partial_trace_op", True, None),
        (qstate, "vector_marginal", "qstate.vector_marginal", True, None),
        (qstate, "purification_vector", "qstate.purification_vector",
         False, None),
        (qstate, "fidelity_ops", "qstate.fidelity_ops", True, None),
        (qstate, "trace_norm", "qstate.trace_norm", True, None),
        (region, "region_constants", "region.region_constants", False, None),
        (region, "corner_set", "region.corner_set", False,
         _corner_set_counts),
        (region, "corner_point", "region.corner_point", True, None),
        (region, "membership", "region.membership", True, None),
        (region, "check_supermodular", "region.check_supermodular",
         False, None),
        (region, "greedy_minimize", "region.greedy_minimize", False, None),
        (region, "enumerate_vertices", "region.enumerate_vertices", False,
         _enumerate_counts),
        (region, "reconstruct_chain", "region.reconstruct_chain", True, None),
        (hrep, "export_h_representation", "hrep.export_h_representation",
         False, None),
        (esq, "esq_upper_bound", "esq.esq_upper_bound", False, _esq_counts),
        (esq, "_cond_info_extended", "esq.objective", True, None),
        (esq, "_polar_isometry", "esq._polar_isometry", True, None),
        (sim, "decoupling_curve", "sim.decoupling_curve", False,
         _curve_counts),
        (sim, "haar_unitary", "sim.haar_unitary", True, None),
        (sim, "typical_projection", "sim.typical_projection", False, None),
    ]
    for owner, attr, name, hot, hook in layers:
        tracer.span(owner, attr, name, hot=hot, on_result=hook)
    tracer.count_eigensolves(numpy.linalg, "eigvalsh")
    tracer.count_eigensolves(numpy.linalg, "eigh")
    return [name for _, _, name, _, _ in layers]


# ---------------------------------------------------------------------------
# per-layer metrics

#: layers reported as ``calls`` / ``busy_s`` / ``self_s`` per traced cycle
CALLS = (
    "region.corner_set", "region.corner_point", "region.membership",
    "qstate.entropy_of_op", "qstate.partial_trace_op",
    "region.region_constants", "esq.esq_upper_bound", "esq.objective",
    "esq._polar_isometry", "qstate.vector_marginal", "sim.decoupling_curve",
    "sim.haar_unitary", "qstate.fidelity_ops", "qstate.trace_norm",
    "region.enumerate_vertices", "region.reconstruct_chain",
    "statespec.parse_state_spec", "cli.run_command",
)
BUSY = CALLS + (
    "region.check_supermodular", "region.greedy_minimize",
    "hrep.export_h_representation", "cli._emit", "qstate.build_state",
    "qstate.purification_vector", "sim.typical_projection",
    "cli._load_state",
)
SELF = (
    "region.corner_set", "region.region_constants", "esq.esq_upper_bound",
    "sim.decoupling_curve", "region.enumerate_vertices",
)
#: counts the self-test requires to repeat exactly from cycle to cycle
REPEATED = (("calls", "region.corner_point"), ("calls", "esq.objective"),
            ("calls", "sim.haar_unitary"), ("counters", "qstate.eig_n3_sum"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(cycles: list[dict]) -> dict:
    """Per-layer metrics as means over the traced cycles.

    Each entry of ``cycles`` is one cycle's snapshot delta.  Counts are per
    cycle (a cycle is one pass over the workload's job list), so they do not
    depend on how many cycles fit in the run.
    """
    n = len(cycles)

    def mean(kind, key):
        return sum(c[kind].get(key, 0) for c in cycles) / n

    out = {}
    for layer in CALLS:
        out[f"{layer}.calls"] = (mean("calls", layer), "count/cycle")
    for layer in BUSY:
        out[f"{layer}.busy_s"] = (mean("busy", layer), "s/cycle")
    for layer in SELF:
        out[f"{layer}.self_s"] = (mean("self", layer), "s/cycle")
    for layer in ("region.corner_set", "region.enumerate_vertices"):
        out[f"{layer}.kept_ratio"] = (
            _ratio(mean("counters", f"{layer}.kept"),
                   mean("counters", f"{layer}.visited")), "ratio")
    out["esq.objective.us_per_call"] = (
        1e6 * _ratio(mean("busy", "esq.objective"),
                     mean("calls", "esq.objective")), "us")
    out["esq.bound_over_baseline"] = (
        _ratio(mean("counters", "esq.bound_over_baseline.sum"),
               mean("counters", "esq.bound_over_baseline.n")), "ratio")
    trial_points = mean("counters", "sim.trial_points")
    out["sim.trial_points"] = (trial_points, "count/cycle")
    out["sim.us_per_trial_point"] = (
        1e6 * _ratio(mean("busy", "sim.decoupling_curve"), trial_points),
        "us")
    out["qstate.eig_n3_sum"] = (mean("counters", "qstate.eig_n3_sum"),
                                "count/cycle")
    out["cli.report_bytes"] = (mean("counters", "cli.report_bytes"),
                               "B/cycle")
    return out


def self_test(cycles: list[dict], layers: list[str], exercised: set,
              missing: list[str]) -> list[str]:
    """Check the interaction table and the repeatability of counts.

    A layer in ``exercised`` must be called in every traced cycle; every
    other traced layer must not be called at all.  The counts in
    ``REPEATED`` must be identical in every traced cycle (same inputs,
    same work).  Returns one message per failure.
    """
    problems = [f"layer {name} not found in the package" for name in missing]
    for layer in layers:
        if layer in missing:
            continue
        per_cycle = [c["calls"].get(layer, 0) for c in cycles]
        if layer in exercised and min(per_cycle) == 0:
            problems.append(f"{layer}: predicted exercised, calls {per_cycle}")
        if layer not in exercised and max(per_cycle) != 0:
            problems.append(f"{layer}: predicted idle, calls {per_cycle}")
    for kind, key in REPEATED:
        values = [c[kind].get(key, 0) for c in cycles]
        if len(set(values)) > 1:
            problems.append(f"{key} {kind} differ between cycles: {values}")
    return problems
