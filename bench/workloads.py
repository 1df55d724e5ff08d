"""Workload inputs, jobs and output checks for the qregion benchmark.

Each workload turns a seed into inputs (state-spec files, seeded states,
precomputed region constants) and a fixed list of jobs.  A job is one call
into qregion: ``cli.run_command`` in-process for the CLI jobs, the public
library for the duality jobs and the separable-mixture estimate.  Each job
has a check that returns ``None`` when its output is correct, otherwise a
one-line description of what is wrong.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qregion import cli, esq, qstate, region
from qregion.statespec import parse_state_spec

TOL = 1e-9
CSV_HEADER = "Q,trials,mean_dist,stderr_dist,mean_fid"

#: panel for ``esq_bound_mean``: fixed random 2-qubit marginals (state seeds)
PANEL_STATE_SEEDS = (101, 102, 103)
#: m = 4 states in ``inner``'s duality jobs; their enumeration time varies
#: about twofold from state to state, so the cycle averages over several
DUALITY_M4_STATES = 8


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object, str], str | None]  # (result, stdout) -> problem
    output: str | None = None                   # report file a CLI job writes


@dataclass
class Workload:
    jobs: list[Job]
    warmups: list[Job]
    exercised: frozenset   # layers the interaction table predicts are used


# ---------------------------------------------------------------------------
# spec files

def _senders(m):
    return [f"A{i + 1}" for i in range(m)]


def _random_pure(m, d_ref, seed):
    return {"family": "random_pure", "labels": _senders(m) + ["R"],
            "dims": [2] * m + [d_ref], "reference": "R", "seed": seed}


def _ket(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return [[float(a.real), float(a.imag)] for a in v]


def _basis(i):
    """Qubit basis ket |i> as [re, im] amplitude pairs."""
    return [[1.0, 0.0] if k == i else [0.0, 0.0] for k in range(2)]


def _mixture(labels, dims, weights, kets):
    """Separable mixture spec; the last weight absorbs rounding so the
    weights sum to one exactly."""
    weights = [float(w) for w in weights]
    weights[-1] = 1.0 - sum(weights[:-1])
    return {"family": "mixture", "labels": labels, "dims": dims,
            "reference": labels[-1],
            "branches": [{"weight": w, "kets": k}
                         for w, k in zip(weights, kets)]}


def _write_spec(workdir: Path, key: str, spec: dict) -> str:
    path = workdir / f"{key}.spec"
    path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
    return str(path)


def _rates(values):
    return ",".join(format(float(v), ".4g") for v in values)


# ---------------------------------------------------------------------------
# CLI jobs and their checks

def _cli_job(name, argv, check):
    """A job running ``qregion <argv>`` in-process; ``check`` sees the
    report path (``argv`` after ``--out``) and the captured stdout."""
    out = argv[argv.index("--out") + 1]

    def run():
        return cli.run_command(argv)

    def checked(code, stdout):
        if code != 0:
            return f"exit code {code}"
        return check(out, stdout)

    return Job(name, run, checked, out)


def _load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _check_region(path, stdout):
    rep = _load(path)
    m = len(rep["senders"])
    if rep["supermodular"] != "pass":
        return f"supermodularity: {rep['supermodular']}"
    if len(rep["constants"]) != 2 ** m - 1:
        return f"{len(rep['constants'])} constants for m = {m}"
    if not rep["vertices"]:
        return "no vertices"
    return None


def _same_vertices(region_path):
    def check(path, stdout):
        mine = _load(path)["vertices"]
        ref = _load(region_path)["vertices"]
        if mine != ref:
            return (f"corners gave {len(mine)} vertices, region "
                    f"{len(ref)}, or their rates/witnesses differ")
        return None
    return check


def _greedy_is_lp_optimum(region_path):
    """Greedy objective <= c.v for every vertex, with equality at the best."""
    def check(path, stdout):
        rep = _load(path)
        costs = rep["costs"]
        senders = rep["senders"]
        values = [sum(c * v["rates"][s] for c, s in zip(costs, senders))
                  for v in _load(region_path)["vertices"]]
        tol = 1e-6 * max(1.0, abs(rep["objective"]))
        if rep["objective"] > min(values) + tol:
            return (f"greedy objective {rep['objective']} above the best "
                    f"vertex {min(values)}")
        if rep["objective"] < min(values) - tol:
            return (f"greedy objective {rep['objective']} below every "
                    f"vertex ({min(values)})")
        return None
    return check


def _check_estimates(rep):
    for name, est in rep["esq_estimates"].items():
        if not -TOL <= est["value"] <= est["baseline"] + TOL:
            return (f"E_sq({name}) = {est['value']} outside "
                    f"[0, {est['baseline']}]")
    for name, outer in rep["outer_constants"].items():
        if outer > rep["inner_constants"][name] + TOL:
            return (f"outer constant {name} = {outer} above inner "
                    f"{rep['inner_constants'][name]}")
    return None


def _check_esq(path, stdout):
    return _check_estimates(_load(path))


def _check_classify(path, stdout):
    rep = _load(path)
    problem = _check_estimates(rep)
    if problem:
        return problem
    verdict = rep["verdict"]
    if verdict not in ("achievable", "gap", "not_achievable"):
        return f"unknown verdict {verdict!r}"
    if stdout.strip() != verdict:
        return f"printed {stdout.strip()!r}, report says {verdict!r}"
    inner = rep["inner_membership"]
    if verdict == "not_achievable" and inner != "outside":
        return f"not_achievable but inner membership is {inner}"
    if verdict == "achievable" and inner == "outside":
        return "achievable but outside the inner region"
    return None


def _check_curve(grid, trials, bell):
    """CSV shape; full rate decouples; for Bell, Q = 0 does not."""
    def check(path, stdout):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return f"CSV header {lines[:1]}"
        rows = [line.split(",") for line in lines[1:]]
        if [r[0] for r in rows] != grid:
            return f"rows for Q = {[r[0] for r in rows]}, grid {grid}"
        if any(int(r[1]) != trials for r in rows):
            return "trial count differs from the request"
        dist = [float(r[2]) for r in rows]
        if abs(dist[-1]) > TOL:
            return f"mean_dist {dist[-1]} at full rate, expected 0"
        if bell and not dist[0] > dist[-1] + 0.1:
            return f"Bell mean_dist {dist[0]} at Q = 0 not above full rate"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads

def _inner(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    # eight small m = 3 states: their near-equal times hold the median job
    # of the 49, with the duality jobs included
    states = {f"r3s-{i}": _random_pure(3, 2, int(rng.integers(2 ** 31)))
              for i in range(8)}
    states.update({
        "r3l": _random_pure(3, 8, int(rng.integers(2 ** 31))),
        "r4": _random_pure(4, 4, int(rng.integers(2 ** 31))),
        "ghz4": {"family": "ghz", "labels": _senders(4) + ["R"],
                 "dims": [2] * 5, "reference": "R"},
        "w3": {"family": "w", "labels": _senders(3) + ["R"],
               "dims": [2] * 4, "reference": "R"},
        "r6": _random_pure(6, 2, int(rng.integers(2 ** 31))),
        "r5big": _random_pure(5, 32, int(rng.integers(2 ** 31))),
    })
    cli_seed = str(seed)
    jobs = []
    for key, spec in states.items():
        path = _write_spec(workdir, key, spec)
        m = len(spec["labels"]) - 1
        reg = str(workdir / f"{key}-region.json")
        jobs.append(_cli_job(f"region:{key}", [
            "region", "--state", path, "--out", reg, "--seed", cli_seed],
            _check_region))
        costs = _rates(rng.uniform(0.5, 3.0, m))
        if key == "r5big":  # entropy work only, which region covers
            continue
        if key != "r6":  # region already runs the m = 6 corner_set
            jobs.append(_cli_job(f"corners:{key}", [
                "corners", "--state", path, "--out",
                str(workdir / f"{key}-corners.json"), "--seed", cli_seed],
                _same_vertices(reg)))
        jobs.append(_cli_job(f"greedy:{key}", [
            "greedy", "--state", path, "--out",
            str(workdir / f"{key}-greedy.json"), "--seed", cli_seed,
            "--costs", costs], _greedy_is_lp_optimum(reg)))
    warmups = [jobs[0]]
    jobs += _duality_jobs(seed)
    exercised = frozenset({
        "cli.run_command", "cli._load_state", "statespec.parse_state_spec",
        "cli._emit", "qstate.build_state", "qstate.entropy_of_op",
        "qstate.partial_trace_op", "region.region_constants",
        "region.corner_set", "region.corner_point", "region.membership",
        "region.check_supermodular", "region.greedy_minimize",
        "hrep.export_h_representation", "region.enumerate_vertices",
        "region.reconstruct_chain"})
    return Workload(jobs, warmups, exercised)


def _mixture_estimate_job(name, spec, budget_seed):
    """Library job: E_sq of a separable mixture that keeps its provenance,
    so the classical-flag extension is among the candidates."""
    text = json.dumps(spec)

    def run():
        state = qstate.build_state(parse_state_spec(text))
        return esq.esq_upper_bound(state, [{"A1"}, {"A2"}],
                                   esq.EsqBudget(seed=budget_seed))

    def check(est, stdout):
        if not 0.0 <= est.value <= est.baseline + TOL:
            return f"E_sq {est.value} outside [0, {est.baseline}]"
        if est.value > TOL:
            return f"separable mixture bound {est.value}, expected 0"
        return None

    return Job(name, run, check)


def _outer(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    cli_seed = str(seed)
    jobs = []
    for i, command in enumerate(("esq", "esq", "classify", "classify")):
        path = _write_spec(workdir, f"r2-{i}",
                           _random_pure(2, 2, int(rng.integers(2 ** 31))))
        argv = [command, "--state", path, "--out",
                str(workdir / f"r2-{i}-{command}.json"), "--seed", cli_seed]
        if command == "esq":
            jobs.append(_cli_job(f"esq:r2-{i}", argv, _check_esq))
        else:
            point = _rates(rng.uniform(0.05, 0.8, 2))
            jobs.append(_cli_job(f"classify:r2-{i}", argv + ["--point", point],
                                 _check_classify))
    weights = rng.dirichlet([2.0, 2.0, 2.0])
    mix = _mixture(["A1", "A2", "R"], [2, 2, 1], weights,
                   [[_ket(rng, 2), _ket(rng, 2), [[1.0, 0.0]]]
                    for _ in weights])
    jobs.append(_mixture_estimate_job("esq-library:mixture", mix, seed))
    ghz3 = _write_spec(workdir, "ghz3", {
        "family": "ghz", "labels": _senders(3) + ["R"], "dims": [2] * 4,
        "reference": "R"})
    # the 3-sender path with d_E <= 2: the full sweep (3-5 s) would leave
    # too few cycles per run for each job's median to settle
    jobs.append(_cli_job("esq:ghz3", [
        "esq", "--state", ghz3, "--out", str(workdir / "ghz3-esq.json"),
        "--seed", cli_seed, "--d-e-max", "2"], _check_esq))
    warmups = [_cli_job("esq-warmup:r2", [
        "esq", "--state", str(workdir / "r2-0.spec"), "--out",
        str(workdir / "warmup.json"), "--seed", cli_seed, "--d-e-max", "2",
        "--restarts", "1", "--iterations", "1"], _check_esq)]
    decouple, decouple_warmup = _decouple_jobs(seed, workdir)
    jobs += decouple
    warmups.append(decouple_warmup)
    exercised = frozenset({
        "cli.run_command", "cli._load_state", "statespec.parse_state_spec",
        "cli._emit", "qstate.build_state", "qstate.entropy_of_op",
        "qstate.partial_trace_op", "qstate.vector_marginal",
        "qstate.purification_vector", "region.region_constants",
        "region.membership", "esq.esq_upper_bound", "esq.objective",
        "esq._polar_isometry", "qstate.fidelity_ops", "qstate.trace_norm",
        "sim.decoupling_curve", "sim.haar_unitary",
        "sim.typical_projection"})
    return Workload(jobs, warmups, exercised)


def _grid(n):
    return [format(k / n, ".12g") for k in range(n + 1)]


def _decouple_jobs(seed, workdir):
    """CLI ``simulate`` jobs, and their warm-up, for ``outer``."""
    rng = np.random.default_rng([seed, 3])
    w = float(rng.uniform(0.3, 0.7))
    inputs = [
        # key, spec, copies, trials, extra flags, Bell check
        ("bell", {"family": "bell", "labels": ["A", "R"], "dims": [2, 2],
                  "pair": ["A", "R"], "reference": "R"}, 3, 75, [], True),
        ("bell-spectator", {"family": "bell", "labels": ["A1", "A2", "R"],
                            "dims": [2, 2, 2], "pair": ["A1", "R"],
                            "reference": "R"}, 2, 200, [], True),
        ("random", _random_pure(2, 2, int(rng.integers(2 ** 31))),
         3, 75, [], False),
        ("w-typical", {"family": "w", "labels": ["A1", "A2", "R"],
                       "dims": [2, 2, 2], "reference": "R"},
         3, 75, ["--delta", "0.4"], False),
        ("mixed", _mixture(["A", "R"], [2, 2], [w, 1.0 - w],
                           [[_basis(0), _basis(0)], [_basis(1), _basis(1)]]),
         3, 75, [], False),
    ]
    jobs = []
    for key, spec, n, trials, extra, bell in inputs:
        path = _write_spec(workdir, key, spec)
        grid = _grid(n)
        jobs.append(_cli_job(f"simulate:{key}", [
            "simulate", "--state", path, "--out",
            str(workdir / f"{key}.csv"), "--seed", str(seed),
            "--copies", str(n), "--grid", ",".join(grid),
            "--trials", str(trials)] + extra,
            _check_curve(grid, trials, bell)))
    bell_path = str(workdir / "bell.spec")
    warmup = _cli_job("simulate-warmup:bell", [
        "simulate", "--state", bell_path, "--out",
        str(workdir / "warmup.csv"), "--seed", str(seed), "--copies", "2",
        "--grid", ",".join(_grid(2)), "--trials", "5"],
        _check_curve(_grid(2), 5, True))
    return jobs, warmup


def _duality_job(name, rc):
    def run():
        return region.enumerate_vertices(rc), region.corner_set(rc)

    def check(result, stdout):
        enum, corners = result
        if len(enum.vertices) != len(corners.vertices):
            return (f"{len(enum.vertices)} enumerated vertices, "
                    f"{len(corners.vertices)} corners")
        for v in enum.vertices:
            match = [c for c in corners.vertices
                     if np.max(np.abs(v.as_array() - c.as_array()))
                     <= region.DEDUP_TOL]
            if len(match) != 1:
                return f"vertex {v.rates} matches {len(match)} corners"
            if match[0].witness != v.witness:
                return (f"vertex {v.rates}: witness {v.witness}, corner "
                        f"witness {match[0].witness}")
        return None

    return Job(name, run, check)


def _duality_jobs(seed):
    """Library ``enumerate_vertices`` checked against ``corner_set`` for
    ``inner``, on region constants computed here (in set-up)."""
    rng = np.random.default_rng([seed, 4])
    jobs = []
    for i, m in enumerate((3, 3) + (4,) * DUALITY_M4_STATES):
        state = qstate.random_pure_state(
            _senders(m) + ["R"], [2] * m + [2 ** m],
            int(rng.integers(2 ** 31)))
        rc = region.region_constants(state, "R")
        jobs.append(_duality_job(f"duality:m{m}-{i}", rc))
    return jobs


WORKLOADS = {
    "inner": _inner,
    "outer": _outer,
}


def make(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)


def quality_panel(seed: int) -> list:
    """E_sq estimates on the fixed panel at the default budget (the CLI's
    for 2-qubit marginals), with the workload seed as the budget seed."""
    out = []
    for state_seed in PANEL_STATE_SEEDS:
        state = qstate.random_pure_state(("A1", "A2", "R"), (2, 2, 2),
                                         state_seed)
        marginal = qstate.reduced_state(state, {"A1", "A2"})
        out.append(esq.esq_upper_bound(marginal, [{"A1"}, {"A2"}],
                                       esq.EsqBudget(seed=seed)))
    return out
