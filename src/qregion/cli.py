"""Command-line front end.

Subcommands: region | corners | greedy | esq | classify | simulate.
Each takes --state (a state-spec file), --out (the report or CSV path)
and --seed; randomized outputs are reproducible from the seed.  Exit
codes: 0 success, 2 validation error (diagnostic on stderr), 3 internal
invariant violation.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, esq, hrep, qstate, region, sim
from .esq import EsqBudget, EsqError
from .qstate import StateError
from .region import InternalCheckError, RegionError
from .sim import SimError
from .statespec import SpecError, parse_state_spec


def subset_name(subset) -> str:
    return "+".join(sorted(subset))


def _emit(value, indent: int = 0) -> str:
    """Deterministic JSON with floats at 12 significant digits and the
    insertion order of mappings preserved."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_emit(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_emit(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return "null"
    return json.dumps(str(value))


def _load_state(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise SpecError("state", f"cannot read {path}: {err}")
    spec = parse_state_spec(text)
    state = qstate.build_state(spec)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return spec, state, digest


def _report_header(command: str, spec, digest: str, seed: int) -> dict:
    return {
        "tool": "qregion",
        "version": __version__,
        "command": command,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "spec_sha256": digest,
        "seed": seed,
        "state": {
            "family": spec.family,
            "labels": list(spec.labels),
            "dims": list(spec.dims),
            "reference": spec.reference,
        },
    }


def _region_data(state, spec) -> tuple:
    rc = region.region_constants(state, spec.reference)
    vr = region.corner_set(rc)
    # a vertex is outside when some subset sum falls below its bound
    outside = (vr.arrays() @ rc.incidence.T
               < rc.bounds - region.FEAS_TOL).any(axis=1)
    if outside.any():
        bad = vr.vertices[int(np.argmax(outside))]
        raise InternalCheckError(f"vertex {bad.rates} fails membership")
    return rc, vr


def _vertices_field(vr) -> list:
    out = []
    for v in vr.vertices:
        out.append({
            "rates": {lab: r for lab, r in zip(v.senders, v.rates)},
            "witness": list(v.witness) if v.witness else None,
        })
    return out


def _constants_field(constants) -> dict:
    """Subset-keyed constants (canonical row order) keyed by name."""
    return {subset_name(s): v for s, v in constants.items()}


def _write(path: str, text: str):
    Path(path).write_text(text, encoding="utf-8")


def _cmd_region(args) -> int:
    spec, state, digest = _load_state(args.state)
    rc, vr = _region_data(state, spec)
    violations = region.check_supermodular(rc)
    report = _report_header("region", spec, digest, args.seed)
    report.update({
        "senders": list(rc.senders),
        "reference": rc.reference,
        "constants": _constants_field(rc.c),
        "vertices": _vertices_field(vr),
        "supermodular": "pass" if not violations else [
            {"K": subset_name(k), "L": subset_name(l), "deficit": d}
            for k, l, d in violations],
        "h_representation": hrep.export_h_representation(rc),
    })
    _write(args.out, _emit(report) + "\n")
    return 0


def _cmd_corners(args) -> int:
    spec, state, digest = _load_state(args.state)
    rc, vr = _region_data(state, spec)
    report = _report_header("corners", spec, digest, args.seed)
    report.update({
        "senders": list(rc.senders),
        "vertices": _vertices_field(vr),
    })
    _write(args.out, _emit(report) + "\n")
    return 0


def _cmd_greedy(args) -> int:
    spec, state, digest = _load_state(args.state)
    rc = region.region_constants(state, spec.reference)
    costs = [float(x) for x in args.costs.split(",")]
    point, value = region.greedy_minimize(rc, costs)
    report = _report_header("greedy", spec, digest, args.seed)
    report.update({
        "senders": list(rc.senders),
        "costs": costs,
        "point": {lab: r for lab, r in zip(point.senders, point.rates)},
        "witness": list(point.witness),
        "objective": value,
    })
    _write(args.out, _emit(report) + "\n")
    return 0


def _esq_sweep(dim: int, d_e_max: int) -> tuple[int, ...]:
    # the largest d with dim * d**2 <= ESQ_DIM_CAP bounds the sweep
    values = tuple(range(1, min(d_e_max,
                                math.isqrt(esq.ESQ_DIM_CAP // dim)) + 1))
    if not values:
        raise EsqError(f"state dimension {dim} leaves no room for any "
                       f"extension within the cap {esq.ESQ_DIM_CAP}")
    return values


def _esq_fields(state, rc, args) -> tuple[dict, dict]:
    """Report fields shared by esq and classify, and the outer bound."""
    estimates, raw = {}, {}
    # built before any search so a bad budget fails on every state
    base = EsqBudget(restarts=args.restarts, iterations=args.iterations,
                     seed=args.seed)
    for subset in rc.subsets:
        if len(subset) < 2:
            continue
        marginal = qstate.reduced_state(state, subset)
        budget = dataclasses.replace(
            base, d_e_values=_esq_sweep(marginal.dim, args.d_e_max))
        est = esq.esq_upper_bound(marginal, [{lab} for lab in sorted(subset)],
                                  budget)
        raw[subset] = est
        estimates[subset_name(subset)] = {
            "value": est.value,
            "baseline": est.baseline,
            "best_kind": est.best_channel.kind,
            "d_e_values": list(budget.d_e_values),
            "restarts": budget.restarts,
            "iterations": budget.iterations,
        }
    outer = esq.outer_bound_constants(rc, raw)
    return {"inner_constants": _constants_field(rc.c),
            "esq_estimates": estimates,
            "outer_constants": _constants_field(outer.c)}, outer


def _cmd_esq(args) -> int:
    spec, state, digest = _load_state(args.state)
    rc = region.region_constants(state, spec.reference)
    fields, _ = _esq_fields(state, rc, args)
    report = _report_header("esq", spec, digest, args.seed)
    report.update({"senders": list(rc.senders), **fields})
    _write(args.out, _emit(report) + "\n")
    return 0


def _cmd_classify(args) -> int:
    spec, state, digest = _load_state(args.state)
    rc = region.region_constants(state, spec.reference)
    rates = tuple(float(x) for x in args.point.split(","))
    if len(rates) != rc.m:
        raise RegionError(f"--point needs {rc.m} comma-separated rates")
    point = region.RatePoint(rc.senders, rates)
    fields, outer = _esq_fields(state, rc, args)
    verdict = esq.classify_rate_point(point, rc, outer)
    inner_check = region.membership(rc, point)
    report = _report_header("classify", spec, digest, args.seed)
    report.update({
        "senders": list(rc.senders),
        "point": {lab: r for lab, r in zip(rc.senders, rates)},
        "verdict": verdict,
        "inner_membership": inner_check.verdict,
        "violated_inner": [subset_name(s) for s in inner_check.violated],
        **fields,
    })
    _write(args.out, _emit(report) + "\n")
    print(verdict)
    return 0


def _cmd_simulate(args) -> int:
    spec, state, digest = _load_state(args.state)
    sender = args.sender
    if sender is None:
        others = [lab for lab in spec.labels if lab != spec.reference]
        sender = others[0]
    grid = [float(x) for x in args.grid.split(",")]
    curve = sim.decoupling_curve(
        state, sender, spec.reference, args.copies, grid,
        args.trials, args.seed, typical_delta=args.delta)
    _write(args.out, curve.to_csv())
    for note in curve.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="qregion",
        description="Rate regions for multiparty quantum distributed "
                    "compression")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--state", required=True,
                       help="path to a state-spec file")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed for randomized work")

    def esq_flags(p):
        p.add_argument("--d-e-max", dest="d_e_max", type=int, default=4)
        p.add_argument("--restarts", type=int, default=8)
        p.add_argument("--iterations", type=int, default=4)

    p = sub.add_parser("region", help="constants, vertices, H-representation")
    common(p)
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("corners", help="corner points only")
    common(p)
    p.set_defaults(fn=_cmd_corners)

    p = sub.add_parser("greedy", help="greedy linear minimization")
    common(p)
    p.add_argument("--costs", required=True,
                   help="comma-separated positive costs, sender order")
    p.set_defaults(fn=_cmd_greedy)

    p = sub.add_parser("esq", help="squashed-entanglement upper bounds "
                                   "and outer constants")
    common(p)
    esq_flags(p)
    p.set_defaults(fn=_cmd_esq)

    p = sub.add_parser("classify", help="achievable | gap | not_achievable")
    common(p)
    esq_flags(p)
    p.add_argument("--point", required=True,
                   help="comma-separated rates, sender order")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("simulate", help="Monte Carlo decoupling curve (CSV)")
    common(p)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--grid", required=True,
                   help="comma-separated qubit rates per copy")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--sender", default=None)
    p.add_argument("--delta", type=float, default=None,
                   help="typical-projection window (off when omitted)")
    p.set_defaults(fn=_cmd_simulate)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except np.linalg.LinAlgError as err:
        # a ValueError subclass, but a numerical failure, not bad input
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except (SpecError, StateError, RegionError, EsqError, SimError,
            ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalCheckError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # unexpected: treat as internal failure
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
