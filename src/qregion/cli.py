"""Command-line front end.

Subcommands: region | corners | greedy | esq | classify | simulate.
Each takes --state (a state-spec file), --out (the report or CSV path)
and --seed (nonnegative); randomized outputs are reproducible from the
seed.  Exit codes: 0 success, 2 validation error (diagnostic on
stderr), 3 internal invariant violation.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__, esq, hrep, qstate, region, sim
from .esq import EsqBudget
from .region import InternalCheckError, RegionConstants, RegionError
from .statespec import SpecError, parse_state_spec


def subset_name(subset) -> str:
    return "+".join(sorted(subset))


#: formatters of the leaf types; a subclass takes its nearest base's
_LEAVES = {
    str: encode_basestring_ascii,
    float: "{:.12g}".format,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
    np.integer: str,
    np.bool_: {True: "true", False: "false"}.__getitem__,
}


def _leaf(value) -> str:
    """A scalar by the first type of its MRO in ``_LEAVES``, else as
    the quoted ``str(value)`` (so ``np.float64`` and ``np.int64`` are
    numbers and ``np.bool_`` a boolean)."""
    for cls in type(value).__mro__:
        fmt = _LEAVES.get(cls)
        if fmt is not None:
            return fmt(value)
    return encode_basestring_ascii(str(value))


def _emit(value, indent: int = 0) -> str:
    """Deterministic JSON with floats at 12 significant digits and the
    insertion order of mappings preserved.

    A value of an exact leaf type is formatted straight from
    ``_LEAVES``; a scalar of any other type goes through ``_leaf``.
    """
    fmt = _LEAVES.get(type(value))
    if fmt is not None:
        return fmt(value)
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{pad}  {encode_basestring_ascii(str(k))}: "
                 f"{_emit(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_emit(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _leaf(value)


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
        "senders": _senders(spec),
    }


def _senders(spec) -> list[str]:
    senders = [lab for lab in spec.labels if lab != spec.reference]
    if not senders:
        raise RegionError("need at least one sender besides the reference")
    return senders


def _region_data(state, spec) -> tuple:
    rc = region.region_constants(state, spec.reference)
    vr = region.corner_set(rc)
    outside = region.outside(rc, vr.arrays())
    if outside.any():
        bad = vr.vertices[int(np.argmax(outside))]
        raise InternalCheckError(f"vertex {bad.rates} fails membership")
    return rc, vr


def _vertices_field(vr) -> list:
    return [{"rates": dict(zip(v.senders, v.rates)),
             "witness": list(v.witness) if v.witness else None}
            for v in vr.vertices]


def _constants_field(rc: RegionConstants) -> dict:
    """The constants in canonical row order, keyed by subset name."""
    return {subset_name(s): v for s, v in zip(rc.subsets, rc.bounds.tolist())}


def _cmd_region(args, spec, state) -> tuple:
    rc, vr = _region_data(state, spec)
    violations = region.check_supermodular(rc)
    return {
        "reference": rc.reference,
        "constants": _constants_field(rc),
        "vertices": _vertices_field(vr),
        "supermodular": "pass" if not violations else [
            {"K": subset_name(k), "L": subset_name(l), "deficit": d}
            for k, l, d in violations],
        "h_representation": hrep.export_h_representation(rc),
    }, ()


def _cmd_corners(args, spec, state) -> tuple:
    _, vr = _region_data(state, spec)
    return {"vertices": _vertices_field(vr)}, ()


def _cmd_greedy(args, spec, state) -> tuple:
    rc = region.region_constants(state, spec.reference)
    point, value = region.greedy_minimize(rc, args.costs)
    return {
        "costs": args.costs,
        "point": {lab: r for lab, r in zip(point.senders, point.rates)},
        "witness": list(point.witness),
        "objective": value,
    }, ()


def _esq_fields(state, rc, args) -> tuple[dict, RegionConstants]:
    """Report fields shared by esq and classify, and the outer bound."""
    estimates, raw = {}, {}
    if args.d_e_max < 1:
        raise esq.EsqError(f"--d-e-max must be >= 1, got {args.d_e_max}")
    # built before any search so a bad budget fails on every state
    budget = EsqBudget(args.d_e_max, args.restarts, args.iterations,
                       args.seed)
    sweeps = {}
    for s in rc.subsets[rc.m:]:  # the singletons come first
        try:
            sweeps[s] = esq.d_e_sweep(state.dim_of(s), budget.d_e_max)
        except esq.EsqError as err:
            raise esq.EsqError(f"{subset_name(s)}: {err}") from None
    entries = sum(map(len, sweeps.values()))
    passes = entries * budget.restarts * budget.iterations
    if passes > esq.MAX_SEARCH_PASSES:
        raise esq.EsqError(
            f"search work of {passes} descent passes ({entries} d_E values "
            f"over {len(sweeps)} subsets x --restarts {budget.restarts} x "
            f"--iterations {budget.iterations}) exceeds the cap "
            f"{esq.MAX_SEARCH_PASSES}; lower --d-e-max, --restarts or "
            f"--iterations")
    for subset, sweep in sweeps.items():
        # reduced here: with every other label of dimension 1 the search
        # would keep the state's own purifier, which differs in the last bits
        est = esq.esq_upper_bound(qstate.reduced_state(state, subset),
                                  [{lab} for lab in sorted(subset)], budget)
        raw[subset] = est
        estimates[subset_name(subset)] = {
            "value": est.value,
            "lower": est.lower,
            "exact": est.value - est.lower <= region.FEAS_TOL,
            "baseline": est.baseline,
            "best_kind": est.best_channel.kind,
            "d_e_values": list(sweep),
            "restarts": budget.restarts,
            "iterations": budget.iterations,
        }
    outer = esq.outer_bound_constants(rc, raw)
    return {"inner_constants": _constants_field(rc),
            "esq_estimates": estimates,
            "outer_constants": _constants_field(outer)}, outer


def _cmd_esq(args, spec, state) -> tuple:
    rc = region.region_constants(state, spec.reference)
    return _esq_fields(state, rc, args)[0], ()


def _cmd_classify(args, spec, state) -> tuple:
    rc = region.region_constants(state, spec.reference)
    rates = tuple(args.point)
    if len(rates) != rc.m:
        raise RegionError(f"--point needs {rc.m} comma-separated rates")
    point = region.RatePoint(rc.senders, rates)
    fields, outer = _esq_fields(state, rc, args)
    verdict = esq.classify_rate_point(point, rc, outer)
    inner_check = region.membership(rc, point)
    return {
        "point": {lab: r for lab, r in zip(rc.senders, rates)},
        "verdict": verdict,
        "inner_membership": inner_check.verdict,
        "violated_inner": [subset_name(s) for s in inner_check.violated],
        **fields,
    }, [(sys.stdout, verdict)]


def _cmd_simulate(args, spec, state) -> tuple:
    sender = _senders(spec)[0] if args.sender is None else args.sender
    curve = sim.decoupling_curve(
        state, sender, spec.reference, args.copies, args.grid,
        args.trials, args.seed, typical_delta=args.delta)
    return curve.to_csv(), [(sys.stderr, f"note: {note}")
                            for note in curve.notes]


#: (name, fn, help) of each subcommand, in help order.  ``fn(args, spec,
#: state)`` returns the report fields after the header (or the CSV text)
#: and the (stream, line) pairs to print once the output is written.
_COMMANDS = (
    ("region", _cmd_region, "constants, vertices, H-representation"),
    ("corners", _cmd_corners, "corner points only"),
    ("greedy", _cmd_greedy, "greedy linear minimization"),
    ("esq", _cmd_esq, "squashed-entanglement upper bounds and outer "
                      "constants"),
    ("classify", _cmd_classify, "achievable | gap | not_achievable"),
    ("simulate", _cmd_simulate, "Monte Carlo decoupling curve (CSV)"),
)


def nonnegative_int(text: str) -> int:
    """argparse type of --seed: numpy seeds are nonnegative integers."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, "
                                         f"got {text}")
    return int(text)


def number_list(text: str) -> list[float]:
    """argparse type of --costs, --point and --grid: comma-separated
    numbers."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, "
                                         f"got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="qregion",
        description="Rate regions for multiparty quantum distributed "
                    "compression")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, fn, help_text in _COMMANDS:
        p = subs[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--state", required=True,
                       help="path to a state-spec file")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--seed", type=nonnegative_int, default=0,
                       help="master seed for randomized work")
        p.set_defaults(fn=fn)

    subs["greedy"].add_argument(
        "--costs", type=number_list, required=True,
        help="comma-separated positive costs, sender order")
    budget = EsqBudget()
    for p in (subs["esq"], subs["classify"]):
        p.add_argument("--d-e-max", dest="d_e_max", type=int,
                       default=budget.d_e_max)
        p.add_argument("--restarts", type=int, default=budget.restarts)
        p.add_argument("--iterations", type=int, default=budget.iterations)
    subs["classify"].add_argument("--point", type=number_list, required=True,
                                  help="comma-separated rates, sender order")
    p = subs["simulate"]
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--grid", type=number_list, required=True,
                   help="qubit rates per copy, each in [0, log2 of the "
                        "sender dimension]")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--sender", default=None)
    p.add_argument("--delta", type=float, default=None,
                   help="typical-projection window (off when omitted)")
    return parser


#: the ``number_list`` options, whose value may start with a minus sign
_NUMBER_LIST_FLAGS = ("--costs", "--point", "--grid")


def _join_negative_lists(argv) -> list[str]:
    """``argv`` with each ``_NUMBER_LIST_FLAGS`` option joined to a next
    token that starts with a single "-" (``--grid -1,0`` becomes
    ``--grid=-1,0``), which argparse would read as a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _NUMBER_LIST_FLAGS and arg.startswith("-") \
                and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run_command(argv) -> int:
    """The one pipeline: parse ``argv``, load the spec, compute the
    command's output, write it to --out (a report behind its header),
    then print the command's console lines; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_lists(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec, state, digest = _load_state(args.state)
        out, echo = args.fn(args, spec, state)
        if isinstance(out, dict):
            header = _report_header(args.command, spec, digest, args.seed)
            out = _emit({**header, **out}) + "\n"
        Path(args.out).write_text(out, encoding="utf-8")
        for stream, line in echo:
            print(line, file=stream)
        return 0
    except (np.linalg.LinAlgError, InternalCheckError) as err:
        # LinAlgError is a ValueError, but a numerical failure, not bad input
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:  # every qregion input error subclasses it
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # unexpected: treat as internal failure
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
