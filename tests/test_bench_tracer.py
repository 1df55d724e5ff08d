"""The benchmark tracer's layer table against the package it wraps: a
deleted or renamed layer fails here, not in a traced benchmark run."""
import importlib.util
from pathlib import Path

import numpy as np

from qregion import qstate

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer_but_the_stale_row():
    tracing = _load_tracer()
    originals = (qstate.entropy_of_op, np.linalg.eigvalsh)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["qstate.partial_trace_op"]
    assert (qstate.entropy_of_op, np.linalg.eigvalsh) == originals
