"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run with ``pytest -s`` to see them inline)."""
import itertools
import json
import math
import re
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

import qregion as qr
from qregion import esq as E
from qregion.cli import run_command
from qregion.esq import EsqBudget
from qregion.hrep import export_h_representation, parse_h_representation
from qregion.region import (RatePoint, RegionConstants, SaturatedSystem,
                            nonempty_subsets)

from helpers import (_row_rank, bell_between_senders, bell_state, ghz_state,
                     product_state, random_mixture_state,
                     random_sender_state)


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        status = "PASS" if ok and dt < limit_s else "FAIL"
        print(f"criterion {num:2d} [{status}] {name} "
              f"({dt:.2f}s, limit {limit_s:g}s)")
        if ok:
            assert dt < limit_s, (f"criterion {num} exceeded its "
                                  f"{limit_s:g}s budget: {dt:.2f}s")


# shared state caches so criterion 5 sees exactly the regions of 1-4

@lru_cache(maxsize=None)
def _m2_states():
    return tuple(random_sender_state(2, 7000 + i, d_ref=4)
                 for i in range(50))


@lru_cache(maxsize=None)
def _m3_duality_rcs():
    return tuple(qr.region_constants(random_sender_state(3, 100 + i), "R")
                 for i in range(100))


@lru_cache(maxsize=None)
def _m4_duality_rcs():
    return tuple(qr.region_constants(random_sender_state(4, 1000 + i), "R")
                 for i in range(20))


@lru_cache(maxsize=None)
def _m5_duality_rcs():
    return tuple(qr.region_constants(
        random_sender_state(5, 1500 + i, d_ref=4), "R") for i in range(3))


@lru_cache(maxsize=None)
def _m3_greedy_rcs():
    return tuple(qr.region_constants(
        random_sender_state(3, 500 + i, d_ref=8), "R") for i in range(200))


def _sets_match(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    if len(a) != len(b):
        return False
    return (all(np.abs(b - row).max(axis=1).min() <= tol for row in a)
            and all(np.abs(a - row).max(axis=1).min() <= tol for row in b))


def test_criterion_01_ghz_region_numbers():
    with criterion(1, "GHZ region numbers", 1.0):
        rc = qr.region_constants(ghz_state(), "R")
        assert abs(rc.value({"A1"}) - 0.5) <= 1e-8
        assert abs(rc.value({"A2"}) - 0.5) <= 1e-8
        assert abs(rc.value({"A1", "A2"}) - 1.5) <= 1e-8
        got = qr.corner_set(rc).arrays()
        want = np.array([(1.0, 0.5), (0.5, 1.0)])
        assert _sets_match(got, want, 1e-8)


def test_criterion_02_two_sender_reduction():
    with criterion(2, "m = 2 facet reduction", 5.0):
        for state in _m2_states():
            rc = qr.region_constants(state, "R")
            i1 = 0.5 * qr.multiparty_info(state, [{"A1"}, {"R"}])
            i2 = 0.5 * qr.multiparty_info(state, [{"A2"}, {"R"}])
            s12 = 0.5 * (qr.entropy(state, {"A1"})
                         + qr.entropy(state, {"A2"})
                         + qr.entropy(state, {"A1", "A2"}))
            assert abs(rc.value({"A1"}) - i1) <= 1e-8
            assert abs(rc.value({"A2"}) - i2) <= 1e-8
            assert abs(rc.value({"A1", "A2"}) - s12) <= 1e-8


def _check_duality(rc):
    enum = qr.enumerate_vertices(rc)
    corners = qr.corner_set(rc)
    assert _sets_match(enum.arrays(), corners.arrays(), 1e-7)
    # every vertex yields a saturated system that reconstructs a chain
    for vertex in enum.vertices:
        tight = qr.membership(rc, vertex, tol=1e-7).tight
        found = False
        for combo in itertools.combinations(tight, rc.m):
            sys = SaturatedSystem(rc.senders, combo)
            if _row_rank(sys.indicator_matrix()) < rc.m:
                continue
            chain = qr.reconstruct_chain(sys)
            for l, subset in enumerate(chain.sets, start=1):
                assert len(subset) == l
                if l > 1:
                    assert chain.sets[l - 2] < subset
            rebuilt = qr.corner_point(rc, chain.permutation)
            assert np.abs(rebuilt.as_array()
                          - vertex.as_array()).max() <= 1e-7
            found = True
            break
        assert found, "no independent saturated system at a vertex"


def test_criterion_03_vertex_corner_duality():
    with criterion(3, "vertex/corner duality (m = 3, 4, 5)", 120.0):
        for rc in _m3_duality_rcs():
            _check_duality(rc)
        for rc in _m4_duality_rcs():
            _check_duality(rc)
        for rc in _m5_duality_rcs():
            _check_duality(rc)


def test_criterion_04_greedy_equals_lp():
    with criterion(4, "greedy = LP over 200 instances", 60.0):
        ghz_rc = qr.region_constants(ghz_state(), "R")
        pt, val = qr.greedy_minimize(ghz_rc, (1.0, 2.0))
        assert abs(val - 2.0) <= 1e-8
        rng = np.random.default_rng(7)
        for rc in _m3_greedy_rcs():
            costs = rng.uniform(0.1, 3.0, rc.m)
            _, val = qr.greedy_minimize(rc, costs)
            best = min(float(v.as_array() @ costs)
                       for v in qr.enumerate_vertices(rc).vertices)
            assert abs(val - best) <= 1e-8


def test_criterion_05_supermodularity():
    with criterion(5, "supermodularity of all derived regions", 10.0):
        ghz_rc = qr.region_constants(ghz_state(), "R")
        derived = [ghz_rc]
        derived += [qr.region_constants(s, "R") for s in _m2_states()]
        derived += list(_m3_duality_rcs())
        derived += list(_m4_duality_rcs())
        derived += list(_m3_greedy_rcs())
        for rc in derived:
            assert qr.check_supermodular(rc, tol=1e-7) == []
        bad = RegionConstants(("A1", "A2"), "R", {
            frozenset({"A1"}): 1.0, frozenset({"A2"}): 1.0,
            frozenset({"A1", "A2"}): 1.0})
        assert qr.check_supermodular(bad) != []


def test_criterion_06_entropic_identities():
    with criterion(6, "entropic identity suite (100 states)", 60.0):
        for i in range(50):
            # mixed three-part states from a traced purification
            big = qr.random_pure_state(("A", "B", "X", "P"),
                                       (2, 2, 2, 3), 2000 + i)
            st = qr.reduced_state(big, {"A", "B", "X"})
            merged = qr.multiparty_info(st, [{"A"}, {"B"}, {"X"}]) \
                - qr.multiparty_info(st, [{"A"}, {"B"}])
            assert abs(merged
                       - qr.multiparty_info(st, [{"A", "B"}, {"X"}])) <= 1e-9
            assert qr.multiparty_info(st, [{"A", "B"}, {"X"}]) \
                - qr.multiparty_info(st, [{"A"}, {"X"}]) >= -1e-7
            h = lambda m: qr.entropy(st, m)
            assert h({"A", "X"}) + h({"B", "X"}) \
                - h({"A", "B", "X"}) - h({"X"}) >= -1e-7
            forms = qr.qstate.conditional_info_forms(st, [{"A"}, {"B"}],
                                                     {"X"})
            assert max(forms) - min(forms) <= 1e-9
        for i in range(50):
            st = qr.random_pure_state(("A", "B", "X", "E"),
                                      (2, 2, 2, 4), 3000 + i)
            merged = qr.multiparty_info(st, [{"A"}, {"B"}, {"X"}, {"E"}]) \
                - qr.multiparty_info(st, [{"A"}, {"B"}])
            assert abs(merged - qr.multiparty_info(
                st, [{"A", "B"}, {"X"}, {"E"}])) <= 1e-9
            assert qr.multiparty_info(st, [{"A", "B"}, {"X"}], cond={"E"}) \
                - qr.multiparty_info(st, [{"A"}, {"X"}], cond={"E"}) >= -1e-7
            assert qr.multiparty_info(st, [{"A", "B"}, {"X"}], cond={"E"}) \
                - qr.multiparty_info(st, [{"A"}, {"X"}],
                                     cond={"B", "E"}) >= -1e-7
            h = lambda m: qr.entropy(st, m)
            assert h({"A", "E"}) + h({"B", "E"}) \
                - h({"A", "B", "E"}) - h({"E"}) >= -1e-7
            forms = qr.qstate.conditional_info_forms(
                st, [{"A"}, {"B"}, {"X"}], {"E"})
            assert max(forms) - min(forms) <= 1e-9


def test_criterion_07_squashed_entanglement():
    with criterion(7, "squashed-entanglement estimates", 120.0):
        rng = np.random.default_rng(4000)
        small = EsqBudget(d_e_values=(1, 2), restarts=2, iterations=2, seed=1)
        for _ in range(10):
            st = random_mixture_state(rng,
                                      branches=int(rng.integers(2, 5)))
            est = qr.esq_upper_bound(st, [{"X1"}, {"X2"}], small)
            assert est.value <= 1e-6
            assert est.value >= 0.0

        bell = bell_state(("A", "B"), reference="B")
        budget = EsqBudget(d_e_values=(1, 2, 3, 4), restarts=20,
                           iterations=3, seed=9)
        est = qr.esq_upper_bound(bell, [{"A"}, {"B"}], budget)
        assert abs(est.value - 1.0) <= 1e-6  # nothing beat the trivial one
        assert abs(est.baseline - 1.0) <= 1e-9

        prod = product_state()
        est = qr.esq_upper_bound(prod, [{"A1"}, {"A2"}], small)
        assert est.value == 0.0


def test_criterion_08_outer_bound_and_classification():
    with criterion(8, "outer bound and classification", 30.0):
        small = EsqBudget(d_e_values=(1, 2), restarts=2, iterations=2, seed=2)
        g = ghz_state()
        rc = qr.region_constants(g, "R")
        est = qr.esq_upper_bound(qr.reduced_state(g, {"A1", "A2"}),
                                 [{"A1"}, {"A2"}], small)
        outer = qr.outer_bound_constants(rc,
                                         {frozenset({"A1", "A2"}): est})
        for subset in nonempty_subsets(rc.senders):
            assert abs(outer[subset] - rc.value(subset)) <= 1e-8
        assert qr.classify_rate_point(
            RatePoint(rc.senders, (0.4, 0.4)), rc, outer) == "not_achievable"

        sb = bell_between_senders()
        rc2 = qr.region_constants(sb, "R")
        est2 = qr.esq_upper_bound(qr.reduced_state(sb, {"A1", "A2"}),
                                  [{"A1"}, {"A2"}], small)
        outer2 = qr.outer_bound_constants(rc2,
                                          {frozenset({"A1", "A2"}): est2})
        assert abs(outer2[frozenset({"A1", "A2"})]) <= 1e-8
        assert qr.classify_rate_point(
            RatePoint(rc2.senders, (0.2, 0.2)), rc2, outer2) == "gap"


def test_criterion_09_bound_formulas():
    with criterion(9, "explicit bound formulas", 1.0):
        assert qr.binary_entropy(0.5) == 1.0
        assert qr.epsilon_prime(1.0 / 16.0, (2, 2)) == 14.0
        assert qr.f1(0.0, 5, 2) == 0.0
        with pytest.warns(UserWarning):
            qr.f1(1.0 / (12.0 * math.e ** 2) * 2.0, 5, 2)


def test_criterion_10_decoupling_simulation():
    with criterion(10, "decoupling simulation", 120.0):
        bell = bell_state()
        ends = qr.decoupling_curve(bell, "A", "R", 1, [0.0, 1.0],
                                   trials=20, seed=42)
        q0, q1 = ends.points
        assert abs(q0.mean_dist - 0.75) <= 1e-9
        assert q0.stderr_dist <= 1e-12  # identical in every trial
        assert q1.mean_dist <= 1e-9

        curve = qr.decoupling_curve(bell, "A", "R", 3,
                                    [0.0, 1 / 3, 2 / 3, 1.0],
                                    trials=200, seed=42)
        means = [p.mean_dist for p in curve.points]
        errs = [p.stderr_dist for p in curve.points]
        for i in range(len(means) - 1):
            slack = 2.0 * float(np.hypot(errs[i], errs[i + 1]))
            assert means[i + 1] <= means[i] + slack


def test_criterion_11_cli_determinism_and_round_trip(tmp_path):
    with criterion(11, "CLI determinism and H round-trip", 10.0):
        spec = tmp_path / "ghz.spec"
        spec.write_text("{family: ghz, labels: [A1, A2, R], "
                        "dims: [2, 2, 2], reference: R}\n")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run_command(["esq", "--state", str(spec),
                                "--out", str(out), "--seed", "5",
                                "--d-e-max", "2", "--restarts", "2"])
            assert code == 0
            outs.append(out.read_text())
        strip = lambda s: re.sub(r'"generated_at": "[^"]*"', "", s)
        assert strip(outs[0]) == strip(outs[1])

        rc = qr.region_constants(ghz_state(), "R")
        back = parse_h_representation(export_h_representation(rc))
        for subset in nonempty_subsets(rc.senders):
            assert abs(back.value(subset) - rc.value(subset)) <= 1e-12
        report = json.loads(outs[0])
        assert report["seed"] == 5 and report["spec_sha256"]
