import math

import numpy as np
import pytest

import qregion as qr
from qregion import esq as E
from qregion import qstate as Q
from qregion.esq import EsqBudget, EsqError
from qregion.region import RatePoint
from qregion.statespec import BranchSpec, StateSpec

from helpers import (bell_between_senders, bell_state, ghz_state,
                     product_state, random_mixture_spec,
                     random_mixture_state)

SMALL = EsqBudget(d_e_values=(1, 2), restarts=2, iterations=2, seed=0)


def test_trivial_channel_reproduces_unconditional_info():
    for seed in range(4):
        st = qr.random_pure_state(("A", "B", "C"), (2, 2, 2), seed)
        marg = qr.reduced_state(st, {"A", "B"})
        parts = [{"A"}, {"B"}]
        psi_rank = Q.purification_vector(marg)[1]
        ch = E.trivial_channel(E.purifier_label(marg), psi_rank)
        raw = qr.conditional_info_with_extension(marg, parts, ch)
        assert abs(raw - qr.multiparty_info(marg, parts)) <= 1e-9


def test_classical_flag_zeroes_mixture():
    spec = StateSpec(family="mixture", labels=("X1", "X2"), dims=(2, 2),
                     reference="X2",
                     branches=(BranchSpec(0.5, ((1, 0), (1, 0))),
                               BranchSpec(0.5, ((0, 1), (0, 1)))))
    st = qr.build_state(spec)
    ch = E.classical_flag_channel(st)
    assert ch.kind == "classical_flag"
    val = qr.conditional_info_with_extension(st, [{"X1"}, {"X2"}], ch)
    assert abs(val) <= 1e-9


def test_classical_flag_random_mixtures():
    rng = np.random.default_rng(21)
    for _ in range(6):
        st = random_mixture_state(rng, branches=int(rng.integers(2, 5)))
        ch = E.classical_flag_channel(st)
        val = qr.conditional_info_with_extension(st, [{"X1"}, {"X2"}], ch)
        assert abs(val) <= 1e-7


def test_classical_flag_requires_provenance():
    with pytest.raises(EsqError):
        E.classical_flag_channel(bell_state())


def test_bell_random_channels_never_below_two():
    bell = bell_state(("A", "B"), reference="B")
    rng = np.random.default_rng(9)
    src = E.purifier_label(bell)
    for _ in range(50):
        d_e = int(rng.integers(1, 5))
        d_g = int(rng.integers(1, 5))
        g = rng.standard_normal((d_e * d_g, 1)) \
            + 1j * rng.standard_normal((d_e * d_g, 1))
        iso = E._polar_isometry(g)
        ch = E.ExtensionChannel(src, d_e, d_g, iso, "parameterized")
        raw = qr.conditional_info_with_extension(bell, [{"A"}, {"B"}], ch)
        assert raw >= 2.0 - 1e-6


def test_esq_upper_bound_bell():
    bell = bell_state(("A", "B"), reference="B")
    budget = EsqBudget(d_e_values=(1, 2, 3, 4), restarts=20,
                       iterations=3, seed=7)
    est = qr.esq_upper_bound(bell, [{"A"}, {"B"}], budget)
    assert est.value == pytest.approx(1.0, abs=1e-6)
    assert est.baseline == pytest.approx(1.0, abs=1e-9)


def test_esq_upper_bound_separable_and_product():
    rng = np.random.default_rng(31)
    for _ in range(3):
        st = random_mixture_state(rng)
        est = qr.esq_upper_bound(st, [{"X1"}, {"X2"}], SMALL)
        assert 0.0 <= est.value <= 1e-6
    prod = product_state()
    est = qr.esq_upper_bound(prod, [{"A1"}, {"A2"}], SMALL)
    assert est.value == 0.0 and est.baseline <= 1e-9


def test_estimate_between_zero_and_baseline():
    for seed in range(4):
        st = qr.random_pure_state(("A", "B", "C"), (2, 2, 4), seed)
        marg = qr.reduced_state(st, {"A", "B"})
        est = qr.esq_upper_bound(marg, [{"A"}, {"B"}], SMALL)
        assert -1e-9 <= est.value <= est.baseline + 1e-9
        assert abs(est.baseline
                   - 0.5 * qr.multiparty_info(marg, [{"A"}, {"B"}])) <= 1e-9


def test_estimator_monotone_in_budget():
    st = qr.reduced_state(
        qr.random_pure_state(("A", "B", "C"), (2, 2, 4), 5), {"A", "B"})
    parts = [{"A"}, {"B"}]
    small = qr.esq_upper_bound(st, parts,
                               EsqBudget((1, 2), 2, 2, seed=3)).value
    more_restarts = qr.esq_upper_bound(st, parts,
                                       EsqBudget((1, 2), 5, 2, seed=3)).value
    wider_sweep = qr.esq_upper_bound(st, parts,
                                     EsqBudget((1, 2, 3), 2, 2, seed=3)).value
    assert more_restarts <= small + 1e-12
    assert wider_sweep <= small + 1e-12


def test_esq_deterministic_given_seed():
    st = qr.reduced_state(
        qr.random_pure_state(("A", "B", "C"), (2, 2, 4), 8), {"A", "B"})
    a = qr.esq_upper_bound(st, [{"A"}, {"B"}], SMALL).value
    b = qr.esq_upper_bound(st, [{"A"}, {"B"}], SMALL).value
    assert a == b


def test_channel_validation_and_caps():
    with pytest.raises(EsqError):
        E.ExtensionChannel("R0", 2, 2, np.ones((4, 2)), "parameterized")
    big = qr.random_pure_state(("A", "B"), (8, 8), 0)
    with pytest.raises(EsqError):
        qr.esq_upper_bound(big, [{"A"}, {"B"}],
                           EsqBudget(d_e_values=(8,), restarts=1,
                                     iterations=1, seed=0))
    with pytest.raises(EsqError):
        qr.esq_upper_bound(big, [], SMALL)


def test_wrong_purifier_dimension_rejected():
    mixed = qr.reduced_state(ghz_state(), {"A1", "A2"})  # rank 2
    ch = E.trivial_channel(E.purifier_label(mixed), 3)
    with pytest.raises(EsqError, match="rank"):
        qr.conditional_info_with_extension(mixed, [{"A1"}, {"A2"}], ch)


def test_outer_bound_constants_examples():
    g = ghz_state()
    rc = qr.region_constants(g, "R")
    marg = qr.reduced_state(g, {"A1", "A2"})
    est = qr.esq_upper_bound(marg, [{"A1"}, {"A2"}], SMALL)
    outer = qr.outer_bound_constants(rc, {frozenset({"A1", "A2"}): est})
    for subset, val in outer.items():
        assert val <= rc.value(subset) + 1e-12
        assert abs(val - rc.value(subset)) <= 1e-6  # ghz outer = inner

    sb = bell_between_senders()
    rc2 = qr.region_constants(sb, "R")
    m12 = qr.reduced_state(sb, {"A1", "A2"})
    est2 = qr.esq_upper_bound(m12, [{"A1"}, {"A2"}], SMALL)
    outer2 = qr.outer_bound_constants(rc2, {frozenset({"A1", "A2"}): est2})
    assert outer2[frozenset({"A1", "A2"})] == pytest.approx(0.0, abs=1e-6)

    with pytest.raises(EsqError):
        qr.outer_bound_constants(rc, {})


def test_outer_singletons_equal_inner():
    g = ghz_state()
    rc = qr.region_constants(g, "R")
    est = qr.esq_upper_bound(qr.reduced_state(g, {"A1", "A2"}),
                             [{"A1"}, {"A2"}], SMALL)
    outer = qr.outer_bound_constants(rc, {frozenset({"A1", "A2"}): est})
    assert outer[frozenset({"A1"})] == rc.value({"A1"})
    assert outer[frozenset({"A2"})] == rc.value({"A2"})


def _ghz_outer():
    g = ghz_state()
    rc = qr.region_constants(g, "R")
    est = qr.esq_upper_bound(qr.reduced_state(g, {"A1", "A2"}),
                             [{"A1"}, {"A2"}], SMALL)
    return rc, qr.outer_bound_constants(rc, {frozenset({"A1", "A2"}): est})


def test_classify_examples():
    rc, outer = _ghz_outer()
    assert qr.classify_rate_point(RatePoint(rc.senders, (1.0, 0.5)),
                                  rc, outer) == "achievable"
    assert qr.classify_rate_point(RatePoint(rc.senders, (0.4, 0.4)),
                                  rc, outer) == "not_achievable"

    sb = bell_between_senders()
    rc2 = qr.region_constants(sb, "R")
    est2 = qr.esq_upper_bound(qr.reduced_state(sb, {"A1", "A2"}),
                              [{"A1"}, {"A2"}], SMALL)
    outer2 = qr.outer_bound_constants(rc2, {frozenset({"A1", "A2"}): est2})
    assert qr.classify_rate_point(RatePoint(rc2.senders, (0.2, 0.2)),
                                  rc2, outer2) == "gap"


def test_subadditivity_smoke_two_bells():
    # two Bell pairs, parts merged pairwise
    b = bell_state(("X1", "X2"), reference="X2")
    op = np.kron(b.op, b.op)
    double = Q.MultipartyState(("X1", "X2", "Y1", "Y2"), (2, 2, 2, 2), op)
    est_xy = qr.esq_upper_bound(double, [{"X1", "Y1"}, {"X2", "Y2"}], SMALL)
    est_one = qr.esq_upper_bound(b, [{"X1"}, {"X2"}], SMALL)
    assert est_xy.value <= 2 * est_one.value + 1e-3


def test_subadditivity_smoke_separable_product():
    rng = np.random.default_rng(17)
    sx = random_mixture_spec(rng, ("X1", "X2"), (2, 2), branches=2)
    sy = random_mixture_spec(rng, ("Y1", "Y2"), (2, 2), branches=2)
    branches = []
    for bx in sx.branches:
        for by in sy.branches:
            branches.append(BranchSpec(bx.weight * by.weight,
                                       bx.kets + by.kets))
    total = sum(b.weight for b in branches)
    branches[-1] = BranchSpec(branches[-1].weight + (1 - total),
                              branches[-1].kets)
    prod = qr.build_state(StateSpec(
        family="mixture", labels=("X1", "X2", "Y1", "Y2"),
        dims=(2, 2, 2, 2), reference="Y2", branches=tuple(branches)))
    est = qr.esq_upper_bound(prod, [{"X1", "Y1"}, {"X2", "Y2"}], SMALL)
    ex = qr.esq_upper_bound(qr.build_state(sx), [{"X1"}, {"X2"}], SMALL)
    ey = qr.esq_upper_bound(qr.build_state(sy), [{"Y1"}, {"Y2"}], SMALL)
    assert est.value <= ex.value + ey.value + 1e-3


def test_binary_entropy_and_eta():
    assert qr.binary_entropy(0.5) == 1.0
    assert qr.binary_entropy(0.0) == 0.0
    assert qr.binary_entropy(1.0) == 0.0
    assert qr.eta(0.0) == 0.0
    assert qr.eta(0.5) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        qr.binary_entropy(1.2)
    with pytest.raises(ValueError):
        qr.eta(-0.1)


def test_epsilon_prime_exact():
    assert qr.epsilon_prime(1.0 / 16.0, (2, 2)) == 14.0
    assert qr.epsilon_prime(0.0, (2, 2, 2)) == 0.0
    with pytest.raises(ValueError):
        qr.epsilon_prime(0.5, (2, 2))  # 2 sqrt(eps) > 1


def test_f1_values_and_flag():
    assert qr.f1(0.0, 10, 2) == 0.0
    limit = 1.0 / (12.0 * math.e ** 2)
    with pytest.warns(UserWarning, match="validity"):
        qr.f1(limit * 1.5, 4, 2)
    val = qr.f1(limit / 2, 4, 2)
    assert val > 0.0
    with pytest.raises(ValueError):
        qr.f1(-0.1, 4, 2)


def test_perturbation_report_structure():
    a = qr.reduced_state(ghz_state(), {"A1", "A2"})
    eps = 0.002
    op = (1 - eps) * a.op + eps * np.eye(4) / 4
    b = Q.MultipartyState(a.labels, a.dims, op)
    rep = E.perturbation_report(a, b, [{"A1"}, {"A2"}], SMALL)
    assert set(rep) == {"epsilon", "estimate_a", "estimate_b",
                        "difference", "continuity_bound", "within_bound"}
    assert rep["epsilon"] <= eps + 1e-9
    assert rep["continuity_bound"] >= 0.0


# ---------------------------------------------------------------------------
# batched search

def _panel_marginal(seed):
    st = qr.random_pure_state(["A1", "A2", "R"], [2, 2, 2], seed)
    return qr.reduced_state(st, {"A1", "A2"})


def test_cond_info_batch_matches_reference_rows():
    rng = np.random.default_rng(40)
    three = qr.reduced_state(
        qr.random_pure_state(["A1", "A2", "A3", "R"], [2, 2, 2, 2], 4),
        {"A1", "A2", "A3"})
    cases = [(_panel_marginal(5), [{"A1"}, {"A2"}]),
             (three, [{"A1"}, {"A2"}, {"A3"}])]
    for st, parts in cases:
        groups = E._part_groups(st, parts)
        psi, r = Q.purification_vector(st)
        for d_e in (1, 2, 3, 4):
            d_g = max(d_e, r)
            g = rng.standard_normal((6, d_e * d_g, r)) \
                + 1j * rng.standard_normal((6, d_e * d_g, r))
            isos = E._polar_batch(g)
            batch = E._cond_info_batch(psi, st.dims, groups, isos, d_e, d_g)
            for iso, val in zip(isos, batch):
                ref = E._cond_info_extended(psi, st.dims, groups, iso,
                                            d_e, d_g)
                assert abs(val - ref) <= 1e-12


def test_entropy_batch_rejects_non_psd_member():
    good = np.eye(2, dtype=complex) / 2
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(Q.StateError, match="positive semidefinite"):
        E._entropy_batch(np.stack([good, bad]))
    assert E._entropy_batch(np.stack([good, good])).tolist() == [1.0, 1.0]


def _serial_descent(fn, v0, max_passes, step0=0.3):
    """Reference: one restart at a time, one probe at a time."""
    v, best, step = v0, fn(v0), step0
    for _ in range(max(0, max_passes)):
        improved = False
        for idx in np.ndindex(*v.shape):
            for delta in (step, -step, 1j * step, -1j * step):
                trial = v.copy()
                trial[idx] += delta
                trial = E._polar_isometry(trial)
                val = fn(trial)
                if val < best - 1e-12:
                    v, best, improved = trial, val, True
                    break
        if not improved:
            step *= 0.5
            if step < 1e-3:
                break
    return v, best


def test_lockstep_descent_matches_serial_descent():
    st = _panel_marginal(6)
    groups = E._part_groups(st, [{"A1"}, {"A2"}])
    psi, r = Q.purification_vector(st)
    rng = np.random.default_rng(3)
    d_e = 2
    starts = np.stack([E._polar_isometry(
        rng.standard_normal((d_e * d_e, r))
        + 1j * rng.standard_normal((d_e * d_e, r))) for _ in range(3)])
    vs, vals = E._lockstep_descent(
        lambda isos: E._cond_info_batch(psi, st.dims, groups, isos,
                                        d_e, d_e), starts, 3)
    for v0, v, val in zip(starts, vs, vals):
        ref_v, ref_val = _serial_descent(
            lambda iso: E._cond_info_extended(psi, st.dims, groups, iso,
                                              d_e, d_e), v0, 3)
        assert val == ref_val
        assert np.array_equal(v, ref_v)


@pytest.mark.parametrize("seed, value", [(101, 0.41382912908524194),
                                         (102, 0.3149789113537507),
                                         (103, 0.4116205256156588)])
def test_panel_values_pinned(seed, value):
    est = qr.esq_upper_bound(_panel_marginal(seed), [{"A1"}, {"A2"}],
                             EsqBudget(seed=7))
    assert est.value == value
    assert est.best_channel.kind == "parameterized"


def test_edge_budgets():
    marg = _panel_marginal(5)
    parts = [{"A1"}, {"A2"}]
    none = qr.esq_upper_bound(marg, parts, EsqBudget(restarts=0))
    assert none.best_channel.kind == "trivial"
    assert none.value == none.baseline
    mix = random_mixture_state(np.random.default_rng(8))
    flag = qr.esq_upper_bound(mix, [{"X1"}, {"X2"}], EsqBudget(restarts=0))
    assert flag.best_channel.kind == "classical_flag"

    # iterations=0 scores only the starting points
    budget = EsqBudget(d_e_values=(2, 3), restarts=3, iterations=0, seed=4)
    est = qr.esq_upper_bound(marg, parts, budget)
    groups = E._part_groups(marg, parts)
    psi, r = Q.purification_vector(marg)
    raws = [E._cond_info_extended(psi, marg.dims, groups,
                                  E.trivial_channel("R0", r).isometry, 1, r)]
    for d_e in budget.d_e_values:
        starts = [E._embedding_isometry(r, d_e, d_e)]
        for restart in range(1, budget.restarts):
            g = np.random.default_rng([budget.seed, restart])
            starts.append(E._polar_isometry(
                g.standard_normal((d_e * d_e, r))
                + 1j * g.standard_normal((d_e * d_e, r))))
        raws += [E._cond_info_extended(psi, marg.dims, groups, v, d_e, d_e)
                 for v in starts]
    assert est.value == min(est.baseline, max(0.0, 0.5 * min(raws)))

    # d_E * d_G below the purifier rank: no isometry exists, entry skipped
    rank4 = qr.reduced_state(
        qr.random_pure_state(("A", "B", "C"), (2, 2, 4), 2), {"A", "B"})
    assert Q.purification_vector(rank4)[1] == 4
    est = qr.esq_upper_bound(rank4, [{"A"}, {"B"}],
                             EsqBudget(d_e_values=(1,), restarts=2))
    assert est.best_channel.kind == "trivial"
    assert est.value == est.baseline
