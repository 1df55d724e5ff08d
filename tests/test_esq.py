import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qregion as qr
from qregion import esq as E
from qregion import qstate as Q
from qregion.esq import EsqBudget, EsqError
from qregion.region import RatePoint
from qregion.statespec import MixtureBranch, StateSpec

from helpers import (bell_between_senders, bell_state,
                     coherent_info_floor_reference, cond_info_grad_reference,
                     cond_info_reference, cond_info_value_reference,
                     dense_op, esq_search_reference, ghz_state,
                     perturbation_report, product_state, random_mixture_spec,
                     random_mixture_state, random_sender_state,
                     steepest_descent_reference)

SMALL = EsqBudget(d_e_max=2, restarts=2, iterations=2, seed=0)


def test_trivial_channel_reproduces_unconditional_info():
    for seed in range(4):
        st = qr.random_pure_state(("A", "B", "C"), (2, 2, 2), seed)
        marg = qr.reduced_state(st, {"A", "B"})
        parts = [{"A"}, {"B"}]
        psi_rank = Q.purification_vector(marg)[1]
        ch = E.trivial_channel(psi_rank)
        raw = qr.conditional_info_with_extension(marg, parts, ch)
        assert abs(raw - qr.multiparty_info(marg, parts)) <= 1e-9


def test_classical_flag_zeroes_mixture():
    spec = StateSpec(family="mixture", labels=("X1", "X2"), dims=(2, 2),
                     reference="X2",
                     branches=(MixtureBranch(0.5, ((1, 0), (1, 0))),
                               MixtureBranch(0.5, ((0, 1), (0, 1)))))
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
    for _ in range(50):
        d_e = int(rng.integers(1, 5))
        d_g = int(rng.integers(1, 5))
        g = rng.standard_normal((d_e * d_g, 1)) \
            + 1j * rng.standard_normal((d_e * d_g, 1))
        iso = E._polar_isometry(g)
        ch = E.ExtensionChannel(d_e, d_g, iso, "parameterized")
        raw = qr.conditional_info_with_extension(bell, [{"A"}, {"B"}], ch)
        assert raw >= 2.0 - 1e-6


def test_esq_upper_bound_bell():
    bell = bell_state(("A", "B"), reference="B")
    budget = EsqBudget(d_e_max=4, restarts=20, iterations=3, seed=7)
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


#: (state, parts) whose parts leave out a label: of dimension above 1 in
#: the first case, and only of dimension 1 in the others
LEFT_OUT_CASES = {
    "spectator-and-reference": lambda: (
        qr.random_pure_state(("A1", "A2", "A3", "R"), (2,) * 4, 3),
        ["A1", "A2"]),
    "stop-specs-mixture": lambda: (
        random_mixture_state(np.random.default_rng(9),
                             ("A1", "A2", "A3", "R"), (2, 2, 2, 1)),
        ["A1", "A2", "A3"]),
    "ghz-trivial-reference": lambda: (
        qr.build_state(StateSpec(family="ghz",
                                 labels=("A1", "A2", "A3", "R"),
                                 dims=(2, 2, 2, 1), reference="R")),
        ["A1", "A2", "A3"]),
    "two-sender-mixture": lambda: (
        random_mixture_state(np.random.default_rng(4), ("A1", "A2", "R"),
                             (2, 2, 1), branches=2),
        ["A1", "A2"]),
    "trivial-spectator": lambda: (
        qr.random_pure_state(("A1", "S", "A2", "R"), (2, 1, 2, 1), 6),
        ["A1", "S", "A2"]),
}


@pytest.mark.filterwarnings("ignore:input state is not pure")
def test_parts_leaving_out_labels_use_their_marginal():
    # I(X E) = H(G) holds only when the parts cover the state: parts that
    # leave out any label, whatever its dimension, are scored on their
    # marginal, bit for bit
    for case, make in LEFT_OUT_CASES.items():
        st, labels = make()
        parts = [{lab} for lab in labels]
        marg = qr.reduced_state(st, labels)
        got, want = (qr.esq_upper_bound(s, parts, SMALL) for s in (st, marg))
        assert abs(got.baseline
                   - 0.5 * qr.multiparty_info(st, parts)) <= 1e-12, case
        assert (got.value, got.lower, got.baseline, got.best_channel.kind,
                got.best_channel.d_e) \
            == (want.value, want.lower, want.baseline,
                want.best_channel.kind, want.best_channel.d_e), case
        assert np.array_equal(got.best_channel.isometry,
                              want.best_channel.isometry), case
        ch = E.trivial_channel(Q.purification_vector(marg)[1])
        assert qr.conditional_info_with_extension(st, parts, ch) \
            == qr.conditional_info_with_extension(marg, parts, ch), case


def test_parts_may_be_iterators():
    st = random_sender_state(3, 2)
    ch = E.trivial_channel(Q.purification_vector(
        qr.reduced_state(st, {"A1", "A2"}))[1])
    got = qr.esq_upper_bound(st, [iter(["A1"]), iter(["A2"])], SMALL)
    want = qr.esq_upper_bound(st, [{"A1"}, {"A2"}], SMALL)
    assert (got.value, got.lower, got.baseline) \
        == (want.value, want.lower, want.baseline)
    assert qr.conditional_info_with_extension(
        st, iter([iter(["A1"]), iter(["A2"])]), ch) \
        == qr.conditional_info_with_extension(st, [{"A1"}, {"A2"}], ch)


def test_oversized_marginal_is_refused_before_it_is_built(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a marginal was built")

    monkeypatch.setattr(Q, "reduced_state", unreachable)
    st = qr.random_pure_state(("A1", "A2", "R"), (32, 64, 2), 1)
    with pytest.raises(EsqError, match="marginal dimension 2048 leaves no "
                                       "room for any extension"):
        qr.esq_upper_bound(st, [{"A1"}, {"A2"}])
    small = random_sender_state(3, 1)
    with pytest.raises(EsqError, match="search work of 32000000 descent "
                                       "passes exceeds the cap"):
        qr.esq_upper_bound(small, [{"A1"}, {"A2"}],
                           EsqBudget(iterations=10 ** 6))


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
                               EsqBudget(2, 2, 2, seed=3)).value
    more_restarts = qr.esq_upper_bound(st, parts,
                                       EsqBudget(2, 5, 2, seed=3)).value
    wider_sweep = qr.esq_upper_bound(st, parts,
                                     EsqBudget(3, 2, 2, seed=3)).value
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
        E.ExtensionChannel(2, 2, np.ones((4, 2)), "parameterized")
    big = qr.random_pure_state(("A", "B"), (8, 8), 0)
    with pytest.raises(Q.StateError, match="at least one part"):
        qr.esq_upper_bound(big, [], SMALL)
    # past dimension 1024 not even d_E = 1 fits under the cap
    wide = qr.random_pure_state(("A", "B"), (32, 64), 0)
    with pytest.raises(EsqError, match="marginal dimension 2048 leaves no "
                                       "room for any extension"):
        qr.esq_upper_bound(wide, [{"A"}, {"B"}], EsqBudget(d_e_max=1))


def test_sweep_is_cut_at_the_dimension_cap():
    # dimension 64: 64 * 4**2 = ESQ_DIM_CAP, so d_E = 8 cuts to 1..4
    big = qr.reduced_state(qr.random_pure_state(("A", "B", "R"), (8, 8, 2),
                                                2), {"A", "B"})
    parts = [{"A"}, {"B"}]
    cut = EsqBudget(d_e_max=8, restarts=2, iterations=1)
    # d_E = 1 has no isometry from the rank-2 purifier; 5..8 are cut
    assert sorted(_restart_starts(big, parts, cut)) == [2, 3, 4]
    assert qr.esq_upper_bound(big, parts, cut).value.hex() \
        == qr.esq_upper_bound(big, parts, EsqBudget(
            d_e_max=4, restarts=2, iterations=1)).value.hex()


def test_search_work_cap_refuses_before_any_search(monkeypatch):
    class Searched(Exception):
        pass

    def objective(*args, **kwargs):
        raise Searched

    monkeypatch.setattr(E, "_cond_info_extended", objective)
    marg, parts = _panel_marginal(5), [{"A1"}, {"A2"}]
    with pytest.raises(EsqError, match=f"search work of 32000000 descent "
                                       f"passes exceeds the cap "
                                       f"{E.MAX_SEARCH_PASSES}"):
        qr.esq_upper_bound(marg, parts, EsqBudget(iterations=10 ** 6))
    # 4 d_E values x 512 restarts x 8 iterations is the cap itself
    at_cap = EsqBudget(restarts=512, iterations=8)
    with pytest.raises(Searched):
        qr.esq_upper_bound(marg, parts, at_cap)
    with pytest.raises(EsqError, match="exceeds the cap"):
        qr.esq_upper_bound(marg, parts,
                           EsqBudget(restarts=512, iterations=9))


def test_baseline_of_a_purifier_wider_than_the_cap():
    # dim 64 and rank 32: the trivial extension has 64 * 32 > ESQ_DIM_CAP
    # amplitudes, but no more than the purification already holds
    marg = qr.reduced_state(
        qr.random_pure_state(("A", "B", "C"), (8, 8, 32), 1), {"A", "B"})
    assert marg.dim * Q.purification_vector(marg)[1] > E.ESQ_DIM_CAP
    est = qr.esq_upper_bound(marg, [{"A"}, {"B"}],
                             EsqBudget(d_e_max=1, restarts=1,
                                       iterations=1))
    assert est.best_channel.kind == "trivial"
    assert abs(est.baseline
               - 0.5 * qr.multiparty_info(marg, [{"A"}, {"B"}])) <= 1e-9


def test_wrong_purifier_dimension_rejected():
    mixed = qr.reduced_state(ghz_state(), {"A1", "A2"})  # rank 2
    ch = E.trivial_channel(3)
    with pytest.raises(EsqError, match="rank"):
        qr.conditional_info_with_extension(mixed, [{"A1"}, {"A2"}], ch)


@pytest.mark.parametrize("parts", [[{"A1"}], [{"A1", "A2"}]],
                         ids=["A1", "A1A2"])
def test_one_part_has_no_squashed_entanglement(parts):
    # one part has no proper cut, and I(X1|E) = H(X1 E) - H(G) = 0
    est = qr.esq_upper_bound(_panel_marginal(101), parts)
    assert est.lower == 0.0
    assert est.value <= 1e-12


@pytest.mark.parametrize("d_e_max", [0, -3])
def test_d_e_sweep_refuses_a_cap_below_one(d_e_max):
    with pytest.raises(EsqError, match=f"d_e_max must be >= 1, got "
                                       f"{d_e_max}$"):
        E.d_e_sweep(4, d_e_max)


def test_outer_bound_constants_examples():
    g = ghz_state()
    rc = qr.region_constants(g, "R")
    marg = qr.reduced_state(g, {"A1", "A2"})
    est = qr.esq_upper_bound(marg, [{"A1"}, {"A2"}], SMALL)
    outer = qr.outer_bound_constants(rc, {frozenset({"A1", "A2"}): est})
    for subset, val in zip(outer.subsets, outer.bounds):
        assert val <= rc.value(subset) + 1e-12
        assert abs(val - rc.value(subset)) <= 1e-6  # ghz outer = inner

    sb = bell_between_senders()
    rc2 = qr.region_constants(sb, "R")
    m12 = qr.reduced_state(sb, {"A1", "A2"})
    est2 = qr.esq_upper_bound(m12, [{"A1"}, {"A2"}], SMALL)
    outer2 = qr.outer_bound_constants(rc2, {frozenset({"A1", "A2"}): est2})
    assert outer2.value({"A1", "A2"}) == pytest.approx(0.0, abs=1e-6)

    with pytest.raises(EsqError):
        qr.outer_bound_constants(rc, {})


def test_outer_singletons_equal_inner():
    g = ghz_state()
    rc = qr.region_constants(g, "R")
    est = qr.esq_upper_bound(qr.reduced_state(g, {"A1", "A2"}),
                             [{"A1"}, {"A2"}], SMALL)
    outer = qr.outer_bound_constants(rc, {frozenset({"A1", "A2"}): est})
    assert outer.value({"A1"}) == rc.value({"A1"})
    assert outer.value({"A2"}) == rc.value({"A2"})


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


def test_classify_agrees_with_inner_membership_near_a_bound():
    # every C_K of the product state is 0: the point is within FEAS_TOL
    prod = product_state()
    rc = qr.region_constants(prod, "R")
    est = qr.esq_upper_bound(qr.reduced_state(prod, {"A1", "A2"}),
                             [{"A1"}, {"A2"}], SMALL)
    outer = qr.outer_bound_constants(rc, {frozenset({"A1", "A2"}): est})
    q = RatePoint(rc.senders, (-5e-8, 0.0))
    assert qr.membership(rc, q).verdict == "boundary"
    assert qr.classify_rate_point(q, rc, outer) == "achievable"


def _two_sender_bounds(seed):
    state = qr.random_pure_state(("A1", "A2", "R"), (2, 2, 4), seed)
    rc = qr.region_constants(state, "R")
    est = qr.esq_upper_bound(qr.reduced_state(state, {"A1", "A2"}),
                             [{"A1"}, {"A2"}],
                             EsqBudget(d_e_max=2, restarts=1,
                                       iterations=1, seed=seed))
    return rc, qr.outer_bound_constants(rc, {frozenset({"A1", "A2"}): est})


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), delta=st.floats(0.0, 3e-7),
       corner=st.integers(0, 1), sender=st.integers(0, 1),
       rates=st.tuples(st.floats(-0.5, 2.0), st.floats(-0.5, 2.0)))
def test_classify_verdicts_are_sound(seed, delta, corner, sender, rates):
    rc, outer = _two_sender_bounds(seed)
    vertices = qr.corner_set(rc).vertices
    near = list(vertices[corner % len(vertices)].rates)
    near[sender] -= delta
    for point in (rates, tuple(near)):
        q = RatePoint(rc.senders, point)
        verdict = qr.classify_rate_point(q, rc, outer)
        inner = qr.membership(rc, q).verdict
        assert (verdict == "achievable") == (inner != "outside"), point
        if verdict == "not_achievable":
            assert inner == "outside", point
            assert qr.membership(outer, q).verdict == "outside", point


def test_estimate_covers_its_parts_once(monkeypatch):
    calls = []
    covered = E._covered
    monkeypatch.setattr(E, "_covered",
                        lambda *args: calls.append(args) or covered(*args))
    mixture = random_mixture_state(np.random.default_rng(0))
    pure = qr.reduced_state(random_sender_state(2, 1), {"A1", "A2"})
    for state, parts, kind in [
            (mixture, [{"X1"}, {"X2"}], "classical_flag"),
            (pure, [{"A1"}, {"A2"}], "parameterized")]:
        calls.clear()
        est = qr.esq_upper_bound(state, parts, SMALL)
        assert est.best_channel.kind == kind
        assert len(calls) == 1


def test_subadditivity_smoke_two_bells():
    # two Bell pairs, parts merged pairwise
    b = bell_state(("X1", "X2"), reference="X2")
    op = np.kron(dense_op(b), dense_op(b))
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
            branches.append(MixtureBranch(bx.weight * by.weight,
                                       bx.kets + by.kets))
    total = sum(b.weight for b in branches)
    branches[-1] = MixtureBranch(branches[-1].weight + (1 - total),
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
    op = (1 - eps) * dense_op(a) + eps * np.eye(4) / 4
    b = Q.MultipartyState(a.labels, a.dims, op)
    rep = perturbation_report(a, b, [{"A1"}, {"A2"}], SMALL)
    assert set(rep) == {"epsilon", "estimate_a", "estimate_b",
                        "difference", "continuity_bound", "within_bound"}
    assert rep["epsilon"] <= eps + 1e-9
    assert rep["continuity_bound"] >= 0.0


# ---------------------------------------------------------------------------
# batched search

def _panel_marginal(seed):
    st = qr.random_pure_state(["A1", "A2", "R"], [2, 2, 2], seed)
    return qr.reduced_state(st, {"A1", "A2"})


def test_tallest_objective_call_stays_within_its_memory():
    # 1000 restarts at d_E = d_G = 16 on a 2-qubit marginal, the largest
    # stack the caps admit: one term's factors are 16 MiB
    st = qr.reduced_state(qr.random_pure_state(["A1", "A2", "R"],
                                               [2, 2, 4], 1), {"A1", "A2"})
    groups = Q.part_groups(st, [{"A1"}, {"A2"}])
    psi, r = Q.purification_vector(st)
    rng = np.random.default_rng(0)
    isos = E._polar_isometry(rng.standard_normal((1000, 256, r))
                             + 1j * rng.standard_normal((1000, 256, r)))
    tracemalloc.start()
    try:
        E._cond_info_extended(psi, st.dims, groups, isos, 16, 16, grad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 141 << 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_cond_info_batch_matches_reference_rows():
    rng = np.random.default_rng(40)
    three = qr.reduced_state(
        qr.random_pure_state(["A1", "A2", "A3", "R"], [2, 2, 2, 2], 4),
        {"A1", "A2", "A3"})
    cases = [(_panel_marginal(5), [{"A1"}, {"A2"}]),
             (three, [{"A1"}, {"A2"}, {"A3"}])]
    for st, parts in cases:
        groups = Q.part_groups(st, parts)
        psi, r = Q.purification_vector(st)
        for d_e in (1, 2, 3, 4):
            d_g = max(d_e, r)
            g = rng.standard_normal((6, d_e * d_g, r)) \
                + 1j * rng.standard_normal((6, d_e * d_g, r))
            isos = E._polar_isometry(g)
            batch = E._cond_info_extended(psi, st.dims, groups, isos,
                                          d_e, d_g)
            for iso, val in zip(isos, batch):
                assert val == cond_info_reference(psi, st.dims, groups, iso,
                                                  d_e, d_g)


def test_entropy_batch_rejects_non_psd_member():
    good = np.eye(2, dtype=complex) / 2
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(Q.StateError, match="positive semidefinite"):
        Q.entropy_of_op(np.stack([good, bad]))
    assert Q.entropy_of_op(np.stack([good, good])).tolist() == [1.0, 1.0]


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    three = qr.reduced_state(
        qr.random_pure_state(["A1", "A2", "A3", "R"], [2, 2, 2, 2], 4),
        {"A1", "A2", "A3"})
    ghz = qr.reduced_state(ghz_state(), {"A1", "A2"})  # rank 2 of 4
    cases = [(_panel_marginal(5), [{"A1"}, {"A2"}]),
             (three, [{"A1"}, {"A2"}, {"A3"}]),
             (ghz, [{"A1"}, {"A2"}])]
    h = 1e-6
    for st, parts in cases:
        groups = Q.part_groups(st, parts)
        psi, r = Q.purification_vector(st)
        for d_e in (1, 2, 3, 4):
            d_g = max(d_e, r)
            g = rng.standard_normal((4, d_e * d_g, r)) \
                + 1j * rng.standard_normal((4, d_e * d_g, r))
            isos = E._polar_isometry(g)
            vals, grads = E._cond_info_extended(psi, st.dims, groups, isos,
                                                d_e, d_g, grad=True)
            assert np.allclose(vals, E._cond_info_extended(
                psi, st.dims, groups, isos, d_e, d_g), rtol=0, atol=1e-12)
            direc = E._tangent(isos, rng.standard_normal(isos.shape)
                               + 1j * rng.standard_normal(isos.shape))
            up, down = (E._cond_info_extended(
                psi, st.dims, groups, E._polar_isometry(isos + s * direc),
                d_e, d_g) for s in (h, -h))
            slope = np.real(np.sum(grads.conj() * direc, axis=(1, 2)))
            assert np.all(np.abs((up - down) / (2 * h) - slope)
                          <= 1e-8 * (1 + np.abs(slope))), (st.dims, d_e)
            # the projected (Riemannian) gradient is tangent: V^† xi is
            # skew-Hermitian
            skew = isos.conj().swapaxes(-1, -2) @ E._tangent(isos, grads)
            assert np.abs(skew + skew.conj().swapaxes(-1, -2)).max() <= 1e-12


def test_descent_never_raises_a_value_and_reports_the_winner():
    st = _panel_marginal(6)
    parts = [{"A1"}, {"A2"}]
    groups = Q.part_groups(st, parts)
    psi, r = Q.purification_vector(st)
    rng = np.random.default_rng(3)
    d_e = 2
    starts = E._polar_isometry(rng.standard_normal((3, d_e * d_e, r))
                               + 1j * rng.standard_normal((3, d_e * d_e, r)))

    def objective(isos, grad):
        return E._cond_info_extended(psi, st.dims, groups, isos, d_e, d_e,
                                     grad)

    # the search is deterministic, so k + 1 steps extend the k-step run
    values = []
    for steps in range(12):
        vs, vals = E._riemannian_descent(objective, starts, steps)
        assert np.array_equal(vals, objective(vs, True)[0] if steps
                              else objective(vs, False))
        values.append(objective(vs, True)[0])
    for before, after in zip(values, values[1:]):
        assert np.all(after <= before)
    assert np.all(values[-1] < values[0] - 1e-3)

    for budget in (EsqBudget(seed=7), SMALL):
        est = qr.esq_upper_bound(st, parts, budget)
        raw = qr.conditional_info_with_extension(st, parts, est.best_channel)
        assert est.value == min(est.baseline, max(0.0, 0.5 * raw))


def _descent_case():
    """A 2-qubit marginal's d_E = 2 objective and three random starts."""
    st = _panel_marginal(6)
    groups = Q.part_groups(st, [{"A1"}, {"A2"}])
    psi, r = Q.purification_vector(st)
    rng = np.random.default_rng(3)
    starts = E._polar_isometry(rng.standard_normal((3, 4, r))
                               + 1j * rng.standard_normal((3, 4, r)))

    def objective(isos, grad):
        return E._cond_info_extended(psi, st.dims, groups, isos, 2, 2, grad)
    return objective, starts


def test_first_descent_step_is_the_steepest_descent_step():
    objective, starts = _descent_case()
    for steps in (0, 1):
        v, f = E._riemannian_descent(objective, starts, steps)
        v_ref, f_ref = steepest_descent_reference(objective, starts, steps)
        assert np.array_equal(v, v_ref) and np.array_equal(f, f_ref)
    # past a kept move the conjugate direction takes over
    v, _ = E._riemannian_descent(objective, starts, 2)
    assert not np.array_equal(
        v, steepest_descent_reference(objective, starts, 2)[0])


def test_rejected_step_restarts_along_the_gradient():
    objective, starts = _descent_case()

    def rejecting_first_step():
        """``objective`` with step 1's values raised by 1, which fails
        every restart's Armijo test."""
        calls = itertools.count()

        def wrapped(isos, grad):
            f, g = objective(isos, grad)
            return (f + 1.0 if next(calls) == 1 else f), g
        return wrapped

    # every restart rejects step 1, so step 2 is a steepest-descent step
    # from the start at half the step size
    v, f = E._riemannian_descent(rejecting_first_step(), starts, 2)
    v_ref, f_ref = steepest_descent_reference(rejecting_first_step(),
                                              starts, 2)
    assert np.array_equal(v, v_ref) and np.array_equal(f, f_ref)
    assert np.all(f < objective(starts, False))


#: seed, exact value and winning (kind, d_E) of each panel marginal
PANEL = [(101, 0.4112532783393559, ("parameterized", 4)),
         (102, 0.31331361104983513, ("parameterized", 3)),
         (103, 0.41058059558282944, ("parameterized", 3))]


@pytest.mark.parametrize("seed, value, winner", PANEL,
                         ids=[str(seed) for seed, _, _ in PANEL])
def test_panel_values_pinned(seed, value, winner):
    est = qr.esq_upper_bound(_panel_marginal(seed), [{"A1"}, {"A2"}],
                             EsqBudget(seed=7))
    assert est.value == value
    assert (est.best_channel.kind, est.best_channel.d_e) == winner


def test_conjugate_descent_lowers_the_panel_mean():
    marginals = [_panel_marginal(seed) for seed, _, _ in PANEL]

    def panel_mean(budget_seed):
        return np.mean([qr.esq_upper_bound(m, [{"A1"}, {"A2"}],
                                           EsqBudget(seed=budget_seed)).value
                        for m in marginals])

    for budget_seed in range(10):
        new = panel_mean(budget_seed)
        with mock.patch.object(E, "_riemannian_descent",
                               steepest_descent_reference):
            old = panel_mean(budget_seed)
            if budget_seed == 7:  # the steepest-descent pins
                assert old == np.mean([0.4112926797651062, 0.313344311791367,
                                       0.4105686019815578])
        assert new < old, budget_seed


def _restart_starts(state, parts, budget):
    """{d_E: the start stack of its descent} of one search."""
    with mock.patch.object(E, "_riemannian_descent",
                           wraps=E._riemannian_descent) as descent:
        qr.esq_upper_bound(state, parts, budget)
    return {math.isqrt(starts.shape[1]): starts
            for (_, starts, _, _), _ in descent.call_args_list}


def test_restart_zero_continues_the_best_isometry_above_the_rank():
    marg, parts = _panel_marginal(101), [{"A1"}, {"A2"}]
    r = Q.purification_vector(marg)[1]
    assert r == 2
    budget = EsqBudget(seed=7)
    starts = _restart_starts(marg, parts, budget)
    assert sorted(starts) == [2, 3, 4]
    assert np.array_equal(starts[2][0], E._embedding_isometry(r, 2, 2))
    for d_e in (3, 4):
        assert not np.allclose(starts[d_e][0], E._embedding_isometry(
            r, d_e, d_e), atol=0.1)
        # restarts 1... draw from (seed, i) as before
        for i in range(1, budget.restarts):
            g = np.random.default_rng([7, i]).standard_normal(
                (2, d_e * d_e, r))
            assert np.array_equal(starts[d_e][i],
                                  E._polar_isometry(g[0] + 1j * g[1]))
    # no descent leads yet at the first entry above the rank
    assert np.array_equal(E._sweep_starts(r, 3, budget, None)[0],
                          E._embedding_isometry(r, 3, 3))
    # a rank-4 purifier: every d_E <= r keeps the dephasing start
    rank4 = qr.reduced_state(
        qr.random_pure_state(("A1", "A2", "R"), (2, 2, 4), 2), {"A1", "A2"})
    for d_e, stack in _restart_starts(rank4, parts, budget).items():
        assert np.array_equal(stack[0], E._embedding_isometry(4, d_e, d_e))


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.integers(0, 2 ** 16),
       st.integers(0, 2 ** 16))
def test_continued_restart_never_raises_a_rank_deficient_estimate(
        shape, state_seed, budget_seed):
    # m qubit parts and a reference of dimension r < 4, the top d_E
    m, r = shape
    labels = [f"A{i + 1}" for i in range(m)]
    marg = qr.reduced_state(qr.random_pure_state(
        labels + ["R"], [2] * m + [r], state_seed), set(labels))
    parts = [{lab} for lab in labels]
    budget = EsqBudget(seed=budget_seed)
    est = qr.esq_upper_bound(marg, parts, budget)
    old, _, _ = esq_search_reference(marg, parts, budget,
                                     continue_best=False)
    assert est.value <= old + 1e-12


def test_continued_restart_lowers_the_three_qubit_marginal():
    # restart 0 of the dephasing rule ended at 0.75646 for every d_E and
    # the estimate read 0.74952
    st4 = qr.random_pure_state(["A1", "A2", "A3", "R"], [2, 2, 2, 2], 3)
    marg = qr.reduced_state(st4, {"A1", "A2", "A3"})
    est = qr.esq_upper_bound(marg, [{"A1"}, {"A2"}, {"A3"}],
                             EsqBudget(seed=7))
    assert est.value <= 0.7470


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
    budget = EsqBudget(d_e_max=3, restarts=3, iterations=0, seed=4)
    est = qr.esq_upper_bound(marg, parts, budget)
    groups = Q.part_groups(marg, parts)
    psi, r = Q.purification_vector(marg)
    assert r == 2  # d_E = 1 has no isometry from the purifier
    raws = E._cond_info_extended(psi, marg.dims, groups,
                                 E.trivial_channel(r).isometry[None],
                                 1, r).tolist()
    for d_e in (2, 3):
        starts = [E._embedding_isometry(r, d_e, d_e)]
        for restart in range(1, budget.restarts):
            g = np.random.default_rng([budget.seed, restart])
            starts.append(E._polar_isometry(
                g.standard_normal((d_e * d_e, r))
                + 1j * g.standard_normal((d_e * d_e, r))))
        raws += E._cond_info_extended(psi, marg.dims, groups,
                                      np.stack(starts), d_e, d_e).tolist()
    assert est.value == min(est.baseline, max(0.0, 0.5 * min(raws)))

    # d_E * d_G below the purifier rank: no isometry exists, entry skipped
    rank4 = qr.reduced_state(
        qr.random_pure_state(("A", "B", "C"), (2, 2, 4), 2), {"A", "B"})
    assert Q.purification_vector(rank4)[1] == 4
    est = qr.esq_upper_bound(rank4, [{"A"}, {"B"}],
                             EsqBudget(d_e_max=1, restarts=2))
    assert est.best_channel.kind == "trivial"
    assert est.value == est.baseline


@pytest.mark.parametrize("field, value", [("d_e_max", 0),
                                          ("restarts", -1),
                                          ("iterations", -3),
                                          ("seed", -1)])
def test_budget_rejects_negative_counts(field, value):
    least = 1 if field == "d_e_max" else 0
    with pytest.raises(EsqError, match=f"budget {field} must be >= {least}, "
                                       f"got {value}$"):
        EsqBudget(**{field: value})


@pytest.mark.parametrize("field, value", [("d_e_max", 2.5),
                                          ("d_e_max", True),
                                          ("restarts", 2.5),
                                          ("iterations", 1.5),
                                          ("seed", True)])
def test_budget_refuses_what_is_not_a_count(field, value):
    with pytest.raises(EsqError, match=f"budget {field} must be an integer"):
        EsqBudget(**{field: value})


def test_budget_stores_numpy_integers_as_int():
    budget = EsqBudget(np.int32(2), np.int64(2), np.uint8(1), np.int64(3))
    assert budget == EsqBudget(2, 2, 1, 3)
    assert all(type(v) is int for v in (budget.d_e_max, budget.restarts,
                                        budget.iterations, budget.seed))


# ---------------------------------------------------------------------------
# the term plan

@pytest.mark.parametrize("x_dims", [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2),
                                    (2, 3, 2)])
@pytest.mark.parametrize("d_e, d_g", [(1, 2), (2, 3), (3, 1)])
def test_term_plan_gathers_the_marginal_factors(x_dims, d_e, d_g):
    m = len(x_dims)
    dims = tuple(x_dims) + (d_e, d_g)
    n = math.prod(dims)
    vecs = np.random.default_rng(m).standard_normal((3, n))
    for groups in ([[i] for i in range(m)], [[i] for i in reversed(range(m))],
                   [list(range(m - 1)), [m - 1]]):
        runs = E._term_plan(x_dims, tuple(map(tuple, groups)), d_e, d_g)
        terms = [(group + [m], 1) for group in groups] \
            + [([m + 1], -1), ([m], 1 - len(groups))]
        # the runs, concatenated, are the terms in summation order
        assert [c for coefs, _, _ in runs for c in coefs] \
            == [c for _, c in terms]
        t = 0
        for coefs, row_major, index in runs:
            assert len(coefs) == len(row_major) == len(index)
            assert not index.flags.writeable
            gathered = vecs.take(index, axis=1)
            for pos in range(len(coefs)):
                keep = terms[t + pos][0]
                assert np.array_equal(index[pos], Q.marginal_factor(
                    np.arange(n), dims, keep))
                view = Q.marginal_factor(vecs, dims, keep)
                assert row_major[pos] == view[0].flags.c_contiguous
                assert np.array_equal(gathered[:, pos], view)
            t += len(coefs)
        # each run is maximal: the next run's factors have another shape
        shapes = [index.shape[1:] for _, _, index in runs]
        assert all(a != b for a, b in zip(shapes, shapes[1:]))
    if x_dims == (2, 3, 2):
        # the qutrit's X2 E term parts the two qubit ones: each of the
        # three X_i E terms starts its own run
        runs = E._term_plan(x_dims, ((0,), (1,), (2,)), d_e, d_g)
        starts = np.cumsum([0] + [len(coefs) for coefs, _, _ in runs])
        assert {0, 1, 2} <= set(starts.tolist())


def _term_by_term_cases():
    """(psi, x_dims, groups, isos, d_e, d_g) on six shapes, each stack
    of five random isometries."""
    rng = np.random.default_rng(41)
    # (2, 3, 2) cuts its qubit Xi E terms into separate runs, and
    # (3, 2, 2) with merged groups gives parts of different shapes
    for x_dims, groups in [((2, 2), [[0], [1]]), ((2, 3), [[1], [0]]),
                           ((2, 2, 2), [[0], [1], [2]]),
                           ((2, 3, 2), [[0], [1], [2]]),
                           ((3, 2, 2), [[0, 2], [1]]),
                           ((2, 2, 2, 2), [[0], [1], [2], [3]])]:
        labels = [f"A{i}" for i in range(len(x_dims))]
        st = qr.reduced_state(qr.random_pure_state(
            labels + ["R"], list(x_dims) + [2], int(rng.integers(100))),
            set(labels))
        psi, r = Q.purification_vector(st)
        for d_e, d_g in itertools.product((1, 2, 3), repeat=2):
            if d_e * d_g < r or st.dim * d_e * d_g > E.ESQ_DIM_CAP:
                continue
            isos = E._polar_isometry(
                rng.standard_normal((5, d_e * d_g, r))
                + 1j * rng.standard_normal((5, d_e * d_g, r)))
            yield psi, x_dims, groups, isos, d_e, d_g


#: the default block budget, and one that puts every term in its own solve
BLOCK_BYTES = (Q.BLOCK_BYTES, 1)


def test_cond_info_gradient_path_matches_term_by_term_bits(monkeypatch):
    for case in _term_by_term_cases():
        want = cond_info_grad_reference(*case)
        for block_bytes in BLOCK_BYTES:
            monkeypatch.setattr(Q, "BLOCK_BYTES", block_bytes)
            got = E._cond_info_extended(*case, grad=True)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), (case[1], block_bytes)


def test_cond_info_value_path_matches_term_by_term_bits(monkeypatch):
    for case in _term_by_term_cases():
        want = cond_info_value_reference(*case)
        for block_bytes in BLOCK_BYTES:
            monkeypatch.setattr(Q, "BLOCK_BYTES", block_bytes)
            got = E._cond_info_extended(*case)
            assert got.tobytes() == want.tobytes(), (case[1], block_bytes)


# ---------------------------------------------------------------------------
# the bracket: lower <= E_sq <= value, and the search stops at the floor

FEAS_TOL = qr.region.FEAS_TOL


def _bracket_case(family, seed):
    """(state, parts) of one family, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if family == "random":  # a 2- or 3-sender marginal, qubits or a qutrit
        m = int(rng.integers(2, 4))
        dims = [int(d) for d in rng.choice([2, 2, 3], m)] \
            + [int(rng.integers(1, 5))]
        labels = [f"A{i + 1}" for i in range(m)]
        state = qr.random_pure_state(labels + ["R"], dims, seed)
        return qr.reduced_state(state, labels), [{lab} for lab in labels]
    if family == "mixture":
        return random_mixture_state(rng, branches=int(rng.integers(2, 4))), \
            [{"X1"}, {"X2"}]
    m = int(rng.integers(2, 4))
    labels = tuple(f"A{i + 1}" for i in range(m)) + ("R",)
    spec = {"ghz": StateSpec("ghz", labels, (2,) * (m + 1), "R"),
            "product": StateSpec("product", labels, (2,) * (m + 1), "R",
                                 basis=tuple(rng.integers(0, 2, m + 1))),
            # a Bell pair between senders: every subset holding it has L = 1
            "bell": StateSpec("bell", labels, (2,) * m + (1,), "R",
                              pair=("A1", "A2"))}[family]
    state = qr.build_state(spec)
    return qr.reduced_state(state, labels[:m]), [{lab} for lab in labels[:m]]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(family=st.sampled_from(["random", "mixture", "ghz", "product",
                               "bell"]),
       seed=st.integers(0, 2 ** 32 - 1),
       d_e_max=st.integers(1, 3),
       restarts=st.integers(0, 3), iterations=st.integers(0, 1),
       budget_seed=st.integers(0, 2 ** 16))
def test_estimate_brackets_the_squashed_entanglement(
        family, seed, d_e_max, restarts, iterations, budget_seed):
    state, parts = _bracket_case(family, seed)
    budget = EsqBudget(d_e_max, restarts, iterations, budget_seed)
    est = qr.esq_upper_bound(state, parts, budget)
    assert est.lower - FEAS_TOL <= est.value <= est.baseline
    raw = qr.conditional_info_with_extension(state, parts, est.best_channel)
    assert est.value == min(est.baseline, max(0.0, 0.5 * raw))


def _floor_cases():
    rng = np.random.default_rng(23)
    for seed in range(3):  # random pure marginals, some with merged parts
        st4 = qr.random_pure_state(["A1", "A2", "A3", "R"], [2, 2, 2, 2],
                                   seed)
        marg = qr.reduced_state(st4, {"A1", "A2", "A3"})
        yield marg, [{"A1"}, {"A2"}, {"A3"}]
        yield marg, [{"A1", "A3"}, {"A2"}]
        yield qr.reduced_state(st4, {"A1", "A2"}), [{"A1"}, {"A2"}]
    for branches in (2, 3, 4):
        yield random_mixture_state(rng, branches=branches), [{"X1"}, {"X2"}]
        yield random_mixture_state(rng, ("X1", "X2", "X3"), (2, 3, 2),
                                   branches), [{"X1"}, {"X2"}, {"X3"}]
    for seed in range(3):  # qutrit parts
        st3 = qr.random_pure_state(["A1", "A2", "R"], [3, 2, 2], seed)
        yield qr.reduced_state(st3, {"A1", "A2"}), [{"A1"}, {"A2"}]
        yield st3, [{"A1"}, {"A2"}, {"R"}]
    yield bell_between_senders(), [{"A1"}, {"A2"}]


def test_lower_matches_the_dense_marginal_reference():
    positive = 0
    for state, parts in _floor_cases():
        want = coherent_info_floor_reference(state, parts)
        est = qr.esq_upper_bound(state, parts, EsqBudget(restarts=0))
        assert abs(est.lower - want) <= 1e-10, (state.dims, parts)
        positive += want > 1e-6
    assert positive >= 5  # the floor is not 0 everywhere


@pytest.mark.parametrize("budget_seed", [0, 7, 97])
@pytest.mark.parametrize("seed", [101, 102, 103])
def test_stop_leaves_the_benchmark_panel_bits(seed, budget_seed):
    marg, parts = _panel_marginal(seed), [{"A1"}, {"A2"}]
    est = qr.esq_upper_bound(marg, parts, EsqBudget(seed=budget_seed))
    value, kind, d_e = esq_search_reference(marg, parts,
                                            EsqBudget(seed=budget_seed))
    assert est.value.hex() == value.hex()
    assert (est.best_channel.kind, est.best_channel.d_e) == (kind, d_e)


def test_descent_stops_at_its_target():
    marg = _panel_marginal(6)
    groups = Q.part_groups(marg, [{"A1"}, {"A2"}])
    psi, r = Q.purification_vector(marg)
    rng = np.random.default_rng(3)
    starts = E._polar_isometry(rng.standard_normal((3, 4, r))
                               + 1j * rng.standard_normal((3, 4, r)))
    calls = []

    def objective(isos, grad):
        calls.append(grad)
        return E._cond_info_extended(psi, marg.dims, groups, isos, 2, 2, grad)

    _, free = E._riemannian_descent(objective, starts, 12)
    assert len(calls) == 13
    # a target the scored starts already meet: no step is taken
    calls.clear()
    _, vals = E._riemannian_descent(objective, starts, 12, math.inf)
    assert len(calls) == 1 and vals.min() == objective(starts, True)[0].min()
    # a target met midway: the descent stops at the first step meeting it,
    # with the numbers of the run without a target up to there
    mid = 0.5 * (objective(starts, False).min() + free.min())
    calls.clear()
    _, vals = E._riemannian_descent(objective, starts, 12, mid)
    steps = len(calls) - 1
    assert 1 <= steps < 12 and vals.min() <= mid
    _, same = E._riemannian_descent(objective, starts, steps)
    assert np.array_equal(vals, same)
    _, before = E._riemannian_descent(objective, starts, steps - 1)
    assert before.min() > mid
