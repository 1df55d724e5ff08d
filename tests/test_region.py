import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qregion as qr
from qregion import qstate, region
from qregion.region import (DEDUP_TOL, FEAS_TOL, RatePoint,
                            RegionConstants, RegionError, nonempty_subsets)
from qregion.statespec import StateSpec

from helpers import (_row_rank, bell_between_senders, bell_with_spectator,
                     chain_reference, corner_set_reference,
                     enumerate_vertices_reference,
                     ghz_state, product_state, random_mixture_state,
                     random_sender_state, region_constants_reference)


def fs(*labels):
    return frozenset(labels)


def zero_constants(m):
    senders = tuple(f"A{i + 1}" for i in range(m))
    return RegionConstants(senders, "R",
                           {s: 0.0 for s in nonempty_subsets(senders)})


GHZ_RC = qr.region_constants(ghz_state(), "R")


def test_region_constants_ghz():
    assert GHZ_RC.value({"A1"}) == pytest.approx(0.5, abs=1e-8)
    assert GHZ_RC.value({"A2"}) == pytest.approx(0.5, abs=1e-8)
    assert GHZ_RC.value({"A1", "A2"}) == pytest.approx(1.5, abs=1e-8)


def test_region_constants_product_and_spectator():
    rc = qr.region_constants(product_state(), "R")
    assert all(abs(v) <= 1e-9 for v in rc.c.values())

    rc2 = qr.region_constants(bell_with_spectator(), "R")
    assert rc2.value({"A1"}) == pytest.approx(1.0, abs=1e-8)
    assert rc2.value({"A2"}) == pytest.approx(0.0, abs=1e-8)
    assert rc2.value({"A1", "A2"}) == pytest.approx(1.0, abs=1e-8)


def test_region_constants_warns_on_mixed_input():
    mixed = qr.reduced_state(ghz_state(), {"A1", "A2"})
    with pytest.warns(UserWarning, match="not pure"):
        qr.region_constants(mixed, "A2")


def test_region_constants_needs_a_sender():
    single = qr.random_pure_state(("R",), (2,), 0)
    with pytest.raises(RegionError):
        qr.region_constants(single, "R")


def test_region_constants_requires_full_subset_cover():
    with pytest.raises(RegionError):
        RegionConstants(("A1", "A2"), "R", {fs("A1"): 0.5})


def test_corner_point_examples():
    pt = qr.corner_point(GHZ_RC, ("A1", "A2"))
    assert pt.rates == pytest.approx((1.0, 0.5), abs=1e-8)
    pt2 = qr.corner_point(GHZ_RC, ("A2", "A1"))
    assert pt2.rates == pytest.approx((0.5, 1.0), abs=1e-8)

    z = zero_constants(3)
    assert qr.corner_point(z, ("A2", "A1", "A3")).rates == (0.0,) * 3

    rc = qr.region_constants(bell_with_spectator(), "R")
    for perm in itertools.permutations(rc.senders):
        assert qr.corner_point(rc, perm).rates \
            == pytest.approx((1.0, 0.0), abs=1e-8)

    with pytest.raises(RegionError):
        qr.corner_point(GHZ_RC, ("A1", "A1"))


def test_corner_coordinates_nonnegative():
    for seed in range(10):
        rc = qr.region_constants(random_sender_state(3, seed), "R")
        for perm in itertools.permutations(rc.senders):
            assert min(qr.corner_point(rc, perm).rates) >= -1e-9


def test_corner_point_matches_entropic_form():
    for seed in range(10):
        state = random_sender_state(3, 100 + seed)
        rc = qr.region_constants(state, "R")
        for perm in itertools.permutations(rc.senders):
            pt = qr.corner_point(rc, perm)
            for i, sender in enumerate(perm):
                rest = set(perm[i + 1:]) | {"R"}
                direct = 0.5 * qr.multiparty_info(state, [{sender}, rest])
                assert abs(pt.rate(sender) - direct) <= 1e-8


def test_corner_set_examples():
    vr = qr.corner_set(GHZ_RC)
    pts = sorted(v.rates for v in vr.vertices)
    assert np.allclose(pts, [(0.5, 1.0), (1.0, 0.5)], atol=1e-8)
    # lexicographically smallest witness retained
    by_rates = {tuple(np.round(v.rates, 6)): v.witness for v in vr.vertices}
    assert by_rates[(1.0, 0.5)] == ("A1", "A2")

    rc = qr.region_constants(bell_with_spectator(), "R")
    assert len(qr.corner_set(rc).vertices) == 1

    rcp = qr.region_constants(product_state(), "R")
    vr2 = qr.corner_set(rcp)
    assert len(vr2.vertices) == 1
    assert vr2.vertices[0].rates == pytest.approx((0.0, 0.0), abs=1e-9)


def test_membership_examples():
    on_edge = qr.membership(GHZ_RC, RatePoint(GHZ_RC.senders, (1.0, 0.5)))
    assert on_edge.verdict == "boundary"
    assert set(on_edge.tight) == {fs("A2"), fs("A1", "A2")}

    inside = qr.membership(GHZ_RC, RatePoint(GHZ_RC.senders, (2.0, 2.0)))
    assert inside.verdict == "inside" and not inside.tight

    out = qr.membership(GHZ_RC, RatePoint(GHZ_RC.senders, (0.4, 0.4)))
    assert out.verdict == "outside"
    assert set(out.violated) == {fs("A1"), fs("A2"), fs("A1", "A2")}


def test_greedy_examples():
    pt, val = qr.greedy_minimize(GHZ_RC, (1.0, 2.0))
    assert val == pytest.approx(2.0, abs=1e-8)
    assert pt.rates == pytest.approx((1.0, 0.5), abs=1e-8)

    _, val_tie = qr.greedy_minimize(GHZ_RC, (1.0, 1.0))
    assert val_tie == pytest.approx(1.5, abs=1e-8)

    zpt, zval = qr.greedy_minimize(zero_constants(3), (2.0, 1.0, 3.0))
    assert zval == 0.0 and zpt.rates == (0.0, 0.0, 0.0)

    with pytest.raises(RegionError):
        qr.greedy_minimize(GHZ_RC, (1.0, 0.0))


def test_greedy_deterministic_tiebreak():
    a = qr.greedy_minimize(GHZ_RC, (1.0, 1.0))
    b = qr.greedy_minimize(GHZ_RC, (1.0, 1.0))
    assert a[0].rates == b[0].rates and a[0].witness == ("A1", "A2")


def test_enumerate_vertices_ghz():
    vr = qr.enumerate_vertices(GHZ_RC)
    pts = sorted(v.rates for v in vr.vertices)
    assert np.allclose(pts, [(0.5, 1.0), (1.0, 0.5)], atol=1e-8)


def test_enumerate_vertices_product():
    vr = qr.enumerate_vertices(qr.region_constants(product_state(), "R"))
    assert len(vr.vertices) == 1
    assert vr.vertices[0].rates == pytest.approx((0.0, 0.0), abs=1e-9)


def test_enumerate_matches_corner_set_random():
    for seed in range(10):
        rc = qr.region_constants(random_sender_state(3, 300 + seed), "R")
        enum = qr.enumerate_vertices(rc).arrays()
        corners = qr.corner_set(rc).arrays()
        assert len(enum) == len(corners)
        for row in enum:
            assert np.abs(corners - row).max(axis=1).min() <= 1e-7


def test_enumerate_rejects_large_m():
    with pytest.raises(RegionError):
        qr.enumerate_vertices(zero_constants(6))


# bit i stands for senders[i]: "1" is 1, "2" is 2 and "3" is 4

def test_reconstruct_chain_nested_input():
    # {3}, {2, 3}, {1, 2, 3}
    assert qr.reconstruct_chain(("1", "2", "3"), (4, 6, 7)) \
        == ("1", "2", "3")


def test_reconstruct_chain_overlapping_sets():
    # {1, 2}, {2, 3}, {1, 2, 3}: suffix sets {2}, {2, 3}, {1, 2, 3}
    assert qr.reconstruct_chain(("1", "2", "3"), (3, 6, 7)) \
        == ("1", "3", "2")


def test_reconstruct_chain_rejects_dependent_rows():
    # {1, 2}, {1, 2}, {3}
    with pytest.raises(RegionError, match="dependent"):
        qr.reconstruct_chain(("1", "2", "3"), (3, 3, 4))


def _label_orders(m, rng):
    labels = [f"A{i + 1}" for i in range(m)]
    return (tuple(labels), tuple(reversed(labels)),
            tuple(rng.permutation(labels).tolist()))


def _is_independent(m, masks):
    return _row_rank(np.array(masks)[:, None] >> np.arange(m) & 1) == m


def test_reconstruct_chain_matches_brute_force_order():
    # every ordered independent system for m <= 3, then 1500 sampled ones
    # at each of m = 4 and 5, each under sorted, reversed and shuffled labels
    rng = np.random.default_rng(41)
    checked = 0
    for m in (1, 2, 3, 4, 5):
        orders = _label_orders(m, rng)
        if m <= 3:
            systems = itertools.product(range(1, 1 << m), repeat=m)
        else:
            systems = (tuple(rng.integers(1, 1 << m, m).tolist())
                       for _ in itertools.count())
        systems = filter(lambda masks: _is_independent(m, masks), systems)
        for masks in itertools.islice(systems, 1500):
            for senders in orders:
                assert qr.reconstruct_chain(senders, masks) \
                    == chain_reference(senders, masks), (senders, masks)
            checked += 1
    assert checked > 3000


@st.composite
def _shuffled_random_states(draw):
    m = draw(st.integers(2, 4))
    order = draw(st.permutations([f"A{i + 1}" for i in range(m)]))
    state = qr.random_pure_state(tuple(order) + ("R",), (2,) * (m + 1),
                                 draw(st.integers(0, 2 ** 32 - 1)))
    return qr.region_constants(state, "R")


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_shuffled_random_states())
def test_vertices_and_corners_agree_with_witnesses(rc):
    vertices = qr.enumerate_vertices(rc).vertices
    corners = qr.corner_set(rc)
    assert len(vertices) == len(corners.vertices)
    for v in vertices:
        near = np.abs(corners.arrays() - v.as_array()).max(axis=1) <= DEDUP_TOL
        assert near.sum() == 1
        assert corners.vertices[int(np.argmax(near))].witness == v.witness


def test_corner_tight_on_maximal_chain():
    for seed in range(6):
        rc = qr.region_constants(random_sender_state(3, 600 + seed), "R")
        for perm in itertools.permutations(rc.senders):
            pt = qr.corner_point(rc, perm)
            m = rc.m
            for l in range(1, m + 1):
                suffix = frozenset(perm[m - l:])
                assert abs(sum(pt.rate(lab) for lab in suffix)
                           - rc.value(suffix)) <= 1e-8
            assert qr.membership(rc, pt).verdict != "outside"


def test_two_sender_facets_reduce():
    for seed in range(6):
        state = random_sender_state(2, 700 + seed, d_ref=4)
        rc = qr.region_constants(state, "R")
        i1 = 0.5 * qr.multiparty_info(state, [{"A1"}, {"R"}])
        i2 = 0.5 * qr.multiparty_info(state, [{"A2"}, {"R"}])
        h = lambda mask: qr.entropy(state, mask)
        s12 = 0.5 * (h({"A1"}) + h({"A2"}) + h({"A1", "A2"}))
        assert abs(rc.value({"A1"}) - i1) <= 1e-8
        assert abs(rc.value({"A2"}) - i2) <= 1e-8
        assert abs(rc.value({"A1", "A2"}) - s12) <= 1e-8


def test_check_supermodular():
    assert qr.check_supermodular(GHZ_RC) == []
    assert qr.check_supermodular(zero_constants(3)) == []
    bad = RegionConstants(("A1", "A2"), "R",
                          {fs("A1"): 1.0, fs("A2"): 1.0,
                           fs("A1", "A2"): 1.0})
    violations = qr.check_supermodular(bad)
    assert any({k, l} == {fs("A1"), fs("A2")} for k, l, _ in violations)


def test_constants_monotone_under_inclusion():
    for seed in range(6):
        rc = qr.region_constants(random_sender_state(3, 800 + seed), "R")
        for subset in nonempty_subsets(rc.senders):
            for extra in rc.senders:
                bigger = subset | {extra}
                assert rc.value(bigger) >= rc.value(subset) - 1e-7


def test_greedy_equals_lp_oracle_sample():
    rng = np.random.default_rng(5)
    for seed in range(20):
        rc = qr.region_constants(
            random_sender_state(3, 900 + seed, d_ref=8), "R")
        costs = rng.uniform(0.1, 3.0, 3)
        _, val = qr.greedy_minimize(rc, costs)
        best = min(float(v.as_array() @ costs)
                   for v in qr.enumerate_vertices(rc).vertices)
        assert abs(val - best) <= 1e-8


@st.composite
def _states_and_costs(draw):
    m = draw(st.integers(2, 5))
    state = random_sender_state(m, draw(st.integers(0, 2 ** 32 - 1)),
                                d_ref=draw(st.sampled_from((2, 4, 2 ** m))))
    costs = draw(st.lists(st.floats(1e-3, 10.0), min_size=m, max_size=m))
    return state, costs


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_states_and_costs())
def test_greedy_equals_minimum_over_corner_set(case):
    # a positive cost attains its minimum at a vertex, and the vertices
    # of the inner region are its corner points
    state, costs = case
    rc = qr.region_constants(state, "R")
    point, val = qr.greedy_minimize(rc, costs)
    best = float((qr.corner_set(rc).arrays() @ costs).min())
    assert abs(val - best) <= 1e-9 * (1.0 + abs(best))
    assert abs(val - float(point.as_array() @ costs)) <= 1e-12 * (1.0 + val)
    assert qr.membership(rc, point).verdict != "outside"


def test_corner_set_rejects_more_than_seven_senders():
    assert len(qr.corner_set(zero_constants(7)).vertices) == 1
    with pytest.raises(RegionError, match="this region has 8"):
        qr.corner_set(zero_constants(8))


# Frozenset references: corner points, membership and supermodularity
# computed one subset at a time through ``rc.value``.

def _reference_corner_set(rc, tol=DEDUP_TOL):
    kept = []
    for perm in itertools.permutations(sorted(rc.senders)):
        rates = {}
        for i in range(rc.m):
            after = rc.value(perm[i + 1:]) if i + 1 < rc.m else 0.0
            rates[perm[i]] = rc.value(perm[i:]) - after
        point = np.array([rates[lab] for lab in rc.senders])
        if any(np.max(np.abs(point - k)) <= tol for k, _ in kept):
            continue
        kept.append((point, perm))
    return kept


def _reference_membership(rc, q, tol=FEAS_TOL):
    violated, tight = [], []
    for subset in nonempty_subsets(rc.senders):
        total = sum(q.rate(lab) for lab in subset)
        if total < rc.value(subset) - tol:
            violated.append(subset)
        elif abs(total - rc.value(subset)) <= tol:
            tight.append(subset)
    verdict = "outside" if violated else "boundary" if tight else "inside"
    return verdict, tuple(violated), tuple(tight)


def _reference_check_supermodular(rc, tol=FEAS_TOL):
    out = []
    for k, l in itertools.combinations_with_replacement(
            nonempty_subsets(rc.senders), 2):
        lhs = rc.value(k | l) + rc.value(k & l)
        rhs = rc.value(k) + rc.value(l)
        if lhs < rhs - tol:
            out.append((k, l, rhs - lhs))
    return out


def _equivalence_cases():
    for m, seeds, d_ref in ((2, range(3), 4), (3, range(3), 8),
                            (4, range(2), 4), (5, range(1), 2),
                            (6, range(1), 2)):
        for seed in seeds:
            state = random_sender_state(m, 1000 * m + seed, d_ref=d_ref)
            yield f"random m={m} seed={seed}", qr.region_constants(state, "R")
    w = qr.build_state(StateSpec(family="w", labels=("A1", "A2", "A3", "R"),
                                 dims=(2, 2, 2, 2), reference="R"))
    labels4 = ("A1", "A2", "A3", "R")
    for name, state in (("ghz m=2", ghz_state()),
                        ("ghz m=3", ghz_state(labels4)),
                        ("w m=3", w),
                        ("product m=3", product_state(labels4)),
                        ("bell with spectator", bell_with_spectator()),
                        ("bell between senders", bell_between_senders())):
        yield name, qr.region_constants(state, "R")
    yield "not supermodular", RegionConstants(
        ("A1", "A2"), "R", {fs("A1"): 1.0, fs("A2"): 1.0,
                            fs("A1", "A2"): 1.0})
    # corners a few DEDUP_TOL apart: dedup decisions at the tolerance edge
    rng = np.random.default_rng(17)
    senders = ("A3", "A1", "A4", "A2")
    yield "near ties", RegionConstants(senders, "R", {
        s: 0.5 * len(s) + float(rng.uniform(0, 3 * DEDUP_TOL))
        for s in nonempty_subsets(senders)})
    yield "ghz m=4", qr.region_constants(
        ghz_state(("A1", "A2", "A3", "A4", "R")), "R")


@pytest.mark.filterwarnings("ignore:input state is not pure")
def test_bitmask_core_matches_frozenset_reference():
    rng = np.random.default_rng(3)
    for name, rc in _equivalence_cases():
        ref = _reference_corner_set(rc)
        vr = qr.corner_set(rc)
        assert np.array_equal(vr.arrays(), np.array([p for p, _ in ref])), \
            name
        assert [v.witness for v in vr.vertices] == [w for _, w in ref], name

        probes = [v.rates for v in vr.vertices]
        probes += [tuple(rng.uniform(0.0, 2.0, rc.m)) for _ in range(20)]
        # vertices nudged so that subset sums move by multiples of
        # 0.3 FEAS_TOL: across the tolerance, never onto it
        probes += [tuple(np.asarray(r) + rng.choice([-1, 0, 1], rc.m)
                         * 0.3 * FEAS_TOL) for r in probes[:4]]
        for rates in probes:
            q = RatePoint(rc.senders, tuple(float(r) for r in rates))
            got = qr.membership(rc, q)
            assert (got.verdict, got.violated, got.tight) \
                == _reference_membership(rc, q), name

        assert qr.check_supermodular(rc) \
            == _reference_check_supermodular(rc), name


# Batched vertex enumeration and windowed corner dedup against the loop
# references in helpers: same values, witnesses and order, bit for bit.

def _same_vregion(got, want):
    return (np.array_equal(got.arrays(), want.arrays())
            and [v.witness for v in got.vertices]
            == [v.witness for v in want.vertices])


@pytest.mark.filterwarnings("ignore:input state is not pure")
def test_enumerate_vertices_matches_loop_reference():
    for name, rc in _equivalence_cases():
        if rc.m <= region.MAX_ENUM_SENDERS:
            got = qr.enumerate_vertices(rc)
            assert _same_vregion(got, enumerate_vertices_reference(rc)), name


@pytest.mark.filterwarnings("ignore:input state is not pure")
def test_windowed_corner_set_matches_full_scan(monkeypatch):
    cases = list(_equivalence_cases())
    cases.append(("random m=7", qr.region_constants(
        random_sender_state(7, 3007, d_ref=2), "R")))
    # many corners coincide, so most points fall on a kept one
    cases.append(("zero m=5", zero_constants(5)))
    for m in (4, 5, 6):
        labels = tuple(f"A{i + 1}" for i in range(m)) + ("R",)
        cases.append((f"ghz m={m}", qr.region_constants(ghz_state(labels),
                                                        "R")))
    cases.append(("product m=5", qr.region_constants(product_state(
        tuple(f"A{i + 1}" for i in range(5)) + ("R",)), "R")))
    for name, rc in cases:
        for tol in (DEDUP_TOL, 1e-2):
            monkeypatch.setattr(region, "DEDUP_TOL", tol)
            got = qr.corner_set(rc)
            assert _same_vregion(got, corner_set_reference(rc, tol)), name


def test_independent_matches_row_rank():
    for m in range(1, 5):
        rc = zero_constants(m)
        combos = np.array(list(itertools.combinations(
            range(len(rc.subsets)), m)))
        stack = rc.incidence[combos]
        want = [_row_rank(a) == m for a in stack]
        assert region._independent(stack).tolist() == want, m


@pytest.mark.filterwarnings("ignore:input state is not pure")
def test_enumerate_vertices_block_size_does_not_change_output(monkeypatch):
    cases = [(name, rc) for name, rc in _equivalence_cases() if rc.m <= 4]
    want = [qr.enumerate_vertices(rc) for _, rc in cases]
    # one system per block, then a few blocks per call
    for cap in (1, 8 * 16 * 100):
        monkeypatch.setattr(region, "ENUM_BLOCK_BYTES", cap)
        for (name, rc), ref in zip(cases, want):
            assert _same_vregion(qr.enumerate_vertices(rc), ref), (cap, name)


@pytest.mark.filterwarnings("ignore:input state is not pure")
@pytest.mark.parametrize("cap", [region.ENUM_BLOCK_BYTES, 1],
                         ids=["default", "one-system"])
def test_enumerate_vertices_carries_kept_vertices_across_blocks(monkeypatch,
                                                                cap):
    # at a coarse tolerance a block's solutions fall near vertices kept
    # in earlier blocks, so the dedup must see those across the boundary
    monkeypatch.setattr(region, "DEDUP_TOL", 1e-2)
    monkeypatch.setattr(region, "ENUM_BLOCK_BYTES", cap)
    for name, rc in _equivalence_cases():
        if rc.m <= 4:
            want = enumerate_vertices_reference(rc, dedup_tol=1e-2)
            assert _same_vregion(qr.enumerate_vertices(rc), want), name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 np.float64("nan"), np.float64("-inf")],
                         ids=["nan", "inf", "-inf", "np-nan", "np--inf"])
def test_rate_point_rejects_non_finite_rates(bad):
    with pytest.raises(RegionError, match="rates must be finite"):
        RatePoint(("A1", "A2"), (0.5, bad))


# Stacked region entropies against one entropy solve per mask: the same
# constants bit for bit.

def _region_constants_cases():
    for m in range(1, 8):
        for d_ref in (1, 2, 8):
            yield (f"random m={m} d_ref={d_ref}",
                   random_sender_state(m, 70 * m + d_ref, d_ref=d_ref))
    for m in (2, 3, 4, 5):
        labels = tuple(f"A{i + 1}" for i in range(m)) + ("R",)
        yield f"ghz m={m}", ghz_state(labels)
        yield f"product m={m}", product_state(labels)
    yield "w m=4", qr.build_state(StateSpec(
        family="w", labels=("A1", "A2", "A3", "A4", "R"), dims=(2,) * 5,
        reference="R"))
    yield "bell with spectator", bell_with_spectator()
    yield "bell between senders", bell_between_senders()
    yield "mixture", random_mixture_state(np.random.default_rng(5),
                                          ("A1", "A2", "R"), (2, 3, 2))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.filterwarnings("ignore:input state is not pure")
def test_region_constants_match_per_mask_reference():
    for name, state in _region_constants_cases():
        got = qr.region_constants(state, "R")
        want = region_constants_reference(state, "R")
        assert got.senders == want.senders, name
        assert _same_bits(got.table, want.table), name


@pytest.mark.filterwarnings("ignore:input state is not pure")
def test_region_constants_block_size_does_not_change_output(monkeypatch):
    cases = list(_region_constants_cases())
    want = [qr.region_constants(state, "R").table for _, state in cases]
    monkeypatch.setattr(qstate, "ENTROPY_BLOCK_BYTES", 1)  # one per block
    for (name, state), table in zip(cases, want):
        assert _same_bits(qr.region_constants(state, "R").table, table), name
