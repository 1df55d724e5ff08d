import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qregion as qr
from qregion import qstate, sim
from qregion.region import RegionError
from qregion.sim import SimError
from qregion.statespec import MixtureBranch, StateSpec

from helpers import (bell_state, dense_op, fidelity_reference, ghz_state,
                     ginibre, ncopy_op_reference, partial_trace_op,
                     product_state, random_mixture_state,
                     random_sender_state, reorder_subsystems,
                     trace_norm_reference, typical_projection_reference)


# The sequential protocol runs one two-sender stage per sender; the stage
# rates of a decoding order are the coordinates of its corner point.
def test_schedule_ghz():
    pt = qr.corner_point(qr.region_constants(ghz_state(), "R"), ("A1", "A2"))
    assert pt.rates == pytest.approx((1.0, 0.5), abs=1e-8)
    assert pt.rate("A1") == pytest.approx(1.0, abs=1e-8)


def test_schedule_product_state():
    rc = qr.region_constants(product_state(), "R")
    assert qr.corner_point(rc, ("A2", "A1")).rates \
        == pytest.approx((0.0, 0.0), abs=1e-9)


def test_schedule_telescopes_and_matches_corners():
    # stage i costs 1/2 I(A_pi_i; R A_pi_>i); the stages sum to C_full
    for seed in range(6):
        state = random_sender_state(3, 40 + seed)
        rc = qr.region_constants(state, "R")
        for perm in itertools.permutations(rc.senders):
            pt = qr.corner_point(rc, perm)
            assert sum(pt.rates) \
                == pytest.approx(rc.value(rc.senders), abs=1e-8)
            for i, sender in enumerate(perm):
                rest = set(perm[i + 1:]) | {"R"}
                stage = 0.5 * qr.multiparty_info(state, [{sender}, rest])
                assert abs(stage - pt.rate(sender)) <= 1e-8


def test_schedule_rejects_bad_permutation():
    with pytest.raises(RegionError):
        qr.corner_point(qr.region_constants(ghz_state(), "R"), ("A1", "R"))


def test_haar_unitary_contracts():
    u = qr.haar_unitary(8, 123)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() <= 1e-9
    again = qr.haar_unitary(8, 123)
    assert np.abs(u - again).max() == 0.0
    other = qr.haar_unitary(8, 124)
    assert np.abs(u - other).max() > 1e-3

    rho = np.diag([0.7, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
    rotated = u @ rho @ u.conj().T
    assert np.allclose(np.sort(np.linalg.eigvalsh(rotated)),
                       np.sort(np.diag(rho)), atol=1e-9)

    with pytest.raises(SimError):
        qr.haar_unitary(0, 1)
    with pytest.raises(SimError):
        qr.haar_unitary(512, 1)


def test_ncopy_grouping_adds_entropy():
    state = qr.random_pure_state(("A", "R"), (2, 2), 3)
    vec, purifier = sim._grouped_vector(state, 3, 0)
    grouped = qstate.state_from_vector(vec, ("A", "R", "P"),
                                       (8, 8, purifier))
    h1 = qr.entropy(state, {"A"})
    h3 = qr.entropy(grouped, {"A"})
    assert h3 == pytest.approx(3 * h1, abs=1e-9)


def test_typical_projection_maximally_mixed_is_identity():
    bell = bell_state()
    tp = qr.typical_projection(bell, "A", 3, 0.1)
    assert tp.typical_dim == 8
    assert tp.retained_probability == pytest.approx(1.0, abs=1e-9)
    assert np.abs(tp.projector - np.eye(8)).max() <= 1e-9


def test_typical_projection_pure_marginal():
    prod = product_state(("A", "R"))
    tp = qr.typical_projection(prod, "A", 4, 0.3)
    assert tp.typical_dim == 1
    assert tp.retained_probability == pytest.approx(1.0, abs=1e-12)


def test_typical_projection_binomial_oracle():
    spec = StateSpec(family="mixture", labels=("A", "R"), dims=(2, 2),
                     reference="R",
                     branches=(MixtureBranch(1 / 3, ((1, 0), (1, 0))),
                               MixtureBranch(2 / 3, ((0, 1), (0, 1)))))
    st = qr.build_state(spec)
    n, delta = 6, 0.5
    tp = qr.typical_projection(st, "A", n, delta)

    # independent oracle: binomial tail with the identical typicality rule
    ev = np.array([2 / 3, 1 / 3])  # descending, as the spectrum sorts
    logp = np.log2(ev)
    h = float(-(ev * logp).sum())
    import math
    expected = 0.0
    for j in range(n + 1):
        counts = np.array([n - j, j])
        if abs(-float(counts @ logp) / n - h) <= delta:
            expected += math.comb(n, j) * float(np.prod(ev ** counts))
    assert tp.retained_probability == pytest.approx(expected, abs=1e-12)


def test_typical_projection_warns_when_tight():
    spec = StateSpec(family="mixture", labels=("A", "R"), dims=(2, 2),
                     reference="R",
                     branches=(MixtureBranch(0.75, ((1, 0), (1, 0))),
                               MixtureBranch(0.25, ((0, 1), (0, 1)))))
    st = qr.build_state(spec)
    with pytest.warns(UserWarning, match="retains"):
        tp = qr.typical_projection(st, "A", 4, 0.2)
    assert tp.retained_probability < 0.5


def test_decoupling_bell_endpoints():
    bell = bell_state()
    curve = qr.decoupling_curve(bell, "A", "R", 1, [0.0, 1.0],
                                trials=4, seed=2)
    q0, q1 = curve.points
    assert q0.mean_dist == pytest.approx(0.75, abs=1e-12)
    assert q0.stderr_dist <= 1e-12
    assert q1.mean_dist <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decoupling_bell_at_zero_rate_is_exact(n):
    # nothing sent: a maximally entangled joint of dimension 4**n against
    # I / 4**n, whatever the unitary
    curve = qr.decoupling_curve(bell_state(), "A", "R", n, [0.0], trials=5,
                                seed=n)
    point = curve.points[0]
    assert abs(point.mean_fid - 4.0 ** -n) <= 1e-12
    assert abs(point.mean_dist - (1 - 4.0 ** -n)) <= 1e-12
    assert point.stderr_dist <= 1e-12


def test_decoupling_monotone_bell_three_copies():
    bell = bell_state()
    curve = qr.decoupling_curve(bell, "A", "R", 3, [0, 1 / 3, 2 / 3, 1.0],
                                trials=50, seed=5)
    means = [p.mean_dist for p in curve.points]
    errs = [p.stderr_dist for p in curve.points]
    for i in range(len(means) - 1):
        slack = 2.0 * np.hypot(errs[i], errs[i + 1])
        assert means[i + 1] <= means[i] + slack


def test_decoupling_reproducible():
    state = qr.random_pure_state(("A", "R"), (2, 2), 6)
    kw = dict(n=2, grid=[0.0, 0.5, 1.0], trials=20, seed=77)
    a = qr.decoupling_curve(state, "A", "R", **kw)
    b = qr.decoupling_curve(state, "A", "R", **kw)
    assert a.to_csv() == b.to_csv()


def test_decoupling_invariant_under_fixed_prerotation():
    state = qr.random_pure_state(("A", "R"), (2, 2), 8)
    w = qr.haar_unitary(2, 99)
    pre = np.kron(w, np.eye(2))
    rotated = qr.MultipartyState(("A", "R"), (2, 2),
                                 pre @ dense_op(state) @ pre.conj().T)
    kw = dict(n=2, grid=[0.5], trials=150, seed=13)
    a = qr.decoupling_curve(state, "A", "R", **kw).points[0]
    b = qr.decoupling_curve(rotated, "A", "R", **kw).points[0]
    slack = 5.0 * np.hypot(a.stderr_dist, b.stderr_dist)
    assert abs(a.mean_dist - b.mean_dist) <= slack


def test_decoupling_with_typical_projection():
    bell = bell_state()
    curve = qr.decoupling_curve(bell, "A", "R", 3, [0.0, 1.0], trials=5,
                                seed=4, typical_delta=2.0)
    assert curve.retained_probability == pytest.approx(1.0, abs=1e-9)
    assert curve.points[1].mean_dist <= 1e-9


def test_decoupling_grid_notes_and_errors():
    bell = bell_state()
    curve = qr.decoupling_curve(bell, "A", "R", 2, [0.4], trials=2, seed=1)
    assert curve.points[0].sent_qubits == 0
    assert any("floored" in n for n in curve.notes)

    # a rate is per copy: 4 copies at Q = 0.3 send floor(1.2) qubits
    curve = qr.decoupling_curve(bell, "A", "R", 4, [0.3], trials=2, seed=1)
    assert curve.points[0].sent_qubits == 1
    assert curve.notes == ("Q=0.3: fractional split n*Q=1.2 floored to 1 "
                           "qubits",)

    with pytest.raises(SimError):
        qr.decoupling_curve(bell, "A", "R", 1, [1.5], trials=2, seed=1)

    trit = qr.random_pure_state(("A", "R"), (3, 3), 0)
    with pytest.raises(SimError, match="qubit split"):
        qr.decoupling_curve(trit, "A", "R", 1, [1.0], trials=2, seed=1)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_grid_ends_take_the_input_tolerance(n):
    bell = bell_state()
    # within statespec.INPUT_TOL of 0 and of the full rate, on either side;
    # the tolerance is in rate units, whatever the copy count
    grid = [-5e-10, 5e-10, 1 - 5e-10, 1 + 5e-10]
    curve = qr.decoupling_curve(bell, "A", "R", n, grid, trials=2, seed=1)
    assert [p.sent_qubits for p in curve.points] == [0, 0, n, n]
    assert curve.notes == ()
    for q in (1.5, -1e-6, 1 + 1e-6, math.nan):
        with pytest.raises(SimError, match="outside"):
            qr.decoupling_curve(bell, "A", "R", n, [q], trials=2, seed=1)


def test_decoupling_three_label_state():
    # classically correlated sender/reference pair inside a GHZ state:
    # at Q = 0 the joint-vs-product distance is 1/2 for any unitary
    g = ghz_state()
    curve = qr.decoupling_curve(g, "A1", "R", 1, [0.0, 1.0],
                                trials=6, seed=3)
    assert curve.points[0].mean_dist == pytest.approx(0.5, abs=1e-10)
    assert curve.points[0].stderr_dist <= 1e-12
    assert curve.points[1].mean_dist <= 1e-9


@pytest.mark.parametrize("spectators, n", [(30, 1), (30, 2), (30, 3),
                                           (70, 1)])
def test_dimension_one_spectators_leave_the_curve_unchanged(spectators, n):
    # (labels + 1) * n axes of the n-copy vector pass numpy's 64-axis limit
    # unless the size-1 axes are left out
    labels = ("A1",) + tuple(f"S{i}" for i in range(1, spectators + 1))
    wide = qr.random_pure_state(labels + ("R",), (2,) + (1,) * spectators
                                + (2,), 9)
    bare = qr.random_pure_state(("A1", "R"), (2, 2), 9)
    grid = [k / n for k in range(n + 1)]
    csv = [qr.decoupling_curve(state, "A1", "R", n, grid, trials=4,
                               seed=3).to_csv() for state in (wide, bare)]
    assert csv[0] == csv[1]


def test_decoupling_csv_format():
    bell = bell_state()
    curve = qr.decoupling_curve(bell, "A", "R", 1, [0.0, 1.0],
                                trials=3, seed=2)
    lines = curve.to_csv().strip().split("\n")
    assert lines[0] == "Q,trials,mean_dist,stderr_dist,mean_fid"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"


def test_decoupling_rejects_fewer_than_one_copy():
    bell = bell_state()
    for n in (0, -1):
        with pytest.raises(SimError, match=r"need n >= 1 copies"):
            qr.decoupling_curve(bell, "A", "R", n, [0.0], trials=2, seed=1)


@pytest.mark.parametrize("kw, message", [
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": 2.5, "grid": [0.5]}, "trials must be an integer, got 2.5"),
    ({"n": 2.0}, "copies n must be an integer, got 2.0"),
    ({"n": 1.5}, "copies n must be an integer, got 1.5"),
    ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
    ({"seed": -1, "grid": [0.5]},
     "seed must be a nonnegative integer, got -1"),
    ({"seed": 1.5}, "seed must be a nonnegative integer, got 1.5"),
    ({"seed": True}, "seed must be a nonnegative integer, got True"),
], ids=["trials-ends", "trials-drawn", "n-float", "n-fraction",
        "seed-negative-ends", "seed-negative-drawn", "seed-fraction",
        "seed-bool"])
def test_decoupling_refuses_counts_and_seeds_before_any_draw(
        monkeypatch, kw, message):
    def unreachable(*args):
        raise AssertionError("drawn or built before the checks")

    monkeypatch.setattr(sim, "_grouped_vector", unreachable)
    monkeypatch.setattr(sim, "haar_unitaries", unreachable)
    args = {"n": 2, "grid": [0.0, 1.0], "trials": 2, "seed": 1, **kw}
    with pytest.raises(SimError, match=f"^{re.escape(message)}$"):
        qr.decoupling_curve(bell_state(), "A", "R", **args)


def test_typical_projection_refuses_a_fractional_copy_count():
    with pytest.raises(SimError, match=r"^copies n must be an integer, "
                                       r"got 1\.5$"):
        qr.typical_projection(bell_state(), "A", 1.5, 0.1)


def test_decoupling_checks_splits_before_building(monkeypatch):
    def unreachable(*args):
        raise AssertionError("n-copy vector built before the checks")

    monkeypatch.setattr(sim, "_grouped_vector", unreachable)
    monkeypatch.setattr(sim, "typical_projection", unreachable)
    trit = qr.random_pure_state(("A", "R"), (3, 3), 0)
    with pytest.raises(SimError, match="qubit split"):
        qr.decoupling_curve(trit, "A", "R", 1, [1.0], trials=2, seed=1,
                            typical_delta=0.5)
    # a 512-dimensional sender block fits the state cap but not the
    # Haar sampler
    wide = qr.random_pure_state(("A", "R"), (2, 1), 0)
    with pytest.raises(SimError, match="Haar cap"):
        qr.decoupling_curve(wide, "A", "R", 9, [0.0], trials=2, seed=1,
                            typical_delta=0.5)
    # a rate is per copy, so 4 Bell copies send at most 1 qubit each
    with pytest.raises(SimError, match=r"grid value 2 outside \[0, 1\]"):
        qr.decoupling_curve(bell_state(), "A", "R", 4, [2], trials=2, seed=1,
                            typical_delta=0.5)


def test_copy_count_is_bounded_on_a_trivial_state():
    # every dimension 1: each copy still counts as a qubit against the cap,
    # so a huge n is refused at once
    trivial = qr.random_pure_state(("A", "R"), (1, 1), 0)
    curve = qr.decoupling_curve(trivial, "A", "R", 12, [0.0], trials=2,
                                seed=1)
    assert curve.points[0].sent_qubits == 0
    for n in (13, 10 ** 18):
        with pytest.raises(SimError, match="exceeds the dimension cap"):
            qr.decoupling_curve(trivial, "A", "R", n, [0.0], trials=2,
                                seed=1)


def test_decoupling_checks_joint_cap_before_building(monkeypatch):
    def unreachable(*args):
        raise AssertionError("n-copy vector built before the checks")

    monkeypatch.setattr(sim, "_grouped_vector", unreachable)
    monkeypatch.setattr(sim, "typical_projection", unreachable)
    # 6 Bell copies: 64-dim sender block, nothing sent at Q = 0, so the
    # remainder-reference joint would be 64 x 64 = 4096-dimensional
    with pytest.raises(SimError, match="joint operator of dimension 4096"):
        qr.decoupling_curve(bell_state(), "A", "R", 6, [0.0, 1.0], trials=2,
                            seed=1, typical_delta=0.5)
    # sending every qubit leaves a 1 x 64 joint: the checks pass
    with pytest.raises(AssertionError, match="before the checks"):
        qr.decoupling_curve(bell_state(), "A", "R", 6, [1.0], trials=2,
                            seed=1)


def _typical_cases():
    # W marginal (2/3, 1/3); a qutrit marginal of rank 2, so one zero
    # eigenvalue; a pure marginal; random qubit and ququart marginals
    zero = StateSpec(family="mixture", labels=("A", "R"), dims=(3, 2),
                     reference="R",
                     branches=(MixtureBranch(0.3, ((1, 0, 0), (1, 0))),
                               MixtureBranch(0.7, ((0, 1, 0), (0, 1)))))
    w = qr.build_state(StateSpec(family="w", labels=("A1", "A2", "R"),
                                 dims=(2, 2, 2), reference="R"))
    rand = qr.random_pure_state(("A", "B", "R"), (2, 2, 2), 12)
    return [(w, "A1", 4, 0.4), (w, "A2", 3, 0.05),
            (qr.build_state(zero), "A", 3, 0.5),
            (qr.build_state(zero), "A", 5, 0.2),
            (product_state(("A", "R")), "A", 4, 0.3),
            (rand, "B", 6, 0.25), (rand, "A", 1, 2.0),
            (qr.random_pure_state(("A", "R"), (4, 4), 3), "A", 3, 0.3)]


@pytest.mark.filterwarnings("ignore:typical projection retains")
@pytest.mark.parametrize("case", range(len(_typical_cases())))
def test_typical_projection_matches_string_loop(case):
    state, sender, n, delta = _typical_cases()[case]
    tp = qr.typical_projection(state, sender, n, delta)
    projector, typical_dim, retained = typical_projection_reference(
        state, sender, n, delta)
    assert tp.typical_dim == typical_dim
    assert np.array_equal(tp.projector, projector)
    assert tp.retained_probability == retained


@pytest.mark.parametrize("case", ["bell", "mixture-delta", "three-label"])
def test_decoupling_curve_is_independent_of_the_chunk_size(monkeypatch,
                                                           case):
    if case == "bell":
        args = (bell_state(), "A", "R", 3, [0, 1 / 3, 2 / 3, 1.0])
        kw = dict(trials=7, seed=5)
    elif case == "mixture-delta":
        mix = random_mixture_state(np.random.default_rng(0), ("A", "R"),
                                   (2, 2))
        args = (mix, "A", "R", 2, [0.0, 0.5, 1.0])
        kw = dict(trials=40, seed=8, typical_delta=0.8)
    else:
        args = (random_sender_state(2, 3, d_ref=2), "A2", "R", 2,
                [0.0, 0.5, 1.0])
        kw = dict(trials=40, seed=9)
    default = qr.decoupling_curve(*args, **kw).to_csv()
    for cap in (0, 1 << 40):  # one trial per chunk, then a single chunk
        monkeypatch.setattr(qstate, "BLOCK_BYTES", cap)
        assert qr.decoupling_curve(*args, **kw).to_csv() == default


def _endpoint_cases():
    # (state, sender, n, interior grid, keyword arguments)
    mix = random_mixture_state(np.random.default_rng(1), ("A", "R"), (2, 2))
    return {
        "bell": (bell_state(), "A", 3, [1 / 3, 2 / 3],
                 dict(trials=9, seed=6)),
        "mixture-delta": (mix, "A", 3, [1 / 3, 2 / 3],
                          dict(trials=30, seed=2, typical_delta=0.2)),
        "three-label": (random_sender_state(2, 5, d_ref=2), "A2", 2, [0.5],
                        dict(trials=30, seed=4)),
    }


@pytest.mark.parametrize("case", ["bell", "mixture-delta", "three-label"])
def test_endpoint_only_grid_makes_no_draw(monkeypatch, case):
    # nothing sent or everything sent: the draw cannot change the value
    state, sender, n, _, kw = _endpoint_cases()[case]
    ref = _operator_reference(state, sender, "R", n, [0.0, 1.0],
                              **dict(kw, trials=2))

    def unreachable(*args):
        raise AssertionError("a Haar unitary was drawn")

    monkeypatch.setattr(sim, "haar_unitaries", unreachable)
    curve = qr.decoupling_curve(state, sender, "R", n, [0.0, 1.0], **kw)
    for point, (mean, _, fid) in zip(curve.points, ref):
        assert abs(point.mean_dist - mean) <= 1e-12
        assert abs(point.mean_fid - fid) <= 1e-12


@pytest.mark.parametrize("case", ["bell", "mixture-delta", "three-label"])
def test_interior_rows_do_not_depend_on_the_endpoints(case):
    state, sender, n, interior, kw = _endpoint_cases()[case]
    alone = qr.decoupling_curve(state, sender, "R", n, interior, **kw)
    framed = qr.decoupling_curve(state, sender, "R", n,
                                 [0.0] + interior + [1.0], **kw)
    assert framed.to_csv().splitlines()[2:-1] \
        == alone.to_csv().splitlines()[1:]


@pytest.mark.parametrize("case", ["bell", "mixture-delta", "three-label"])
def test_draw_independent_points_have_zero_stderr(case):
    state, sender, n, interior, kw = _endpoint_cases()[case]
    grid = [0.0] + interior + [1.0]
    curve = qr.decoupling_curve(state, sender, "R", n, grid, **kw)
    single = qr.decoupling_curve(state, sender, "R", n, grid,
                                 **dict(kw, trials=1))
    for i in (0, -1):
        point, one = curve.points[i], single.points[i]
        assert point.stderr_dist == 0.0
        assert point.mean_dist == one.mean_dist
        assert point.mean_fid == one.mean_fid
    # the drawn points still spread over the trials
    assert all(p.stderr_dist > 0.0 for p in curve.points[1:-1])


def test_typical_projection_rejects_non_finite_delta():
    bell = bell_state()
    for delta in (float("nan"), float("inf"), -0.1):
        with pytest.raises(SimError, match="delta"):
            qr.typical_projection(bell, "A", 2, delta)


def _conjugate_block(op, block, mat):
    """(M (x) I) op (M (x) I)^dagger for M acting on the leading block."""
    d = op.shape[0]
    t = op.reshape(block, d // block, block, d // block)
    t = np.einsum("ij,jrks->irks", mat, t)
    t = np.einsum("irks,lk->irls", t, mat.conj())
    return t.reshape(d, d)


def test_ncopy_state_matches_operator_reference():
    states = [random_mixture_state(np.random.default_rng(2), ("A", "R"),
                                   (2, 3)),
              random_mixture_state(np.random.default_rng(3),
                                   ("A1", "A2", "R"), (2, 2, 2)),
              qr.random_pure_state(("A", "B", "R"), (2, 3, 2), 4)]
    for state in states:
        for n in (1, 2, 3):
            vec, purifier = sim._grouped_vector(state, n, 0)
            dims = tuple(d ** n for d in state.dims)
            grouped = qstate.vector_marginal(vec, dims + (purifier,),
                                             range(len(dims)))
            assert np.abs(grouped
                          - ncopy_op_reference(state, n)).max() <= 1e-14


def _operator_reference(state, sender, reference, n, grid, trials, seed,
                        typical_delta=None):
    """Decoupling curve evolved as an n-copy density operator: the
    sender block is conjugated by each Haar draw and the joint state of
    the kept remainder and the reference is a partial trace."""
    s_idx, r_idx = state.index_of(sender), state.index_of(reference)
    other = [i for i in range(len(state.labels)) if i != s_idx]
    dims = [d ** n for d in state.dims]
    op = reorder_subsystems(ncopy_op_reference(state, n), dims,
                            [s_idx] + other)
    block = dims[s_idx]
    rest_dims = [dims[i] for i in other]
    d_ref = dims[r_idx]
    if typical_delta is not None:
        proj, _, _ = typical_projection_reference(state, sender, n,
                                                  typical_delta)
        op = _conjugate_block(op, block, proj)
        op = op / np.real(np.trace(op))
    nqs = [int(math.floor(n * q + 1e-9)) for q in grid]
    dists = np.zeros((len(grid), trials))
    fids = np.zeros((len(grid), trials))
    for t in range(trials):
        rotated = _conjugate_block(op, block,
                                   qr.haar_unitary(block, [seed, t]))
        for gi, nq in enumerate(nqs):
            d_a2 = block // 2 ** nq
            joint = partial_trace_op(
                rotated, [2 ** nq, d_a2] + rest_dims,
                [1, 2 + other.index(r_idx)])
            product = np.kron(
                partial_trace_op(joint, [d_a2, d_ref], [0]),
                partial_trace_op(joint, [d_a2, d_ref], [1]))
            dists[gi, t] = trace_norm_reference(joint - product) / 2.0
            fids[gi, t] = fidelity_reference(joint, product)
    return [(row.mean(), row.std(ddof=1) / math.sqrt(trials), fid.mean())
            for row, fid in zip(dists, fids)]


def _assert_matches_reference(state, sender, n, grid, typical_delta=None):
    kw = dict(trials=6, seed=31, typical_delta=typical_delta)
    curve = qr.decoupling_curve(state, sender, "R", n, grid, **kw)
    ref = _operator_reference(state, sender, "R", n, grid, **kw)
    for point, (mean, stderr, fid) in zip(curve.points, ref):
        assert abs(point.mean_dist - mean) <= 1e-12
        assert abs(point.stderr_dist - stderr) <= 1e-12
        assert abs(point.mean_fid - fid) <= 1e-12


def test_mixed_decoupling_matches_operator_reference():
    mix = random_mixture_state(np.random.default_rng(0), ("A", "R"), (2, 2))
    assert mix.purity() < 1 - 1e-6
    for n in (1, 2, 3):
        _assert_matches_reference(mix, "A", n, [k / n for k in range(n + 1)])
    _assert_matches_reference(mix, "A", 3, [0.0, 1 / 3, 1.0],
                              typical_delta=0.8)

    mix3 = random_mixture_state(np.random.default_rng(5), ("A1", "A2", "R"),
                                (2, 2, 2))
    for sender in ("A1", "A2"):
        _assert_matches_reference(mix3, sender, 2, [0.0, 0.5, 1.0])


@st.composite
def _decoupling_cases(draw):
    labels = draw(st.sampled_from((("A", "R"), ("A", "B", "R"))))
    sender = draw(st.sampled_from(labels[:-1]))
    dims = tuple(draw(st.sampled_from((2, 4))) if lab == sender
                 else draw(st.sampled_from((1, 2, 3))) for lab in labels)
    # the dense reference evolves a (prod(dims)**n)-dimensional operator
    n = draw(st.integers(1, max(1, int(math.log(64, math.prod(dims))))))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        state = qr.random_pure_state(labels, dims, seed)
    else:
        state = random_mixture_state(np.random.default_rng(seed), labels,
                                     dims, draw(st.integers(1, 3)))
    qubits = n * int(math.log2(dims[labels.index(sender)]))
    grid = draw(st.lists(st.integers(0, qubits), min_size=1, max_size=3,
                         unique=True))
    return state, sender, n, [j / n for j in grid]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_decoupling_cases())
def test_decoupling_matches_operator_reference_on_random_inputs(case):
    # pure and mixed inputs, full-rank and rank-deficient joints
    state, sender, n, grid = case
    _assert_matches_reference(state, sender, n, grid)


def test_joint_cap_admits_512_and_refuses_1024():
    wide = qr.random_pure_state(("A", "R"), (16, 32), 1)
    curve = qr.decoupling_curve(wide, "A", "R", 1, [0.0, 4.0], trials=2,
                                seed=1)
    assert curve.points[1].mean_dist <= 1e-9
    wider = qr.random_pure_state(("A", "R"), (32, 32), 1)
    with pytest.raises(SimError, match="joint operator of dimension 1024"):
        qr.decoupling_curve(wider, "A", "R", 1, [0.0], trials=2, seed=1)


def _rotated_stack(rng, dims, rows, pure_a2=False):
    """``rows`` amplitude vectors on (A1, A2, R, rest) = ``dims``: one
    random vector with each row's own unitary on A1 A2, or on A1 alone
    when A2 is held in a fixed pure state.  The reference marginal is
    the same in every row."""
    d_a1, d_a2, d_r, d_rest = dims
    if pure_a2:
        w = ginibre(rng, (d_a1, 1, d_r * d_rest))
        vec = (w * ginibre(rng, (1, d_a2, 1))).reshape(-1)
        us = np.stack([np.kron(qr.haar_unitary(d_a1, [7, t]), np.eye(d_a2))
                       for t in range(rows)])
    else:
        vec = ginibre(rng, d_a1 * d_a2 * d_r * d_rest)
        us = sim.haar_unitaries(d_a1 * d_a2, [[7, t] for t in range(rows)])
    vec /= np.linalg.norm(vec)
    rotated = (us @ vec.reshape(d_a1 * d_a2, -1)).reshape(rows, -1)
    return vec, rotated


def _assert_split_errors_match_reference(vec, rotated, dims):
    sigma_r = qstate.vector_marginal(vec, dims, [2])
    dists, fids = sim._split_errors(rotated, dims, 2, sigma_r,
                                    qstate.psd_sqrt(sigma_r))
    for v, dist, fid in zip(rotated, dists, fids):
        joint = partial_trace_op(np.outer(v, v.conj()), dims, [1, 2])
        product = np.kron(partial_trace_op(joint, dims[1:3], [0]),
                          partial_trace_op(joint, dims[1:3], [1]))
        assert abs(fid - fidelity_reference(joint, product)) <= 1e-10
        assert abs(dist - trace_norm_reference(joint - product) / 2) <= 1e-10


# (A1, A2, R, rest): k = d_A1 d_rest columns of M against D = d_A2 d_R rows
@pytest.mark.parametrize("dims", [(2, 4, 2, 1), (2, 2, 3, 3), (4, 2, 2, 4),
                                  (3, 2, 2, 4)],
                         ids=["k<D", "k=D", "k>D", "k>D-odd"])
@pytest.mark.parametrize("pure_a2", [False, True],
                         ids=["entangled", "rank-one-A2"])
def test_split_errors_match_the_dense_reference(dims, pure_a2):
    rng = np.random.default_rng(math.prod(dims) + pure_a2)
    vec, rotated = _rotated_stack(rng, dims, 5, pure_a2)
    _assert_split_errors_match_reference(vec, rotated, list(dims))


def test_split_errors_with_one_column_match_the_dense_reference():
    # Bell at Q = 0: nothing sent and no purifier, so M is D x 1
    bell = bell_state()
    vec = bell.psi.reshape(-1)
    us = sim.haar_unitaries(2, [[3, t] for t in range(4)])
    rotated = (us @ vec.reshape(2, 2)).reshape(4, -1)
    _assert_split_errors_match_reference(vec, rotated, [1, 2, 2, 1])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_decoupling_cases(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_rotations_leave_the_reference_marginal_unchanged(case, seed,
                                                          typical):
    # the precondition for taking sigma_R once per curve
    state, sender, n, _ = case
    s_idx, r_idx = state.index_of(sender), state.index_of("R")
    vec, purifier = sim._grouped_vector(state, n, s_idx)
    dims = [state.dims[s_idx] ** n] + [
        state.dims[i] ** n for i in range(len(state.dims)) if i != s_idx
    ] + [purifier]
    block = dims[0]
    if typical:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            proj = qr.typical_projection(state, sender, n, 0.5)
        vec = (proj.projector @ vec.reshape(block, -1)).reshape(-1)
        vec /= np.linalg.norm(vec)
    ref = r_idx + (r_idx < s_idx)  # the reference's axis after the block
    sigma_r = qstate.vector_marginal(vec, dims, [ref])
    us = sim.haar_unitaries(block, [[seed, t] for t in range(8)])
    rotated = (us @ vec.reshape(block, -1)).reshape(8, -1)
    assert np.abs(qstate.vector_marginal(rotated, dims, [ref])
                  - sigma_r).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_haar_unitary_first_and_second_moments(d):
    # E[U_ij] = 0 and E|U_ij|^2 = 1/d, each within 4 standard errors
    draws = 4000
    u = sim.haar_unitaries(d, [[d, t] for t in range(draws)])
    for part in (u.real, u.imag):
        mean = part.mean(axis=0)
        stderr = part.std(axis=0, ddof=1) / math.sqrt(draws)
        assert (np.abs(mean) <= 4 * stderr).all()
    sq = np.abs(u) ** 2
    stderr = sq.std(axis=0, ddof=1) / math.sqrt(draws)
    assert (np.abs(sq.mean(axis=0) - 1 / d) <= 4 * stderr).all()


def test_a_drawn_trial_runs_no_svd_and_no_reference_eigensolve(monkeypatch):
    # block 8 against A2 and R of 8 each: Q = 1/3 keeps D = 32 rows and
    # k = 16 columns of M, Q = 2/3 keeps D = 16 and k = 32
    state = random_sender_state(2, 7, d_ref=2)
    calls = []

    def record(name, solve):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return solve(a, *args, **kwargs)
        return wrapper

    def unreachable(*args, **kwargs):
        raise AssertionError("an SVD ran")

    monkeypatch.setattr(np.linalg, "eigvalsh",
                        record("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", record("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "svd", unreachable)
    qr.decoupling_curve(state, "A1", "R", 3, [1 / 3, 2 / 3], trials=5,
                        seed=1)
    assert calls == [
        ("eigh", (8, 8)),  # sqrt(sigma_R), once per curve
        ("eigvalsh", (5, 16, 16)), ("eigvalsh", (5, 32, 32)),  # k < D
        ("eigh", (5, 2, 2)),  # sqrt(sigma_A2), only when k > D
        ("eigvalsh", (5, 16, 16)), ("eigvalsh", (5, 16, 16))]
