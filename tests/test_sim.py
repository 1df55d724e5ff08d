import itertools
import math

import numpy as np
import pytest

import qregion as qr
from qregion import sim
from qregion.sim import SimError
from qregion.statespec import BranchSpec, StateSpec

from helpers import (bell_state, fidelity_reference, ghz_state,
                     partial_trace_op, product_state, random_mixture_state,
                     random_sender_state, reorder_subsystems,
                     trace_norm_reference, typical_projection_reference)


def test_schedule_ghz():
    sch = qr.multiparty_schedule(ghz_state(), "R", ("A1", "A2"))
    assert sch.thresholds == pytest.approx((1.0, 0.5), abs=1e-8)
    assert sch.threshold("A1") == pytest.approx(1.0, abs=1e-8)


def test_schedule_product_state():
    sch = qr.multiparty_schedule(product_state(), "R", ("A2", "A1"))
    assert sch.thresholds == pytest.approx((0.0, 0.0), abs=1e-9)


def test_schedule_telescopes_and_matches_corners():
    for seed in range(6):
        state = random_sender_state(3, 40 + seed)
        rc = qr.region_constants(state, "R")
        for perm in itertools.permutations(rc.senders):
            sch = qr.multiparty_schedule(state, "R", perm)
            assert sum(sch.thresholds) \
                == pytest.approx(rc.value(rc.senders), abs=1e-8)
            pt = qr.corner_point(rc, perm)
            for sender in perm:
                assert abs(sch.threshold(sender)
                           - pt.rate(sender)) <= 1e-8


def test_schedule_rejects_bad_permutation():
    with pytest.raises(SimError):
        qr.multiparty_schedule(ghz_state(), "R", ("A1", "R"))


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
    grouped = qr.ncopy_state(state, 3)
    assert grouped.dims == (8, 8)
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
                     branches=(BranchSpec(1 / 3, ((1, 0), (1, 0))),
                               BranchSpec(2 / 3, ((0, 1), (0, 1)))))
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
                     branches=(BranchSpec(0.75, ((1, 0), (1, 0))),
                               BranchSpec(0.25, ((0, 1), (0, 1)))))
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
                                 pre @ state.op @ pre.conj().T)
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

    with pytest.raises(SimError):
        qr.decoupling_curve(bell, "A", "R", 1, [1.5], trials=2, seed=1)

    trit = qr.random_pure_state(("A", "R"), (3, 3), 0)
    with pytest.raises(SimError, match="qubit split"):
        qr.decoupling_curve(trit, "A", "R", 1, [1.0], trials=2, seed=1)


def test_decoupling_three_label_state():
    # classically correlated sender/reference pair inside a GHZ state:
    # at Q = 0 the joint-vs-product distance is 1/2 for any unitary
    g = ghz_state()
    curve = qr.decoupling_curve(g, "A1", "R", 1, [0.0, 1.0],
                                trials=6, seed=3)
    assert curve.points[0].mean_dist == pytest.approx(0.5, abs=1e-10)
    assert curve.points[0].stderr_dist <= 1e-12
    assert curve.points[1].mean_dist <= 1e-9


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
                     branches=(BranchSpec(0.3, ((1, 0, 0), (1, 0))),
                               BranchSpec(0.7, ((0, 1, 0), (0, 1)))))
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
        monkeypatch.setattr(sim, "TRIAL_CHUNK_BYTES", cap)
        assert qr.decoupling_curve(*args, **kw).to_csv() == default


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


def _ncopy_op_reference(state, n):
    """n-copy density operator with each label's copies grouped: the
    Kronecker power of ``op`` with its factors reordered label-major."""
    op = state.op
    for _ in range(n - 1):
        op = np.kron(op, state.op)
    k = len(state.labels)
    order = [c * k + l for l in range(k) for c in range(n)]
    return reorder_subsystems(op, list(state.dims) * n, order)


def test_ncopy_state_matches_operator_reference():
    states = [random_mixture_state(np.random.default_rng(2), ("A", "R"),
                                   (2, 3)),
              random_mixture_state(np.random.default_rng(3),
                                   ("A1", "A2", "R"), (2, 2, 2)),
              qr.random_pure_state(("A", "B", "R"), (2, 3, 2), 4)]
    for state in states:
        for n in (1, 2, 3):
            grouped = qr.ncopy_state(state, n)
            assert grouped.dims == tuple(d ** n for d in state.dims)
            assert np.abs(grouped.op
                          - _ncopy_op_reference(state, n)).max() <= 1e-14


def _operator_reference(state, sender, reference, n, grid, trials, seed,
                        typical_delta=None):
    """Decoupling curve evolved as an n-copy density operator: the
    sender block is conjugated by each Haar draw and the joint state of
    the kept remainder and the reference is a partial trace."""
    s_idx, r_idx = state.index_of(sender), state.index_of(reference)
    other = [i for i in range(len(state.labels)) if i != s_idx]
    dims = [d ** n for d in state.dims]
    op = reorder_subsystems(_ncopy_op_reference(state, n), dims,
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
    assert not mix.is_pure(1e-6)
    for n in (1, 2, 3):
        _assert_matches_reference(mix, "A", n, [k / n for k in range(n + 1)])
    _assert_matches_reference(mix, "A", 3, [0.0, 1 / 3, 1.0],
                              typical_delta=0.8)

    mix3 = random_mixture_state(np.random.default_rng(5), ("A1", "A2", "R"),
                                (2, 2, 2))
    for sender in ("A1", "A2"):
        _assert_matches_reference(mix3, sender, 2, [0.0, 0.5, 1.0])
