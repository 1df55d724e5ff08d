import tracemalloc

import numpy as np
import pytest

import qregion as qr
from qregion import qstate as Q
from qregion.qstate import MultipartyState, StateError, state_from_vector
from qregion.statespec import MixtureBranch, SpecError, StateSpec

from helpers import (bell_state, bell_with_spectator,
                     conditional_info_forms, ghz_state,
                     multiparty_info_reference, product_state, random_ket)


def test_ghz_rank_one_and_marginal_spectrum():
    g = ghz_state()
    assert g.purity() == pytest.approx(1.0, abs=1e-12)
    marg = qr.reduced_state(g, {"A1"})
    ev = np.sort(np.linalg.eigvalsh(marg.op))
    assert np.allclose(ev, [0.5, 0.5], atol=1e-12)


def test_product_state_zero_marginals():
    p = product_state()
    for lab in p.labels:
        assert qr.entropy(p, {lab}) == pytest.approx(0.0, abs=1e-12)
    assert p.provenance is None  # only mixtures carry one


def test_mixture_provenance_and_diagonal_op():
    spec = StateSpec(family="mixture", labels=("X1", "X2"), dims=(2, 2),
                     reference="X2",
                     branches=(MixtureBranch(0.5, ((1, 0), (1, 0))),
                               MixtureBranch(0.5, ((0, 1), (0, 1)))))
    st = qr.build_state(spec)
    assert len(st.provenance) == 2
    assert np.allclose(st.op, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


def test_reduced_state_identity_and_bell_spectator():
    g = ghz_state()
    full = qr.reduced_state(g, set(g.labels))
    assert np.abs(full.op - g.op).max() <= 1e-12

    b = bell_with_spectator()
    marg = qr.reduced_state(b, {"A1", "A2"})
    want = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert np.abs(marg.op - want).max() <= 1e-12


def test_entropy_examples():
    g = ghz_state()
    assert qr.entropy(g, {"A1"}) == pytest.approx(1.0, abs=1e-10)
    assert qr.entropy(g, set(g.labels)) == pytest.approx(0.0, abs=1e-10)
    mixed = MultipartyState(("X",), (2,), np.eye(2) / 2)
    assert qr.entropy(mixed, {"X"}) == pytest.approx(1.0, abs=1e-12)


def test_entropy_bounds_random():
    for seed in range(5):
        st = qr.random_pure_state(("A", "B", "C"), (2, 3, 2), seed)
        for mask in ({"A"}, {"B"}, {"A", "C"}, {"A", "B", "C"}):
            h = qr.entropy(st, mask)
            assert -1e-9 <= h <= np.log2(st.dim_of(mask)) + 1e-9


def test_pure_state_complementary_entropies():
    for seed in range(5):
        st = qr.random_pure_state(("A", "B", "C", "D"), (2, 2, 2, 2), seed)
        labels = set(st.labels)
        for mask in ({"A"}, {"B", "C"}, {"A", "D"}, {"A", "B", "C"}):
            comp = labels - mask
            assert abs(qr.entropy(st, mask)
                       - qr.entropy(st, comp)) <= 1e-9


def test_multiparty_info_examples():
    g = ghz_state()
    assert qr.multiparty_info(g, [{"A1"}, {"A2"}, {"R"}]) \
        == pytest.approx(3.0, abs=1e-9)
    p = product_state()
    assert qr.multiparty_info(p, [{"A1"}, {"A2"}, {"R"}]) \
        == pytest.approx(0.0, abs=1e-9)
    b = bell_state()
    assert qr.multiparty_info(b, [{"A"}, {"R"}]) \
        == pytest.approx(2.0, abs=1e-9)


def test_multiparty_info_rejects_overlap():
    g = ghz_state()
    with pytest.raises(StateError):
        qr.multiparty_info(g, [{"A1"}, {"A1", "A2"}])
    with pytest.raises(StateError):
        qr.multiparty_info(g, [{"A1"}, {"A2"}], cond={"A2"})


def test_multiparty_info_matches_the_one_mask_reference_bits():
    # 40 states with 3-5 labels of dims 1-3, pure and mixed (a traced
    # purifier), parts cut at random, with and without a conditioning set
    rng = np.random.default_rng(44)
    for k in range(40):
        n = int(rng.integers(3, 6))
        labels = [f"L{i}" for i in range(n)]
        st = qr.random_pure_state(labels + ["P"],
                                  rng.integers(1, 4, size=n + 1).tolist(), k)
        if k % 2:
            st = qr.reduced_state(st, labels)
        order = rng.permutation(labels).tolist()
        cond = set(order[:int(rng.integers(1, n - 1))]) if k % 4 > 1 else None
        rest = order[len(cond or ()):]
        cuts = rng.integers(len(rest), size=len(rest))
        parts = [set(lab for lab, c in zip(rest, cuts) if c == i)
                 for i in sorted(set(cuts.tolist()))]
        got = qr.multiparty_info(st, parts, cond)
        assert type(got) is float
        assert got.hex() == multiparty_info_reference(st, parts, cond).hex()


def test_conditional_forms_agree():
    for seed in range(8):
        st = qr.random_pure_state(("A", "B", "C", "E"), (2, 2, 2, 2), seed)
        f1_, f2_, f3_ = conditional_info_forms(
            st, [{"A"}, {"B"}, {"C"}], {"E"})
        assert abs(f1_ - f2_) <= 1e-9
        assert abs(f1_ - f3_) <= 1e-9
        assert abs(qr.multiparty_info(st, [{"A"}, {"B"}, {"C"}], {"E"})
                   - f1_) <= 1e-9


def test_merging_identity():
    for seed in range(8):
        st = qr.random_pure_state(("A", "B", "X", "Y"), (2, 2, 2, 2), seed)
        lhs = qr.multiparty_info(st, [{"A"}, {"B"}, {"X"}, {"Y"}]) \
            - qr.multiparty_info(st, [{"A"}, {"B"}])
        rhs = qr.multiparty_info(st, [{"A", "B"}, {"X"}, {"Y"}])
        assert abs(lhs - rhs) <= 1e-9


def test_monotonicity_and_chain_rule():
    for seed in range(8):
        st = qr.random_pure_state(("A", "B", "X", "E"), (2, 2, 2, 4), seed)
        big = qr.multiparty_info(st, [{"A", "B"}, {"X"}], cond={"E"})
        small = qr.multiparty_info(st, [{"A"}, {"X"}], cond={"E"})
        assert big - small >= -1e-7
        chained = qr.multiparty_info(st, [{"A"}, {"X"}], cond={"B", "E"})
        assert big - chained >= -1e-7


def test_strong_subadditivity_random():
    for seed in range(8):
        st = qr.random_pure_state(("A", "B", "E", "P"), (2, 2, 3, 4), seed)
        h = lambda m: qr.entropy(st, m)
        ssa = h({"A", "E"}) + h({"B", "E"}) - h({"A", "B", "E"}) - h({"E"})
        assert ssa >= -1e-7


def test_fidelity_examples():
    b = bell_state()
    assert Q.fidelity_ops(b.op, b.op) == pytest.approx(1.0, abs=1e-10)
    mixed = MultipartyState(("A", "R"), (2, 2), np.eye(4) / 4)
    assert Q.fidelity_ops(b.op, mixed.op) == pytest.approx(0.25, abs=1e-9)
    zero = product_state(("A",), reference="A")
    one = qr.build_state(StateSpec(family="product", labels=("A",),
                                   dims=(2,), basis=(1,), reference="A"))
    assert Q.fidelity_ops(zero.op, one.op) == pytest.approx(0.0, abs=1e-10)


def test_fidelity_symmetry():
    rng = np.random.default_rng(3)
    for seed in range(5):
        a = qr.random_pure_state(("A", "B"), (2, 2), seed)
        mix = rng.dirichlet((1, 1, 1, 1))
        b = MultipartyState(("A", "B"), (2, 2), np.diag(mix))
        assert abs(Q.fidelity_ops(a.op, b.op)
                   - Q.fidelity_ops(b.op, a.op)) <= 1e-8


def test_trace_distance_examples():
    b = bell_state()
    assert Q.trace_norm(b.op - b.op) == pytest.approx(0.0, abs=1e-10)
    zero = product_state(("A",), reference="A")
    one = qr.build_state(StateSpec(family="product", labels=("A",),
                                   dims=(2,), basis=(1,), reference="A"))
    assert Q.trace_norm(zero.op - one.op) == pytest.approx(2.0, abs=1e-10)
    mixed = MultipartyState(("A", "R"), (2, 2), np.eye(4) / 4)
    assert Q.trace_norm(b.op - mixed.op) == pytest.approx(1.5, abs=1e-10)
    assert Q.trace_norm(b.op - mixed.op) / 2 \
        == pytest.approx(0.75, abs=1e-10)


def test_fidelity_trace_distance_sandwich():
    rng = np.random.default_rng(11)
    for seed in range(6):
        a = qr.random_pure_state(("A", "B"), (2, 2), seed)
        w = rng.dirichlet(np.ones(4))
        v1, v2 = random_ket(rng, 4), random_ket(rng, 4)
        op = (w[0] * np.outer(v1, v1.conj()) + w[1] * np.outer(v2, v2.conj())
              + (w[2] + w[3]) * np.eye(4) / 4)
        b = MultipartyState(("A", "B"), (2, 2), op)
        f = Q.fidelity_ops(a.op, b.op)
        d = Q.trace_norm(a.op - b.op) / 2
        assert 1 - np.sqrt(f) <= d + 1e-7
        assert d <= np.sqrt(1 - f) + 1e-7


def test_constructor_invariants():
    with pytest.raises(StateError):
        MultipartyState(("A",), (2,), np.eye(2))  # trace 2
    herm = np.array([[0.5, 0.5j], [0.5j, 0.5]])
    with pytest.raises(StateError):
        MultipartyState(("A",), (2,), herm)  # not Hermitian
    with pytest.raises(StateError):
        MultipartyState(("A", "A"), (2, 2), np.eye(4) / 4)  # dup labels
    with pytest.raises(StateError):
        MultipartyState(("A",), (3,), np.eye(2) / 2)  # shape mismatch
    neg = np.diag([1.5, -0.5])
    with pytest.raises(StateError):
        MultipartyState(("A",), (2,), neg)  # negative eigenvalue
    with pytest.raises(StateError):
        MultipartyState(("A", "B", "C"), (64, 64, 2),
                        np.eye(8192) / 8192)  # above the cap
    bad_prov = (qr.MixtureBranch(1.0, (np.array([0, 1.0]),)),)
    with pytest.raises(StateError):
        MultipartyState(("A",), (2,), np.diag([1.0, 0.0]), bad_prov)


def test_w_state_marginal_spectrum():
    w = qr.build_state(StateSpec(family="w", labels=("A", "B", "C"),
                                 dims=(2, 2, 2), reference="C"))
    assert w.purity() == pytest.approx(1.0, abs=1e-12)
    ev = np.sort(np.linalg.eigvalsh(qr.reduced_state(w, {"A"}).op))
    assert np.allclose(ev, [1 / 3, 2 / 3], atol=1e-12)


def test_random_pure_deterministic():
    a = qr.random_pure_state(("A", "B"), (2, 2), 42)
    b = qr.random_pure_state(("A", "B"), (2, 2), 42)
    c = qr.random_pure_state(("A", "B"), (2, 2), 43)
    assert np.abs(a.op - b.op).max() == 0.0
    assert np.abs(a.op - c.op).max() > 1e-3


def test_build_state_rejects_unknown_family():
    with pytest.raises(ValueError):
        StateSpec(family="ghzz", labels=("A", "B"), dims=(2, 2),
                  reference="B")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_constructor_rejects_non_finite_operator(bad):
    with pytest.raises(StateError, match="non-finite"):
        MultipartyState(("A",), (2,), [[bad, 0], [0, 1]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_state_from_vector_rejects_non_finite_entries(bad):
    with pytest.raises(StateError, match="non-finite"):
        state_from_vector([bad, 1], ["A"], [2])


def test_build_state_checks_the_dimension_cap_before_building(monkeypatch):
    def build(spec):
        pytest.fail("the builder ran on an oversized spec")

    monkeypatch.setitem(Q._BUILDERS, "random_pure", build)
    spec = StateSpec("random_pure", ("A", "R"), (128, 64), "R", seed=1)
    with pytest.raises(SpecError, match="total dimension 8192 exceeds cap "
                                        "4096") as err:
        qr.build_state(spec)
    assert err.value.field == "dims"


def test_random_pure_state_checks_the_cap_before_drawing():
    tracemalloc.start()
    try:
        with pytest.raises(StateError, match="total dimension 2097152 "
                                             "exceeds cap 4096"):
            qr.random_pure_state(["A", "B"], [2 ** 11, 2 ** 10], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 2**32 * 2**32 wraps to 0 in int64 arithmetic
    with pytest.raises(StateError, match=f"total dimension {2 ** 64} "):
        qr.random_pure_state(["A", "B"], [2 ** 32, 2 ** 32], 1)


def test_provenance_is_checked_in_row_blocks_at_the_cap():
    # twelve qubits: one dense operator is 256 MiB, and a product state
    # forms none
    labels = tuple(f"A{i}" for i in range(1, 12)) + ("R",)
    spec = StateSpec("product", labels, (2,) * 12, "R", basis=(1,) * 12)
    tracemalloc.start()
    try:
        state = qr.build_state(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"peak {peak / 2 ** 20:.1f} MiB"
    assert "op" not in vars(state) and state.provenance is None
    # nine qubits are four row blocks: |1...10> differs from the
    # operator |1...1><1...1| in the last block alone
    op = np.zeros((512, 512))
    op[-1, -1] = 1.0
    wrong = (MixtureBranch(1.0, ((0, 1),) * 8 + ((1, 0),)),)
    with pytest.raises(StateError, match="provenance does not reproduce"):
        MultipartyState(labels[:9], (2,) * 9, op, wrong)
    off = (MixtureBranch(0.4999, ((1, 0),)), MixtureBranch(0.5001, ((0, 1),)))
    with pytest.raises(StateError, match="provenance does not reproduce"):
        MultipartyState(("A",), (2,), np.eye(2) / 2, off)


def test_dimension_cap_survives_int64_overflow():
    # 2**32 * 2**32 wraps to 0 in int64 arithmetic
    dims = (2 ** 32, 2 ** 32, 1)
    spec = StateSpec("random_pure", ("A", "B", "R"), dims, "R", seed=1)
    with pytest.raises(SpecError, match=f"total dimension {2 ** 64} "):
        qr.build_state(spec)
    with pytest.raises(StateError, match=f"total dimension {2 ** 64} "):
        MultipartyState(("A", "B", "R"), dims, np.zeros((0, 0)))
