"""The stacked kernels against their one-matrix references, bit for bit:
each row of a stack must round exactly as that row on its own."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qregion as qr
from qregion import esq as E
from qregion import qstate as Q
from qregion.statespec import MixtureBranch, StateSpec

from helpers import (cond_info_reference, constructor_input,
                     entropy_reference, fidelity_reference, ginibre,
                     partial_trace_op,
                     random_mixture_state, trace_norm_reference,
                     vector_marginal_reference)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.data())
def test_vector_marginal_rows_match_reference(dims, rows, seed, data):
    keep = data.draw(st.lists(st.integers(0, len(dims) - 1), unique=True))
    vecs = ginibre(np.random.default_rng(seed), (rows, int(np.prod(dims))))
    stacked = Q.vector_marginal(vecs, dims, keep)
    for vec, marg in zip(vecs, stacked):
        assert np.array_equal(marg, vector_marginal_reference(vec, dims,
                                                              keep))


@SETTINGS
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.data())
def test_entropy_rows_match_reference(d, seed, data):
    # one rank per row: full, deficient, pure and zero rows share a stack
    ranks = data.draw(st.lists(st.integers(0, d), min_size=1, max_size=6))
    rng = np.random.default_rng(seed)
    ops = []
    for r in ranks:
        g = ginibre(rng, (d, r))
        m = g @ g.conj().T
        ops.append(m / np.trace(m).real if r else m)
    stacked = Q.entropy_of_op(np.stack(ops))
    assert stacked.shape == (len(ranks),)
    for op, h in zip(ops, stacked):
        single = Q.entropy_of_op(op)  # an un-stacked (d, d) input
        assert single.shape == ()
        assert h == single == entropy_reference(op)


@SETTINGS
@given(st.sampled_from((1, 2, 3, 8, 64)), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_trace_norm_and_fidelity_rows_match_reference(d, seed, data):
    # each row pairs two density operators of independent ranks 1..d
    ranks = data.draw(st.lists(st.tuples(st.integers(1, d),
                                         st.integers(1, d)),
                               min_size=1, max_size=4))
    rng = np.random.default_rng(seed)

    def density(r):
        g = ginibre(rng, (d, r))
        m = g @ g.conj().T
        return m / np.trace(m).real

    a = np.stack([density(ra) for ra, _ in ranks])
    b = np.stack([density(rb) for _, rb in ranks])
    norms, fids = Q.trace_norm(a - b), Q.fidelity_ops(a, b)
    assert norms.shape == fids.shape == (len(ranks),)
    for ai, bi, norm, fid in zip(a, b, norms, fids):
        single_norm = Q.trace_norm(ai - bi)  # un-stacked (d, d) inputs
        single_fid = Q.fidelity_ops(ai, bi)
        assert single_norm.shape == single_fid.shape == ()
        assert norm == single_norm == trace_norm_reference(ai - bi)
        assert fid == single_fid == fidelity_reference(ai, bi)


@st.composite
def _extension_cases(draw):
    m = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.sampled_from((1, 2, 3)), min_size=m,
                               max_size=m)))
    labels = tuple(f"X{i + 1}" for i in range(m))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        state = qr.random_pure_state(labels + ("P",), dims + (2,), seed)
        state = qr.reduced_state(state, labels)
    else:
        state = random_mixture_state(np.random.default_rng(seed), labels,
                                     dims, draw(st.integers(1, 4)))
    d_e = draw(st.integers(1, 3))
    r = state.psi.shape[1]
    d_g = draw(st.integers(-(-r // d_e), 4))
    rows = draw(st.integers(1, 6))
    return state, [{lab} for lab in labels], d_e, d_g, rows, seed


@SETTINGS
@given(_extension_cases())
def test_cond_info_rows_match_reference(case):
    state, parts, d_e, d_g, rows, seed = case
    groups = Q.part_groups(state, parts)
    psi, r = Q.purification_vector(state)
    isos = E._polar_isometry(ginibre(np.random.default_rng(seed),
                                      (rows, d_e * d_g, r)))
    # the dephasing start gives rank-deficient marginals
    isos[0] = E._embedding_isometry(r, d_e, d_g)
    stacked = E._cond_info_extended(psi, state.dims, groups, isos, d_e, d_g)
    for iso, val in zip(isos, stacked):
        assert val == cond_info_reference(psi, state.dims, groups, iso,
                                          d_e, d_g)


def test_reduced_state_of_dropped_eigenvalue_passes_trace_check():
    # the 5e-13 branch sits below EIG_CUTOFF, so psi drops it and every
    # marginal read from psi loses that much trace
    spec = StateSpec(family="mixture", labels=("A1", "A2", "R"),
                     dims=(2, 2, 2), reference="R",
                     branches=(MixtureBranch(1 - 5e-13, ((1, 0),) * 3),
                               MixtureBranch(5e-13, ((0, 1),) * 3)))
    state, op = constructor_input(qr.build_state, spec)
    assert state.psi.shape[1] == 1
    for keep in ({"A1"}, {"A1", "A2"}, {"A2", "R"}):
        marg, marg_op = constructor_input(qr.reduced_state, state, keep)
        idx = state.indices_of(keep)
        ref = partial_trace_op(op, state.dims, idx)
        assert np.abs(marg_op - ref).max() <= 1e-12
        assert marg.provenance is not None
