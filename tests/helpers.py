"""Shared state builders and reference kernels for the test suite."""
from __future__ import annotations

import numpy as np

from qregion import build_state, qstate, random_pure_state
from qregion.statespec import BranchSpec, StateSpec


def ghz_state(labels=("A1", "A2", "R"), reference="R"):
    return build_state(StateSpec(family="ghz", labels=tuple(labels),
                                 dims=(2,) * len(labels),
                                 reference=reference))


def bell_state(labels=("A", "R"), reference="R"):
    return build_state(StateSpec(family="bell", labels=tuple(labels),
                                 dims=(2,) * len(labels),
                                 pair=tuple(labels[:2]),
                                 reference=reference))


def bell_with_spectator():
    """Bell pair on (A1, R) with A2 held in |0>."""
    return build_state(StateSpec(family="bell",
                                 labels=("A1", "A2", "R"), dims=(2, 2, 2),
                                 pair=("A1", "R"), reference="R"))


def bell_between_senders():
    """Bell pair between the two senders; the reference is trivial."""
    return build_state(StateSpec(family="bell",
                                 labels=("A1", "A2", "R"), dims=(2, 2, 1),
                                 pair=("A1", "A2"), reference="R"))


def product_state(labels=("A1", "A2", "R"), reference="R"):
    return build_state(StateSpec(family="product", labels=tuple(labels),
                                 dims=(2,) * len(labels),
                                 basis=(0,) * len(labels),
                                 reference=reference))


def random_sender_state(m, seed, d_ref=None):
    """Random pure state with m qubit senders and one reference."""
    d_ref = d_ref or 2 ** m
    labels = tuple(f"A{i + 1}" for i in range(m)) + ("R",)
    dims = (2,) * m + (d_ref,)
    return random_pure_state(labels, dims, seed)


def random_ket(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_mixture_spec(rng, labels, dims, branches=3):
    """Random separable mixture with explicit provenance branches."""
    weights = rng.dirichlet(np.ones(branches) * 2.0)
    weights = weights / weights.sum()
    brs = []
    for w in weights:
        kets = tuple(tuple(random_ket(rng, d)) for d in dims)
        brs.append(BranchSpec(float(w), kets))
    # force an exact unit sum against float drift
    total = sum(b.weight for b in brs)
    brs[-1] = BranchSpec(brs[-1].weight + (1.0 - total), brs[-1].kets)
    return StateSpec(family="mixture", labels=tuple(labels),
                     dims=tuple(dims), reference=labels[-1],
                     branches=tuple(brs))


def random_mixture_state(rng, labels=("X1", "X2"), dims=(2, 2), branches=3):
    return build_state(random_mixture_spec(rng, labels, dims, branches))


# ---------------------------------------------------------------------------
# reference kernels: the one-matrix and dense-operator code that the
# stacked kernels in qregion replaced, kept to check them against

def partial_trace_op(op, dims, keep):
    """Marginal of a density operator, keeping the subsystems in ``keep``
    (in their original order)."""
    dims = list(dims)
    keep = sorted(keep)
    t = op.reshape(dims + dims)
    drop = [i for i in range(len(dims)) if i not in keep]
    for i in reversed(drop):
        t = np.trace(t, axis1=i, axis2=i + len(dims))
        dims.pop(i)
    d = int(np.prod(dims)) if dims else 1
    return np.ascontiguousarray(t.reshape(d, d))


def reorder_subsystems(op, dims, order):
    """Permute tensor factors of a density operator into ``order``."""
    k = len(dims)
    t = op.reshape(list(dims) * 2)
    perm = list(order) + [i + k for i in order]
    d = int(np.prod(dims))
    return np.ascontiguousarray(t.transpose(perm).reshape(d, d))


def vector_marginal_reference(vec, dims, keep):
    """Marginal of one pure state given as an amplitude vector."""
    dims = list(dims)
    keep = sorted(keep)
    rest = [i for i in range(len(dims)) if i not in keep]
    t = vec.reshape(dims).transpose(keep + rest)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    m = t.reshape(dk, -1)
    return m @ m.conj().T


def entropy_reference(op):
    """Von Neumann entropy in bits of one density operator."""
    ev = np.linalg.eigvalsh(qstate.hermitian_part(op))
    if ev.size and ev.min() < -qstate._PSD_TOL:
        raise qstate.StateError(f"operator not positive semidefinite "
                                f"(min eigenvalue {ev.min():.3g})")
    ev = ev[ev > qstate.EIG_CUTOFF]
    if ev.size == 0:
        return 0.0
    return float(-(ev * np.log2(ev)).sum())


def cond_info_reference(psi, x_dims, groups, iso, d_e, d_g):
    """I(X1;...;Xm|E) of the extension (I (x) V)|psi> for one isometry."""
    ext = psi @ iso.T  # (dim_X, d_e*d_g)
    dims = list(x_dims) + [d_e, d_g]
    vec = ext.reshape(-1)
    e_ax, g_ax = len(x_dims), len(x_dims) + 1
    h_e = entropy_reference(vector_marginal_reference(vec, dims, [e_ax]))
    h_xe = entropy_reference(vector_marginal_reference(vec, dims, [g_ax]))
    total = 0.0
    for group in groups:
        marg = vector_marginal_reference(vec, dims, list(group) + [e_ax])
        total += entropy_reference(marg)
    return total - h_xe - (len(groups) - 1) * h_e
