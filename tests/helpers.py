"""Shared state builders and reference kernels for the test suite."""
from __future__ import annotations

import itertools
import json
import math
from unittest import mock

import numpy as np

from qregion import build_state, esq, qstate, random_pure_state, region
from qregion.statespec import MixtureBranch, StateSpec


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


def ginibre(rng, shape):
    """Complex Gaussian array of ``shape``."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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
        brs.append(MixtureBranch(float(w), kets))
    # force an exact unit sum against float drift
    total = sum(b.weight for b in brs)
    brs[-1] = MixtureBranch(brs[-1].weight + (1.0 - total), brs[-1].kets)
    return StateSpec(family="mixture", labels=tuple(labels),
                     dims=tuple(dims), reference=labels[-1],
                     branches=tuple(brs))


def random_mixture_state(rng, labels=("X1", "X2"), dims=(2, 2), branches=3):
    return build_state(random_mixture_spec(rng, labels, dims, branches))


def dense_op(state):
    """The state's density operator psi psi^†."""
    return state.psi @ state.psi.conj().T


def constructor_input(build, *args):
    """``build(*args)`` and the operator that its last ``MultipartyState``
    constructor call was given, a vector input as its outer product."""
    given = []
    init = qstate.MultipartyState.__init__

    def record(self, labels, dims, op, provenance=None):
        given.append(op)
        init(self, labels, dims, op, provenance)
    with mock.patch.object(qstate.MultipartyState, "__init__", record):
        state = build(*args)
    op = given[-1]
    if isinstance(op, qstate._Ket):
        return state, np.outer(op.vec, op.vec.conj())
    return state, np.asarray(op, dtype=complex)


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


def basis_sum_reference(spec):
    """Amplitude vector of a product, ghz, w or bell spec: its basis
    strings, one row each, flattened by ``np.ravel_multi_index``."""
    dims = spec.dims
    if spec.family == "product":
        strings = [spec.basis]
    elif spec.family == "ghz":
        strings = [[j if d > 1 else 0 for d in dims]
                   for j in range(max(dims))]
    elif spec.family == "w":
        strings = [[int(i == j) for j in range(len(dims))]
                   for i in range(len(dims))]
    else:
        strings = [[j if lab in spec.pair else 0 for lab in spec.labels]
                   for j in range(spec.dim(spec.pair[0]))]
    vec = np.zeros(math.prod(dims), dtype=complex)
    vec[np.ravel_multi_index(np.asarray(strings).T, dims)] = 1
    return vec / np.linalg.norm(vec)


def reorder_subsystems(op, dims, order):
    """Permute tensor factors of a density operator into ``order``."""
    k = len(dims)
    t = op.reshape(list(dims) * 2)
    perm = list(order) + [i + k for i in order]
    d = int(np.prod(dims))
    return np.ascontiguousarray(t.transpose(perm).reshape(d, d))


def ncopy_op_reference(state, n):
    """n-copy density operator with each label's copies grouped: the
    Kronecker power of ``dense_op`` with its factors reordered
    label-major."""
    op = dense_op(state)
    for _ in range(n - 1):
        op = np.kron(op, dense_op(state))
    k = len(state.labels)
    order = [c * k + l for l in range(k) for c in range(n)]
    return reorder_subsystems(op, list(state.dims) * n, order)


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


def mask_entropy_reference(state, mask):
    """Entropy of the marginal on one label set, read from ``psi`` on the
    smaller of the mask and its complement plus the purifier."""
    idx = state.indices_of(mask)
    dims = list(state.dims) + [state.psi.shape[1]]
    d_mask = int(np.prod([dims[i] for i in idx]))
    side = idx
    if d_mask > state.dim // d_mask * dims[-1]:
        side = [i for i in range(len(dims)) if i not in idx]
    return float(qstate.entropy_of_op(
        qstate.vector_marginal(state.psi.reshape(-1), dims, side)))


def region_constants_reference(state, reference):
    """C_K table from one entropy solve per mask, summed in sender order."""
    senders = tuple(lab for lab in state.labels if lab != reference)
    h_single = {lab: mask_entropy_reference(state, {lab}) for lab in senders}
    h_ref = mask_entropy_reference(state, {reference})
    return region.RegionConstants(senders, reference, {
        s: 0.5 * (sum(h_single[lab] for lab in senders if lab in s) + h_ref
                  - mask_entropy_reference(state, set(s) | {reference}))
        for s in region.nonempty_subsets(senders)})


def trace_norm_reference(m):
    """Trace norm of one Hermitian operator."""
    ev = np.linalg.eigvalsh(qstate.hermitian_part(m))
    return float(np.abs(ev).sum())


def psd_sqrt_reference(op):
    """Square root of one positive semidefinite operator."""
    ev, vec = np.linalg.eigh(qstate.hermitian_part(op))
    ev = np.clip(ev, 0.0, None)
    return (vec * np.sqrt(ev)) @ vec.conj().T


def fidelity_reference(a, b):
    """Squared-convention fidelity (Tr sqrt(sqrt(b) a sqrt(b)))^2 of one
    pair of density operators."""
    rb = psd_sqrt_reference(b)
    ev = np.linalg.eigvalsh(qstate.hermitian_part(rb @ a @ rb))
    ev = np.clip(ev, 0.0, None)
    if ev.size:
        # square-rooting amplifies eigensolver noise near zero
        ev[ev < ev.max() * 1e-12] = 0.0
    s = float(np.sqrt(ev).sum())
    return min(1.0, max(0.0, s * s))


def typical_projection_reference(state, sender, n, delta):
    """(projector, typical_dim, retained probability) of the
    delta-typical projection, one string of n letters at a time."""
    marg = qstate.vector_marginal(state.psi.reshape(-1),
                                  state.dims + state.psi.shape[1:],
                                  [state.index_of(sender)])
    ev, vec = np.linalg.eigh(qstate.hermitian_part(marg))
    order = np.argsort(ev)[::-1]
    ev, vec = ev[order], vec[:, order]
    ev = np.clip(ev, 0.0, None)
    d = ev.size
    logp = np.full(d, -np.inf)
    positive = ev > qstate.EIG_CUTOFF
    logp[positive] = np.log2(ev[positive])
    h = float(-(ev[positive] * logp[positive]).sum())
    flags = np.zeros(d ** n, dtype=bool)
    retained = 0.0
    for idx, string in enumerate(itertools.product(range(d), repeat=n)):
        counts = np.bincount(string, minlength=d)
        if counts[~positive].any():
            continue  # zero-probability outcome: never typical
        avg = -float(counts[positive] @ logp[positive]) / n
        if abs(avg - h) <= delta:
            flags[idx] = True
            retained += float(np.prod(ev ** counts))
    basis = vec
    for _ in range(n - 1):
        basis = np.kron(basis, vec)
    cols = basis[:, flags]
    return cols @ cols.conj().T, int(flags.sum()), retained


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


def cond_info_value_reference(psi, x_dims, groups, isos, d_e, d_g):
    """I(X1;...;Xm|E) for a stack of isometries, term by term: one
    stacked entropy solve of each term's ``marginal_factor`` view."""
    ext = psi @ isos.swapaxes(-1, -2)
    dims = list(x_dims) + [d_e, d_g]
    vecs = ext.reshape(len(isos), -1)
    e_ax, g_ax = len(x_dims), len(x_dims) + 1
    total = np.zeros(len(isos))
    for keep, c in [(list(group) + [e_ax], 1) for group in groups] \
            + [([g_ax], -1), ([e_ax], 1 - len(groups))]:
        m = qstate.marginal_factor(vecs, dims, keep)
        total += c * qstate.entropy_of_op(m @ m.conj().swapaxes(-1, -2))
    return total


def cond_info_grad_reference(psi, x_dims, groups, isos, d_e, d_g):
    """Values and Euclidean gradients of I(X1;...;Xm|E) for a stack of
    isometries, term by term: each term's factor is its own
    ``marginal_factor`` view, and its gradient is scattered into the
    flat amplitudes at the factor's index matrix."""
    ext = psi @ isos.swapaxes(-1, -2)
    dims = list(x_dims) + [d_e, d_g]
    vecs = ext.reshape(len(isos), -1)
    e_ax, g_ax = len(x_dims), len(x_dims) + 1
    total, gamma = np.zeros(len(isos)), np.zeros_like(vecs)
    for keep, c in [(list(group) + [e_ax], 1) for group in groups] \
            + [([g_ax], -1), ([e_ax], 1 - len(groups))]:
        m = qstate.marginal_factor(vecs, dims, keep)
        ev, u = np.linalg.eigh(qstate.hermitian_part(
            m @ m.conj().swapaxes(-1, -2)))
        log_ev = np.log2(np.where(ev > qstate.EIG_CUTOFF, ev, 1.0))
        lm = (u * log_ev[..., None, :]) @ (u.conj().swapaxes(-1, -2) @ m)
        total -= c * np.einsum("bij,bij->b", m.conj(), lm).real
        at = qstate.marginal_factor(np.arange(vecs.shape[1]), dims, keep)
        gamma[:, at.ravel()] += c * lm.reshape(len(isos), -1)
    return total, -2.0 * gamma.reshape(ext.shape).swapaxes(-1, -2) \
        @ psi.conj()


def multiparty_info_reference(state, parts, cond=None):
    """Multiparty information I(X1;...;Xm) or I(X1;...;Xm|E) in bits,
    one ``entropy`` solve per mask, in the formula's order."""
    parts = [frozenset(p) for p in parts]
    cond = frozenset(cond) if cond is not None else frozenset()
    qstate.part_groups(state, parts, cond)
    every = frozenset().union(*parts)
    if not cond:
        total = sum(qstate.entropy(state, p) for p in parts)
        return total - qstate.entropy(state, every)
    h_e = qstate.entropy(state, cond)
    total = sum(qstate.entropy(state, p | cond) - h_e for p in parts)
    return total - (qstate.entropy(state, every | cond) - h_e)


# ---------------------------------------------------------------------------
# information and estimate oracles: second computations of library numbers

def conditional_info_forms(state, parts, cond):
    """The three equivalent expansions of conditional multiparty information.

    Returns (via conditional entropies, via joint entropies minus
    (m-1) H(E), via unconditioned information minus the pairwise terms).
    They agree up to floating-point rounding.
    """
    parts = [frozenset(p) for p in parts]
    cond = frozenset(cond)
    qstate.part_groups(state, parts, cond)
    every = frozenset().union(*parts)
    m = len(parts)
    h_e = qstate.entropy(state, cond)
    h_joint = [qstate.entropy(state, p | cond) for p in parts]
    h_all = qstate.entropy(state, every | cond)

    form1 = sum(h - h_e for h in h_joint) - (h_all - h_e)
    form2 = sum(h_joint) - h_all - (m - 1) * h_e
    with_e = qstate.multiparty_info(state, list(parts) + [cond])
    form3 = with_e - sum(
        qstate.multiparty_info(state, [p, cond]) for p in parts)
    return form1, form2, form3


def perturbation_report(a, b, parts, budget=esq.EsqBudget()):
    """Diagnostic (reported, not asserted): compare the estimate drift of
    two nearby states against the continuity modulus."""
    eps = float(qstate.trace_norm(dense_op(a) - dense_op(b))) / 2.0
    est_a = esq.esq_upper_bound(a, parts, budget)
    est_b = esq.esq_upper_bound(b, parts, budget)
    part_dims = [a.dim_of(p) for p in parts]
    bound = esq.epsilon_prime(eps, part_dims) if 2 * math.sqrt(eps) <= 1 \
        else float("inf")
    return {
        "epsilon": eps,
        "estimate_a": est_a.value,
        "estimate_b": est_b.value,
        "difference": abs(est_a.value - est_b.value),
        "continuity_bound": bound,
        "within_bound": abs(est_a.value - est_b.value) <= bound,
    }


def coherent_info_floor_reference(state, parts):
    """max(0, max over nonempty proper unions S of the parts of
    H(X_S) - H(X_K)), every entropy an ``eigvalsh`` of the dense
    marginal of ``dense_op``."""
    parts = [frozenset(p) for p in parts]
    h = {}
    for size in range(1, len(parts) + 1):
        for combo in itertools.combinations(parts, size):
            keep = state.indices_of(frozenset().union(*combo))
            h[combo] = entropy_reference(
                partial_trace_op(dense_op(state), state.dims, keep))
    h_all = h.pop(tuple(parts))
    return max([0.0] + [v - h_all for v in h.values()])


def steepest_descent_reference(objective, starts, steps,
                               target=-math.inf):
    """``esq._riemannian_descent`` with the steepest-descent direction:
    every step retracts V - t xi and tests the fall against
    1e-4 t |xi|^2, the rule the conjugate direction replaced."""
    v = np.array(starts, dtype=complex)
    if steps < 1:
        return v, objective(v, False)
    f, g = objective(v, True)
    xi, t = esq._tangent(v, g), np.full(len(v), 0.3)
    for _ in range(steps):
        if f.min() <= target:
            break
        trial = esq._polar_isometry(v - t[:, None, None] * xi)
        f_t, g_t = objective(trial, True)
        ok = f_t <= f - 1e-4 * t * (np.abs(xi) ** 2).sum(axis=(1, 2))
        v[ok], f[ok] = trial[ok], f_t[ok]
        xi[ok] = esq._tangent(trial[ok], g_t[ok])
        t = np.where(ok, 1.5 * t, 0.5 * t)
    return v, f


def esq_search_reference(state, parts, budget=esq.EsqBudget(),
                         continue_best=True):
    """(value, winning channel kind, its d_E) of the extension search
    with no stop: the baseline, the flag and every d_E of 1..d_e_max
    with dim * d_E^2 within ``ESQ_DIM_CAP``, each descent a no-target
    ``_riemannian_descent`` call.  With
    ``continue_best``, restart 0 at a d_E above the purifier rank, once
    a descent leads, starts from the leading isometry copied level by
    level into the larger E and G, nudged by ``CONTINUE_NUDGE`` times a
    complex Gaussian from (seed, 0) and retracted; without it, from the
    purifier-eigenbasis dephasing at every d_E (the earlier rule)."""
    groups = qstate.part_groups(state, parts)
    psi, r = qstate.purification_vector(state)
    best = esq.trivial_channel(r)
    baseline_raw = best_raw = esq.conditional_info_with_extension(
        state, parts, best)
    if state.provenance is not None:
        nb = len(state.provenance)
        if state.dim * nb * nb <= esq.ESQ_DIM_CAP:
            flag = esq.classical_flag_channel(state)
            raw = esq.conditional_info_with_extension(state, parts, flag)
            if raw < best_raw:
                best, best_raw = flag, raw
    winner = None
    for d_e in range(1, budget.d_e_max + 1):
        if state.dim * d_e * d_e > esq.ESQ_DIM_CAP:
            break
        if d_e * d_e < r or budget.restarts < 1:
            continue
        starts = [esq._embedding_isometry(r, d_e, d_e)] + [
            esq._polar_isometry(g[0] + 1j * g[1]) for g in (
                np.random.default_rng([budget.seed, i]).standard_normal(
                    (2, d_e * d_e, r)) for i in range(1, budget.restarts))]
        if continue_best and d_e > r and winner is not None:
            d_w, _, v = winner
            grown = np.zeros((d_e * d_e, r), dtype=complex)
            for e, g in itertools.product(range(d_w), repeat=2):
                grown[e * d_e + g] = v[e * d_w + g]
            nudge = np.random.default_rng([budget.seed, 0]).standard_normal(
                (2, d_e * d_e, r))
            starts[0] = esq._polar_isometry(
                grown + esq.CONTINUE_NUDGE * (nudge[0] + 1j * nudge[1]))
        vs, raws = esq._riemannian_descent(
            lambda isos, grad: esq._cond_info_extended(
                psi, state.dims, groups, isos, d_e, d_e, grad),
            np.stack(starts), esq.STEPS_PER_PASS * budget.iterations)
        i = int(np.argmin(raws))
        if raws[i] < best_raw:
            best_raw, winner = float(raws[i]), (d_e, d_e, vs[i])
    if winner is not None:
        best = esq.ExtensionChannel(*winner, "parameterized")
        best_raw = esq.conditional_info_with_extension(state, parts, best)
    baseline = max(0.0, 0.5 * baseline_raw)
    return min(baseline, max(0.0, 0.5 * best_raw)), best.kind, best.d_e


# ---------------------------------------------------------------------------
# region references: the loop vertex enumeration and corner dedup that the
# batched and windowed versions in qregion.region replaced

def _row_rank(matrix, tol=1e-9):
    """Row rank via Gaussian elimination with partial pivoting."""
    a = np.array(matrix, dtype=float)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank >= rows:
            break
        piv = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[piv, col]) <= tol:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] /= a[rank, col]
        for r in range(rows):
            if r != rank and abs(a[r, col]) > tol:
                a[r] -= a[r, col] * a[rank]
        rank += 1
    return rank


def enumerate_vertices_reference(rc, feas_tol=region.FEAS_TOL,
                                 dedup_tol=region.DEDUP_TOL):
    """One m-subset of constraints at a time: rank test, solve,
    feasibility, first-come dedup, then the witness chain."""
    m = rc.m
    rows, incidence, bounds = rc.subsets, rc.incidence, rc.bounds
    kept = []
    for combo in map(list, itertools.combinations(range(len(rows)), m)):
        a = incidence[combo]
        if _row_rank(a) < m:
            continue
        x = np.linalg.solve(a, bounds[combo])
        if not np.all(incidence @ x >= bounds - feas_tol):
            continue
        if any(np.max(np.abs(x - k.as_array())) <= dedup_tol for k in kept):
            continue
        kept.append(region.RatePoint(
            rc.senders, tuple(float(v) for v in x),
            witness=region.reconstruct_chain(rc.senders, rc.masks[combo])))
    return region.VRegion(rc.senders, tuple(kept))


def chain_reference(senders, masks):
    """The first permutation of ``senders``, in label order, that puts j
    before k whenever every mask containing j contains k (bit i stands
    for ``senders[i]``), or None if no permutation does."""
    members = [{lab for i, lab in enumerate(senders) if s >> i & 1}
               for s in masks]
    follows = [(j, k) for j in senders for k in senders
               if j != k and all(k in s for s in members if j in s)]
    for perm in itertools.permutations(sorted(senders)):
        if all(perm.index(j) < perm.index(k) for j, k in follows):
            return perm
    return None


def corner_set_reference(rc, tol=region.DEDUP_TOL):
    """Corner dedup that compares each point with every kept point."""
    perms = np.array(list(itertools.permutations(
        sorted(range(rc.m), key=rc.senders.__getitem__))))
    rates = region._corner_rates(rc, perms)
    kept = []
    for k, row in enumerate(rates):
        if not kept or np.abs(rates[kept] - row).max(axis=1).min() > tol:
            kept.append(k)
    return region.VRegion(rc.senders, tuple(
        region.RatePoint(rc.senders, tuple(rates[k].tolist()),
                         witness=tuple(rc.senders[i] for i in perms[k]))
        for k in kept))


# ---------------------------------------------------------------------------
# report reference: the recursive emitter that ``cli._emit`` replaced

def emit_reference(value, indent=0):
    """Deterministic JSON with floats at 12 significant digits and the
    insertion order of mappings preserved, one isinstance chain per
    value."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: '
                 f'{emit_reference(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {emit_reference(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return "null"
    return json.dumps(str(value))
