"""Multiparty squashed-entanglement upper bounds and the outer rate bound.

The squashed entanglement of parts X1;...;Xm is half the infimum of the
conditional multiparty information I(X1;...;Xm|E) over all extensions
of the state to an auxiliary system E.  Every extension arises from a
channel acting on a purifying system, so the search space here is the
set of Stinespring isometries applied to the canonical minimal
purifier, searched by Riemannian conjugate-gradient descent with a
polar retraction.  The infimum is generally unattainable numerically: the
search only ever certifies an upper bound, and the rate-point
classification inherits the matching one-sided soundness.  Each
estimate also carries a lower bound, the largest coherent information
across a cut of the parts, and the search stops once it reaches it.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import qstate, region
from .qstate import MultipartyState
from .region import RatePoint, RegionConstants
from .statespec import INPUT_TOL, _is_int

#: (state dim) * d_E * d_G must not exceed this for extension searches
ESQ_DIM_CAP = 1024

#: most random restarts per d_E entry; the search work is linear in it
MAX_RESTARTS = 1000

#: most descent passes one esq_upper_bound call, or one esq or classify
#: run summed over its searched subsets, may start: d_E sweep entries
#: times restarts times iterations.  The default budget is 128 passes
#: (1024 gradient steps) per subset, about 0.6 ms per pass with one BLAS
#: thread, so every sender count through m = 7 runs (15296 passes,
#: 8-10 s) and m = 8 (31040) is refused
MAX_SEARCH_PASSES = 16384

#: gradient steps per descent pass
STEPS_PER_PASS = 8

#: scale of the complex Gaussian that moves restart 0 off the best
#: isometry so far at a d_E above the purifier rank (``_sweep_starts``)
CONTINUE_NUDGE = 1e-2


class EsqError(ValueError):
    """Invalid extension-search arguments."""


@dataclass(frozen=True, eq=False)
class ExtensionChannel:
    """Channel on the purifier realizing an extension of the state.

    The isometry maps the purifier (dimension = shape[1]) into E (x) G;
    E of dimension ``d_e`` is kept for conditioning, G of dimension
    ``d_g`` is discarded.
    """

    d_e: int
    d_g: int
    isometry: np.ndarray
    kind: str  # "trivial" | "classical_flag" | "parameterized"

    def __post_init__(self):
        iso = np.asarray(self.isometry, dtype=complex)
        if iso.shape[0] != self.d_e * self.d_g:
            raise EsqError(f"isometry has {iso.shape[0]} rows, expected "
                           f"d_e*d_g = {self.d_e * self.d_g}")
        gram = iso.conj().T @ iso
        if np.abs(gram - np.eye(iso.shape[1])).max() > INPUT_TOL:
            raise EsqError("isometry columns are not orthonormal")
        iso = iso.copy()
        iso.flags.writeable = False
        object.__setattr__(self, "isometry", iso)

    @property
    def d_source(self) -> int:
        return self.isometry.shape[1]


@dataclass(frozen=True)
class EsqBudget:
    """Search budget: the d_E sweep's top (``d_e_sweep``), restarts per
    sweep entry, descent passes of ``STEPS_PER_PASS`` steps per restart,
    and the master seed (restart i draws from (seed, i))."""

    d_e_max: int = 4
    restarts: int = 8
    iterations: int = 4
    seed: int = 0

    def __post_init__(self):
        # numpy integers are stored as int, whose products cannot wrap
        for name, least in (("d_e_max", 1), ("restarts", 0),
                            ("iterations", 0), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value):
                raise EsqError(f"budget {name} must be an integer, "
                               f"got {value!r}")
            if value < least:
                raise EsqError(f"budget {name} must be >= {least}, "
                               f"got {value}")
            object.__setattr__(self, name, int(value))
        if self.restarts > MAX_RESTARTS:
            raise EsqError(f"budget restarts {self.restarts} exceeds the "
                           f"cap {MAX_RESTARTS}")


def _has_room(dim: int, d: int) -> bool:
    """Whether dim * d_E * d_G with d_E = d_G = d is within ESQ_DIM_CAP."""
    return dim * d * d <= ESQ_DIM_CAP


def d_e_sweep(dim: int, d_e_max: int) -> tuple[int, ...]:
    """The d_E sweep 1..d_e_max for a marginal of dimension ``dim``, cut
    at the largest d that ``_has_room``, for the search and the CLI
    alike; refused where even d = 1 has no room (dim > ESQ_DIM_CAP)."""
    if d_e_max < 1:
        raise EsqError(f"d_e_max must be >= 1, got {d_e_max}")
    values = tuple(itertools.takewhile(lambda d: _has_room(dim, d),
                                       range(1, d_e_max + 1)))
    if not values:
        raise EsqError(f"marginal dimension {dim} leaves no room for any "
                       f"extension within the cap {ESQ_DIM_CAP}")
    return values


@dataclass(frozen=True, eq=False)
class EsqEstimate:
    """``lower <= E_sq <= value <= baseline`` up to rounding: ``value``
    is half the conditional information of ``best_channel``'s
    extension, ``lower`` the largest coherent information across a cut
    of the parts (``_coherent_info_floor``), and ``baseline`` the
    trivial extension's value."""

    value: float
    lower: float
    baseline: float
    best_channel: ExtensionChannel


def trivial_channel(d_source: int) -> ExtensionChannel:
    """Conditioning on a one-dimensional system: no extension at all."""
    iso = np.eye(d_source, dtype=complex)
    return ExtensionChannel(1, d_source, iso, "trivial")


def _polar_isometry(m: np.ndarray) -> np.ndarray:
    """Nearest isometry (polar factor) of a matrix or of each matrix of
    a (..., rows, cols) stack, by one SVD."""
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh


def classical_flag_channel(state: MultipartyState) -> ExtensionChannel:
    """Channel that records the provenance branch index in E.

    Conditioning on the flag leaves a pure product state in every
    branch, so the conditional multiparty information vanishes; this is
    the extension certifying that separable mixtures are squashed to
    zero.
    """
    if state.provenance is None:
        raise EsqError("state carries no mixture provenance")
    psi, r = qstate.purification_vector(state)
    nb = len(state.provenance)
    w = np.zeros((nb * nb, r), dtype=complex)
    lam = np.sum(np.abs(psi) ** 2, axis=0)  # eigenvalues, descending
    for j, branch in enumerate(state.provenance):
        ket = qstate.kron_all([np.asarray(k) for k in branch.kets])
        overlaps = psi.conj().T @ ket  # sqrt(lam_k) <e_k|Psi_j>
        w[j * nb + j, :] += math.sqrt(branch.weight) * overlaps / lam
    w = _polar_isometry(w)
    return ExtensionChannel(nb, nb, w, "classical_flag")


def _embedding_isometry(d_source: int, d_e: int, d_g: int) -> np.ndarray:
    """Deterministic start: measure the purifier eigenbasis into E.

    Copies the purifier index into both outputs (reduced mod the
    dimension where needed) so that discarding G decoheres the index
    and E retains a classical record.  With d_e >= d_source this is the
    full eigenbasis flag extension.
    """
    v = np.zeros((d_e * d_g, d_source), dtype=complex)
    for k in range(d_source):
        e = k % d_e
        g = k if d_g >= d_source else k // d_e
        v[e * d_g + g, k] = 1.0
    return v


# ---------------------------------------------------------------------------
# conditional information under an extension

@functools.lru_cache(maxsize=128)
def _term_plan(x_dims: tuple[int, ...], groups: tuple[tuple[int, ...], ...],
               d_e: int, d_g: int) -> tuple:
    """The (keep, c) terms of ``_cond_info_extended`` for one shape, in
    summation order (Xi E ..., G, E), built once and cut into runs of
    consecutive terms whose ``qstate.marginal_factor`` factors share a
    shape: per run a read-only (coefs, row_major, index) triple, the
    terms' c, which of their factor views are row-major, and the
    (terms, d_keep, d_rest) stack of flat amplitude indices that
    gathers the factors."""
    dims = tuple(x_dims) + (d_e, d_g)
    e_ax, g_ax = len(x_dims), len(x_dims) + 1
    terms = [(list(group) + [e_ax], 1) for group in groups] \
        + [([g_ax], -1), ([e_ax], 1 - len(groups))]
    at = [(qstate.marginal_factor(np.arange(math.prod(dims)), dims, keep), c)
          for keep, c in terms]
    runs = []
    for _, run in itertools.groupby(at, key=lambda t: t[0].shape):
        views, coefs = zip(*run)
        index = np.stack(views)
        index.flags.writeable = False
        runs.append((coefs, tuple(v.flags.c_contiguous for v in views),
                     index))
    return tuple(runs)


def _cond_info_extended(psi: np.ndarray, x_dims: Sequence[int],
                        groups: Sequence[Sequence[int]], isos: np.ndarray,
                        d_e: int, d_g: int, grad: bool = False):
    """I(X1;...;Xm|E) of the extension (I (x) V)|psi>, tracing out G,
    for each isometry V of a (B, d_e*d_g, d_source) stack.

    ``psi`` is the purification amplitude matrix (dim_X, d_source), and
    the groups cover X: by purity, H(X E) = H(G), and the value is the
    sum of c H(S) over the terms (S, c) = (Xi E, 1), (G, -1), (E, 1 - m).
    With ``grad`` it returns (values, G), G the Euclidean gradients with
    df = Re Tr(G^† dV): with L_S = log2 rho_S on the support,
    H(S) = -Tr[rho_S L_S] and dH(S) = -Tr[L_S d rho_S], so each term
    adds -2 c (L_S (x) I)|ext>, mapped to V by conj(psi).  Both paths
    walk the runs of the cached ``_term_plan`` in order, gather at most
    ``qstate.BLOCK_BYTES`` of a run's factors (one term's at
    least) by its index, solve them as one stack, and add each term as
    soon as its solve returns; every number is the one a term-by-term
    evaluation gives.
    """
    ext = psi @ isos.swapaxes(-1, -2)  # (B, dim_X, d_e*d_g)
    vecs = ext.reshape(len(isos), -1)
    step = max(1, qstate.BLOCK_BYTES // vecs.nbytes)  # terms per solve
    total, gamma = np.zeros(len(isos)), np.zeros_like(vecs) if grad else None
    for coefs, row_major, index in _term_plan(
            tuple(x_dims), tuple(map(tuple, groups)), d_e, d_g):
        for lo in range(0, len(coefs), step):
            cs, at = coefs[lo:lo + step], index[lo:lo + step]
            m = vecs.take(at, axis=1)  # (B, terms, d_keep, d_rest)
            rho = m @ m.conj().swapaxes(-1, -2)
            if not grad:
                for c, h in zip(cs, qstate.entropy_of_op(rho).T):
                    total += c * h
                continue
            ev, u = np.linalg.eigh(qstate.hermitian_part(rho))
            del rho
            um = u.conj().swapaxes(-1, -2) @ m
            # scaled in place: a solve holds several terms' arrays at once
            u *= np.log2(np.where(ev > qstate.EIG_CUTOFF, ev,
                                  1.0))[..., None, :]
            lm = u @ um
            mc = m.conj()
            del m, u, um
            for k, c in enumerate(cs):
                # einsum sums in its operands' memory order: a column-major
                # factor is reduced in that layout, as it is term by term
                mc_k = mc[:, k] if row_major[lo + k] else \
                    mc[:, k].swapaxes(-1, -2).copy().swapaxes(-1, -2)
                total -= c * np.einsum("bij,bij->b", mc_k, lm[:, k]).real
                gamma[:, at[k]] += c * lm[:, k]
            del mc, mc_k, lm  # before the next gather
    return (total, -2.0 * gamma.reshape(ext.shape).swapaxes(-1, -2)
            @ psi.conj()) if grad else total


def _covered(state: MultipartyState, parts: Sequence[Iterable[str]]):
    """``state`` on the union of the checked ``parts`` (H(X E) = H(G) needs
    every label of dimension above 1 in a part), and the parts' groups."""
    union = [state.labels[i] for group in qstate.part_groups(state, parts)
             for i in group]
    if state.dim_of(union) < state.dim:
        state = qstate.reduced_state(state, union)
    return state, qstate.part_groups(state, parts)


def conditional_info_with_extension(state: MultipartyState,
                                    parts: Sequence[Iterable[str]],
                                    ch: ExtensionChannel) -> float:
    """Raw (not halved) conditional multiparty information I(parts|E)
    after applying ``ch`` to the canonical purifier of ``_covered``."""
    return _covered_info(*_covered(state, parts), ch)


def _covered_info(state: MultipartyState, groups: Sequence[Sequence[int]],
                  ch: ExtensionChannel) -> float:
    """``conditional_info_with_extension`` of a state that ``_covered``
    already returned, with its ``groups``."""
    psi, r = qstate.purification_vector(state)
    width = ch.d_e * ch.d_g
    # no wider than the purifier (the trivial channel): no new amplitudes
    if width > r and state.dim * width > ESQ_DIM_CAP:
        raise EsqError(f"extension dimension {state.dim * width} "
                       f"exceeds cap {ESQ_DIM_CAP}")
    if ch.d_source != r:
        raise EsqError(f"channel expects a purifier of dimension "
                       f"{ch.d_source}, state has rank {r}")
    return float(_cond_info_extended(psi, state.dims, groups,
                                     ch.isometry[None], ch.d_e, ch.d_g)[0])


# ---------------------------------------------------------------------------
# extension search

def _tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Tangent projections g - V herm(V^† g) of gradients at isometries V."""
    vg = v.conj().swapaxes(-1, -2) @ g
    return g - v @ (vg + vg.conj().swapaxes(-1, -2)) / 2


def _riemannian_descent(objective, starts: np.ndarray, steps: int,
                        target: float = -math.inf) \
        -> tuple[np.ndarray, np.ndarray]:
    """Riemannian conjugate-gradient descent over isometries, all
    restarts at once.

    ``objective(isos, grad)`` maps a (B, rows, cols) isometry stack to B
    values, and with ``grad`` to (values, Euclidean gradients).  Each
    step retracts V + t d by its polar factor and keeps the move where
    the value falls by at least -1e-4 t Re<xi, d> (Armijo), xi the
    ``_tangent`` gradient at V; that restart's step t, 0.3 at first,
    then grows by 1.5, any other's halves.  The direction d is -xi at
    first, after a rejected step, and wherever the conjugate direction
    does not descend (Re<xi, d> >= 0); after a kept move it is the
    Fletcher-Reeves direction -xi' + beta P(d), beta = |xi'|^2 / |xi|^2
    (0 when xi = 0) and P the ``_tangent`` projection at the new point,
    which moves d to its tangent space (Absil, Mahony and Sepulchre,
    2008, sec. 8.3).  Along -xi the step and its test are the
    steepest-descent ones bit for bit.  A step is one stacked
    value-and-gradient call, so ``steps`` buys the same objective calls
    as steepest descent, and no restart's value ever rises.  Zero steps
    score the starts.  The descent returns early, after scoring the
    starts or after any step, once some restart's value is at most
    ``target``; until then every number is the one a run without a
    target gives.
    """
    v = np.array(starts, dtype=complex)
    if steps < 1:
        return v, objective(v, False)
    f, g = objective(v, True)
    xi = _tangent(v, g)
    sq = (np.abs(xi) ** 2).sum(axis=(1, 2))  # |xi|^2
    # p = -d and slope = Re<xi, p>, so a restart is p = xi, slope = |xi|^2
    p, slope, t = xi, sq, np.full(len(v), 0.3)
    for _ in range(steps):
        if f.min() <= target:
            break
        trial = _polar_isometry(v - t[:, None, None] * p)
        f_t, g_t = objective(trial, True)
        ok = f_t <= f - 1e-4 * t * slope
        # the new gradient and the transported direction in one projection
        xi_t, moved = _tangent(trial, np.stack((g_t, p)))
        sq_t = (np.abs(xi_t) ** 2).sum(axis=(1, 2))
        beta = np.divide(sq_t, sq, out=np.zeros_like(sq), where=sq > 0)
        p_t = xi_t + beta[:, None, None] * moved
        slope_t = (xi_t.conj() * p_t).real.sum(axis=(1, 2))
        # a rejected step, or no descent along d: restart along -xi
        fwd = ok & (slope_t > 0)
        keep = ok[:, None, None]
        v, xi = np.where(keep, trial, v), np.where(keep, xi_t, xi)
        f, sq = np.where(ok, f_t, f), np.where(ok, sq_t, sq)
        p = np.where(fwd[:, None, None], p_t, xi)
        slope = np.where(fwd, slope_t, sq)
        t = np.where(ok, 1.5 * t, 0.5 * t)
    return v, f


def _coherent_info_floor(state: MultipartyState,
                         groups: Sequence[Sequence[int]]) -> float:
    """L = max(0, max over nonempty proper unions S of the parts of
    H(X_S) - H(X_K)), X_K the union of all parts: a lower bound on their
    squashed entanglement, from one ``qstate.entropies`` call over the
    2^k - 1 unions of the k parts.

    H(X_S) - H(X_K) is the coherent information across the cut S | K∖S,
    a lower bound on its distillable entanglement (Devetak and Winter,
    quant-ph/0306078), which bounds the bipartite squashed entanglement
    from below (Christandl and Winter, quant-ph/0308088).  By strong
    subadditivity I(X1;...;Xk|E) >= I(X_S; X_{K∖S}|E) for every
    extension, so the multiparty quantity is at least the bipartite one.
    """
    unions = [[state.labels[i] for bit, group in enumerate(groups)
               if s >> bit & 1 for i in group]
              for s in range(1, 1 << len(groups))]
    h = qstate.entropies(state, unions)  # the last union is X_K
    # one part has no proper cut: its floor is 0
    return max([0.0, *(h[:-1] - h[-1]).tolist()])


def _sweep_starts(r: int, d_e: int, budget: EsqBudget, winner) -> np.ndarray:
    """The (restarts, d_e*d_e, r) start isometries of one sweep entry
    (d_G = d_E) for a purifier of rank r.

    Restart i >= 1 is the polar factor of a complex Gaussian whose real
    and imaginary parts come from (seed, i).  Restart 0 is the
    purifier-eigenbasis dephasing, except at d_E > r once a descent
    leads: ``winner``'s (d_w, d_w, V) isometry, its E and G levels kept
    and the new ones left empty (the same conditional information),
    plus ``CONTINUE_NUDGE`` times a complex Gaussian from (seed, 0),
    retracted by its polar factor.  The dephasing keeps E and G block
    diagonal, which no gradient step leaves, so above r it could only
    repeat the rank-r search; the nudge lets the descent continue the
    best one.
    """
    def gaussian(i: int) -> np.ndarray:
        g = np.random.default_rng([budget.seed, i]).standard_normal(
            (2, d_e * d_e, r))
        return g[0] + 1j * g[1]
    if d_e > r and winner is not None:
        d_w, _, v = winner
        grown = np.zeros((d_e, d_e, r), dtype=complex)
        grown[:d_w, :d_w] = v.reshape(d_w, d_w, r)
        first = _polar_isometry(grown.reshape(d_e * d_e, r)
                                + CONTINUE_NUDGE * gaussian(0))
    else:
        first = _embedding_isometry(r, d_e, d_e)
    return np.stack([first] + [_polar_isometry(gaussian(i))
                               for i in range(1, budget.restarts)])


def esq_upper_bound(state: MultipartyState,
                    parts: Sequence[Iterable[str]],
                    budget: EsqBudget = EsqBudget()) -> EsqEstimate:
    """Upper bound on the squashed entanglement of ``parts`` (``_covered``).

    Candidates: the trivial extension (baseline), the classical flag
    when the state carries mixture provenance, and random-restart
    optimized isometries over the covered state's ``d_e_sweep`` up to
    ``budget.d_e_max`` (``_sweep_starts``), its length times the
    restarts times the iterations at most ``MAX_SEARCH_PASSES``.
    Restart 0 of a sweep entry starts from the purifier-eigenbasis
    dephasing, except at d_E above the purifier rank r once an earlier
    entry's descent leads: then it continues that isometry, so only a
    marginal with r below the sweep's top d_E can differ from an
    all-dephasing sweep.  The restarts of each sweep entry descend as
    one stack (``_riemannian_descent``) along Fletcher-Reeves conjugate
    directions, d <- -xi' + beta P(d) after a kept move; the direction
    restarts as -xi after a rejected step and wherever it does not
    descend.  Each step is still one objective call, so a budget of
    ``iterations`` passes buys ``STEPS_PER_PASS * iterations`` steps
    per sweep entry, as under steepest descent.  The first smallest
    wins, and only it becomes an orthonormality-checked
    ``ExtensionChannel``.  The baseline, the flag and that channel are
    scored on the covered state by ``_covered_info``, as
    ``conditional_info_with_extension`` scores them, for the reported
    value: half the smallest conditional information found, clamped to
    [0, baseline]; deterministic given the budget seed.  One part has
    no proper cut and no conditional information: ``lower`` is 0 and
    the baseline meets the stop.

    The search stops once the best conditional information is at most
    twice ``lower + FEAS_TOL``, ``lower`` the ``_coherent_info_floor``
    of the parts, since no extension can then lower the value by more
    than ``FEAS_TOL``: the flag is not scored when the baseline meets
    that target, no sweep entry starts once the best value meets it,
    and a descent returns as soon as one of its restarts meets it.
    """
    state, groups = _covered(state, parts)
    sweep = d_e_sweep(state.dim, budget.d_e_max)
    passes = len(sweep) * budget.restarts * budget.iterations
    if passes > MAX_SEARCH_PASSES:
        raise EsqError(f"search work of {passes} descent passes exceeds the "
                       f"cap {MAX_SEARCH_PASSES}")
    psi, r = qstate.purification_vector(state)
    lower = _coherent_info_floor(state, groups)
    target = 2.0 * (lower + region.FEAS_TOL)  # on the raw, unhalved value
    best_ch = trivial_channel(r)
    baseline_raw = best_raw = _covered_info(state, groups, best_ch)
    if state.provenance is not None and best_raw > target:
        if _has_room(state.dim, len(state.provenance)):
            flag = classical_flag_channel(state)
            if (raw := _covered_info(state, groups, flag)) < best_raw:
                best_ch, best_raw = flag, raw

    winner = None  # (d_e, d_g, isometry) of the best descent, if any leads
    for d_e in sweep:  # d_G = d_E
        if best_raw <= target:
            break  # no extension can lower the value by more than FEAS_TOL
        if d_e * d_e < r or budget.restarts < 1:
            continue  # no isometry from the purifier exists, or no restarts
        vs, raws = _riemannian_descent(
            lambda isos, grad: _cond_info_extended(
                psi, state.dims, groups, isos, d_e, d_e, grad),
            _sweep_starts(r, d_e, budget, winner),
            STEPS_PER_PASS * budget.iterations, target)
        i = int(np.argmin(raws))
        if raws[i] < best_raw:
            best_raw, winner = float(raws[i]), (d_e, d_e, vs[i])

    if winner is not None:
        best_ch = ExtensionChannel(*winner, "parameterized")
        # the reported value comes from the checked channel's own copy
        best_raw = _covered_info(state, groups, best_ch)
    baseline = max(0.0, 0.5 * baseline_raw)
    value = min(baseline, max(0.0, 0.5 * best_raw))
    return EsqEstimate(value, lower, baseline, best_ch)


# ---------------------------------------------------------------------------
# outer bound and classification

def outer_bound_constants(inner: RegionConstants,
                          esq: Mapping[frozenset, "EsqEstimate"]) \
        -> RegionConstants:
    """Necessary-condition constants C_K - E_sq(K) per sender subset.

    Singletons equal the inner constants exactly (one-part conditional
    multiparty information is identically zero).  Because the estimates
    are upper bounds on the true squashed entanglement, the emitted
    constraints are valid but possibly weaker than the exact ones.
    """
    esq = {frozenset(k): v for k, v in esq.items()}
    missing = [sorted(s) for s in inner.subsets if len(s) > 1 and s not in esq]
    if missing:
        raise EsqError(f"missing squashed-entanglement estimate for "
                       f"{missing[0]}")
    squashed = [esq[s].value if len(s) > 1 else 0.0 for s in inner.subsets]
    return RegionConstants(inner.senders, inner.reference, dict(
        zip(inner.subsets, (inner.bounds - squashed).tolist())))


def classify_rate_point(q: RatePoint, inner: RegionConstants,
                        outer: RegionConstants) -> str:
    """``achievable`` (not outside ``inner``) | ``not_achievable`` (outside
    ``outer``) | ``gap``, by ``membership``.  The outer constants never
    exceed the inner ones, so "not_achievable" is always sound, while
    "gap" may contain points ruled out by the exact outer bound.
    """
    if region.membership(inner, q).verdict != "outside":
        return "achievable"
    if region.membership(outer, q).verdict == "outside":
        return "not_achievable"
    return "gap"


# ---------------------------------------------------------------------------
# explicit bound functions

_F1_EPS_MAX = 1.0 / (12.0 * math.e ** 2)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x) on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs 0 <= x <= 1, got {x}")
    total = 0.0
    for p in (x, 1.0 - x):
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def eta(x: float) -> float:
    """eta(x) = -x log2 x with eta(0) = 0."""
    if x < 0.0:
        raise ValueError(f"eta needs x >= 0, got {x}")
    return 0.0 if x == 0.0 else -x * math.log2(x)


def f1(eps: float, n: int, d_a: int) -> float:
    """Near-additivity entropy defect 2 sqrt(3 eps) n log2(d_A^3)
    + eta(2 sqrt(3 eps)).

    Valid for eps <= 1/(12 e^2); larger eps is flagged with a warning
    and the formula is still evaluated.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if n < 0 or d_a < 1:
        raise ValueError("need n >= 0 and d_a >= 1")
    if eps > _F1_EPS_MAX:
        warnings.warn(f"f1 evaluated outside its validity range "
                      f"(eps = {eps:g} > 1/(12 e^2) = {_F1_EPS_MAX:.6g})",
                      stacklevel=2)
    s = 2.0 * math.sqrt(3.0 * eps)
    return s * n * math.log2(d_a ** 3) + eta(s)


def epsilon_prime(eps: float, dims: Sequence[int]) -> float:
    """Continuity modulus 16 sqrt(eps) log2(prod d_i)
    + (m+1) 2 h(2 sqrt(eps)) for states eps-close in normalized trace
    distance."""
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    s = 2.0 * math.sqrt(eps)
    if s > 1.0:
        raise ValueError(f"epsilon_prime needs 2 sqrt(eps) <= 1, "
                         f"got eps = {eps:g}")
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError("dimensions must be >= 1")
    m = len(dims)
    log_prod = math.log2(math.prod(dims))
    return 16.0 * math.sqrt(eps) * log_prod + (m + 1) * 2.0 * binary_entropy(s)
