"""Multiparty squashed-entanglement upper bounds and the outer rate bound.

The squashed entanglement of parts X1;...;Xm is half the infimum of the
conditional multiparty information I(X1;...;Xm|E) over all extensions
of the state to an auxiliary system E.  Every extension arises from a
channel acting on a purifying system, so the search space here is the
set of Stinespring isometries applied to the canonical minimal
purifier.  The infimum is generally unattainable numerically: this
module only ever certifies an upper bound, and the rate-point
classification inherits the matching one-sided soundness.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import qstate, region
from .qstate import MultipartyState
from .region import RatePoint, RegionConstants

#: (state dim) * d_E * d_G must not exceed this for extension searches
ESQ_DIM_CAP = 1024

#: most random restarts per d_E entry; the search work is linear in it
MAX_RESTARTS = 1000

_ISOMETRY_TOL = 1e-9


class EsqError(ValueError):
    """Invalid extension-search arguments."""


@dataclass(frozen=True, eq=False)
class ExtensionChannel:
    """Channel on the purifier realizing an extension of the state.

    The isometry maps the purifier (dimension = shape[1]) into E (x) G;
    E of dimension ``d_e`` is kept for conditioning, G of dimension
    ``d_g`` is discarded.
    """

    source: str
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
        if np.abs(gram - np.eye(iso.shape[1])).max() > _ISOMETRY_TOL:
            raise EsqError("isometry columns are not orthonormal")
        iso = iso.copy()
        iso.flags.writeable = False
        object.__setattr__(self, "isometry", iso)

    @property
    def d_source(self) -> int:
        return self.isometry.shape[1]


@dataclass(frozen=True)
class EsqBudget:
    """Search budget: the E-dimension sweep, random restarts per sweep
    entry, descent passes per restart, and the master seed (restart i
    draws from the seed pair (seed, i))."""

    d_e_values: tuple[int, ...] = (1, 2, 3, 4)
    restarts: int = 8
    iterations: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "iterations", "seed"):
            if getattr(self, name) < 0:
                raise EsqError(f"budget {name} must be >= 0, "
                               f"got {getattr(self, name)}")
        if self.restarts > MAX_RESTARTS:
            raise EsqError(f"budget restarts {self.restarts} exceeds the "
                           f"cap {MAX_RESTARTS}")


def d_e_sweep(dim: int, d_e_max: int) -> tuple[int, ...]:
    """The d_E sweep 1..d_e_max for a state of dimension ``dim``, cut at
    the largest d with dim * d**2 <= ESQ_DIM_CAP."""
    values = tuple(range(1, min(d_e_max,
                                math.isqrt(ESQ_DIM_CAP // dim)) + 1))
    if not values:
        raise EsqError(f"state dimension {dim} leaves no room for any "
                       f"extension within the cap {ESQ_DIM_CAP}")
    return values


@dataclass(frozen=True, eq=False)
class EsqEstimate:
    value: float
    baseline: float
    best_channel: ExtensionChannel
    budget: EsqBudget


def purifier_label(state: MultipartyState) -> str:
    lab = "R0"
    while lab in state.labels:
        lab += "_"
    return lab


def trivial_channel(source: str, d_source: int) -> ExtensionChannel:
    """Conditioning on a one-dimensional system: no extension at all."""
    iso = np.eye(d_source, dtype=complex)
    return ExtensionChannel(source, 1, d_source, iso, "trivial")


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
    return ExtensionChannel(purifier_label(state), nb, nb, w,
                            "classical_flag")


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

def _part_groups(state: MultipartyState,
                 parts: Sequence[Iterable[str]]) -> list[list[int]]:
    parts = [frozenset(p) for p in parts]
    if not parts:
        raise EsqError("at least one part required")
    seen: set[str] = set()
    groups = []
    for p in parts:
        if not p:
            raise EsqError("empty part mask")
        overlap = seen & p
        if overlap:
            raise EsqError(f"overlapping parts at {sorted(overlap)}")
        seen |= p
        groups.append(state.indices_of(p))
    return groups


def _cond_info_extended(psi: np.ndarray, x_dims: Sequence[int],
                        groups: Sequence[Sequence[int]], isos: np.ndarray,
                        d_e: int, d_g: int) -> np.ndarray:
    """I(X1;...;Xm|E) of the extension (I (x) V)|psi>, tracing out G,
    for each isometry V of a (B, d_e*d_g, d_source) stack.

    ``psi`` is the purification amplitude matrix (dim_X, d_source).
    Uses purity of the extended global state: H(X E) = H(G).
    """
    ext = psi @ isos.swapaxes(-1, -2)  # (B, dim_X, d_e*d_g)
    dims = list(x_dims) + [d_e, d_g]
    vecs = ext.reshape(len(isos), -1)
    e_ax, g_ax = len(x_dims), len(x_dims) + 1

    def h(keep):
        return qstate.entropy_of_op(qstate.vector_marginal(vecs, dims, keep))

    h_e = h([e_ax])
    total = np.zeros(len(isos))
    for group in groups:
        total += h(list(group) + [e_ax])
    return total - h([g_ax]) - (len(groups) - 1) * h_e


def conditional_info_with_extension(state: MultipartyState,
                                    parts: Sequence[Iterable[str]],
                                    ch: ExtensionChannel) -> float:
    """Raw (not halved) conditional multiparty information I(parts|E)
    after applying ``ch`` to the canonical purifier of ``state``."""
    groups = _part_groups(state, parts)
    if state.dim * ch.d_e * ch.d_g > ESQ_DIM_CAP:
        raise EsqError(f"extension dimension {state.dim * ch.d_e * ch.d_g} "
                       f"exceeds cap {ESQ_DIM_CAP}")
    psi, r = qstate.purification_vector(state)
    if ch.source != purifier_label(state):
        raise EsqError(f"channel source {ch.source!r} is not the purifier "
                       f"label {purifier_label(state)!r}")
    if ch.d_source != r:
        raise EsqError(f"channel expects a purifier of dimension "
                       f"{ch.d_source}, state has rank {r}")
    return float(_cond_info_extended(psi, state.dims, groups,
                                     ch.isometry[None], ch.d_e, ch.d_g)[0])


# ---------------------------------------------------------------------------
# extension search

def _lockstep_descent(objective, starts: np.ndarray, max_passes: int,
                      step0: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    """Derivative-free descent over isometries, all restarts at once.

    Each restart perturbs one entry at a time by +step, -step, +i step,
    -i step, re-orthonormalizes by polar projection and takes the first
    probe that improves on its best value; a pass with no improvement
    halves its step, and it stops once the step falls below 1e-3 or
    after ``max_passes`` passes.  The restarts advance in lockstep: at
    each entry the four probes of every running restart go through one
    stacked SVD and one call of ``objective`` on the stack, which maps
    (B, rows, cols) isometries to B values.  Every restart makes exactly
    the moves it would make on its own.
    """
    v = np.array(starts, dtype=complex)
    best = objective(v)
    step = np.full(len(v), step0)
    running = np.ones(len(v), dtype=bool)
    shape = v.shape[1:]
    for _ in range(max(0, max_passes)):
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        improved = np.zeros(len(v), dtype=bool)
        # Python complex arithmetic, as in a scalar loop, fixes the
        # signed zeros of each delta
        deltas = np.array([(s, -s, 1j * s, -1j * s)
                           for s in step[rows].tolist()])
        for idx in np.ndindex(*shape):
            probes = np.repeat(v[rows, None], 4, axis=1)
            probes[(slice(None), slice(None)) + idx] += deltas
            probes = _polar_isometry(probes.reshape(-1, *shape))
            vals = objective(probes).reshape(len(rows), 4)
            better = vals < best[rows, None] - 1e-12
            hit = better.any(axis=1)
            first = better.argmax(axis=1)[hit]
            moved = rows[hit]
            v[moved] = probes.reshape(len(rows), 4, *shape)[hit, first]
            best[moved] = vals[hit, first]
            improved[moved] = True
        halve = running & ~improved
        step[halve] *= 0.5
        running &= ~(halve & (step < 1e-3))
    return v, best


def esq_upper_bound(state: MultipartyState,
                    parts: Sequence[Iterable[str]],
                    budget: EsqBudget = EsqBudget()) -> EsqEstimate:
    """Upper bound on the squashed entanglement of ``parts``.

    Candidates: the trivial extension (baseline), the classical flag
    when the state carries mixture provenance, and random-restart
    optimized isometries over the d_E sweep (restart 0 of each sweep
    entry starts from the purifier-eigenbasis dephasing).  The restarts
    of each sweep entry descend in lockstep, scored as one stack by
    ``_cond_info_extended``; a winning optimized isometry is scored
    again, as a one-row stack, on its orthonormality-checked
    ``ExtensionChannel``, which supplies the reported value.  The
    returned value is half the smallest conditional information found,
    clamped to [0, baseline]; deterministic given the budget seed.
    """
    groups = _part_groups(state, parts)
    d_x = state.dim
    for d_e in budget.d_e_values:
        if d_e >= 1 and d_x * d_e * d_e > ESQ_DIM_CAP:
            raise EsqError(f"d_E = {d_e} exceeds the dimension cap for a "
                           f"state of dimension {d_x}")
        if d_e < 1:
            raise EsqError("d_E values must be >= 1")
    psi, r = qstate.purification_vector(state)
    src = purifier_label(state)

    def run(iso: np.ndarray, d_e: int, d_g: int) -> float:
        return float(_cond_info_extended(psi, state.dims, groups, iso[None],
                                         d_e, d_g)[0])

    candidates: list[tuple[ExtensionChannel, float]] = []
    triv = trivial_channel(src, r)
    baseline_raw = run(triv.isometry, 1, r)
    candidates.append((triv, baseline_raw))

    if state.provenance is not None:
        nb = len(state.provenance)
        if d_x * nb * nb <= ESQ_DIM_CAP:
            flag = classical_flag_channel(state)
            candidates.append((flag, run(flag.isometry, nb, nb)))

    for d_e in sorted(set(budget.d_e_values)):
        d_g = d_e
        if d_e * d_g < r or budget.restarts < 1:
            continue  # no isometry from the purifier exists, or no restarts
        starts = [_embedding_isometry(r, d_e, d_g)]
        for restart in range(1, budget.restarts):
            rng = np.random.default_rng([budget.seed, restart])
            g = rng.standard_normal((d_e * d_g, r)) \
                + 1j * rng.standard_normal((d_e * d_g, r))
            starts.append(_polar_isometry(g))
        vs, raws = _lockstep_descent(
            lambda isos: _cond_info_extended(psi, state.dims, groups, isos,
                                             d_e, d_g),
            np.stack(starts), budget.iterations)
        for v, raw in zip(vs, raws.tolist()):
            ch = ExtensionChannel(src, d_e, d_g, v, "parameterized")
            candidates.append((ch, raw))

    best_ch, best_raw = min(candidates, key=lambda t: t[1])
    if best_ch.kind == "parameterized":
        # the reported value comes from the checked channel's own copy
        best_raw = run(best_ch.isometry, best_ch.d_e, best_ch.d_g)
    baseline = max(0.0, 0.5 * baseline_raw)
    value = min(baseline, max(0.0, 0.5 * best_raw))
    return EsqEstimate(value, baseline, best_ch, budget)


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


def perturbation_report(a: MultipartyState, b: MultipartyState,
                        parts: Sequence[Iterable[str]],
                        budget: EsqBudget = EsqBudget()) -> dict:
    """Diagnostic (reported, not asserted): compare the estimate drift of
    two nearby states against the continuity modulus."""
    eps = qstate.normalized_trace_distance(a, b)
    est_a = esq_upper_bound(a, parts, budget)
    est_b = esq_upper_bound(b, parts, budget)
    part_dims = [a.dim_of(p) for p in parts]
    bound = epsilon_prime(eps, part_dims) if 2 * math.sqrt(eps) <= 1 \
        else float("inf")
    return {
        "epsilon": eps,
        "estimate_a": est_a.value,
        "estimate_b": est_b.value,
        "difference": abs(est_a.value - est_b.value),
        "continuity_bound": bound,
        "within_bound": abs(est_a.value - est_b.value) <= bound,
    }
