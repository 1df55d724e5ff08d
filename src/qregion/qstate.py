"""Dense multipartite quantum-state algebra.

States are labeled density operators on a tensor product of small
Hilbert spaces, each stored as its canonical minimal purification
alone.  The module provides construction of named families, marginals
and reduced states read from the purification, von Neumann entropies
and multiparty information.  The kernels take stacks, so a batch of
states is one call: ``marginal_factor`` and ``vector_marginal``,
``entropy_of_op``, ``psd_sqrt``, ``fidelity_ops`` and ``trace_norm``.
Both ``fidelity_ops`` and the decoupling simulator's Gram eigensolve end
in ``fidelity_of_spectrum``.  All entropies are in bits.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .statespec import INPUT_TOL, MixtureBranch, SpecError, StateSpec

#: largest total Hilbert-space dimension accepted by constructors
MAX_TOTAL_DIM = 4096

#: eigenvalues at or below this cutoff contribute nothing to entropies
EIG_CUTOFF = 1e-12

#: bytes of one block of every stacked loop: entropies, provenance rows,
#: the E_sq objective, vertex enumeration and decoupling trials
BLOCK_BYTES = 512 * 1024

_PSD_TOL = 1e-8


class StateError(ValueError):
    """Invalid state construction or operation arguments."""


# ---------------------------------------------------------------------------
# raw-array helpers (hot paths work on bare ndarrays)

def hermitian_part(m: np.ndarray) -> np.ndarray:
    h = m.conj().swapaxes(-1, -2)  # one new array: the sums go in place
    h += m
    h /= 2.0
    return h


def marginal_factor(vec: np.ndarray, dims: Sequence[int],
                    keep: Sequence[int]) -> np.ndarray:
    """Amplitude factors M of pure states given as a (..., prod(dims))
    stack of amplitude vectors: (..., d_keep, d_rest) matrices whose
    rows are the subsystems in ``keep`` (in their original order) and
    whose columns are the rest, so the marginal on ``keep`` is M M^†."""
    lead = vec.shape[:-1]
    keep = set(keep)
    # size-1 axes move no amplitude: leaving them out keeps any number of
    # dimension-1 labels within numpy's 64-axis limit
    axes = [i for i, d in enumerate(dims) if d > 1]
    order = sorted(range(len(axes)), key=lambda j: axes[j] not in keep)
    t = vec.reshape(lead + tuple(dims[i] for i in axes)).transpose(
        list(range(len(lead))) + [len(lead) + j for j in order])
    return t.reshape(lead + (math.prod(dims[i] for i in keep), -1))


def vector_marginal(vec: np.ndarray, dims: Sequence[int],
                    keep: Sequence[int]) -> np.ndarray:
    """Marginals of pure states given as a (..., prod(dims)) stack of
    amplitude vectors, keeping the subsystems in ``keep`` in their
    original order."""
    m = marginal_factor(vec, dims, keep)
    return m @ m.conj().swapaxes(-1, -2)


def entropy_of_op(op: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of a (..., d, d) stack of density
    operators, shape (...).

    One eigensolve covers the stack.  ``eigvalsh`` sorts ascending, so
    the eigenvalues above ``EIG_CUTOFF`` are a suffix of each row; rows
    are summed in groups of equal support size, so each sum runs over
    exactly those eigenvalues in order and rounds as a single matrix's.
    """
    ev = np.linalg.eigvalsh(hermitian_part(op))
    if ev.size and ev.min() < -_PSD_TOL:
        raise StateError(f"operator not positive semidefinite "
                         f"(min eigenvalue {ev.min():.3g})")
    keep = ev > EIG_CUTOFF
    d = ev.shape[-1]
    support = keep.sum(axis=-1)
    out = np.zeros(support.shape)
    for size in set(support.flat) - {0}:
        rows = support == size
        kept = ev[rows][:, d - size:]
        out[rows] = -(kept * np.log2(kept)).sum(axis=-1)
    return out


def psd_sqrt(op: np.ndarray) -> np.ndarray:
    """Square roots of a (..., d, d) stack of positive semidefinite
    operators, negative eigenvalues clipped to zero."""
    ev, vec = np.linalg.eigh(hermitian_part(op))
    return (vec * np.sqrt(np.clip(ev, 0.0, None))[..., None, :]) \
        @ vec.conj().swapaxes(-1, -2)


def fidelity_of_spectrum(ev: np.ndarray) -> np.ndarray:
    """(sum sqrt(lambda))^2, clipped to [0, 1], of (..., k) eigenvalue rows,
    each clipped at 0 and cut below 1e-12 times its row's largest."""
    ev = np.clip(ev, 0.0, None)
    # square-rooting amplifies eigensolver noise near zero
    ev[ev < ev.max(-1, keepdims=True) * 1e-12] = 0.0
    s = np.sqrt(ev).sum(-1)
    return np.clip(s * s, 0.0, 1.0)


def fidelity_ops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared-convention fidelities (Tr sqrt(sqrt(b) a sqrt(b)))^2 of
    (..., d, d) stacks of density operators, shape (...)."""
    rb = psd_sqrt(b)
    return fidelity_of_spectrum(
        np.linalg.eigvalsh(hermitian_part(rb @ a @ rb)))


def trace_norm(m: np.ndarray) -> np.ndarray:
    """Trace norms of a (..., d, d) stack of Hermitian operators, shape
    (...)."""
    return np.abs(np.linalg.eigvalsh(hermitian_part(m))).sum(-1)


# ---------------------------------------------------------------------------
# domain types

class _Ket:
    """Unit vector that ``state_from_vector`` passes in place of ``op``."""

    def __init__(self, vec: np.ndarray):
        self.vec = vec


@dataclass(frozen=True, eq=False, init=False)
class MultipartyState:
    """Labeled density operator psi psi^† with optional mixture provenance.

    Invariants checked at construction: finite entries, unit trace,
    Hermiticity, positivity (within 1e-9), matching shape, distinct
    labels, and, if provenance is present, that the recorded mixture
    reproduces ``op``.

    ``psi`` (dim × r, read-only) is the canonical minimal purification
    and the state's one array: the eigenvectors above ``EIG_CUTOFF``, by
    descending eigenvalue, scaled by sqrt(eigenvalue).  It is set here,
    by the one eigensolve of an operator input, which is not kept, or
    as the single column of a vector input.
    """

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    provenance: tuple[MixtureBranch, ...] | None = field(repr=False)
    psi: np.ndarray = field(repr=False)

    def __init__(self, labels, dims, op, provenance=None):
        labels = tuple(labels)
        dims = tuple(int(d) for d in dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "provenance", provenance)
        if len(labels) != len(dims):
            raise StateError("labels and dims length mismatch")
        if len(set(labels)) != len(labels):
            raise StateError("labels must be pairwise distinct")
        if any(d < 1 for d in dims):
            raise StateError("dimensions must be ≥ 1")
        d = math.prod(dims)
        if d > MAX_TOTAL_DIM:
            raise StateError(f"total dimension {d} exceeds cap {MAX_TOTAL_DIM}")
        if isinstance(op, _Ket):
            psi = op.vec.reshape(-1, 1)
            n = psi.shape[0]
            if n != d:
                raise StateError(f"operator shape ({n}, {n}) ≠ ({d}, {d})")
        else:
            op = np.asarray(op, dtype=complex)
            if op.shape != (d, d):
                raise StateError(f"operator shape {op.shape} ≠ ({d}, {d})")
            if not np.isfinite(op).all():
                raise StateError("operator has non-finite entries")
            tr = complex(np.trace(op))
            if abs(tr - 1.0) > INPUT_TOL:
                raise StateError(f"trace {tr:.12g} ≠ 1")
            if np.abs(op - op.conj().T).max() > INPUT_TOL:
                raise StateError("operator not Hermitian")
            ev, vecs = np.linalg.eigh(hermitian_part(op))
            if ev.min() < -INPUT_TOL:
                raise StateError(f"min eigenvalue {ev.min():.3g} < -1e-9")
            order = np.argsort(ev)[::-1]
            keep = order[ev[order] > EIG_CUTOFF]
            psi = vecs[:, keep] * np.sqrt(ev[keep])
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)
        if self.provenance is not None:
            kets = [kron_all([np.asarray(k, dtype=complex) for k in br.kets])
                    for br in self.provenance]
            # compared a row block at a time: at the dimension cap one
            # dense operator is 256 MiB
            rows = max(1, BLOCK_BYTES // (16 * d))
            for lo in range(0, d, rows):
                rebuilt = sum(br.weight * np.outer(k[lo:lo + rows], k.conj())
                              for br, k in zip(self.provenance, kets))
                if np.abs(rebuilt - op[lo:lo + rows]).max() > INPUT_TOL:
                    raise StateError(
                        "provenance does not reproduce the operator")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StateError(f"unknown label {label!r}") from None

    def indices_of(self, mask: Iterable[str]) -> list[int]:
        return sorted(self.index_of(lab) for lab in mask)

    def dim_of(self, mask: Iterable[str]) -> int:
        return math.prod(self.dims[i] for i in self.indices_of(mask))

    def purity(self) -> float:
        gram = self.psi.conj().T @ self.psi  # r × r, the state's spectrum
        return float(np.sum(np.abs(gram) ** 2))

    def is_pure(self) -> bool:
        return self.purity() >= 1.0 - 1e-7


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for f in factors:
        out = np.multiply.outer(out, f).reshape(-1)
    return out


def state_from_vector(vec: np.ndarray, labels: Sequence[str],
                      dims: Sequence[int]) -> MultipartyState:
    vec = np.asarray(vec, dtype=complex)
    if not np.isfinite(vec).all():
        raise StateError("vector has non-finite entries")
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise StateError("zero vector")
    return MultipartyState(tuple(labels), tuple(dims), _Ket(vec / norm))


# ---------------------------------------------------------------------------
# construction

def build_state(spec: StateSpec) -> MultipartyState:
    """Construct the state named by a validated StateSpec.

    The mixture family records its explicit decomposition as
    provenance; random families are deterministic given the seed.  The
    dimension cap is checked before any amplitude is allocated.
    """
    d = math.prod(spec.dims)
    if d > MAX_TOTAL_DIM:
        raise SpecError("dims", f"total dimension {d} exceeds cap "
                        f"{MAX_TOTAL_DIM}")
    return _BUILDERS[spec.family](spec)


def _basis_sum(spec: StateSpec, strings) -> MultipartyState:
    """Equal-weight superposition of basis strings (one row each, one
    index per label).  The flat index is a dot product with the
    row-major strides: ``np.ravel_multi_index`` takes one axis per label
    and refuses more than 64."""
    strides = [math.prod(spec.dims[i + 1:]) for i in range(len(spec.dims))]
    vec = np.zeros(math.prod(spec.dims), dtype=complex)
    vec[np.asarray(strings, dtype=np.int64) @ strides] = 1
    return state_from_vector(vec, spec.labels, spec.dims)


def _build_product(spec: StateSpec) -> MultipartyState:
    return _basis_sum(spec, [spec.basis])


def _build_ghz(spec: StateSpec) -> MultipartyState:
    return _basis_sum(spec, np.outer(range(max(spec.dims)),
                                     [d > 1 for d in spec.dims]))


def _build_w(spec: StateSpec) -> MultipartyState:
    return _basis_sum(spec, np.eye(len(spec.labels), dtype=int))


def _build_bell(spec: StateSpec) -> MultipartyState:
    return _basis_sum(spec, np.outer(range(spec.dim(spec.pair[0])),
                                     [lab in spec.pair
                                      for lab in spec.labels]))


def _build_random_pure(spec: StateSpec) -> MultipartyState:
    return random_pure_state(spec.labels, spec.dims, spec.seed)


def random_pure_state(labels: Sequence[str], dims: Sequence[int],
                      seed) -> MultipartyState:
    """Haar-like random pure state from a normalized complex Gaussian
    draw; the dimension cap is checked before the draw."""
    d = math.prod(map(int, dims))
    if d > MAX_TOTAL_DIM:
        raise StateError(f"total dimension {d} exceeds cap {MAX_TOTAL_DIM}")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return state_from_vector(vec, labels, dims)


def _build_mixture(spec: StateSpec) -> MultipartyState:
    d = math.prod(spec.dims)
    op = np.zeros((d, d), dtype=complex)
    for br in spec.branches:
        ket = kron_all([np.asarray(k, dtype=complex) for k in br.kets])
        op += br.weight * np.outer(ket, ket.conj())
    return MultipartyState(spec.labels, spec.dims, op, spec.branches)


_BUILDERS = {
    "product": _build_product,
    "ghz": _build_ghz,
    "w": _build_w,
    "bell": _build_bell,
    "random_pure": _build_random_pure,
    "mixture": _build_mixture,
}


# ---------------------------------------------------------------------------
# operations

def reduced_state(state: MultipartyState,
                  keep: Iterable[str]) -> MultipartyState:
    """Marginal of ``state`` on the labels in ``keep`` (original order).

    A mixture provenance carries over with each branch's kets restricted
    to the kept labels: tracing out local pure factors leaves the same
    separable decomposition of the marginal.
    """
    keep = list(keep)
    if not keep:
        raise StateError("keep must be a nonempty set of labels")
    idx = state.indices_of(keep)
    op = vector_marginal(state.psi.reshape(-1),
                         state.dims + state.psi.shape[1:], idx)
    labels = tuple(state.labels[i] for i in idx)
    dims = tuple(state.dims[i] for i in idx)
    provenance = None
    if state.provenance is not None:
        provenance = tuple(
            MixtureBranch(br.weight, tuple(br.kets[i] for i in idx))
            for br in state.provenance)
    return MultipartyState(labels, dims, op, provenance)


def entropies(state: MultipartyState,
              masks: Sequence[Iterable[str]]) -> np.ndarray:
    """Von Neumann entropies in bits of the marginals on each label set
    in ``masks``, shape (len(masks),).

    Each marginal is read from ``psi`` on the smaller of its mask and
    the complement plus the purifier (the two share their nonzero
    spectrum), as the factor M with marginal M M^†.  Masks whose factors
    have one shape share one stacked eigensolve, in blocks of at most
    ``BLOCK_BYTES`` of factors; each entropy is the same number
    as a solve of its factor alone.
    """
    dims = list(state.dims) + [state.psi.shape[1]]
    total = state.dim * dims[-1]  # entries of every factor
    vec = state.psi.reshape(-1)
    by_shape = {}  # d_keep -> [(position in masks, side)]
    for pos, mask in enumerate(masks):
        side = state.indices_of(mask)
        if not side:
            raise StateError("mask must be nonempty")
        d_keep = math.prod(dims[i] for i in side)
        if d_keep * d_keep > total:
            side = [i for i in range(len(dims)) if i not in side]
            d_keep = total // d_keep
        by_shape.setdefault(d_keep, []).append((pos, side))
    out = np.empty(len(masks))
    block = max(1, BLOCK_BYTES // (16 * total))
    for items in by_shape.values():
        for start in range(0, len(items), block):
            chunk = items[start:start + block]
            factors = np.stack([marginal_factor(vec, dims, side)
                                for _, side in chunk])
            out[[pos for pos, _ in chunk]] = entropy_of_op(
                factors @ factors.conj().swapaxes(-1, -2))
    return out


def entropy(state: MultipartyState, mask: Iterable[str]) -> float:
    """Von Neumann entropy in bits of the marginal on ``mask``: the
    one-mask call of ``entropies``."""
    return float(entropies(state, [mask])[0])


def part_groups(state: MultipartyState, parts: Sequence[Iterable[str]],
                cond: Iterable[str] = ()) -> list[list[int]]:
    """Sorted label indices of each part, once there is at least one
    part and the parts are nonempty, pairwise disjoint, disjoint from
    ``cond`` and made of labels of ``state``."""
    groups = [state.indices_of(frozenset(p)) for p in parts]
    if not groups:
        raise StateError("at least one part required")
    seen: set[int] = set()
    for group in groups:
        if not group:
            raise StateError("empty part mask")
        overlap = seen.intersection(group)
        if overlap:
            raise StateError(f"overlapping parts at "
                             f"{sorted(state.labels[i] for i in overlap)}")
        seen.update(group)
    for lab in cond:
        if state.index_of(lab) in seen:
            raise StateError(f"conditioning label {lab!r} overlaps a part")
    return groups


def multiparty_info(state: MultipartyState, parts: Sequence[Iterable[str]],
                    cond: Iterable[str] | None = None) -> float:
    """Multiparty information I(X1;...;Xm) or I(X1;...;Xm|E) in bits.

    Without ``cond`` this is sum_i H(Xi) - H(X1...Xm); with ``cond`` all
    entropies become conditional on the ``cond`` subsystem.  Two parts
    reproduce the (conditional) mutual information.  Every entropy comes
    from one ``entropies`` call; H(E) = 0 stands for an empty ``cond``.
    """
    parts = [frozenset(p) for p in parts]
    cond = frozenset(cond) if cond is not None else frozenset()
    part_groups(state, parts, cond)
    every = frozenset().union(*parts)
    h = entropies(state, [p | cond for p in parts] + [every | cond]
                  + ([cond] if cond else [])).tolist()
    h_e = h.pop() if cond else 0.0  # x - 0.0 is x, bit for bit
    return sum(x - h_e for x in h[:-1]) - (h[-1] - h_e)


def purification_vector(state: MultipartyState) -> tuple[np.ndarray, int]:
    """(psi, r): the state's ``psi`` and its rank; the purified ket is
    sum_k psi[:, k] (x) |k>."""
    return state.psi, state.psi.shape[1]

