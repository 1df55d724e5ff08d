"""Dense multipartite quantum-state algebra.

States are labeled density operators on a tensor product of small
Hilbert spaces.  The module provides construction of named families,
partial traces, von Neumann entropies, multiparty information,
fidelity, trace distance and purification.  All entropies are in bits.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .statespec import StateSpec

#: largest total Hilbert-space dimension accepted by constructors
MAX_TOTAL_DIM = 4096

#: eigenvalues at or below this cutoff contribute nothing to entropies
EIG_CUTOFF = 1e-12

_STATE_TOL = 1e-9
_PSD_TOL = 1e-8


class StateError(ValueError):
    """Invalid state construction or operation arguments."""


# ---------------------------------------------------------------------------
# raw-array helpers (hot paths work on bare ndarrays)

def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def partial_trace_op(op: np.ndarray, dims: Sequence[int],
                     keep: Sequence[int]) -> np.ndarray:
    """Marginal of a density operator, keeping the subsystems in ``keep``.

    ``keep`` preserves the original subsystem order regardless of the
    order given.
    """
    dims = list(dims)
    keep = sorted(keep)
    t = op.reshape(dims + dims)
    drop = [i for i in range(len(dims)) if i not in keep]
    for i in reversed(drop):
        t = np.trace(t, axis1=i, axis2=i + len(dims))
        dims.pop(i)
    d = int(np.prod(dims)) if dims else 1
    return np.ascontiguousarray(t.reshape(d, d))


def vector_marginal(vec: np.ndarray, dims: Sequence[int],
                    keep: Sequence[int]) -> np.ndarray:
    """Marginal of a pure state given as an amplitude vector."""
    dims = list(dims)
    keep = sorted(keep)
    rest = [i for i in range(len(dims)) if i not in keep]
    t = vec.reshape(dims).transpose(keep + rest)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    m = t.reshape(dk, -1)
    return m @ m.conj().T


def reorder_subsystems(op: np.ndarray, dims: Sequence[int],
                       order: Sequence[int]) -> np.ndarray:
    """Permute tensor factors of a density operator into ``order``."""
    k = len(dims)
    t = op.reshape(list(dims) * 2)
    perm = list(order) + [i + k for i in order]
    d = int(np.prod(dims))
    return np.ascontiguousarray(t.transpose(perm).reshape(d, d))


def entropy_of_op(op: np.ndarray) -> float:
    """Von Neumann entropy in bits of a density operator."""
    ev = np.linalg.eigvalsh(hermitian_part(op))
    if ev.size and ev.min() < -_PSD_TOL:
        raise StateError(f"operator not positive semidefinite "
                         f"(min eigenvalue {ev.min():.3g})")
    ev = ev[ev > EIG_CUTOFF]
    if ev.size == 0:
        return 0.0
    return float(-(ev * np.log2(ev)).sum())


def psd_sqrt(op: np.ndarray) -> np.ndarray:
    ev, vec = np.linalg.eigh(hermitian_part(op))
    ev = np.clip(ev, 0.0, None)
    return (vec * np.sqrt(ev)) @ vec.conj().T


def fidelity_ops(a: np.ndarray, b: np.ndarray) -> float:
    """Squared-convention fidelity (Tr sqrt(sqrt(b) a sqrt(b)))^2."""
    rb = psd_sqrt(b)
    ev = np.linalg.eigvalsh(hermitian_part(rb @ a @ rb))
    ev = np.clip(ev, 0.0, None)
    if ev.size:
        # square-rooting amplifies eigensolver noise near zero
        ev[ev < ev.max() * 1e-12] = 0.0
    s = float(np.sqrt(ev).sum())
    return min(1.0, max(0.0, s * s))


def trace_norm(m: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(hermitian_part(m))
    return float(np.abs(ev).sum())


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class MixtureBranch:
    """One branch of an explicit separable decomposition."""

    weight: float
    kets: tuple[np.ndarray, ...]  # one local pure ket per label


@dataclass(frozen=True, eq=False)
class MultipartyState:
    """Labeled density operator with optional mixture provenance.

    Invariants checked at construction: unit trace, Hermiticity,
    positivity (within 1e-9), matching shape, distinct labels, and, if
    provenance is present, that the recorded mixture reproduces ``op``.
    """

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    op: np.ndarray
    provenance: tuple[MixtureBranch, ...] | None = field(
        default=None, repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        if len(labels) != len(dims):
            raise StateError("labels and dims length mismatch")
        if len(set(labels)) != len(labels):
            raise StateError("labels must be pairwise distinct")
        if any(d < 1 for d in dims):
            raise StateError("dimensions must be ≥ 1")
        d = int(np.prod(dims))
        if d > MAX_TOTAL_DIM:
            raise StateError(f"total dimension {d} exceeds cap {MAX_TOTAL_DIM}")
        op = np.asarray(self.op, dtype=complex)
        if op.shape != (d, d):
            raise StateError(f"operator shape {op.shape} ≠ ({d}, {d})")
        tr = complex(np.trace(op))
        if abs(tr - 1.0) > _STATE_TOL:
            raise StateError(f"trace {tr:.12g} ≠ 1")
        if np.abs(op - op.conj().T).max() > _STATE_TOL:
            raise StateError("operator not Hermitian")
        ev_min = float(np.linalg.eigvalsh(hermitian_part(op)).min())
        if ev_min < -_STATE_TOL:
            raise StateError(f"min eigenvalue {ev_min:.3g} < -1e-9")
        op = op.copy()
        op.flags.writeable = False
        object.__setattr__(self, "op", op)
        if self.provenance is not None:
            rebuilt = np.zeros_like(op)
            for br in self.provenance:
                ket = kron_all([np.asarray(k, dtype=complex)
                                for k in br.kets])
                rebuilt = rebuilt + br.weight * np.outer(ket, ket.conj())
            if np.abs(rebuilt - op).max() > _STATE_TOL:
                raise StateError("provenance does not reproduce the operator")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StateError(f"unknown label {label!r}") from None

    def indices_of(self, mask: Iterable[str]) -> list[int]:
        return sorted(self.index_of(lab) for lab in mask)

    def dim_of(self, mask: Iterable[str]) -> int:
        return int(np.prod([self.dims[i] for i in self.indices_of(mask)],
                           initial=1))

    def purity(self) -> float:
        return float(np.real(np.trace(self.op @ self.op)))

    def is_pure(self, tol: float = 1e-7) -> bool:
        return self.purity() >= 1.0 - tol


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def state_from_vector(vec: np.ndarray, labels: Sequence[str],
                      dims: Sequence[int],
                      provenance=None) -> MultipartyState:
    vec = np.asarray(vec, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise StateError("zero vector")
    vec = vec / norm
    return MultipartyState(tuple(labels), tuple(dims),
                           np.outer(vec, vec.conj()), provenance)


# ---------------------------------------------------------------------------
# construction

def build_state(spec: StateSpec) -> MultipartyState:
    """Construct the state named by a validated StateSpec.

    Mixture and product families record their explicit decomposition as
    provenance; random families are deterministic given the seed.
    """
    builder = _BUILDERS[spec.family]
    return builder(spec)


def _basis_ket(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def _build_product(spec: StateSpec) -> MultipartyState:
    kets = tuple(_basis_ket(d, b) for d, b in zip(spec.dims, spec.basis))
    vec = kron_all(kets)
    prov = (MixtureBranch(1.0, kets),)
    return state_from_vector(vec, spec.labels, spec.dims, provenance=prov)


def _build_ghz(spec: StateSpec) -> MultipartyState:
    live = [d for d in spec.dims if d > 1]
    d = live[0]
    vec = np.zeros(int(np.prod(spec.dims)), dtype=complex)
    for j in range(d):
        vec += kron_all([_basis_ket(dl, j if dl > 1 else 0)
                         for dl in spec.dims])
    return state_from_vector(vec, spec.labels, spec.dims)


def _build_w(spec: StateSpec) -> MultipartyState:
    m = len(spec.labels)
    vec = np.zeros(2 ** m, dtype=complex)
    for i in range(m):
        vec += kron_all([_basis_ket(2, 1 if j == i else 0)
                         for j in range(m)])
    return state_from_vector(vec, spec.labels, spec.dims)


def _build_bell(spec: StateSpec) -> MultipartyState:
    a, b = spec.pair
    d = spec.dim(a)
    vec = np.zeros(int(np.prod(spec.dims)), dtype=complex)
    for j in range(d):
        factors = []
        for lab, dl in zip(spec.labels, spec.dims):
            factors.append(_basis_ket(dl, j if lab in (a, b) else 0))
        vec += kron_all(factors)
    return state_from_vector(vec, spec.labels, spec.dims)


def _build_random_pure(spec: StateSpec) -> MultipartyState:
    return random_pure_state(spec.labels, spec.dims, spec.seed)


def random_pure_state(labels: Sequence[str], dims: Sequence[int],
                      seed) -> MultipartyState:
    """Haar-like random pure state from a normalized complex Gaussian draw."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return state_from_vector(vec, labels, dims)


def _build_mixture(spec: StateSpec) -> MultipartyState:
    branches = []
    d = int(np.prod(spec.dims))
    op = np.zeros((d, d), dtype=complex)
    for br in spec.branches:
        kets = tuple(np.asarray(k, dtype=complex) for k in br.kets)
        ket = kron_all(kets)
        op += br.weight * np.outer(ket, ket.conj())
        branches.append(MixtureBranch(br.weight, kets))
    return MultipartyState(spec.labels, spec.dims, op, tuple(branches))


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
    op = partial_trace_op(state.op, state.dims, idx)
    labels = tuple(state.labels[i] for i in idx)
    dims = tuple(state.dims[i] for i in idx)
    provenance = None
    if state.provenance is not None:
        provenance = tuple(
            MixtureBranch(br.weight, tuple(br.kets[i] for i in idx))
            for br in state.provenance)
    return MultipartyState(labels, dims, op, provenance)


def entropy(state: MultipartyState, mask: Iterable[str]) -> float:
    """Von Neumann entropy in bits of the marginal on ``mask``."""
    idx = state.indices_of(mask)
    if not idx:
        raise StateError("mask must be nonempty")
    if len(idx) == len(state.labels):
        return entropy_of_op(state.op)
    return entropy_of_op(partial_trace_op(state.op, state.dims, idx))


def _check_disjoint(state: MultipartyState, parts, cond):
    seen: set[str] = set()
    for part in parts:
        part = set(part)
        if not part:
            raise StateError("empty part mask")
        for lab in part:
            state.index_of(lab)
            if lab in seen:
                raise StateError(f"overlapping masks at {lab!r}")
        seen |= part
    for lab in cond:
        state.index_of(lab)
        if lab in seen:
            raise StateError(f"conditioning label {lab!r} overlaps a part")


def multiparty_info(state: MultipartyState, parts: Sequence[Iterable[str]],
                    cond: Iterable[str] | None = None) -> float:
    """Multiparty information I(X1;...;Xm) or I(X1;...;Xm|E) in bits.

    Without ``cond`` this is sum_i H(Xi) - H(X1...Xm); with ``cond`` all
    entropies become conditional on the ``cond`` subsystem.  Two parts
    reproduce the (conditional) mutual information.
    """
    parts = [frozenset(p) for p in parts]
    if not parts:
        raise StateError("at least one part required")
    cond = frozenset(cond) if cond is not None else frozenset()
    _check_disjoint(state, parts, cond)
    every = frozenset().union(*parts)
    if not cond:
        total = sum(entropy(state, p) for p in parts)
        return total - entropy(state, every)
    h_e = entropy(state, cond)
    total = sum(entropy(state, p | cond) - h_e for p in parts)
    return total - (entropy(state, every | cond) - h_e)


def conditional_info_forms(state: MultipartyState,
                           parts: Sequence[Iterable[str]],
                           cond: Iterable[str]) -> tuple[float, float, float]:
    """The three equivalent expansions of conditional multiparty information.

    Returns (via conditional entropies, via joint entropies minus
    (m-1) H(E), via unconditioned information minus the pairwise terms).
    They agree up to floating-point rounding.
    """
    parts = [frozenset(p) for p in parts]
    cond = frozenset(cond)
    _check_disjoint(state, parts, cond)
    every = frozenset().union(*parts)
    m = len(parts)
    h_e = entropy(state, cond)
    h_joint = [entropy(state, p | cond) for p in parts]
    h_all = entropy(state, every | cond)

    form1 = sum(h - h_e for h in h_joint) - (h_all - h_e)
    form2 = sum(h_joint) - h_all - (m - 1) * h_e
    with_e = multiparty_info(state, list(parts) + [cond])
    form3 = with_e - sum(
        multiparty_info(state, [p, cond]) for p in parts)
    return form1, form2, form3


def fidelity(a: MultipartyState, b: MultipartyState) -> float:
    """Fidelity F(a, b) = (Tr sqrt(sqrt(b) a sqrt(b)))^2, in [0, 1]."""
    _check_same_shape(a, b)
    return fidelity_ops(a.op, b.op)


def trace_norm_distance(a: MultipartyState, b: MultipartyState) -> float:
    """Unnormalized trace distance Tr|a - b| (one-norm of the difference)."""
    _check_same_shape(a, b)
    return trace_norm(a.op - b.op)


def normalized_trace_distance(a: MultipartyState,
                              b: MultipartyState) -> float:
    """Halved trace distance (1/2) Tr|a - b|, as consumed by the
    continuity bounds."""
    return trace_norm_distance(a, b) / 2.0


def _check_same_shape(a: MultipartyState, b: MultipartyState):
    if a.labels != b.labels or a.dims != b.dims:
        raise StateError(f"shape mismatch: {a.labels}/{a.dims} vs "
                         f"{b.labels}/{b.dims}")


def purification_vector(state: MultipartyState) -> tuple[np.ndarray, int]:
    """Canonical minimal purification as an amplitude matrix.

    Returns (psi, r) where psi has shape (dim, r), r = rank of the
    state, and the purified ket is sum_k psi[:, k] (x) |k>.  Columns are
    ordered by descending eigenvalue.
    """
    ev, vec = np.linalg.eigh(hermitian_part(state.op))
    order = np.argsort(ev)[::-1]
    ev, vec = ev[order], vec[:, order]
    keep = ev > EIG_CUTOFF
    ev, vec = ev[keep], vec[:, keep]
    if ev.size == 0:
        raise StateError("state has no spectral support")
    return vec * np.sqrt(ev), int(ev.size)


def purify(state: MultipartyState, new_label: str) -> MultipartyState:
    """Minimal purification; the purifier dimension equals the rank."""
    if new_label in state.labels:
        raise StateError(f"label {new_label!r} already in use")
    psi, r = purification_vector(state)
    if state.dim * r > MAX_TOTAL_DIM:
        raise StateError("purification exceeds the dimension cap")
    vec = psi.reshape(-1)  # row-major: original system major, purifier minor
    return state_from_vector(vec, state.labels + (new_label,),
                             state.dims + (r,))
