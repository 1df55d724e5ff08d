"""Monte Carlo decoupling simulator and protocol rate schedules.

A sender holding n copies of her share applies a random unitary and
forwards part of the rotated block; transfer succeeds exactly when the
kept remainder decouples from the reference.  The simulator measures
that decoupling directly (normalized trace distance and a fidelity
proxy between the joint state and the product of its marginals) on a
grid of qubit rates, exhibiting the half-mutual-information threshold.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qstate
from .qstate import MultipartyState

MAX_HAAR_DIM = 256

#: largest joint operator (kept remainder times reference) a trial forms
MAX_JOINT_DIM = 256

#: most Haar trials one decoupling curve runs; the work is linear in it
MAX_TRIALS = 10_000

#: bytes of one trial's largest array times the trials stacked per chunk
TRIAL_CHUNK_BYTES = 64 * 1024


class SimError(ValueError):
    """Invalid simulation arguments."""


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True)
class ProtocolSchedule:
    """Per-sender threshold rates for one decoding permutation.

    ``thresholds[i]`` is half the mutual information between sender
    ``permutation[i]`` and everything decoded after her (later senders
    plus the reference); the thresholds telescope to the full-set
    constant.
    """

    permutation: tuple[str, ...]
    thresholds: tuple[float, ...]

    def threshold(self, sender: str) -> float:
        return self.thresholds[self.permutation.index(sender)]


def multiparty_schedule(state: MultipartyState, reference: str,
                        perm: Sequence[str]) -> ProtocolSchedule:
    """Sequential-protocol rates: sender i needs half her mutual
    information with the senders after her in ``perm`` and the
    reference, computed on the single-copy state."""
    ref_idx = state.index_of(reference)
    senders = [lab for i, lab in enumerate(state.labels) if i != ref_idx]
    if sorted(perm) != sorted(senders):
        raise SimError(f"{tuple(perm)} is not a permutation of the senders "
                       f"{tuple(senders)}")
    perm = tuple(perm)
    thresholds = []
    for i, sender in enumerate(perm):
        rest = set(perm[i + 1:]) | {reference}
        info = qstate.multiparty_info(state, [{sender}, rest])
        thresholds.append(0.5 * info)
    return ProtocolSchedule(perm, tuple(thresholds))


# ---------------------------------------------------------------------------
# random unitaries

def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary via Ginibre QR with phase correction."""
    if not 1 <= d <= MAX_HAAR_DIM:
        raise SimError(f"dimension {d} outside [1, {MAX_HAAR_DIM}]")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) \
        / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


# ---------------------------------------------------------------------------
# n-copy states and typical projection

def _copy_dims(dims: Sequence[int], n: int,
               what: str = "state") -> tuple[int, ...]:
    """Dimensions of n grouped copies of each block, once n >= 1 and the
    n-copy product fits the dimension cap (compared in logs: the integer
    power itself is slow for huge n)."""
    if n < 1:
        raise SimError("need n >= 1 copies")
    if n * math.log2(math.prod(dims)) > math.log2(qstate.MAX_TOTAL_DIM):
        raise SimError(f"n-copy {what} exceeds the dimension cap")
    return tuple(d ** n for d in dims)


def ncopy_state(state: MultipartyState, n: int) -> MultipartyState:
    """n copies of the state with each label's copies grouped into one
    block, so the labels survive with dimensions raised to the n."""
    dims = _copy_dims(state.dims, n)
    vec, purifier = _grouped_vector(state, n, 0)
    op = qstate.vector_marginal(vec, dims + (purifier,), range(len(dims)))
    return MultipartyState(state.labels, dims, op)


@dataclass(frozen=True, eq=False)
class TypicalProjection:
    """Projector onto the delta-typical subspace of an n-copy block."""

    sender: str
    n: int
    delta: float
    projector: np.ndarray  # acts on the grouped sender block
    retained_probability: float
    typical_dim: int


def typical_projection(state: MultipartyState, sender: str, n: int,
                       delta: float) -> TypicalProjection:
    """Project n copies of the sender marginal onto the strings whose
    empirical log-probability sits within ``delta`` of the entropy rate.

    Warns when the retained probability drops below one half (the
    window is too tight for this n).
    """
    if not math.isfinite(delta) or delta < 0:
        raise SimError(f"delta must be finite and nonnegative, got {delta}")
    s_idx = state.index_of(sender)
    _copy_dims([state.dims[s_idx]], n, "sender block")
    marg = qstate.vector_marginal(state.psi.reshape(-1),
                                  state.dims + state.psi.shape[1:], [s_idx])
    ev, vec = np.linalg.eigh(qstate.hermitian_part(marg))
    order = np.argsort(ev)[::-1]
    ev, vec = ev[order], vec[:, order]
    ev = np.clip(ev, 0.0, None)
    d = ev.size
    positive = ev > qstate.EIG_CUTOFF
    logp = np.log2(ev[positive])
    h = float(-(ev[positive] * logp).sum())

    # letter counts of every string, in itertools.product order
    strings = np.indices((d,) * n).reshape(n, -1)
    counts = (strings[:, :, None] == np.arange(d)).sum(axis=0)
    avg = -(counts[:, positive] @ logp) / n
    # a zero-probability letter makes a string never typical
    flags = ~counts[:, ~positive].any(axis=1) & (np.abs(avg - h) <= delta)
    typical_dim = int(flags.sum())
    if typical_dim == 0:
        raise SimError("typical subspace is empty; increase delta or n")
    # a running total in string order
    retained = float(np.cumsum(np.prod(ev ** counts[flags], axis=1))[-1])

    # the typical product eigenvectors, one Kronecker factor per copy
    cols = vec[:, strings[0, flags]]
    for digits in strings[1:, flags]:
        cols = (cols[:, None, :] * vec[:, digits]).reshape(-1, typical_dim)
    projector = cols @ cols.conj().T
    if retained < 0.5:
        warnings.warn(f"typical projection retains only {retained:.3f} "
                      f"of the state (delta too tight at n = {n})",
                      stacklevel=2)
    return TypicalProjection(sender, n, float(delta), projector,
                             float(retained), typical_dim)


# ---------------------------------------------------------------------------
# decoupling curves

@dataclass(frozen=True)
class CurvePoint:
    q: float                 # requested rate, qubits per copy
    sent_qubits: int         # effective whole-qubit split n*Q
    trials: int
    mean_dist: float
    stderr_dist: float
    mean_fid: float


@dataclass(frozen=True, eq=False)
class DecouplingCurve:
    state: MultipartyState
    sender: str
    reference: str
    copies: int
    seed: int
    delta: float | None
    retained_probability: float | None
    notes: tuple[str, ...]
    points: tuple[CurvePoint, ...]

    def to_csv(self) -> str:
        lines = ["Q,trials,mean_dist,stderr_dist,mean_fid"]
        lines += [f"{p.q:.12g},{p.trials},{p.mean_dist:.12g},"
                  f"{p.stderr_dist:.12g},{p.mean_fid:.12g}"
                  for p in self.points]
        return "\n".join(lines) + "\n"


def _grouped_vector(state: MultipartyState, n: int,
                    first: int) -> tuple[np.ndarray, int]:
    """Purified n-copy amplitude vector and its purifier dimension.

    The purification is the state's ``psi`` scaled to unit norm.  Each
    label's copies are grouped into one block, label ``first`` leads,
    and the ``r**n`` purifier block is the trailing axis.
    """
    psi = state.psi / np.linalg.norm(state.psi)
    r = psi.shape[1]
    k = len(state.dims)
    blocks = [first] + [l for l in range(k + 1) if l != first]
    # copy-major axes (c, l) -> block-major (l, c)
    axes = [c * (k + 1) + l for l in blocks for c in range(n)]
    vec = qstate.kron_all([psi.reshape(-1)] * n)
    return (vec.reshape((list(state.dims) + [r]) * n).transpose(axes)
            .reshape(-1), r ** n)


def decoupling_curve(state: MultipartyState, sender: str, reference: str,
                     n: int, grid: Sequence[float], trials: int, seed: int,
                     typical_delta: float | None = None) -> DecouplingCurve:
    """Decoupling error versus qubit rate for one sender.

    Per trial: take n grouped copies of the purified state (optionally
    projected onto the delta-typical sender subspace and renormalized),
    rotate the sender block by a fresh Haar unitary, send the leading
    2^(nQ)-dimensional factor, and record the normalized trace distance
    and fidelity between the kept-remainder/reference joint state and
    the product of its marginals; the purifier is traced out with the
    rest.  Rates are quantized to whole qubits (fractional nQ floored,
    with a note).  Trial t uses the seed pair (seed, t).
    """
    s_idx = state.index_of(sender)
    r_idx = state.index_of(reference)
    if s_idx == r_idx:
        raise SimError("sender and reference must differ")
    if trials < 1:
        raise SimError("need at least one trial")
    if trials > MAX_TRIALS:
        raise SimError(f"trials {trials} exceeds the cap {MAX_TRIALS}")
    dims_grouped = _copy_dims(state.dims, n)
    d_s = state.dims[s_idx]
    q_max = n * math.log2(d_s)
    notes: list[str] = []
    splits: list[tuple[float, int]] = []
    for q in grid:
        if not -1e-12 <= q <= q_max + 1e-12:  # also rejects NaN
            raise SimError(f"grid value {q} outside [0, {q_max:g}]")
        exact = n * q
        nq = int(math.floor(exact + 1e-9))
        if abs(exact - nq) > 1e-9:
            notes.append(f"Q={q:g}: fractional split n*Q={exact:g} "
                         f"floored to {nq} qubits")
        splits.append((float(q), nq))

    block = dims_grouped[s_idx]
    for q, nq in splits:
        if block % (2 ** nq) != 0:
            raise SimError(f"cannot split a block of dimension {block} "
                           f"into {2 ** nq} sent dimensions: non-integer "
                           f"qubit split")
    if block > MAX_HAAR_DIM:
        raise SimError(f"n-copy sender block of dimension {block} exceeds "
                       f"the Haar cap {MAX_HAAR_DIM}")
    d_ref = dims_grouped[r_idx]
    d_joint = block // 2 ** min((nq for _, nq in splits), default=0) * d_ref
    if d_joint > MAX_JOINT_DIM:
        raise SimError(f"joint operator of dimension {d_joint} exceeds the "
                       f"cap {MAX_JOINT_DIM}")

    # sender block first, the other labels after it in label order, and
    # the purifier block last
    vec, purifier = _grouped_vector(state, n, s_idx)
    rest = vec.size // block
    other = [i for i in range(len(state.labels)) if i != s_idx]
    rest_dims = [dims_grouped[i] for i in other] + [purifier]
    ref_pos = 2 + other.index(r_idx)  # after the (A1, A2) split axes
    retained = delta = None
    if typical_delta is not None:
        proj = typical_projection(state, sender, n, typical_delta)
        retained, delta = proj.retained_probability, proj.delta
        vec = (proj.projector @ vec.reshape(block, rest)).reshape(-1)
        vec = vec / np.linalg.norm(vec)

    # the largest array a trial adds: its draw, its vector or a joint
    per_trial = 16 * max(block * block, vec.size, d_joint * d_joint)
    chunk = max(1, TRIAL_CHUNK_BYTES // per_trial)
    dists = np.zeros((len(splits), trials))
    fids = np.zeros((len(splits), trials))
    for t0 in range(0, trials, chunk):
        t1 = min(t0 + chunk, trials)
        us = np.stack([haar_unitary(block, [seed, t]) for t in range(t0, t1)])
        rotated = (us @ vec.reshape(block, rest)).reshape(t1 - t0, -1)
        for gi, (q, nq) in enumerate(splits):
            d_a1 = 2 ** nq
            d_a2 = block // d_a1
            joint = qstate.vector_marginal(rotated, [d_a1, d_a2] + rest_dims,
                                           [1, ref_pos])
            j5 = joint.reshape(-1, d_a2, d_ref, d_a2, d_ref)
            sigma_a2 = np.trace(j5, axis1=2, axis2=4)
            sigma_r = np.trace(j5, axis1=1, axis2=3)
            product = (sigma_a2[:, :, None, :, None]
                       * sigma_r[:, None, :, None, :]).reshape(joint.shape)
            dists[gi, t0:t1] = qstate.trace_norm(joint - product) / 2.0
            fids[gi, t0:t1] = qstate.fidelity_ops(joint, product)

    stderr = dists.std(axis=1, ddof=1) / math.sqrt(trials) if trials > 1 \
        else np.zeros(len(splits))
    points = tuple(CurvePoint(q, nq, trials, float(m), float(e), float(f))
                   for (q, nq), m, e, f in zip(splits, dists.mean(axis=1),
                                               stderr, fids.mean(axis=1)))
    return DecouplingCurve(state, sender, reference, n, int(seed), delta,
                           retained, tuple(notes), points)
