"""Monte Carlo decoupling simulator.

A sender holding n copies of her share applies a random unitary and
forwards part of the rotated block; transfer succeeds exactly when the
kept remainder decouples from the reference.  The simulator measures
that decoupling directly (normalized trace distances and fidelities
between the joint state and the product of its marginals) on a grid
of qubit rates, exhibiting the half-mutual-information threshold.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qstate
from .qstate import MAX_TOTAL_DIM, MultipartyState
from .statespec import INPUT_TOL, _is_int

MAX_HAAR_DIM = 256

#: largest joint operator (kept remainder times reference) a trial forms
MAX_JOINT_DIM = 512

#: most Haar trials one decoupling curve runs; the work is linear in it
MAX_TRIALS = 10_000


class SimError(ValueError):
    """Invalid simulation arguments."""


# ---------------------------------------------------------------------------
# random unitaries

def haar_unitaries(d: int, seeds: Sequence) -> np.ndarray:
    """A (len(seeds), d, d) stack of Haar-distributed unitaries, one per
    seed: each seed's Ginibre draw, then one stacked QR and the phase
    correction of the whole stack (Mezzadri, math-ph/0609050)."""
    if not 1 <= d <= MAX_HAAR_DIM:
        raise SimError(f"dimension {d} outside [1, {MAX_HAAR_DIM}]")
    z = np.empty((len(seeds), d, d), dtype=complex)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        z[i] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary via Ginibre QR with phase correction."""
    return haar_unitaries(d, [seed])[0]


# ---------------------------------------------------------------------------
# n-copy states and typical projection

def _copy_dims(dims: Sequence[int], n: int,
               what: str = "state") -> tuple[int, ...]:
    """Dimensions of n grouped copies of each block, once n >= 1 and the
    n-copy product, at least 2**n, fits the dimension cap (compared in
    logs: the integer power itself is slow for huge n)."""
    if not _is_int(n):
        raise SimError(f"copies n must be an integer, got {n!r}")
    if n < 1:
        raise SimError("need n >= 1 copies")
    if n * math.log2(max(math.prod(dims), 2)) > math.log2(MAX_TOTAL_DIM):
        raise SimError(f"n-copy {what} exceeds the dimension cap")
    return tuple(d ** n for d in dims)


@dataclass(frozen=True, eq=False)
class TypicalProjection:
    """Projector onto the delta-typical subspace of an n-copy block."""

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
    return TypicalProjection(projector, float(retained), typical_dim)


# ---------------------------------------------------------------------------
# decoupling curves

@dataclass(frozen=True)
class CurvePoint:
    q: float                 # requested rate, qubits per copy
    sent_qubits: int         # whole qubits sent, floor(n (Q + INPUT_TOL))
    trials: int
    mean_dist: float
    stderr_dist: float
    mean_fid: float


@dataclass(frozen=True, eq=False)
class DecouplingCurve:
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
    dims = list(state.dims) + [psi.shape[1]]
    blocks = [first] + [l for l in range(len(dims)) if l != first]
    # copy-major axes (c, l) -> block-major (l, c); size-1 axes move no
    # amplitude, and leaving them out keeps within numpy's 64-axis limit
    axes = [(c, l) for c in range(n) for l in range(len(dims)) if dims[l] > 1]
    order = sorted(range(len(axes)),
                   key=lambda j: (blocks.index(axes[j][1]), axes[j][0]))
    vec = qstate.kron_all([psi.reshape(-1)] * n)
    return (vec.reshape([dims[l] for _, l in axes]).transpose(order)
            .reshape(-1), dims[-1] ** n)


def _apply_product(m: np.ndarray, a: np.ndarray, b: np.ndarray
                   ) -> np.ndarray:
    """(a (x) b) M for a stack of (d_a d_b) x k matrices M, one factor at
    a time: the stack ``a`` on the A axis, the one matrix ``b`` on the B
    axis of M reshaped to (rows, d_a, d_b, k)."""
    rows, d_joint, k = m.shape
    d_a = a.shape[-1]
    t = (a @ m.reshape(rows, d_a, -1)).reshape(rows, d_a, -1, k)
    return (b @ t).reshape(rows, d_joint, k)


def _split_errors(vecs: np.ndarray, dims: Sequence[int], ref_pos: int,
                  sigma_r: np.ndarray, root_r: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Decoupling errors of a stack of amplitude vectors on ``dims``, the
    sent part A1 and the kept part A2 leading: the normalized trace
    distances and fidelities, one per vector, between the A2/reference
    joint J = M M^dagger and the product P = sigma_A2 (x) sigma_R of its
    marginals.

    ``sigma_r`` is the reference marginal, which a rotation of the sender
    block leaves unchanged, and ``root_r`` its square root.  The
    fidelity is (sum sqrt(lambda))^2 over the squared singular values of
    sqrt(P) M: the spectrum of the k x k matrix M^dagger P M when M has
    k <= D columns, else the nonzero spectrum of the D x D matrix
    sqrt(P) J sqrt(P), cut and summed by ``qstate.fidelity_of_spectrum``.
    """
    d_a2, d_ref = dims[1], dims[ref_pos]
    m = qstate.marginal_factor(vecs, dims, [1, ref_pos])
    rows, d_joint, k = m.shape
    m_a = m.reshape(rows, d_a2, -1)
    sigma_a2 = m_a @ m_a.conj().swapaxes(-1, -2)
    if k <= d_joint:
        gram = m.conj().swapaxes(-1, -2) @ _apply_product(m, sigma_a2,
                                                          sigma_r)
    else:
        gram = _apply_product(m, qstate.psd_sqrt(sigma_a2), root_r)
        gram = gram @ gram.conj().swapaxes(-1, -2)
    fid = qstate.fidelity_of_spectrum(np.linalg.eigvalsh(gram))
    del gram
    joint = m @ m.conj().swapaxes(-1, -2)
    del m, m_a  # J and the marginals are all the distance needs
    # J - P in place, one A2 row at a time, so no product operator forms
    j5 = joint.reshape(rows, d_a2, d_ref, d_a2, d_ref)
    for i in range(d_a2):
        j5[:, i] -= sigma_a2[:, i, None, :, None] * sigma_r[:, None, :]
    return qstate.trace_norm(joint) / 2.0, fid


def decoupling_curve(state: MultipartyState, sender: str, reference: str,
                     n: int, grid: Sequence[float], trials: int, seed: int,
                     typical_delta: float | None = None) -> DecouplingCurve:
    """Decoupling error versus qubit rate for one sender.

    Per trial: take n grouped copies of the purified state (optionally
    projected onto the delta-typical sender subspace and renormalized),
    rotate the sender block by a fresh Haar unitary, send the leading
    2^(nQ)-dimensional factor, and record the two decoupling errors
    (``_split_errors``) of the kept-remainder/reference joint state
    against the product of its marginals; the purifier is traced out with the
    rest.  A rate Q is qubits per copy, in [0, log2 d_sender]; it sends
    nq = floor(n (Q + INPUT_TOL)) qubits, noted when nq/n is off Q by more
    than INPUT_TOL.  Trial t uses the seed pair (seed, t).

    Points that send nothing or the whole block do not depend on the
    unitary (it acts on the kept part alone, or on nothing kept), so
    each is evaluated once on the unrotated vector and reports that
    value with a zero standard error; a grid of such points alone makes
    no draw.
    """
    s_idx = state.index_of(sender)
    r_idx = state.index_of(reference)
    if s_idx == r_idx:
        raise SimError("sender and reference must differ")
    if not _is_int(trials):
        raise SimError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise SimError("need at least one trial")
    if trials > MAX_TRIALS:
        raise SimError(f"trials {trials} exceeds the cap {MAX_TRIALS}")
    if not _is_int(seed) or seed < 0:
        raise SimError(f"seed must be a nonnegative integer, got {seed!r}")
    dims_grouped = _copy_dims(state.dims, n)
    block = dims_grouped[s_idx]
    q_max = math.log2(state.dims[s_idx])
    notes: list[str] = []
    splits: list[tuple[float, int]] = []
    for q in grid:
        if not -INPUT_TOL <= q <= q_max + INPUT_TOL:  # also rejects NaN
            raise SimError(f"grid value {q} outside [0, {q_max:g}]")
        nq = math.floor(n * (q + INPUT_TOL))
        if abs(q - nq / n) > INPUT_TOL:
            notes.append(f"Q={q:g}: fractional split n*Q={n * q:g} "
                         f"floored to {nq} qubits")
        if block % (2 ** nq) != 0:
            raise SimError(f"cannot split a block of dimension {block} "
                           f"into {2 ** nq} sent dimensions: non-integer "
                           f"qubit split")
        splits.append((float(q), nq))
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
    retained = None
    if typical_delta is not None:
        proj = typical_projection(state, sender, n, typical_delta)
        retained = proj.retained_probability
        vec = (proj.projector @ vec.reshape(block, rest)).reshape(-1)
        vec = vec / np.linalg.norm(vec)
    # the draw acts on the sender block alone: one reference marginal,
    # and its square root, serve every trial and grid point
    sigma_r = qstate.vector_marginal(vec, [block] + rest_dims, [ref_pos - 1])
    root_r = qstate.psd_sqrt(sigma_r)

    def split_dims(nq):
        return [2 ** nq, block // 2 ** nq] + rest_dims

    # nothing sent or everything sent: the draw acts on A2 alone, which
    # leaves both errors unchanged, or on nothing that is kept, so one
    # evaluation of the unrotated vector serves every trial
    mean_d, stderr, mean_f = np.zeros((3, len(splits)))
    drawn = []
    for gi, (_, nq) in enumerate(splits):
        if nq == 0 or 2 ** nq == block:
            d, f = _split_errors(vec[None], split_dims(nq), ref_pos,
                                 sigma_r, root_r)
            mean_d[gi], mean_f[gi] = d[0], f[0]
        else:
            drawn.append(gi)
    if drawn:
        # the largest array a drawn trial adds: its draw, its vector or a
        # joint
        d_drawn = block // 2 ** min(splits[gi][1] for gi in drawn) * d_ref
        per_trial = 16 * max(block * block, vec.size, d_drawn * d_drawn)
        chunk = max(1, qstate.BLOCK_BYTES // per_trial)
        dists = np.zeros((len(drawn), trials))
        fids = np.zeros((len(drawn), trials))
        for t0 in range(0, trials, chunk):
            t1 = min(t0 + chunk, trials)
            us = haar_unitaries(block, [[seed, t] for t in range(t0, t1)])
            rotated = (us @ vec.reshape(block, rest)).reshape(t1 - t0, -1)
            for row, gi in enumerate(drawn):
                dists[row, t0:t1], fids[row, t0:t1] = _split_errors(
                    rotated, split_dims(splits[gi][1]), ref_pos, sigma_r,
                    root_r)
        mean_d[drawn], mean_f[drawn] = dists.mean(axis=1), fids.mean(axis=1)
        if trials > 1:
            stderr[drawn] = dists.std(axis=1, ddof=1) / math.sqrt(trials)
    points = tuple(CurvePoint(q, nq, trials, float(m), float(e), float(f))
                   for (q, nq), m, e, f in zip(splits, mean_d, stderr,
                                               mean_f))
    return DecouplingCurve(retained, tuple(notes), points)
