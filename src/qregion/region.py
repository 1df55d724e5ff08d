"""Inner-bound rate-region polyhedron for multiparty distributed compression.

The achievable region of an m-sender pure source state is the
supermodular polyhedron (contra-polymatroid)

    { (Q_1, ..., Q_m) : sum_{k in K} Q_k >= C_K  for all nonempty K },

where C_K is half the mutual information between the senders in K and
everything else, written out as entropies of the single-copy state.
This module builds the constants, enumerates the corner points and the
polyhedron vertices (which coincide), reconstructs maximal chains from
saturated constraint systems, and optimizes linear costs greedily.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import qstate
from .qstate import MultipartyState

FEAS_TOL = 1e-7
DEDUP_TOL = 1e-6

MAX_ENUM_SENDERS = 5
MAX_CORNER_SENDERS = 7
#: bytes per stacked array in one block of ``enumerate_vertices``
ENUM_BLOCK_BYTES = 4 << 20


class RegionError(ValueError):
    """Invalid region arguments (bad permutation, costs, subsets, ...)."""


def nonempty_subsets(senders: Sequence[str]) -> list[frozenset[str]]:
    """All nonempty sender subsets, ordered by (size, lexicographic)."""
    return [frozenset(combo) for r in range(1, len(senders) + 1)
            for combo in itertools.combinations(sorted(senders), r)]


@dataclass(frozen=True, eq=False)
class RegionConstants:
    """The bound C_K (bits) for every nonempty sender subset K, inner or
    outer (C_K - E_sq(K), from ``esq.outer_bound_constants``).

    A subset is a bitmask whose bit i stands for ``senders[i]``, and
    ``table[mask]`` is its C_K (entry 0, the empty set, is 0.0).  The
    canonical rows are the nonempty subsets in (size, lexicographic by
    label) order: ``subsets`` and ``masks`` list them, ``incidence``
    holds their 0/1 rows over ``senders`` and ``bounds`` their C_K.
    ``c`` and ``value`` are frozenset-keyed views of the same numbers.
    """

    senders: tuple[str, ...]
    reference: str
    c: Mapping[frozenset[str], float]
    subsets: tuple[frozenset[str], ...] = field(init=False, repr=False)
    masks: np.ndarray = field(init=False, repr=False)
    incidence: np.ndarray = field(init=False, repr=False)
    bounds: np.ndarray = field(init=False, repr=False)
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        senders = tuple(self.senders)
        if len(senders) < 1:
            raise RegionError("at least one sender required")
        if len(set(senders)) != len(senders):
            raise RegionError("sender labels must be distinct")
        subsets = tuple(nonempty_subsets(senders))
        c = {frozenset(k): float(v) for k, v in dict(self.c).items()}
        if set(c) != set(subsets):
            raise RegionError("constants must cover every nonempty subset")
        bounds = np.array([c[s] for s in subsets])
        if not np.isfinite(bounds).all():
            raise RegionError("constants must be finite")
        bit = {lab: 1 << i for i, lab in enumerate(senders)}
        masks = np.array([sum(bit[lab] for lab in s) for s in subsets],
                         dtype=np.int64)
        incidence = (masks[:, None] >> np.arange(len(senders)) & 1) * 1.0
        table = np.zeros(2 ** len(senders))
        table[masks] = bounds
        c = MappingProxyType(dict(zip(subsets, bounds.tolist())))
        for name, value in (("senders", senders), ("subsets", subsets),
                            ("masks", masks), ("incidence", incidence),
                            ("bounds", bounds), ("table", table), ("c", c)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def value(self, subset: Iterable[str]) -> float:
        """C_K, with the empty set mapped to 0 by convention."""
        key = frozenset(subset)
        if key and key not in self.c:
            raise RegionError(f"unknown subset {sorted(key)}")
        return self.c.get(key, 0.0)

    @property
    def m(self) -> int:
        return len(self.senders)


@dataclass(frozen=True)
class RatePoint:
    """Rate tuple in qubits per source copy, ordered like ``senders``."""

    senders: tuple[str, ...]
    rates: tuple[float, ...]
    witness: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.rates) != len(self.senders):
            raise RegionError("one rate per sender required")
        if not all(map(math.isfinite, self.rates)):
            raise RegionError("rates must be finite")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rates, dtype=float)

    def rate(self, sender: str) -> float:
        return self.rates[self.senders.index(sender)]


@dataclass(frozen=True)
class VRegion:
    """Vertex description: deduplicated vertices plus the implicit
    nonnegative-orthant cone generators e_1 ... e_m."""

    senders: tuple[str, ...]
    vertices: tuple[RatePoint, ...]

    def arrays(self) -> np.ndarray:
        return np.array([v.rates for v in self.vertices], dtype=float)


@dataclass(frozen=True)
class Membership:
    verdict: str  # "inside" | "boundary" | "outside"
    violated: tuple[frozenset[str], ...]
    tight: tuple[frozenset[str], ...]


# ---------------------------------------------------------------------------

def region_constants(state: MultipartyState,
                     reference: str) -> RegionConstants:
    """Entropy-derived constants C_K = [sum_K H(A_k) + H(R) - H(R A_K)]/2.

    The derivation assumes a globally pure state; a warning is emitted
    for mixed inputs and the formula is evaluated regardless.
    """
    ref_idx = state.index_of(reference)
    senders = tuple(lab for i, lab in enumerate(state.labels)
                    if i != ref_idx)
    if not senders:
        raise RegionError("need at least one sender besides the reference")
    if not state.is_pure(1e-7):
        warnings.warn("input state is not pure (purity "
                      f"{state.purity():.6f}); the inner bound assumes a "
                      "pure global state", stacklevel=2)
    m = len(senders)
    subsets = [[lab for i, lab in enumerate(senders) if mask >> i & 1]
               for mask in range(1, 1 << m)]  # bit i stands for senders[i]
    h = qstate.entropies(state, [[lab] for lab in senders] + [[reference]]
                         + [s + [reference] for s in subsets])
    h_single, h_ref, h_joint = h[:m], h[m], h[m + 1:]
    # sum of h_single over each mask, added in sender order
    h_sum = np.zeros(1 << m)
    for i in range(m):
        h_sum[1 << i:2 << i] = h_sum[:1 << i] + h_single[i]
    return RegionConstants(senders, reference, dict(zip(
        map(frozenset, subsets), 0.5 * (h_sum[1:] + h_ref - h_joint))))


def _corner_rates(rc: RegionConstants, perms: np.ndarray) -> np.ndarray:
    """Corner points for rows of sender indices, in ``rc.senders`` order:
    the suffix mask at position i is the cumulative OR of the bits of
    perm[i:], and the sender there receives C[suffix_i] - C[suffix_(i+1)]
    (the last one its singleton constant)."""
    suffix = np.bitwise_or.accumulate((1 << perms)[:, ::-1], axis=1)[:, ::-1]
    after = np.zeros_like(suffix)  # mask 0 past the end
    after[:, :-1] = suffix[:, 1:]
    rates = np.empty(perms.shape)
    rates[np.arange(len(perms))[:, None], perms] = (rc.table[suffix]
                                                     - rc.table[after])
    return rates


def corner_point(rc: RegionConstants, perm: Sequence[str]) -> RatePoint:
    """Unique solution of the saturated suffix-chain system for ``perm``.

    The sender in the last position receives its singleton constant;
    earlier positions receive successive suffix differences.
    """
    if sorted(perm) != sorted(rc.senders):
        raise RegionError(f"{tuple(perm)} is not a permutation of "
                          f"{rc.senders}")
    idx = [rc.senders.index(lab) for lab in perm]
    rates = _corner_rates(rc, np.array([idx]))[0].tolist()
    return RatePoint(rc.senders, tuple(rates), witness=tuple(perm))


def _first_primes(n: int) -> list[int]:
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _first_come(x: np.ndarray) -> list[int]:
    """The rows of ``x`` kept, in input order, when each kept row drops
    every later row within Chebyshev distance ``DEDUP_TOL`` of it.  Only
    rows whose key ``x @ w`` lies within ``2 DEDUP_TOL |w|_1`` of a kept
    row's key (a ``searchsorted`` window) are compared: any other row
    differs from it by more than ``DEDUP_TOL`` somewhere.  Corners share
    their rate sum, so ``w`` is not uniform: the square roots of the
    first m primes keep distinct rational vectors apart."""
    weights = np.sqrt(_first_primes(x.shape[1]))
    keys, reach = x @ weights, 2 * DEDUP_TOL * weights.sum()
    order = np.argsort(keys)
    lo = np.searchsorted(keys[order], keys - reach, "left").tolist()
    hi = np.searchsorted(keys[order], keys + reach, "right").tolist()
    kept, dropped = [], np.zeros(len(x), dtype=bool)
    for k in range(len(x)):
        if not dropped[k]:
            kept.append(k)
            if hi[k] - lo[k] > 1:  # more than row k itself in the window
                near = order[lo[k]:hi[k]]  # rows before k are decided
                dropped[near[np.abs(x[near] - x[k]).max(axis=1)
                             <= DEDUP_TOL]] = True
    return kept


def corner_set(rc: RegionConstants) -> VRegion:
    """All corner points over the m! permutations in lexicographic label
    order, deduplicated by ``_first_come``: each retained point carries
    the lexicographically smallest witness."""
    if rc.m > MAX_CORNER_SENDERS:
        raise RegionError(f"corner enumeration limited to m ≤ "
                          f"{MAX_CORNER_SENDERS} senders; this region has "
                          f"{rc.m} ({rc.m}! permutations)")
    perms = np.array(list(itertools.permutations(
        sorted(range(rc.m), key=rc.senders.__getitem__))))
    rates = _corner_rates(rc, perms)
    rows, orders = rates.tolist(), perms.tolist()
    return VRegion(rc.senders, tuple(
        RatePoint(rc.senders, tuple(rows[k]),
                  witness=tuple(rc.senders[i] for i in orders[k]))
        for k in _first_come(rates)))


def outside(rc: RegionConstants, x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` below some bound by more than ``FEAS_TOL``."""
    return (x @ rc.incidence.T < rc.bounds - FEAS_TOL).any(axis=1)


def membership(rc: RegionConstants, q: RatePoint) -> Membership:
    """Classify a rate point against every constraint at ``FEAS_TOL``."""
    if sorted(q.senders) != sorted(rc.senders):
        raise RegionError("rate point senders do not match the region")
    with np.errstate(over="ignore", invalid="ignore"):  # huge rates sum to inf
        totals = rc.incidence @ np.array([q.rate(lab) for lab in rc.senders])
    below = totals < rc.bounds - FEAS_TOL
    on = ~below & (np.abs(totals - rc.bounds) <= FEAS_TOL)
    violated = tuple(rc.subsets[r] for r in np.flatnonzero(below))
    tight = tuple(rc.subsets[r] for r in np.flatnonzero(on))
    verdict = "outside" if violated else "boundary" if tight else "inside"
    return Membership(verdict, violated, tight)


def greedy_minimize(rc: RegionConstants,
                    costs: Sequence[float]) -> tuple[RatePoint, float]:
    """Minimize a positive linear cost over the region by the greedy rule.

    Senders are ordered by ascending cost (ties broken by label), which
    places the largest cost at the final position where it receives the
    smallest chain increment; the resulting corner point attains the LP
    optimum.  Costs are given in ``rc.senders`` order; costs whose
    objective overflows are refused.
    """
    costs = [float(c) for c in costs]
    if len(costs) != rc.m:
        raise RegionError("one cost per sender required")
    if not all(0 < c < math.inf for c in costs):
        raise RegionError("costs must be positive and finite for a bounded "
                          "minimum")
    cost_of = dict(zip(rc.senders, costs))
    perm = tuple(sorted(rc.senders, key=lambda lab: (cost_of[lab], lab)))
    pt = corner_point(rc, perm)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.dot(pt.as_array(), costs))
    if not math.isfinite(value):
        raise RegionError(f"the objective at costs {costs} is not finite")
    return pt, value


def _independent(stack: np.ndarray) -> np.ndarray:
    """Which square 0/1 matrices of a ``(..., m, m)`` stack are nonsingular.

    The entries are 0 or 1, so every determinant is an integer and
    ``|det| > 0.5`` is an exact rank test.
    """
    return np.abs(np.linalg.det(stack)) > 0.5


def enumerate_vertices(rc: RegionConstants) -> VRegion:
    """Brute-force vertex enumeration of the halfspace description.

    Every m-subset of canonical rows, in ``itertools.combinations``
    order, is a candidate system.  Those with independent indicator rows
    are solved in one stacked ``solve``; a solution not ``outside`` is
    feasible.  ``_first_come`` runs over the vertices kept so far and a
    block's feasible solutions, so each vertex keeps its first system,
    whose maximal chain (``reconstruct_chain``) gives the witness.  The
    combinations run in blocks of at most ``ENUM_BLOCK_BYTES`` per
    stacked array; the output does not depend on the block size.
    """
    m = rc.m
    if m > MAX_ENUM_SENDERS:
        raise RegionError(f"vertex enumeration limited to m ≤ "
                          f"{MAX_ENUM_SENDERS} senders")
    incidence, bounds = rc.incidence, rc.bounds
    block = max(1, ENUM_BLOCK_BYTES // (8 * max(m * m, len(bounds))))
    combos = itertools.combinations(range(len(bounds)), m)
    kept, systems = np.empty((0, m)), np.empty((0, m), dtype=np.intp)
    while len(idx := np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, block)),
            dtype=np.intp).reshape(-1, m)):
        idx = idx[_independent(incidence[idx])]
        x = np.linalg.solve(incidence[idx], bounds[idx][..., None])[..., 0]
        inside = ~outside(rc, x)
        x = np.concatenate([kept, x[inside]])  # kept first: they stay kept
        idx = np.concatenate([systems, idx[inside]])
        first = _first_come(x)
        kept, systems = x[first], idx[first]
    return VRegion(rc.senders, tuple(
        RatePoint(rc.senders, tuple(vertex),
                  witness=reconstruct_chain(rc.senders, rc.masks[combo]))
        for vertex, combo in zip(kept.tolist(), systems)))


def reconstruct_chain(senders: Sequence[str],
                      masks: Sequence[int]) -> tuple[str, ...]:
    """The permutation whose suffix sets are the maximal chain hidden in
    a saturated constraint system of m row masks (bit i stands for
    ``senders[i]``).

    ``closure[j]``, the AND of every row containing bit j, holds the
    senders that must follow j.  A Kahn sort of that order, lowest label
    first among the free senders, gives the permutation.  Its suffix
    sets are independently re-derived from unions of intersected rows as
    a consistency check.
    """
    senders = tuple(senders)
    masks = [int(s) for s in masks]
    m, full = len(senders), (1 << len(senders)) - 1
    if len(masks) != m:
        raise RegionError(f"expected {m} sets, got {len(masks)}")
    if not _independent(np.array(masks, dtype=np.int64)[:, None]
                        >> np.arange(m) & 1):
        raise RegionError("indicator rows are linearly dependent")

    closure = [functools.reduce(operator.and_,
                                (s for s in masks if s >> j & 1), full)
               for j in range(m)]
    # Kahn topological sort: j must precede every other sender in
    # closure[j]; take the lowest label among the free senders
    before = [sum(1 << j for j in range(m) if j != k and closure[j] >> k & 1)
              for k in range(m)]
    by_label = sorted(range(m), key=senders.__getitem__)
    order, placed = [], 0
    while len(order) < m:
        node = next((k for k in by_label if not placed >> k & 1
                     and not before[k] & ~placed), None)
        if node is None:
            raise InternalCheckError("implication graph has a cycle despite "
                                     "linearly independent rows")
        order.append(node)
        placed |= 1 << node

    # cross-check: rebuild each suffix set from unions of intersections
    current = functools.reduce(operator.or_, masks, 0)
    if current != full:
        raise InternalCheckError("saturated sets do not cover every sender")
    suffix = full
    for l, node in zip(range(m, 0, -1), order):
        if suffix != current:
            raise InternalCheckError("chain reconstruction mismatch at "
                                     f"level {l}")
        head = 1 << node
        suffix &= ~head
        current = functools.reduce(operator.or_, [
            s & current for s in masks if not s & current & head], 0)
    return tuple(senders[j] for j in order)


class InternalCheckError(RuntimeError):
    """An internal consistency invariant failed (should be unreachable)."""


def check_supermodular(rc: RegionConstants) \
        -> list[tuple[frozenset[str], frozenset[str], float]]:
    """Test C_{K u L} + C_{K n L} >= C_K + C_L over all subset pairs.

    Returns the list of violating (K, L, deficit) triples; empty means
    the map is supermodular within ``FEAS_TOL``.  Constants derived from a
    quantum state always pass (the inequality is strong subadditivity
    in disguise).
    """
    i, j = np.triu_indices(len(rc.masks))  # combinations_with_replacement
    k, l = rc.masks[i], rc.masks[j]
    lhs = rc.table[k | l] + rc.table[k & l]
    rhs = rc.table[k] + rc.table[l]
    return [(rc.subsets[i[p]], rc.subsets[j[p]], float(rhs[p] - lhs[p]))
            for p in np.flatnonzero(lhs < rhs - FEAS_TOL)]
