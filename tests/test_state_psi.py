"""The stored purification ``psi`` against the dense-operator recipes it
replaced: entropies from the smaller side, one eigensolve per state."""
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qregion as qr
from qregion import qstate as Q

from qregion.statespec import StateSpec

from helpers import (bell_state, bell_with_spectator, entropy_reference,
                     ghz_state, ncopy_op_reference, partial_trace_op,
                     random_mixture_spec, random_mixture_state,
                     random_sender_state)


def _entropy_reference(state, mask):
    """Operator path: partial trace of the dense op, then eigensolve."""
    idx = state.indices_of(mask)
    return entropy_reference(partial_trace_op(state.op, state.dims, idx))


def _purification_reference(state):
    """The eigensolve recipe that built the purification on demand."""
    ev, vec = np.linalg.eigh(Q.hermitian_part(state.op))
    order = np.argsort(ev)[::-1]
    ev, vec = ev[order], vec[:, order]
    keep = ev > Q.EIG_CUTOFF
    ev, vec = ev[keep], vec[:, keep]
    return vec * np.sqrt(ev), int(ev.size)


def _masks(state):
    labels = state.labels
    for size in range(1, len(labels) + 1):
        yield from itertools.combinations(labels, size)


def _w_state():
    return qr.build_state(qr.StateSpec(family="w",
                                       labels=("A1", "A2", "A3", "R"),
                                       dims=(2,) * 4, reference="R"))


def _mixture():
    return random_mixture_state(np.random.default_rng(3),
                                ("A1", "A2", "R"), (2, 3, 2))


def _reduced():
    return qr.reduced_state(random_sender_state(3, 4), {"A1", "A3", "R"})


PANEL = {
    "ghz": lambda: ghz_state(("A1", "A2", "A3", "R")),
    "w": _w_state,
    "bell-spectator": bell_with_spectator,
    "random-m2": lambda: random_sender_state(2, 1),
    "random-m3": lambda: random_sender_state(3, 2),
    "random-m4": lambda: random_sender_state(4, 3, d_ref=4),
    "random-m5-ref32": lambda: random_sender_state(5, 4),
    "mixture": _mixture,
    "reduced": _reduced,
}


@pytest.mark.parametrize("name", PANEL)
def test_entropy_matches_operator_reference_on_every_mask(name):
    state = PANEL[name]()
    for mask in _masks(state):
        assert abs(Q.entropy(state, mask)
                   - _entropy_reference(state, mask)) <= 1e-12


def test_purification_vector_bit_identical_for_operator_inputs():
    states = [_mixture(), _reduced(),
              qr.reduced_state(ghz_state(), {"A1", "A2"}),
              Q.MultipartyState(("X",), (2,), np.eye(2) / 2),
              Q.MultipartyState(("X1", "X2"), (4, 4), ncopy_op_reference(
                  random_mixture_state(np.random.default_rng(1)), 2))]
    for state in states:
        psi, r = Q.purification_vector(state)
        ref_psi, ref_r = _purification_reference(state)
        assert r == ref_r
        assert psi.shape == ref_psi.shape
        assert np.array_equal(psi, ref_psi)
        assert not psi.flags.writeable


def test_psi_purifies_the_state():
    # row-major psi: the state's axes major, the purifier axis minor
    # the last has an uneven spectrum, so a wrong column scale shows
    states = [Q.MultipartyState(("X",), (2,), np.eye(2) / 2), bell_state(),
              qr.reduced_state(ghz_state(), {"A1", "A2"}), _mixture()]
    for state in states:
        r = state.psi.shape[1]
        pure = Q.state_from_vector(state.psi.reshape(-1),
                                   state.labels + ("P",), state.dims + (r,))
        assert pure.purity() == pytest.approx(1.0, abs=1e-10)
        back = qr.reduced_state(pure, state.labels)
        assert np.abs(back.op - state.op).max() <= 1e-9
    assert bell_state().psi.shape[1] == 1


def test_vector_input_keeps_its_vector():
    vec = np.array([3, 0, 0, 4j])
    state = Q.state_from_vector(vec, ("A", "B"), (2, 2))
    assert np.array_equal(state.psi[:, 0], vec / 5)
    assert np.array_equal(state.op, np.outer(vec / 5, (vec / 5).conj()))
    assert state.purity() == pytest.approx(1.0, abs=1e-15)


def test_vector_input_forms_op_once_on_first_read():
    state = random_sender_state(3, 5, d_ref=2)
    assert "op" not in vars(state)
    op = state.op
    assert np.array_equal(op, np.outer(state.psi, state.psi.conj()))
    assert not op.flags.writeable
    assert state.op is op


def test_pure_state_region_and_greedy_form_no_operator():
    # eleven qubit senders and a qubit reference: a dense op is 256 MiB
    tracemalloc.start()
    try:
        state = random_sender_state(11, 11, d_ref=2)
        rc = qr.region_constants(state, "R")
        qr.greedy_minimize(rc, range(1, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, f"peak {peak / 2 ** 20:.1f} MiB"
    assert "op" not in vars(state)


@pytest.fixture
def eigensolves(monkeypatch):
    """Shapes of every matrix passed to np.linalg.eigh / eigvalsh."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def record(a, *args, _solver=solver, **kwargs):
            shapes.append(np.shape(a))
            return _solver(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    return shapes


def test_vector_inputs_run_no_eigensolve(eigensolves):
    random_sender_state(5, 0)
    ghz_state()
    bell_with_spectator()
    ket = Q.state_from_vector([1, 1j], ["A"], [2])
    Q.state_from_vector(ket.psi.reshape(-1), ["A", "P"], [2, 1])
    assert eigensolves == []


def test_region_constants_of_dim_1024_pure_state_solve_small(eigensolves):
    state = random_sender_state(5, 0)  # five qubits and a 32-dim reference
    assert state.dim == 1024
    qr.region_constants(state, "R")
    assert eigensolves
    assert max(shape[-1] for shape in eigensolves) <= 32


# ---------------------------------------------------------------------------
# property tests over seeded random pure and mixed states

@st.composite
def _random_states(draw):
    m = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.sampled_from((1, 2, 3)), min_size=m,
                               max_size=m))) + (draw(st.integers(1, 4)),)
    labels = tuple(f"A{i + 1}" for i in range(m)) + ("R",)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        return qr.random_pure_state(labels, dims, seed)
    branches = draw(st.integers(1, 4))
    return random_mixture_state(np.random.default_rng(seed), labels, dims,
                                branches)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_random_states())
def test_smaller_side_entropy_matches_reference(state):
    full = frozenset(state.labels)
    pure = state.psi.shape[1] == 1
    for mask in _masks(state):
        h = Q.entropy(state, mask)
        assert abs(h - _entropy_reference(state, mask)) <= 1e-12
        if pure and len(mask) < len(full):
            assert abs(h - Q.entropy(state, full - set(mask))) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_random_states())
def test_region_constants_supermodular(state):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mixed inputs warn; SSA still holds
        rc = qr.region_constants(state, "R")
    assert qr.check_supermodular(rc) == []


@st.composite
def _random_specs(draw):
    """A valid spec of any family: 1-3 senders and a reference, with
    dimensions the family admits, its random parts drawn from a seed."""
    family = draw(st.sampled_from(["product", "ghz", "w", "bell",
                                   "random_pure", "mixture"]))
    m = draw(st.integers(1, 3))
    labels = tuple(f"A{i + 1}" for i in range(m)) + ("R",)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if family in ("ghz", "w"):
        d = 2 if family == "w" else draw(st.sampled_from((2, 3)))
        return StateSpec(family, labels, (d,) * (m + 1), "R")
    dims = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=m + 1,
                         max_size=m + 1))
    if family == "product":
        return StateSpec(family, labels, tuple(dims), "R",
                         basis=tuple(int(rng.integers(d)) for d in dims))
    if family == "bell":
        a, b = draw(st.permutations(range(m + 1)))[:2]
        dims[a] = dims[b] = draw(st.sampled_from((2, 3)))
        return StateSpec(family, labels, tuple(dims), "R",
                         pair=(labels[a], labels[b]))
    if family == "random_pure":
        return StateSpec(family, labels, tuple(dims), "R", seed=seed)
    return random_mixture_spec(rng, labels, tuple(dims),
                               draw(st.integers(1, 4)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_random_specs())
def test_purification_round_trip(spec):
    # purify on a new label P, then trace P out again
    state = qr.build_state(spec)
    psi, r = Q.purification_vector(state)
    pure = Q.state_from_vector(psi.reshape(-1), state.labels + ("P",),
                               state.dims + (r,))
    assert pure.is_pure(1e-10)
    back = qr.reduced_state(pure, state.labels)
    assert np.abs(back.op - state.op).max() <= 1e-9
