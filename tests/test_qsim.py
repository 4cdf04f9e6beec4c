"""Simulator tests: analytic probabilities, unitarity/normalization,
gate inverses, depth metric, text round-trips, and instrumentation."""

import copy
import functools
import hashlib
import itertools
import math
import pickle
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvqc import bench, fixtures, qsim
from pvqc.errors import FormatError, ParameterError
from pvqc.qsim import simulator
from pvqc.qsim.circuit import (_PLAIN_GATES, DOUBLE_GATES, GATE_ARITY, MAX_QUBITS,
                               PARAM_GATES, SINGLE_GATES, Gate, _gate_text, gate_weight)
from pvqc.qsim.simulator import apply_gate, gate_matrix, marginal_one_prob


def _rand_state(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- analytic

def test_x_accepts_with_probability_one():
    c = qsim.Circuit(n_qubits=1, gates=(Gate("X", (0,)),), output_qubit=0)
    assert abs(qsim.accept_prob(c, [0]) - 1.0) <= 1e-12


def test_h_accepts_with_probability_half():
    c = qsim.Circuit(n_qubits=1, gates=(Gate("H", (0,)),), output_qubit=0)
    assert abs(qsim.accept_prob(c, [0]) - 0.5) <= 1e-12


def test_bell_marginal_is_half():
    gates = (Gate("H", (0,)), Gate("CNOT", (0, 1)))
    c = qsim.Circuit(n_qubits=2, gates=gates, output_qubit=1)
    assert abs(qsim.accept_prob(c, [0, 0]) - 0.5) <= 1e-12
    state = qsim.run(c)
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / math.sqrt(2)
    assert np.allclose(state, expected, atol=1e-12)


def test_input_loading():
    # Identity circuit: output mirrors the loaded input bit.
    c = qsim.Circuit(n_qubits=2, gates=(), output_qubit=0)
    assert qsim.accept_prob(c, [1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert qsim.accept_prob(c, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_qubit_zero_is_most_significant():
    c = qsim.Circuit(n_qubits=2, gates=(Gate("X", (0,)),), output_qubit=0)
    state = qsim.run(c)
    assert abs(state[0b10] - 1.0) <= 1e-12


# ------------------------------------------------------------ normalization

@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), depth=st.integers(1, 12), seed=st.integers(0, 10**6))
def test_random_circuit_preserves_norm(n, depth, seed):
    state = qsim.run(qsim.random_circuit(n, depth, seed))
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-9


# ------------------------------------------------------------- gate algebra

def _inverse(g: Gate) -> Gate:
    if g.kind in ("X", "Y", "Z", "H", "CNOT", "CZ", "SWAP"):
        return g
    if g.kind == "S":
        return Gate("PHASE", g.targets, params=(-math.pi / 2,))
    if g.kind == "T":
        return Gate("PHASE", g.targets, params=(-math.pi / 4,))
    if g.kind in ("RX", "RY", "RZ", "PHASE", "CPHASE"):
        return Gate(g.kind, g.targets, params=(-g.params[0],))
    return Gate("DENSE_UNITARY", g.targets, matrix=g.matrix.conj().T)


def _example_gates():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gates = [Gate(k, (1,)) for k in ("X", "Y", "Z", "H", "S", "T")]
    gates += [Gate(k, (2,), params=(0.83,)) for k in ("RX", "RY", "RZ", "PHASE")]
    gates += [Gate(k, (0, 2)) for k in ("CNOT", "CZ", "SWAP")]
    gates += [Gate("CPHASE", (2, 0), params=(1.91,)),
              Gate("DENSE_UNITARY", (2, 1), matrix=q)]
    return gates


@pytest.mark.parametrize("g", _example_gates(), ids=lambda g: g.kind)
def test_gate_inverse_roundtrip(g):
    n = 3
    state = _rand_state(n, seed=11)
    back = apply_gate(apply_gate(state, g, n), _inverse(g), n)
    assert np.allclose(back, state, atol=1e-9)


@pytest.mark.parametrize("g", _example_gates(), ids=lambda g: g.kind)
def test_gate_matrices_unitary(g):
    mat = gate_matrix(g)
    assert np.allclose(mat.conj().T @ mat, np.eye(mat.shape[0]), atol=1e-9)


_I2 = np.eye(2, dtype=complex)
_PX = np.array([[0, 1], [1, 0]], dtype=complex)
_PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PZ = np.array([[1, 0], [0, -1]], dtype=complex)
_P0, _P1 = (_I2 + _PZ) / 2, (_I2 - _PZ) / 2


def _phase_closed(phi):
    return _P0 + np.exp(1j * phi) * _P1


_CLOSED_FORMS = {
    "X": lambda _: _PX,
    "Y": lambda _: _PY,
    "Z": lambda _: _PZ,
    "H": lambda _: (_PX + _PZ) / math.sqrt(2),
    "S": lambda _: _phase_closed(math.pi / 2),
    "T": lambda _: _phase_closed(math.pi / 4),
    "RX": lambda t: math.cos(t / 2) * _I2 - 1j * math.sin(t / 2) * _PX,
    "RY": lambda t: math.cos(t / 2) * _I2 - 1j * math.sin(t / 2) * _PY,
    "RZ": lambda t: math.cos(t / 2) * _I2 - 1j * math.sin(t / 2) * _PZ,
    "PHASE": _phase_closed,
    # Two-qubit kinds: targets[0] is the high bit of the matrix index.
    "CNOT": lambda _: np.kron(_P0, _I2) + np.kron(_P1, _PX),
    "CZ": lambda _: np.kron(_P0, _I2) + np.kron(_P1, _PZ),
    "SWAP": lambda _: (np.kron(_I2, _I2) + np.kron(_PX, _PX) + np.kron(_PY, _PY)
                       + np.kron(_PZ, _PZ)) / 2,
    "CPHASE": lambda p: np.kron(_P0, _I2) + np.kron(_P1, _phase_closed(p)),
}


@pytest.mark.parametrize("kind", SINGLE_GATES + DOUBLE_GATES)
@pytest.mark.parametrize("angle", [0.0, math.pi, -0.7, 1.3, 2 * math.pi + 0.5])
def test_gate_matrix_closed_forms(kind, angle):
    targets = (1,) if GATE_ARITY[kind] == 1 else (2, 0)
    params = (angle,) if kind in PARAM_GATES else ()
    got = gate_matrix(Gate(kind, targets, params=params))
    assert np.abs(got - _CLOSED_FORMS[kind](angle)).max() <= 1e-12


@pytest.mark.parametrize("kind", ["CNOT", "SWAP"])
def test_gate_matrix_hands_out_a_new_array(kind):
    # Writing into a returned matrix changes no later one, nor the
    # reference `apply_gate`.
    g = Gate(kind, (0, 1))
    gate_matrix(g)[0, 0] = 5
    gate_matrix(g)[:] = 0
    expected = _CLOSED_FORMS[kind](None)
    assert np.array_equal(gate_matrix(g), expected)
    basis = np.zeros(4, dtype=complex)
    basis[2] = 1        # |10>
    assert np.array_equal(apply_gate(basis, g, 2), expected[:, 2])


# ------------------------------------------------ fast path vs reference

_ALL_KINDS = SINGLE_GATES + DOUBLE_GATES + ("DENSE_UNITARY",)
# Mostly gates that relabel qubits or that pending one-qubit gates pass:
# SWAP, CZ, CPHASE and CNOT, with the diagonal and the X-type one-qubit
# kinds, so that pendings ride across long stretches and dense gates land
# on relabelled qubits.  H and RY, which no two-qubit gate lets pass, are
# rare.
_SCHEDULE_KINDS = (("SWAP",) * 6 + ("CZ", "CPHASE", "CNOT") * 3
                   + ("Z", "S", "T", "RZ", "PHASE", "X", "RX") * 2
                   + ("H", "RY", "DENSE_UNITARY", "DENSE_UNITARY"))


# Mostly one-qubit kinds that are not diagonal, so that nearly every
# two-qubit gate flushes a pending matrix and moves its qubit to the front
# of the layout, between SWAPs and dense gates on up to 3 qubits.
_FRONT_KINDS = (("H", "RX", "RY", "Y", "X") * 4
                + ("SWAP", "CNOT", "CZ", "CPHASE", "DENSE_UNITARY"))


@st.composite
def _circuit_and_bits(draw, kinds=_ALL_KINDS, min_qubits=1, max_qubits=10, max_dense=2):
    """min_qubits-max_qubits qubits; gates drawn from `kinds` (repeats
    weight a kind), 2-qubit targets in either order, DENSE_UNITARY on
    1-max_dense qubits."""
    n = draw(st.integers(min_qubits, max_qubits))
    kinds = [k for k in kinds if GATE_ARITY.get(k, 1) <= n]
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        arity = (draw(st.integers(1, min(max_dense, n))) if kind == "DENSE_UNITARY"
                 else GATE_ARITY[kind])
        targets = tuple(draw(st.permutations(range(n)))[:arity])
        if kind == "DENSE_UNITARY":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            dim = 2 ** arity
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                                + 1j * rng.normal(size=(dim, dim)))
            gates.append(Gate(kind, targets, matrix=q))
        else:
            params = ((draw(st.floats(0.0, 2 * math.pi)),) if kind in PARAM_GATES
                      else ())
            gates.append(Gate(kind, targets, params=params))
    c = qsim.Circuit(n_qubits=n, gates=tuple(gates),
                     output_qubit=draw(st.integers(0, n - 1)))
    return c, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))


def _reference_run(c, gates):
    """Fold of the single-gate reference, checking that it leaves its input
    array unchanged."""
    state = np.zeros(2**c.n_qubits, dtype=complex)
    state[0] = 1.0
    for g in gates:
        before = state.copy()
        out = apply_gate(state, g, c.n_qubits)
        assert np.array_equal(state, before)
        state = out
    return state


def _assert_matches_reference_fold(c, bits):
    assert np.abs(qsim.run(c) - _reference_run(c, c.gates)).max() <= 1e-12
    loaded = tuple(Gate("X", (q,)) for q, b in enumerate(bits) if b) + c.gates
    expected = marginal_one_prob(_reference_run(c, loaded), c.output_qubit, c.n_qubits)
    assert abs(qsim.accept_prob(c, bits) - expected) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(case=_circuit_and_bits())
def test_run_matches_reference_fold(case):
    _assert_matches_reference_fold(*case)


@settings(max_examples=200, deadline=None)
@given(case=_circuit_and_bits(_SCHEDULE_KINDS, min_qubits=2))
def test_relabel_and_commuting_schedule_match_reference_fold(case):
    # `run` returns the state in logical qubit order however the SWAPs
    # left the qubit map, and `accept_prob` reads the output qubit where
    # the map put it.
    _assert_matches_reference_fold(*case)


@settings(max_examples=200, deadline=None)
@given(case=_circuit_and_bits(_FRONT_KINDS, min_qubits=2, max_qubits=8, max_dense=3))
def test_front_flushes_match_reference_fold(case):
    # Each such flush leaves its qubit at physical position 0 and moves the
    # qubits before it on by one; the gates after it, `run`'s transpose and
    # `accept_prob`'s marginal must all read the map it left.
    _assert_matches_reference_fold(*case)


def _kernel_calls(c):
    """The kernels of c's schedule, in order, after checking that `qsim.run`,
    which plans and replays it, matches the reference: ("scale", q, b) for
    the half of a flushed diagonal matrix whose entry is not 1, b the bit
    of physical qubit q it scales; ("corner", a, b) for the |11> slice of a
    CZ or CPHASE on physical qubits a < b; ("cnot", a, b) for a CNOT whose
    control and target sit at physical a and b; and ("front", key) for a
    gathered product, key the physical qubits of a flushed matrix that is
    not diagonal or of a DENSE_UNITARY.  A product leaves the key's qubits
    at physical positions 0..k-1, in key order, and the other qubits after
    them in their old order.  Every view key is sorted by qubit."""
    assert np.abs(qsim.run(c) - _reference_run(c, c.gates)).max() <= 1e-12
    calls = []
    for kind, key, arg in c._schedule[0]:
        if kind == simulator._FRONT:
            calls.append(("front", key))
            continue
        assert list(key) == sorted(key)
        if kind == simulator._SWAP:
            (control, _), = (p for p in key if p[1] == 1)
            (target, _), = (p for p in key if p[1] == 0)
            assert arg == tuple(sorted(((control, 1), (target, 1))))
            calls.append(("cnot", control, target))
        elif len(key) == 1:
            calls.append(("scale", *key[0]))
        else:
            assert [b for _, b in key] == [1, 1]
            calls.append(("corner", key[0][0], key[1][0]))
    return calls


def _dense(targets, seed=0):
    rng = np.random.default_rng(seed)
    dim = 2 ** len(targets)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return Gate("DENSE_UNITARY", targets, matrix=q)


_H01 = (Gate("H", (0,)), Gate("H", (1,)))


@pytest.mark.parametrize("gates,expected", [
    # SWAPs only relabel qubits.
    ((Gate("SWAP", (0, 1)), Gate("SWAP", (1, 2)), Gate("SWAP", (0, 2))), []),
    # Diagonal pendings pass CZ and CPHASE on either qubit and a CNOT
    # control; S on qubit 1 is flushed by the CNOT that targets it.  The
    # flush of H on qubit 1 puts qubit 1 at physical 0 and qubit 0 at 1.
    # A diagonal flush scales only the halves whose entry is not 1: S the
    # bit-1 half, the product of T, RZ and PHASE both.
    ((*_H01, Gate("CZ", (0, 1)), Gate("T", (0,)), Gate("CZ", (0, 1)), Gate("S", (1,)),
      Gate("CPHASE", (1, 0), params=(0.4,)), Gate("RZ", (0,), params=(0.3,)),
      Gate("CNOT", (0, 1)), Gate("PHASE", (0,), params=(1.1,))),
     [("front", (0,)), ("front", (1,)), ("corner", 0, 1), ("corner", 0, 1),
      ("corner", 0, 1), ("scale", 0, 1), ("cnot", 1, 0), ("scale", 1, 0), ("scale", 1, 1)]),
    # RX and X pass a CNOT target.
    ((Gate("H", (0,)), Gate("RX", (1,), params=(0.6,)), Gate("CNOT", (0, 1)),
      Gate("X", (1,)), Gate("CNOT", (0, 1))),
     [("front", (0,)), ("cnot", 0, 1), ("cnot", 0, 1), ("front", (1,))]),
    # H commutes with no two-qubit gate, so CZ flushes it; qubit 0 then
    # sits at physical 1.
    ((*_H01, Gate("CZ", (0, 1)), Gate("H", (0,))),
     [("front", (0,)), ("front", (1,)), ("corner", 0, 1), ("front", (1,))]),
    # The flush of H on the CNOT's control, qubit 2, moves its target,
    # qubit 1, from physical 1 to 2, where its own H is then flushed.
    ((Gate("H", (2,)), Gate("H", (1,)), Gate("CNOT", (2, 1))),
     [("front", (2,)), ("front", (2,)), ("cnot", 1, 0)]),
    # The flush of H on qubit 1 moves qubit 0, whose S stays pending across
    # it, from physical 0 to 1, and S follows it there.
    ((Gate("H", (0,)), Gate("CZ", (0, 1)), Gate("S", (0,)), Gate("H", (1,)),
      Gate("CNOT", (1, 2))),
     [("front", (0,)), ("corner", 0, 1), ("front", (1,)), ("cnot", 0, 2), ("scale", 1, 1)]),
    # The flush of H puts qubits 2, 0, 1 at physical 0, 1, 2, and the SWAP
    # relabels qubits 0 and 1, so the dense gate on (0, 2) acts on physical
    # (2, 0) and leaves qubit 0 at 0, 2 at 1 and 1 at 2, where S is flushed.
    ((Gate("H", (2,)), Gate("CZ", (2, 1)), Gate("SWAP", (0, 1)), _dense((0, 2)),
      Gate("S", (1,))),
     [("front", (2,)), ("corner", 0, 2), ("front", (2, 0)), ("scale", 2, 1)]),
    # A dense gate first flushes the matrices pending on its qubits; the
    # flush of H moves qubit 0 and its T to physical 1, and the dense gate
    # then acts on the front qubits in order, which moves nothing.
    ((Gate("H", (1,)), Gate("T", (0,)), _dense((1, 0))),
     [("front", (1,)), ("scale", 1, 1), ("front", (0, 1))]),
], ids=["swap-only", "diagonal-passes", "x-type-passes-cnot-target", "h-flushed",
        "flush-moves-second-target", "flush-moves-pending-diagonal",
        "dense-after-flush-and-swap", "dense-flushes-its-pendings"])
def test_schedule_applies_only_the_kernels_it_must(gates, expected):
    c = qsim.Circuit(n_qubits=3, gates=gates, output_qubit=2)
    assert _kernel_calls(c) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dense_unitary_does_not_run_the_reference(monkeypatch, k):
    # Dense gates on k qubits, placed after SWAPs and after the front
    # flushes of H, RX and Y have moved qubits, are applied by the gathered
    # product on the gate's own matrix: the simulator plans and runs c
    # without `apply_gate` or `gate_matrix`, the reference that the fold
    # below runs and checks the replays against.
    gates = (Gate("H", (0,)), Gate("H", (3,)), Gate("SWAP", (0, 4)), Gate("CNOT", (3, 1)),
             _dense((4, 1, 2)[:k], seed=k), Gate("RX", (2,), params=(0.9,)),
             Gate("CZ", (2, 0)), Gate("SWAP", (1, 2)), _dense((0, 3, 2)[:k], seed=k + 3),
             Gate("Y", (4,)), Gate("CNOT", (1, 4)), Gate("SWAP", (3, 4)),
             _dense((2, 4, 0)[:k], seed=k + 6), Gate("T", (1,)))
    c = qsim.Circuit(n_qubits=5, gates=gates, output_qubit=4)

    def refuse(*args):
        raise AssertionError("the simulator ran the single-gate reference")

    with monkeypatch.context() as patched:
        patched.setattr(simulator, "apply_gate", refuse)
        patched.setattr(simulator, "gate_matrix", refuse)
        qsim.run(c)
    for bits in ([0, 0, 0, 0, 0], [1, 0, 1, 1, 0]):
        _assert_matches_reference_fold(c, bits)


def _in_new_threads(*calls):
    """Run each call in its own new thread, whose simulator workspace starts
    empty, all at once; re-raise the first failure."""
    with ThreadPoolExecutor(max_workers=len(calls)) as pool:
        for future in [pool.submit(call) for call in calls]:
            future.result(timeout=60)


def test_run_result_belongs_to_the_caller():
    # Non-diagonal gates only on qubit 0, whose flushes move no qubit, so
    # the state ends in logical order: a `run` that returned a view of its
    # buffer here would see the next call of the same width overwrite it.
    kept_circuit = qsim.Circuit(n_qubits=5, output_qubit=4, gates=(
        Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("T", (1,)), Gate("CNOT", (1, 3)),
        Gate("RX", (0,), params=(0.8,)), Gate("CZ", (0, 4)), Gate("H", (0,)),
        Gate("CPHASE", (3, 2), params=(0.5,))))
    # Same width, wider (which replaces the thread's buffers), narrower.
    later = [qsim.random_circuit(n, 30, seed) for n, seed in ((5, 1), (9, 2), (3, 3))]

    def check():
        assert simulator._simulate(kept_circuit, 0)[1] == tuple(range(5))
        kept = qsim.run(kept_circuit)
        snapshot = kept.copy()
        assert np.abs(kept - _reference_run(kept_circuit, kept_circuit.gates)).max() <= 1e-12
        for c in later:
            assert np.abs(qsim.run(c) - _reference_run(c, c.gates)).max() <= 1e-12
        assert np.array_equal(kept, snapshot)

    _in_new_threads(check)


def test_threads_simulate_on_their_own_workspaces():
    # Two threads, each alternating between two widths (one shared), with
    # the interpreter switching threads every microsecond so that their
    # simulations interleave; a shared buffer would mix their states.  The
    # circuits of the shared width are the same objects in both threads,
    # unscheduled when the threads start, so both plan and replay one
    # circuit at once.
    circuit = functools.cache(lambda n, seed: qsim.random_circuit(n, 40, seed))
    cases = {}
    for widths in ((4, 8), (6, 8)):
        cases[widths] = []
        for i, n in enumerate(widths * 4):
            c = circuit(n, 100 * n + i)
            bits = [(i >> q) & 1 for q in range(n)]
            loaded = tuple(Gate("X", (q,)) for q, b in enumerate(bits) if b) + c.gates
            cases[widths].append((c, bits, _reference_run(c, c.gates), marginal_one_prob(
                _reference_run(c, loaded), c.output_qubit, c.n_qubits)))
    barrier = threading.Barrier(2)

    def loop(widths):
        barrier.wait(timeout=60)
        for _ in range(5):
            for c, bits, state, prob in cases[widths]:
                assert np.abs(qsim.run(c) - state).max() <= 1e-12
                assert abs(qsim.accept_prob(c, bits) - prob) <= 1e-12

    shared = [c for c, *_ in cases[4, 8] if c.n_qubits == 8]
    assert {id(c) for c in shared} <= {id(c) for c, *_ in cases[6, 8]}
    assert not any(hasattr(c, "_schedule") for c in shared)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _in_new_threads(*(functools.partial(loop, w) for w in cases))
    finally:
        sys.setswitchinterval(interval)


def test_swaps_move_the_output_qubit():
    # Input 1 on qubit 0, carried to the output qubit 2 by relabels alone.
    c = qsim.Circuit(n_qubits=3, gates=(Gate("SWAP", (0, 1)), Gate("SWAP", (1, 2))),
                     output_qubit=2)
    assert qsim.accept_prob(c, [1, 0, 0]) == 1.0
    assert qsim.accept_prob(c, [0, 1, 1]) == 0.0


@pytest.mark.parametrize("kind,params", [
    ("Z", ()), ("S", ()), ("T", ()), ("RZ", (0.7,)), ("PHASE", (1.3,)),
    ("CZ", ()), ("CPHASE", (0.9,)),
])
def test_diagonal_fast_path_matches_generic(kind, params):
    # `run` applies the diagonal gate with its in-place kernels: a one-qubit
    # gate left pending to the end scales the halves of its qubit, a
    # two-qubit one its |11> slice.  The H layer gives every
    # amplitude the same magnitude, so a kernel that scales a wrong slice
    # or by a wrong entry moves some of them.  H is not diagonal, so the CZ
    # chain flushes it before the CZs; a diagonal layer would pass them.
    n = 5
    prepare = (*(Gate("H", (q,)) for q in range(n)),
               *(Gate("CZ", (q, q + 1)) for q in range(n - 1)))
    arity = 2 if kind in ("CZ", "CPHASE") else 1
    targets_list = [(0,), (3,), (4,)] if arity == 1 else [(0, 3), (3, 0), (4, 1)]
    for targets in targets_list:
        c = qsim.Circuit(n_qubits=n, gates=(*prepare, Gate(kind, targets, params=params)),
                         output_qubit=0)
        assert np.abs(qsim.run(c) - _reference_run(c, c.gates)).max() <= 1e-12


def test_dense_unitary_rejects_non_unitary():
    # Checked when the gate is built.  An entry past the modulus bound, NaN
    # included, fails before the product, which it could overflow.
    for matrix in ([[1, 1], [0, 1]], [[1e200, 0], [0, 1]], [[math.nan, 0], [0, 1]]):
        with pytest.raises(ParameterError, match="^DENSE_UNITARY matrix is not unitary$"):
            Gate("DENSE_UNITARY", (0,), matrix=np.array(matrix, dtype=complex))


def test_dense_gate_keeps_a_read_only_copy_of_its_matrix():
    # A complex source array is copied too, so writing to it later changes
    # neither the gate, nor the statement's encoding, nor the simulation,
    # whether replayed or planned again.
    source = np.array(_dense((0, 2), seed=5).matrix)
    g = Gate("DENSE_UNITARY", (0, 2), matrix=source)
    c = qsim.Circuit(n_qubits=3, gates=(Gate("H", (1,)), g), output_qubit=1)
    matrix, encoded, state = g.matrix.copy(), qsim.circuit_to_bytes(c), qsim.run(c)
    source[0, 0] = 5
    assert np.array_equal(g.matrix, matrix)
    assert qsim.circuit_to_bytes(c) == encoded
    assert np.array_equal(qsim.run(c), state)
    assert np.array_equal(qsim.run(_unscheduled(c)), state)
    # The gate's matrix, and a copy's, refuse writes.
    for gate in (g, copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert gate == g and np.array_equal(gate.matrix, matrix)
        with pytest.raises(ValueError):
            gate.matrix[0, 0] = 5


# ------------------------------------------------------ schedule and replay

def _unscheduled(c):
    """A new circuit of c's fields, which holds no schedule."""
    return qsim.Circuit(c.n_qubits, c.gates, c.output_qubit, c.n_inputs)


def _assert_replays_match_the_first_call(c, bits):
    # The first call plans the schedule, whether `run` or `accept_prob`
    # makes it; every later call replays it, bit for bit the same.
    by_run, by_prob = _unscheduled(c), _unscheduled(c)
    state = qsim.run(by_run)
    prob = qsim.accept_prob(by_prob, bits)
    for _ in range(2):
        for replayed in (by_run, by_prob):
            assert np.array_equal(qsim.run(replayed), state)
            assert qsim.accept_prob(replayed, bits) == prob


def test_replays_match_the_first_call_on_corpus_and_hhl():
    cases = fixtures.accepting_corpus()
    hhl = [qsim.build_hhl(inst) for inst in bench.hhl_instances()]
    assert all(any(g.kind == "DENSE_UNITARY" for g in c.gates) for c in hhl)
    for c, bits in cases + [(c, []) for c in hhl]:
        _assert_replays_match_the_first_call(c, bits)


@settings(max_examples=100, deadline=None)
@given(case=_circuit_and_bits())
def test_random_replays_match_the_first_call(case):
    _assert_replays_match_the_first_call(*case)


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_of_a_scheduled_circuit_simulate_alike(duplicate):
    # A copy leaves the schedule out, so it pickles no arrays of it and
    # plans its own on its first simulation, with the same result.
    gates = (Gate("H", (0,)), Gate("CNOT", (0, 2)), _dense((2, 1), seed=3),
             Gate("RZ", (1,), params=(0.4,)), Gate("CZ", (1, 0)), Gate("SWAP", (0, 2)))
    c = qsim.Circuit(n_qubits=3, gates=gates, output_qubit=2)
    bits = [1, 0, 1]
    state, prob = qsim.run(c), qsim.accept_prob(c, bits)
    twin = duplicate(c)
    assert twin == c and hash(twin) == hash(c) and repr(twin) == repr(c)
    assert not hasattr(twin, "_schedule")
    assert np.array_equal(qsim.run(twin), state) and qsim.accept_prob(twin, bits) == prob


# -------------------------------------------------------------------- depth

def test_gate_weight():
    assert gate_weight(Gate("H", (0,))) == 1
    assert gate_weight(Gate("CNOT", (0, 1))) == 1
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    assert gate_weight(Gate("DENSE_UNITARY", (0, 1), matrix=q)) == 16


def test_depth_greedy_layering():
    gates = (Gate("H", (0,)), Gate("H", (1,)),        # layer 1
             Gate("CNOT", (0, 1)),                    # layer 2
             Gate("X", (2,)),                         # layer 1 (free qubit)
             Gate("CZ", (1, 2)))                      # layer 3
    c = qsim.Circuit(n_qubits=3, gates=gates, output_qubit=0)
    assert qsim.circuit_depth(c) == 3


def test_empty_circuit_depth_zero():
    c = qsim.Circuit(n_qubits=2, gates=(), output_qubit=0)
    assert qsim.circuit_depth(c) == 0


def _greedy_depth(c):
    """The layering rule written plainly: each gate ends `gate_weight`
    layers after the latest end among its targets."""
    frontier = [0] * c.n_qubits
    depth = 0
    for g in c.gates:
        end = max(frontier[t] for t in g.targets) + gate_weight(g)
        for t in g.targets:
            frontier[t] = end
        depth = max(depth, end)
    return depth


@settings(max_examples=100, deadline=None)
@given(c=st.deferred(lambda: _statement()))
def test_depth_matches_greedy_layering(c):
    assert qsim.circuit_depth(c) == _greedy_depth(c)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 7), depth=st.integers(1, 20), seed=st.integers(0, 10**6))
def test_random_circuit_depth_is_exact(n, depth, seed):
    assert qsim.circuit_depth(qsim.random_circuit(n, depth, seed)) == depth


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 6), depth=st.integers(1, 15), seed=st.integers(0, 10**6))
def test_random_accepting_circuit_is_analytic(n, depth, seed):
    c = qsim.random_accepting_circuit(n, depth, seed)
    assert qsim.circuit_depth(c) == depth
    assert abs(qsim.accept_prob(c, [0] * n) - 1.0) <= 1e-9


# ------------------------------------------------------------- text format

@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 5), depth=st.integers(1, 8), seed=st.integers(0, 10**6))
def test_text_roundtrip_random(n, depth, seed):
    c = qsim.random_circuit(n, depth, seed)
    text = qsim.circuit_to_text(c)
    back = qsim.circuit_from_text(text)
    assert back == c
    assert qsim.circuit_to_text(back) == text


def test_text_roundtrip_dense_and_inputs():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gates = (Gate("DENSE_UNITARY", (0, 2), matrix=q), Gate("RZ", (1,), params=(0.25,)))
    c = qsim.Circuit(n_qubits=3, gates=gates, output_qubit=2, n_inputs=1)
    back = qsim.circuit_from_text(qsim.circuit_to_text(c))
    assert back.n_inputs == 1 and back.output_qubit == 2
    assert np.allclose(back.gates[0].matrix, q, atol=0)
    assert np.allclose(qsim.run(back), qsim.run(c), atol=1e-12)


def test_generated_circuits_frozen_digests():
    # Pins the benchmark corpus and the (15 qubits, depth 300) calibration
    # cell of `bench.bench_circuits` (seed 1 + 1000 * 15 + 300).
    corpus = "".join(qsim.circuit_to_text(c) for c, _ in fixtures.accepting_corpus())
    assert hashlib.sha256(corpus.encode()).hexdigest() == \
        "507d57e24e41700532f82248b9f63b9365012f697e1ea9f5848f54f6ed356228"
    cell = qsim.circuit_to_text(qsim.random_circuit(15, 300, 15301))
    assert hashlib.sha256(cell.encode()).hexdigest() == \
        "a90550ac90afa0ee3367582b5e15f55d9ebdeb126e5fac20543a14361a9837cf"


def test_text_frozen_digest_off_corpus_branches():
    # The circuit of test_text_roundtrip_dense_and_inputs (DENSE_UNITARY
    # rows, `inputs 1` header), with exact matrices so that the pin does not
    # depend on the LAPACK build, plus branches the corpus never reaches: a
    # 3-qubit DENSE_UNITARY, signed zeros in its rows, and angles that print
    # in exponent form, as -0.0 and as large values.
    r = 1 / math.sqrt(2)
    h = np.array([[r, r], [r, -r]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    gates = (Gate("DENSE_UNITARY", (0, 2), matrix=np.kron(h, s)),
             Gate("RZ", (1,), params=(0.25,)),
             Gate("DENSE_UNITARY", (2, 0, 1), matrix=np.kron(h, np.kron(y, s))),
             Gate("RX", (0,), params=(1e-300,)),
             Gate("RY", (1,), params=(-0.0,)),
             Gate("PHASE", (2,), params=(1e16,)),
             Gate("RZ", (0,), params=(-123456789012345.67,)),
             Gate("CPHASE", (2, 0), params=(5e-324,)),
             Gate("H", (1,)), Gate("CNOT", (1, 2)))
    c = qsim.Circuit(n_qubits=3, gates=gates, output_qubit=2, n_inputs=1)
    text = qsim.circuit_to_text(c)
    assert "RX 0 1e-300\nRY 1 -0.0\nPHASE 2 1e+16\n" in text
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "b9ce79907ff07de619f2433d3206dc82f0057dabb80897b7136d5be2ff611337"


def test_text_parse_errors():
    with pytest.raises(FormatError):
        qsim.circuit_from_text("")
    with pytest.raises(FormatError):
        qsim.circuit_from_text("wires 2 output 0\nH 0\n")
    with pytest.raises(FormatError):
        qsim.circuit_from_text("qubits 2 output 0\nH zero\n")
    with pytest.raises(FormatError):
        qsim.circuit_from_text("qubits 2 output 0\nDENSE_UNITARY 0\n1.0,0.0 0.0,0.0\n")


def _gate_by_gate(text):
    """Reference parse of a text without DENSE_UNITARY lines: a new Gate
    per line, then every target checked against the qubit count."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    n, output = int(head[1]), int(head[3])
    gates = []
    for line in lines[1:]:
        parts = line.split()
        try:
            targets = tuple(int(t) for t in parts[1].split(","))
            params = tuple(map(float, parts[2:]))
        except (IndexError, ValueError) as exc:
            raise FormatError(line) from exc
        gates.append(Gate(parts[0], targets, params=params))
    if any(t < 0 or t >= n for g in gates for t in g.targets):
        raise ParameterError("gate target out of range")
    return qsim.Circuit(n_qubits=n, gates=tuple(gates), output_qubit=output)


def _outcome(parse, text):
    """The circuit `parse` returns, or the type of the error it raises."""
    try:
        return parse(text)
    except (FormatError, ParameterError) as exc:
        return type(exc)


def _assert_plain_gate_table_sound():
    # Each key is the canonical line of its parameterless in-range gate,
    # so there are at most 6*20 + 3*20*19 entries.
    assert len(_PLAIN_GATES) <= 1260
    for line, g in _PLAIN_GATES.items():
        assert _gate_text(g) == line and not g.params
        assert all(0 <= t < MAX_QUBITS for t in g.targets)


_SPELLINGS = ("0{}", "+{}", "00{}", " {}", "{}.0", "{}_0")


@st.composite
def _spelled_statement(draw):
    """A statement text whose gate lines mix canonical lines with other
    spellings of the targets, extra inner spaces, duplicate and
    out-of-range targets, wrong arities and parameter counts and unknown
    kinds."""
    n = draw(st.integers(1, MAX_QUBITS))
    lines = [f"qubits {n} output 0"]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(SINGLE_GATES + DOUBLE_GATES + ("NOPE", "h")))
        arity = draw(st.sampled_from((GATE_ARITY.get(kind, 1),) * 4 + (1, 2, 3)))
        target = st.one_of(st.integers(0, n - 1), st.integers(-1, MAX_QUBITS + 2))
        spelling = st.one_of(st.just("{}"), st.sampled_from(_SPELLINGS))
        spelled = ",".join(draw(spelling).format(draw(target)) for _ in range(arity))
        line = kind + draw(st.sampled_from((" ", " ", "  ", "\t"))) + spelled
        if draw(st.integers(0, 3)) == 0 or (kind in PARAM_GATES
                                           and draw(st.integers(0, 7))):
            line += " " + repr(draw(st.floats(-4.0, 4.0)))
        lines.append(line)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_spelled_statement())
def test_parse_matches_gate_by_gate_parse(text):
    expected = _outcome(_gate_by_gate, text)
    assert _outcome(qsim.circuit_from_text, text) == expected
    assert _outcome(qsim.circuit_from_text, text) == expected    # lines now seen
    _assert_plain_gate_table_sound()


@pytest.mark.parametrize("line,expected", [
    ("H 01", Gate("H", (1,))),
    ("H +1", Gate("H", (1,))),
    ("H  1", Gate("H", (1,))),
    ("CNOT   1,0", Gate("CNOT", (1, 0))),
    ("CNOT 1, 0", FormatError),
    ("H", FormatError),
    ("CNOT 1,1", ParameterError),
    ("H 2", ParameterError),                 # target >= n
    ("SWAP 0,20", ParameterError),           # target >= MAX_QUBITS
    ("H -1", ParameterError),
    ("NOPE 0", ParameterError),
    ("H 0 0.5", ParameterError),
    ("RX 0", ParameterError),
    ("DENSE_UNITARY 0 1.5 nan\n1.0,0.0 0.0,0.0\n0.0,0.0 1.0,0.0", FormatError),
    ("DENSE_UNITARY " + ",".join(map(str, range(64))), ParameterError),
])
def test_noncanonical_and_invalid_gate_lines(line, expected):
    text = f"qubits 2 output 0\n{line}\n"
    for _ in range(2):      # the second parse meets a line seen before
        if isinstance(expected, Gate):
            assert qsim.circuit_from_text(text).gates == (expected,)
        else:
            with pytest.raises(expected):
                qsim.circuit_from_text(text)
    _assert_plain_gate_table_sound()


def test_plain_gate_table_holds_each_gate_once():
    every = tuple(Gate(kind, t) for kind, arity in GATE_ARITY.items()
                  if kind not in PARAM_GATES
                  for t in itertools.permutations(range(MAX_QUBITS), arity))
    c = qsim.Circuit(n_qubits=MAX_QUBITS, gates=every, output_qubit=0)
    text = qsim.circuit_to_text(c)
    assert qsim.circuit_from_text(text) == c
    assert len(_PLAIN_GATES) == len(every) == 1260
    other = qsim.circuit_from_text(text + "H 01\nH +1\nCNOT  0,1\n")
    assert other.gates == every + (Gate("H", (1,)), Gate("H", (1,)), Gate("CNOT", (0, 1)))
    for bad in ("H 20\n", "CNOT 3,3\n", "NOPE 2\n", "X 1 0.5\n"):
        with pytest.raises(ParameterError):
            qsim.circuit_from_text(text + bad)
    _assert_plain_gate_table_sound()
    assert len(_PLAIN_GATES) == 1260


# --------------------------------------------------------- binary encoding

def test_bytes_layout():
    # Header <BBBQ; ops (kind code, DENSE_UNITARY's target count, targets);
    # parameters as <d; matrices as <c16.
    m = np.eye(8)
    gates = (Gate("RX", (2,), params=(0.5,)), Gate("CNOT", (0, 1)),
             Gate("DENSE_UNITARY", (1, 0, 2), matrix=m),
             Gate("CPHASE", (1, 2), params=(-0.0,)))
    c = qsim.Circuit(n_qubits=3, gates=gates, output_qubit=1, n_inputs=2)
    assert qsim.circuit_to_bytes(c) == (
        struct.pack("<BBBQ", 3, 1, 2, 4)
        + bytes([0x27, 2, 0x2B, 0, 1, 0x2F, 3, 1, 0, 2, 0x2E, 1, 2])
        + struct.pack("<dd", 0.5, -0.0) + m.astype("<c16").tobytes())


def test_bytes_of_one_gate_circuits_differ():
    # Every kind on every targets tuple of 3 qubits, with equal angles and
    # equal matrices, so that only the kind and the targets tell them apart.
    encodings = set()
    for kind in SINGLE_GATES + DOUBLE_GATES + ("DENSE_UNITARY",):
        arities = (1, 2, 3) if kind == "DENSE_UNITARY" else (GATE_ARITY[kind],)
        for targets in (t for k in arities for t in itertools.permutations(range(3), k)):
            gate = (Gate(kind, targets, matrix=np.eye(2 ** len(targets)))
                    if kind == "DENSE_UNITARY"
                    else Gate(kind, targets, params=(0.5,) * (kind in PARAM_GATES)))
            encodings.add(qsim.circuit_to_bytes(qsim.Circuit(3, (gate,), 0)))
    assert len(encodings) == 10 * 3 + 4 * 6 + (3 + 6 + 6)


_ZEROS = (0.0, -0.0)


@st.composite
def _statement(draw):
    """2-5 qubits and every gate kind, DENSE_UNITARY on 1-3 targets; angles
    are often signed zeros, never NaN.  A DENSE_UNITARY matrix is a phased
    permutation: per row one entry of 1, -1, i or -i, and signed zeros in
    both parts of every other, so it stays unitary when a zero flips."""
    n = draw(st.integers(2, 5))
    gates = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(SINGLE_GATES + DOUBLE_GATES + ("DENSE_UNITARY",)))
        arity = (draw(st.integers(1, min(3, n))) if kind == "DENSE_UNITARY"
                 else GATE_ARITY[kind])
        targets = tuple(draw(st.permutations(range(n)))[:arity])
        if kind == "DENSE_UNITARY":
            dim = 2 ** arity
            part = st.lists(st.sampled_from(_ZEROS), min_size=dim * dim, max_size=dim * dim)
            matrix = np.empty((dim, dim), dtype=complex)
            matrix.real.flat, matrix.imag.flat = draw(part), draw(part)
            for row, col in enumerate(draw(st.permutations(range(dim)))):
                entries = getattr(matrix, draw(st.sampled_from(("real", "imag"))))
                entries[row, col] = draw(st.sampled_from((1.0, -1.0)))
            gates.append(Gate(kind, targets, matrix=matrix))
        else:
            angle = st.one_of(st.sampled_from(_ZEROS), st.floats(allow_nan=False))
            params = (draw(angle),) if kind in PARAM_GATES else ()
            gates.append(Gate(kind, targets, params=params))
    return qsim.Circuit(n_qubits=n, gates=tuple(gates),
                        output_qubit=draw(st.integers(0, n - 1)),
                        n_inputs=draw(st.integers(0, n)))


def _same_kind_family(kind):
    """The other kinds with the arity and the parameter count of `kind`."""
    return [k for k in SINGLE_GATES + DOUBLE_GATES if k != kind
            and GATE_ARITY[k] == GATE_ARITY[kind]
            and (k in PARAM_GATES) == (kind in PARAM_GATES)]


def _zero_sites(g):
    """(part, index) of each signed zero in an angle or a matrix entry."""
    if g.kind == "DENSE_UNITARY":
        return [(part, i) for part in ("real", "imag")
                for i, v in enumerate(getattr(g.matrix, part).flat) if v == 0]
    return [("param", 0)] if g.params and g.params[0] == 0 else []


def _flip_zero(g, part, i):
    if part == "param":
        return Gate(g.kind, g.targets, (-g.params[0],))
    matrix = g.matrix.copy()
    view = getattr(matrix, part).reshape(-1)
    view[i] = -view[i]
    return Gate(g.kind, g.targets, matrix=matrix)


@st.composite
def _mutated_statement(draw):
    """A random statement and a copy with one mutation, or re-read from its
    own text."""
    c = draw(_statement())
    gates = list(c.gates)
    idx = range(len(gates))

    def with_gate(i, g):
        return qsim.Circuit(c.n_qubits, gates[:i] + [g] + gates[i + 1:], c.output_qubit,
                            c.n_inputs)

    kind_swap = [i for i in idx if gates[i].kind != "DENSE_UNITARY"
                 and _same_kind_family(gates[i].kind)]
    two_qubit = [i for i in idx if len(gates[i].targets) == 2]
    angled = [i for i in idx if gates[i].params]
    zeros = [(i, site) for i in idx for site in _zero_sites(gates[i])]
    moves = ["text", "output", "inputs", "drop", "duplicate"]
    moves += ["kind"] * bool(kind_swap) + ["reverse"] * bool(two_qubit)
    moves += ["ulp"] * bool(angled) + ["zero"] * bool(zeros)
    moves += ["swap"] * (len(gates) > 1)
    move = draw(st.sampled_from(moves))
    n = c.n_qubits
    if move == "text":
        return c, qsim.circuit_from_text(qsim.circuit_to_text(c))
    if move == "output":
        return c, qsim.Circuit(n, c.gates, (c.output_qubit + 1) % n, c.n_inputs)
    if move == "inputs":
        return c, qsim.Circuit(n, c.gates, c.output_qubit, (c.n_inputs + 1) % (n + 1))
    if move == "kind":
        i = draw(st.sampled_from(kind_swap))
        kind = draw(st.sampled_from(_same_kind_family(gates[i].kind)))
        return c, with_gate(i, Gate(kind, gates[i].targets, gates[i].params))
    if move == "reverse":
        i = draw(st.sampled_from(two_qubit))
        g = gates[i]
        return c, with_gate(i, Gate(g.kind, g.targets[::-1], g.params, g.matrix))
    if move == "ulp":
        i = draw(st.sampled_from(angled))
        p = gates[i].params[0]
        moved = math.nextafter(p, -math.inf if p > 0 else math.inf)
        return c, with_gate(i, Gate(gates[i].kind, gates[i].targets, (moved,)))
    if move == "zero":
        i, (part, at) = draw(st.sampled_from(zeros))
        return c, with_gate(i, _flip_zero(gates[i], part, at))
    if move == "swap":
        i = draw(st.integers(0, len(gates) - 2))
        gates[i], gates[i + 1] = gates[i + 1], gates[i]
    elif move == "drop":
        del gates[draw(st.sampled_from(idx))]
    else:
        i = draw(st.sampled_from(idx))
        gates.insert(i, gates[i])
    return c, qsim.Circuit(n, gates, c.output_qubit, c.n_inputs)


@settings(max_examples=300, deadline=None)
@given(pair=_mutated_statement())
def test_bytes_equal_iff_text_equal(pair):
    a, b = pair
    assert (qsim.circuit_to_bytes(a) == qsim.circuit_to_bytes(b)) == \
        (qsim.circuit_to_text(a) == qsim.circuit_to_text(b))


# ----------------------------------------------------------- validation etc.

def test_circuit_validation():
    with pytest.raises(ParameterError):
        qsim.Circuit(n_qubits=0, gates=(), output_qubit=0)
    with pytest.raises(ParameterError):
        qsim.Circuit(n_qubits=21, gates=(), output_qubit=0)
    with pytest.raises(ParameterError):
        qsim.Circuit(n_qubits=2, gates=(), output_qubit=2)
    with pytest.raises(ParameterError):
        qsim.Circuit(n_qubits=2, gates=(Gate("H", (5,)),), output_qubit=0)
    with pytest.raises(ParameterError):
        qsim.Circuit(n_qubits=2, gates=(), output_qubit=0, n_inputs=3)


def test_gate_validation():
    with pytest.raises(ParameterError):
        Gate("H", (0, 1))
    with pytest.raises(ParameterError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ParameterError):
        Gate("RX", (0,))
    with pytest.raises(ParameterError):
        Gate("H", (0,), params=(1.0,))
    with pytest.raises(ParameterError):
        Gate("NOPE", (0,))
    with pytest.raises(ParameterError):
        Gate("DENSE_UNITARY", (0,))
    with pytest.raises(ParameterError):
        Gate("DENSE_UNITARY", (0,), params=(1.0,), matrix=np.eye(2))


def test_accept_prob_input_width_checked():
    c, _ = (qsim.Circuit(n_qubits=2, gates=(), output_qubit=0), None)
    with pytest.raises(ParameterError):
        qsim.accept_prob(c, [0])
    with pytest.raises(ParameterError):
        qsim.accept_prob(c, [0, 2])


@pytest.mark.parametrize("x", [[0.5, 0, 0], [0, 1.7, 0], [0, 0, -0.2]])
def test_accept_prob_rejects_non_bit_entries(x):
    # The entries are not truncated to bits: [0.5, 0, 0] is not [0, 0, 0].
    c, _ = fixtures.small_accepting_circuit()
    with pytest.raises(ParameterError):
        qsim.accept_prob(c, x)


def test_run_calls_counter():
    # The first call plans the schedule; the replays count as well.
    c = qsim.Circuit(n_qubits=1, gates=(Gate("X", (0,)),), output_qubit=0)
    before = qsim.run_calls()
    qsim.run(c)
    schedule = c._schedule
    qsim.accept_prob(c, [0])
    qsim.run(c)
    assert c._schedule is schedule
    assert qsim.run_calls() == before + 3
