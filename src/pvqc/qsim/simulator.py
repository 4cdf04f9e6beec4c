"""Statevector execution and acceptance-probability evaluation.

`apply_gate` is the pure single-gate reference the tests check against.
`run` and `accept_prob` apply a whole gate list in place on one buffer
whose qubit order is free.  The first simulation of a circuit plans its
kernels (`_schedule`): it fuses one-qubit gates, decides where each
pending matrix is flushed, follows the qubit map and builds each
product's matrix, none of which depends on the input.  It keeps the list
on the circuit, and every simulation, the first included, replays it
(`_simulate`), in any thread.  A kernel scales a slice of the buffer in
place, swaps two slices (CNOT), or is one (2^k,2^k) @ (2^k, 2^(n-k))
product on a copy with k axes in front (a matrix that is not diagonal,
or a DENSE_UNITARY on k qubits).  A caller that simulates a circuit once,
as a one-shot `pvqc prove` does, pays the planning in that call.  The
buffer, its scratch copy and their views belong to the calling thread
and are reused by its later calls (`_workspace`).
"""

from __future__ import annotations

import cmath
import functools
import math
import threading

import numpy as np

from ..errors import ParameterError
from ..record import setfield
from .circuit import SINGLE_GATES, Circuit, Gate, input_bits

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# One-qubit gate entries as nested tuples of Python complexes: the fused
# runs of `_schedule` multiply them directly, `gate_matrix` wraps them.
_FIXED_1Q = {
    "X": ((0j, 1 + 0j), (1 + 0j, 0j)),
    "Y": ((0j, -1j), (1j, 0j)),
    "Z": ((1 + 0j, 0j), (0j, -1 + 0j)),
    "H": ((complex(_INV_SQRT2), complex(_INV_SQRT2)),
          (complex(_INV_SQRT2), complex(-_INV_SQRT2))),
    "S": ((1 + 0j, 0j), (0j, 1j)),
    "T": ((1 + 0j, 0j), (0j, cmath.exp(1j * math.pi / 4))),
}


def _rx(theta: float) -> tuple:
    c, s = complex(math.cos(theta / 2)), -1j * math.sin(theta / 2)
    return ((c, s), (s, c))


def _ry(theta: float) -> tuple:
    c, s = complex(math.cos(theta / 2)), math.sin(theta / 2)
    return ((c, complex(-s)), (complex(s), c))


def _rz(theta: float) -> tuple:
    t = theta / 2
    return ((cmath.exp(-1j * t), 0j), (0j, cmath.exp(1j * t)))


def _phase(phi: float) -> tuple:
    return ((1 + 0j, 0j), (0j, cmath.exp(1j * phi)))


_PARAM_1Q = {"RX": _rx, "RY": _ry, "RZ": _rz, "PHASE": _phase}
_FUSABLE = frozenset(SINGLE_GATES)


def _entries_1q(g: Gate) -> tuple:
    """The 2x2 matrix of a one-qubit gate kind, as nested tuples."""
    m = _FIXED_1Q.get(g.kind)
    return m if m is not None else _PARAM_1Q[g.kind](g.params[0])


def _corner_2q(g: Gate) -> complex:
    """The |11> entry of CZ or CPHASE; their other diagonal entries are 1."""
    return -1 + 0j if g.kind == "CZ" else cmath.exp(1j * g.params[0])


_FIXED_2Q = {
    "CNOT": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    "SWAP": ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
}


def _is_diagonal(m: tuple) -> bool:
    """m commutes with Z: it passes CZ, CPHASE and a CNOT control."""
    return m[0][1] == 0 and m[1][0] == 0


def _is_x_type(m: tuple) -> bool:
    """m = a*I + b*X commutes with X: it passes a CNOT target."""
    return m[0][0] == m[1][1] and m[0][1] == m[1][0]


# Instrumentation: total full-circuit executions in this process.
_run_calls = 0


def run_calls() -> int:
    return _run_calls


def gate_matrix(g: Gate) -> np.ndarray:
    """g's matrix: a new array for a fixed-arity kind, and a DENSE_UNITARY
    gate's own read-only matrix, which `Gate` checked to be unitary."""
    if g.kind in _FUSABLE:
        return np.array(_entries_1q(g), dtype=complex)
    if g.kind in _FIXED_2Q:
        return np.array(_FIXED_2Q[g.kind], dtype=complex)
    if g.kind in ("CZ", "CPHASE"):
        return np.diag([1, 1, 1, _corner_2q(g)])
    if g.kind == "DENSE_UNITARY":
        return g.matrix
    raise ParameterError(f"unknown gate kind {g.kind!r}")


def apply_gate(state: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Apply g to an n-qubit statevector (qubit 0 = most significant bit)."""
    mat = gate_matrix(g)
    k = len(g.targets)
    tensor = state.reshape([2] * n)
    tensor = np.moveaxis(tensor, g.targets, range(k))
    block = tensor.reshape(2 ** k, -1)
    block = mat @ block
    tensor = block.reshape([2] * n)
    tensor = np.moveaxis(tensor, range(k), g.targets)
    return tensor.reshape(-1)


# A ufunc pays its inner-loop overhead once per contiguous run of a view,
# so views whose runs are shorter than this are reordered longest axis last.
_SHORT_RUN = 8


@functools.lru_cache(maxsize=4096)
def _layout(n: int, qubits: tuple[int, ...]) -> tuple:
    """For an n-qubit buffer: a shape with one axis per qubit of `qubits`
    (the i-th smallest at axis 2i+1) and one per run of the others, as fewer
    axes make ufuncs and copies faster; the axis order that puts the qubits'
    axes first, as given; and `moved`, where each qubit sits after a product
    on them (qubits[i] at i, the others after in order), or None if none moves."""
    shape, prev, ordered, k = [], -1, sorted(qubits), len(qubits)
    for q in ordered:
        shape += [1 << (q - prev - 1), 2]
        prev = q
    order = qubits + tuple(p for p in range(n) if p not in qubits)
    return ((*shape, 1 << (n - 1 - prev)),
            (*(2 * ordered.index(q) + 1 for q in qubits), *range(0, 2 * k + 1, 2)),
            None if qubits == tuple(range(k)) else tuple(map(order.index, range(n))))


class _Views(dict):
    """Views of one state buffer keyed by (qubit, bit) pairs, sorted by
    qubit: the view holds the amplitudes at which every pair holds.
    Kernels pass order="C" to their ufuncs, so a view's last axis is the
    inner loop."""

    def __init__(self, state: np.ndarray, n: int):
        super().__init__()
        self.state, self.n = state, n

    def __missing__(self, fixed: tuple[tuple[int, int], ...]) -> np.ndarray:
        qubits, bits = zip(*fixed)
        index = [slice(None)] * (2 * len(bits) + 1)
        index[1::2] = bits
        view = self.state.reshape(_layout(self.n, qubits)[0])[tuple(index)]
        if view.shape[-1] < _SHORT_RUN:
            view = view.transpose(sorted(range(view.ndim), key=view.shape.__getitem__))
        self[fixed] = view
        return view


def _matmul_2x2(x: tuple, y: tuple) -> tuple:
    """x @ y for 2x2 matrices held as nested tuples of Python complexes,
    which for this size is several times cheaper than numpy."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


class _Fronts(dict):
    """Views of one state buffer and a scratch buffer of its size.  Keyed by
    a tuple of k physical qubits: the state with their axes in front, the
    scratch view it is copied into, and the product's operand (scratch)
    and output (state), both (2^k, 2^(n-k))."""

    def __init__(self, state: np.ndarray, n: int, scratch: np.ndarray):
        super().__init__()
        self.state, self.n, self.scratch = state, n, scratch

    def __missing__(self, key: tuple[int, ...]) -> tuple:
        shape, axes, _ = _layout(self.n, key)
        src, k = self.state.reshape(shape).transpose(axes), len(key)
        into, front = self.scratch.reshape(src.shape), self.scratch.reshape(1 << k, -1)
        self[key] = entry = (src, into, front, self.state.reshape(1 << k, -1))
        return entry


_local = threading.local()


def _workspace(n: int) -> tuple[_Views, _Fronts]:
    """This thread's views of an n-qubit state and scratch buffer: the first
    2^n amplitudes of a pair as long as the widest circuit the thread has
    simulated.  A wider n replaces the pair and drops the views of every
    width, which alias the old pair; otherwise each width's views are built
    once and serve every later call."""
    entry = getattr(_local, "widths", {}).get(n)
    if entry is None:
        if not hasattr(_local, "pair") or 1 << n > len(_local.pair[0]):
            _local.pair = np.empty(1 << n, dtype=complex), np.empty(1 << n, dtype=complex)
            _local.widths = {}
        state, scratch = _local.pair[0][:1 << n], _local.pair[1][:1 << n]
        entry = _local.widths[n] = _Views(state, n), _Fronts(state, n, scratch)
    return entry


# The kernels of a schedule, each an op (kind, key, arg):
#   _SCALE  multiplies the view `key` (a `_Views` key) by the scalar `arg`;
#   _SWAP   exchanges the views `key` and `arg`;
#   _FRONT  applies the matrix `arg` to the physical qubits `key` as one
#           gathered product (a `_Fronts` key).
_SCALE, _SWAP, _FRONT = range(3)


def _schedule(c: Circuit) -> tuple[tuple, tuple[int, ...]]:
    """The kernels that apply c's gate list, in order, and the map `phys`
    they leave, which places logical qubit q on physical qubit phys[q].
    The schedule holds no view or buffer, so every thread can replay it
    (`_simulate`), and it does not depend on the input.

    A SWAP exchanges two entries of `phys` and adds no kernel; every other
    gate acts on the physical qubits its targets map to.  One-qubit gates
    on a physical qubit are multiplied into one pending 2x2 matrix.  A
    two-qubit gate flushes a pending matrix only when the two do not
    commute: a diagonal one stays pending across CZ, CPHASE and a CNOT
    control, an X-type one (`_is_x_type`) across a CNOT target.  Each gate
    moved past commutes with it exactly, so the result is the gate list's,
    up to rounding.  A flushed diagonal matrix scales the halves of the
    buffer whose entry is not 1; CZ and CPHASE scale the |11> slice, and a
    CNOT swaps the |10> and |11> slices of its qubits.  A DENSE_UNITARY
    flushes its qubits and then, as a flushed matrix that is not diagonal
    does, is one gathered product, which moves its qubits to the front
    (`_layout`); `phys` and the keys of `pending` follow.  The end of the
    circuit flushes the rest."""
    n = c.n_qubits
    ops = []
    phys = list(range(n))
    pending: dict[int, tuple] = {}      # physical qubit -> matrix not yet applied

    def product(mat: np.ndarray, key: tuple[int, ...]) -> None:
        nonlocal pending
        ops.append((_FRONT, key, mat))
        moved = _layout(n, key)[2]
        if moved is not None:
            phys[:] = [moved[p] for p in phys]
            pending = {moved[p]: r for p, r in pending.items()}

    def flush(q: int) -> None:
        m = pending.pop(q)
        if _is_diagonal(m):
            for b, d in enumerate((m[0][0], m[1][1])):
                if d != 1:
                    ops.append((_SCALE, ((q, b),), d))
        else:
            product(np.array(m), (q,))

    for g in c.gates:
        kind = g.kind
        if kind in _FUSABLE:
            q = phys[g.targets[0]]
            m = _entries_1q(g)
            pending[q] = _matmul_2x2(m, pending[q]) if q in pending else m
        elif kind == "SWAP":
            a, b = g.targets
            phys[a], phys[b] = phys[b], phys[a]
        elif kind == "DENSE_UNITARY":
            for t in g.targets:
                if phys[t] in pending:
                    flush(phys[t])
            product(g.matrix, tuple(phys[t] for t in g.targets))
        else:
            first, second = g.targets
            m = pending.get(phys[first])
            if m is not None and not _is_diagonal(m):
                flush(phys[first])
            m = pending.get(phys[second])
            if m is not None and not (_is_x_type(m) if kind == "CNOT" else _is_diagonal(m)):
                flush(phys[second])
            a, b = phys[first], phys[second]
            ones = ((a, 1), (b, 1)) if a < b else ((b, 1), (a, 1))
            if kind == "CNOT":
                ops.append((_SWAP, ((a, 1), (b, 0)) if a < b else ((b, 0), (a, 1)), ones))
            elif (d := _corner_2q(g)) != 1:
                ops.append((_SCALE, ones, d))
    while pending:
        flush(next(iter(pending)))
    return tuple(ops), tuple(phys)


def _simulate(c: Circuit, basis: int) -> tuple[_Views, tuple[int, ...]]:
    """Replay c's schedule on the basis state |basis>, in place on this
    thread's buffer, and return its views and the map `phys` of
    `_schedule`.  The first simulation of c plans its schedule and keeps
    it on c; later ones, in any thread, replay it.  Threads that plan c
    at once store equal schedules, so whichever stays serves.  The
    buffer is overwritten by the thread's next call."""
    global _run_calls
    _run_calls += 1
    planned = getattr(c, "_schedule", None)
    if planned is None:
        planned = _schedule(c)
        setfield(c, "_schedule", planned)
    ops, phys = planned
    views, fronts = _workspace(c.n_qubits)
    views.state.fill(0)
    views.state[basis] = 1.0
    for kind, key, arg in ops:
        if kind == _SCALE:
            v = views[key]
            np.multiply(v, arg, out=v, order="C")
        elif kind == _FRONT:
            src, into, front, out = fronts[key]
            np.copyto(into, src)
            np.matmul(arg, front, out=out)
        else:
            s0, s1 = views[key], views[arg]
            old0 = s0.copy(order="C")
            np.copyto(s0, s1)
            np.copyto(s1, old0)
    return views, phys


def run(c: Circuit) -> np.ndarray:
    """Apply the gate list in order to |0...0>. Pure and deterministic;
    the result is a new array, in logical qubit order."""
    views, phys = _simulate(c, 0)
    if phys == tuple(range(c.n_qubits)):
        return views.state.copy()
    return views.state.reshape([2] * c.n_qubits).transpose(phys).flatten()


def marginal_one_prob(state: np.ndarray, qubit: int, n: int) -> float:
    """Pr[qubit measures 1] of a statevector: the reference `accept_prob`
    is tested against."""
    tensor = np.abs(state.reshape([2] * n)) ** 2
    return float(np.moveaxis(tensor, qubit, 0)[1].sum())


def accept_prob(c: Circuit, x) -> float:
    """Exact Pr[output qubit measures 1] with classical input bits loaded
    as the basis state on the input qubits: the squared norm of the output
    qubit's bit-1 half of the buffer.  `np.vdot` reads it in place when the
    half is one strided run, and copies it otherwise."""
    bits = input_bits(x, c.n_inputs)
    n = c.n_qubits
    basis = sum(1 << (n - 1 - q) for q, b in enumerate(bits) if b == 1)
    views, phys = _simulate(c, basis)
    half = views[(phys[c.output_qubit], 1),]
    return float(np.vdot(half, half).real)
