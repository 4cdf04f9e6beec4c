"""Statevector execution and acceptance-probability evaluation.

`apply_gate` is the pure single-gate reference.  `run` and `accept_prob`
apply a whole gate list in place on one buffer, with a kernel per gate kind.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..errors import ParameterError
from .circuit import DIAGONAL_GATES, SINGLE_GATES, Circuit, Gate, UNITARY_TOL, input_bits

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# One-qubit gate entries as nested tuples of Python complexes: the fused
# runs of `_simulate` multiply them directly, `gate_matrix` wraps them.
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
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                      [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                      [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}

# Instrumentation: total full-circuit executions in this process.
_run_calls = 0


def run_calls() -> int:
    return _run_calls


def gate_matrix(g: Gate) -> np.ndarray:
    if g.kind in _FUSABLE:
        return np.array(_entries_1q(g), dtype=complex)
    if g.kind in _FIXED_2Q:
        return _FIXED_2Q[g.kind]
    if g.kind in ("CZ", "CPHASE"):
        return np.diag([1, 1, 1, _corner_2q(g)])
    if g.kind == "DENSE_UNITARY":
        mat = g.matrix
        dim = mat.shape[0]
        if not np.allclose(mat.conj().T @ mat, np.eye(dim), atol=UNITARY_TOL):
            raise ParameterError("DENSE_UNITARY matrix is not unitary")
        return mat
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


class _Views(dict):
    """Views of one state buffer keyed by (qubit, bit) pairs: the view
    holds the amplitudes at which every pair holds.  Kernels pass
    order="C" to their ufuncs, so a view's last axis is the inner loop."""

    def __init__(self, state: np.ndarray, n: int):
        super().__init__()
        self.state, self.n = state, n

    def __missing__(self, fixed: tuple[tuple[int, int], ...]) -> np.ndarray:
        shape, index, prev = [], [], -1
        for q, b in sorted(fixed):
            shape += [1 << (q - prev - 1), 2]
            index += [slice(None), b]
            prev = q
        shape.append(1 << (self.n - 1 - prev))
        index.append(slice(None))
        view = self.state.reshape(shape)[tuple(index)]
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


def _apply_1q(views: _Views, m: tuple, q: int) -> None:
    """m (nested tuples) on qubit q, in place.  Diagonal m scales the
    halves whose entry is not 1; antidiagonal m swaps them with phases."""
    a0, a1 = views[(q, 0),], views[(q, 1),]
    (m00, m01), (m10, m11) = m
    if m01 == 0 and m10 == 0:
        if m00 != 1:
            np.multiply(a0, m00, out=a0, order="C")
        if m11 != 1:
            np.multiply(a1, m11, out=a1, order="C")
    elif m00 == 0 and m11 == 0:
        old0 = a0.copy(order="C")
        np.multiply(a1, m01, out=a0, order="C")
        np.multiply(old0, m10, out=a1, order="C")
    else:
        new0 = np.multiply(a0, m00, order="C")
        new0 += np.multiply(a1, m01, order="C")
        np.multiply(a1, m11, out=a1, order="C")
        np.add(a1, np.multiply(a0, m10, order="C"), out=a1, order="C")
        np.copyto(a0, new0)


def _apply_2q(views: _Views, g: Gate) -> None:
    """A CNOT, SWAP or diagonal two-qubit gate, in place."""
    a, b = g.targets
    if g.kind in DIAGONAL_GATES:
        d = _corner_2q(g)
        if d != 1:
            v = views[(a, 1), (b, 1)]
            np.multiply(v, d, out=v, order="C")
        return
    # CNOT swaps |10> with |11>; SWAP swaps |10> with |01>.
    hi = 1 if g.kind == "CNOT" else 0
    s0, s1 = views[(a, 1), (b, 0)], views[(a, hi), (b, 1)]
    old0 = s0.copy(order="C")
    np.copyto(s0, s1)
    np.copyto(s1, old0)


def _simulate(c: Circuit, basis: int) -> np.ndarray:
    """Apply the gate list in order to the basis state |basis>, in place on
    one buffer.  Runs of one-qubit gates on a qubit are multiplied into one
    pending 2x2 matrix, applied when a wider gate touches that qubit or the
    circuit ends; gates on disjoint qubits commute, so this is exact."""
    global _run_calls
    _run_calls += 1
    n = c.n_qubits
    state = np.zeros(2 ** n, dtype=complex)
    state[basis] = 1.0
    views = _Views(state, n)
    pending: dict[int, tuple] = {}
    for g in c.gates:
        if g.kind in _FUSABLE:
            q = g.targets[0]
            m = _entries_1q(g)
            pending[q] = _matmul_2x2(m, pending[q]) if q in pending else m
            continue
        for q in g.targets:
            if q in pending:
                _apply_1q(views, pending.pop(q), q)
        if g.kind == "DENSE_UNITARY":
            state[...] = apply_gate(state, g, n)
        else:
            _apply_2q(views, g)
    for q, m in pending.items():
        _apply_1q(views, m, q)
    return state


def run(c: Circuit) -> np.ndarray:
    """Apply the gate list in order to |0...0>. Pure and deterministic."""
    return _simulate(c, 0)


def marginal_one_prob(state: np.ndarray, qubit: int, n: int) -> float:
    tensor = np.abs(state.reshape([2] * n)) ** 2
    return float(np.moveaxis(tensor, qubit, 0)[1].sum())


def accept_prob(c: Circuit, x) -> float:
    """Exact Pr[output qubit measures 1] with classical input bits loaded
    as the basis state on the input qubits."""
    bits = input_bits(x, c.n_inputs)
    n = c.n_qubits
    basis = sum(1 << (n - 1 - q) for q, b in enumerate(bits) if b == 1)
    return marginal_one_prob(_simulate(c, basis), c.output_qubit, n)
