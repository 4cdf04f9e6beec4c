"""Statevector execution and acceptance-probability evaluation."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from .circuit import DIAGONAL_GATES, Circuit, Gate, UNITARY_TOL

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}

_FIXED_2Q = {
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                      [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                      [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}

# Instrumentation: total full-circuit executions in this process.
_run_calls = 0


def run_calls() -> int:
    return _run_calls


def reset_run_calls() -> None:
    global _run_calls
    _run_calls = 0


def gate_matrix(g: Gate) -> np.ndarray:
    if g.kind in _FIXED_1Q:
        return _FIXED_1Q[g.kind]
    if g.kind in _FIXED_2Q:
        return _FIXED_2Q[g.kind]
    if g.kind == "RX":
        t = g.params[0] / 2
        return np.array([[math.cos(t), -1j * math.sin(t)],
                         [-1j * math.sin(t), math.cos(t)]], dtype=complex)
    if g.kind == "RY":
        t = g.params[0] / 2
        return np.array([[math.cos(t), -math.sin(t)],
                         [math.sin(t), math.cos(t)]], dtype=complex)
    if g.kind == "RZ":
        t = g.params[0] / 2
        return np.diag([np.exp(-1j * t), np.exp(1j * t)])
    if g.kind == "PHASE":
        return np.diag([1.0, np.exp(1j * g.params[0])])
    if g.kind == "CPHASE":
        return np.diag([1.0, 1.0, 1.0, np.exp(1j * g.params[0])])
    if g.kind == "DENSE_UNITARY":
        mat = g.matrix
        dim = mat.shape[0]
        if not np.allclose(mat.conj().T @ mat, np.eye(dim), atol=UNITARY_TOL):
            raise ParameterError("DENSE_UNITARY matrix is not unitary")
        return mat
    raise ParameterError(f"unknown gate kind {g.kind!r}")


def apply_gate(state: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Apply g to an n-qubit statevector (qubit 0 = most significant bit)."""
    if g.kind in DIAGONAL_GATES:
        k = len(g.targets)
        factor = np.diagonal(gate_matrix(g)).reshape([2] * k)
        order = np.argsort(g.targets)       # axis i of factor is targets[i]
        factor = factor.transpose(order)
        shape = [1] * n
        for t in g.targets:
            shape[t] = 2
        return (state.reshape([2] * n) * factor.reshape(shape)).reshape(-1)
    mat = gate_matrix(g)
    k = len(g.targets)
    tensor = state.reshape([2] * n)
    tensor = np.moveaxis(tensor, g.targets, range(k))
    block = tensor.reshape(2 ** k, -1)
    block = mat @ block
    tensor = block.reshape([2] * n)
    tensor = np.moveaxis(tensor, range(k), g.targets)
    return tensor.reshape(-1)


def run(c: Circuit) -> np.ndarray:
    """Apply the gate list in order to |0...0>. Pure and deterministic."""
    global _run_calls
    _run_calls += 1
    state = np.zeros(2 ** c.n_qubits, dtype=complex)
    state[0] = 1.0
    for g in c.gates:
        state = apply_gate(state, g, c.n_qubits)
    return state


def marginal_one_prob(state: np.ndarray, qubit: int, n: int) -> float:
    tensor = np.abs(state.reshape([2] * n)) ** 2
    return float(np.moveaxis(tensor, qubit, 0)[1].sum())


def accept_prob(c: Circuit, x) -> float:
    """Exact Pr[output qubit measures 1] with classical input bits loaded
    as X gates on the input qubits."""
    bits = list(x)
    if len(bits) != c.n_inputs:
        raise ParameterError(f"input width {len(bits)} != declared {c.n_inputs}")
    for b in bits:
        if int(b) not in (0, 1):
            raise ParameterError("input bits must be 0 or 1")
    prep = tuple(Gate("X", (q,)) for q, b in enumerate(bits) if int(b) == 1)
    loaded = Circuit(n_qubits=c.n_qubits, gates=prep + c.gates,
                     output_qubit=c.output_qubit, n_inputs=c.n_inputs)
    state = run(loaded)
    return marginal_one_prob(state, c.output_qubit, c.n_qubits)
