"""Seeded random circuit generation over the standard gate set.

Every layer assigns exactly one gate to every qubit (pairing some qubits
into two-qubit gates), so the greedy-layering depth of the generated
circuit equals the requested layer count exactly.
"""

from __future__ import annotations

import math
import random

from ..errors import ParameterError
from .circuit import (DIAGONAL_GATES, DOUBLE_GATES, MAX_QUBITS, PARAM_GATES,
                      SINGLE_GATES, Circuit, Gate)

_DIAGONAL_SINGLES = tuple(k for k in SINGLE_GATES if k in DIAGONAL_GATES)

_PAIR_PROB = 0.4


def _gate(rng: random.Random, kind: str, targets: tuple[int, ...]) -> Gate:
    if kind in PARAM_GATES:
        return Gate(kind, targets, params=(rng.uniform(0.0, 2 * math.pi),))
    return Gate(kind, targets)


def _layer(rng: random.Random, n: int, gates: list[Gate],
           spare_qubit: int | None = None) -> None:
    order = list(range(n))
    if spare_qubit is not None:
        order.remove(spare_qubit)
    rng.shuffle(order)
    i = 0
    while i < len(order):
        if len(order) - i >= 2 and rng.random() < _PAIR_PROB:
            gates.append(_gate(rng, rng.choice(DOUBLE_GATES), (order[i], order[i + 1])))
            i += 2
        else:
            gates.append(_gate(rng, rng.choice(SINGLE_GATES), (order[i],)))
            i += 1


def random_circuit(n: int, depth: int, seed: int) -> Circuit:
    if not 1 <= n <= MAX_QUBITS:
        raise ParameterError(f"n must be in [1, {MAX_QUBITS}]")
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    rng = random.Random(seed)
    gates: list[Gate] = []
    for _ in range(depth):
        _layer(rng, n, gates)
    return Circuit(n_qubits=n, gates=tuple(gates), output_qubit=0)


def random_accepting_circuit(n: int, depth: int, seed: int) -> Circuit:
    """Random circuit with Pr[output qubit = 1] exactly 1.

    The output qubit receives only diagonal single-qubit gates (which fix
    |0> up to phase) and a final X, so the marginal is analytic while the
    rest of the circuit is fully random.  Depth is exactly `depth`.
    """
    if n < 2:
        raise ParameterError("need at least 2 qubits")
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    rng = random.Random(seed)
    gates: list[Gate] = []
    for layer in range(depth):
        if layer == depth - 1:
            gates.append(Gate("X", (0,)))
        else:
            gates.append(_gate(rng, rng.choice(_DIAGONAL_SINGLES), (0,)))
        _layer(rng, n, gates, spare_qubit=0)
    return Circuit(n_qubits=n, gates=tuple(gates), output_qubit=0)
