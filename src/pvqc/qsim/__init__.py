"""Dense statevector simulation of small quantum circuits."""

from .circuit import (Circuit, Gate, GATE_ARITY, PARAM_GATES, circuit_depth,
                      circuit_from_text, circuit_to_bytes, circuit_to_text)
from .simulator import accept_prob, input_bits, run, run_calls
from .randcirc import random_accepting_circuit, random_circuit
from .hhl import (HhlInstance, build_hhl, classical_solve, default_evolution_time,
                  hhl_fidelity)

ACCEPT_THRESHOLD = 2.0 / 3.0

__all__ = [
    "ACCEPT_THRESHOLD", "Circuit", "Gate", "GATE_ARITY", "PARAM_GATES",
    "HhlInstance", "accept_prob", "build_hhl", "circuit_depth",
    "circuit_from_text", "circuit_to_bytes", "circuit_to_text", "classical_solve",
    "default_evolution_time", "hhl_fidelity", "input_bits",
    "random_accepting_circuit", "random_circuit", "run", "run_calls",
]
