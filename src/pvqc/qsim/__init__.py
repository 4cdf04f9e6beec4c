"""Dense statevector simulation of small quantum circuits.

The circuit model and its encodings load with the package and need no
numpy.  The simulator, the HHL builder and the random circuits load on
first use of one of their names, so a caller that only reads and hashes
statements (the public verifier) never imports them or numpy.
"""

from importlib import import_module

from .circuit import (Circuit, Gate, GATE_ARITY, PARAM_GATES, circuit_depth,
                      circuit_from_text, circuit_to_bytes, circuit_to_text, input_bits)

ACCEPT_THRESHOLD = 2.0 / 3.0

# Name -> submodule that defines it, bound on first access.
_LAZY = {
    **dict.fromkeys(("accept_prob", "run", "run_calls"), "simulator"),
    **dict.fromkeys(("random_accepting_circuit", "random_circuit"), "randcirc"),
    **dict.fromkeys(("HhlInstance", "build_hhl", "classical_solve",
                     "default_evolution_time", "hhl_fidelity"), "hhl"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value     # later lookups are plain attribute hits
    return value


__all__ = [
    "ACCEPT_THRESHOLD", "Circuit", "Gate", "GATE_ARITY", "PARAM_GATES",
    "HhlInstance", "accept_prob", "build_hhl", "circuit_depth",
    "circuit_from_text", "circuit_to_bytes", "circuit_to_text", "classical_solve",
    "default_evolution_time", "hhl_fidelity", "input_bits",
    "random_accepting_circuit", "random_circuit", "run", "run_calls",
]
