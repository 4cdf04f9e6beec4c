"""HHL builder tests: classical oracle, fidelity on exact instances,
depth growth, negative-eigenvalue handling, and instance validation."""

import math

import numpy as np
import pytest

from pvqc import qsim
from pvqc.errors import ParameterError
from pvqc.qsim.hhl import _clock_phase, classical_solve, default_evolution_time


def _well_conditioned(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (m + m.conj().T) / 2 + 2.0 * n * np.eye(n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a, b / np.linalg.norm(b)


def test_classical_solve_residual():
    a, b = _well_conditioned(4, 0)
    x = classical_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_classical_solve_rejects_singular():
    a = np.ones((2, 2), dtype=complex)
    with pytest.raises(ParameterError):
        classical_solve(a, np.array([1.0, 0.0]))


def test_default_evolution_time_scaling():
    a = np.diag([1.0, -4.0]).astype(complex)
    t = default_evolution_time(a)
    # Largest eigenphase magnitude |lambda| t / (2 pi) is exactly 1/4.
    assert abs(abs(-4.0) * t / (2 * math.pi) - 0.25) <= 1e-12


def test_clock_phase_twos_complement():
    assert _clock_phase(0, 3) == 0.0
    assert _clock_phase(1, 3) == 0.125
    assert _clock_phase(3, 3) == 0.375
    assert _clock_phase(4, 3) == -0.5
    assert _clock_phase(7, 3) == -0.125


def test_identity_fidelity_is_one():
    for n in (2, 4):
        b = np.ones(n, dtype=complex) / math.sqrt(n)
        inst = qsim.HhlInstance(a=np.eye(n, dtype=complex), b=b)
        assert abs(qsim.hhl_fidelity(inst) - 1.0) <= 1e-6


def test_exact_spectrum_fidelity():
    # Eigenphases 1/16 and 2/16 are exactly representable on 6 clock qubits.
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.array([1.0, 1.0]) / math.sqrt(2)
    inst = qsim.HhlInstance(a=a, b=b, clock_qubits=6)
    assert qsim.hhl_fidelity(inst) >= 1.0 - 1e-6


def test_negative_eigenvalue_fidelity():
    a = np.diag([1.0, -1.0]).astype(complex)
    b = np.array([0.6, 0.8]).astype(complex)
    inst = qsim.HhlInstance(a=a, b=b, clock_qubits=6)
    assert qsim.hhl_fidelity(inst) >= 1.0 - 1e-6


def test_generic_instance_fidelity():
    a, b = _well_conditioned(4, 1)
    inst = qsim.HhlInstance(a=a, b=b, clock_qubits=6)
    assert qsim.hhl_fidelity(inst) >= 0.9


def test_depth_strictly_increasing():
    depths = []
    for i, n in enumerate((2, 4, 8, 16)):
        a, b = _well_conditioned(n, 10 + i)
        depths.append(qsim.circuit_depth(qsim.build_hhl(qsim.HhlInstance(a=a, b=b))))
    assert depths == sorted(depths) and len(set(depths)) == 4


def test_build_layout():
    a, b = _well_conditioned(4, 2)
    c = qsim.build_hhl(qsim.HhlInstance(a=a, b=b, clock_qubits=3))
    assert c.n_qubits == 2 + 3 + 1
    assert c.output_qubit == c.n_qubits - 1
    assert c.n_inputs == 0


def test_instance_validation():
    with pytest.raises(ParameterError):
        qsim.HhlInstance(a=np.eye(3, dtype=complex), b=np.ones(3) / math.sqrt(3))
    with pytest.raises(ParameterError):
        qsim.HhlInstance(a=np.array([[0, 1], [0, 0]], dtype=complex),
                         b=np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        qsim.HhlInstance(a=np.eye(2, dtype=complex), b=np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        qsim.HhlInstance(a=np.eye(2, dtype=complex), b=np.array([1.0, 0.0]),
                         clock_qubits=0)


@pytest.mark.parametrize("a, b", [
    (np.eye(2), np.array([math.nan, 0.0])),
    (np.array([[math.inf, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0])),
], ids=["nan_in_b", "inf_in_a"])
def test_instance_rejects_non_finite(a, b):
    with pytest.raises(ParameterError):
        qsim.HhlInstance(a=a, b=b)
