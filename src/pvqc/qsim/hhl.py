"""Quantum linear-system (HHL) circuit builder and fidelity evaluation.

The controlled Hamiltonian-evolution blocks are computed exactly from the
eigendecomposition of A (no Trotterization), so the only source of
fidelity loss is clock-register quantization of the eigenphases.

Register layout (qubit 0 = most significant amplitude-index bit):
system qubits [0, ns), clock qubits [ns, ns+m), ancilla last.  The clock
register is read big-endian as an m-bit integer j encoding the eigenphase
estimate j / 2^m in two's complement (negative eigenvalues supported).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from ..record import Record, setfield
from .circuit import MAX_QUBITS, Circuit, Gate
from .simulator import run

HERMITIAN_TOL = 1e-9
NORM_TOL = 1e-9
MAX_CONDITION = 1e6
POSTSELECT_TOL = 1e-12

DEFAULT_CLOCK_QUBITS = 6


class HhlInstance(Record):
    __slots__ = ("a",                 # N x N Hermitian matrix
                 "b",                 # normalized length-N vector
                 "clock_qubits")

    def __init__(self, a: np.ndarray, b: np.ndarray,
                 clock_qubits: int = DEFAULT_CLOCK_QUBITS):
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        n = a.shape[0]
        if a.shape != (n, n) or n < 2 or (n & (n - 1)) != 0:
            raise ParameterError("A must be square with power-of-two size >= 2")
        if b.shape != (n,):
            raise ParameterError("b length must match A")
        # A NaN (or inf - inf) entry makes every comparison below false.
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ParameterError("A and b must be finite")
        if np.abs(a - a.conj().T).max() > HERMITIAN_TOL:
            raise ParameterError("A is not Hermitian")
        if abs(np.linalg.norm(b) - 1.0) > NORM_TOL:
            raise ParameterError("b is not normalized")
        if clock_qubits < 1:
            raise ParameterError("need at least one clock qubit")
        if n.bit_length() + clock_qubits > MAX_QUBITS:    # log2(n) + clock + ancilla
            raise ParameterError(f"the HHL register must fit in {MAX_QUBITS} qubits")
        default_evolution_time(a)       # raises if A is zero
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "clock_qubits", clock_qubits)

    @property
    def evolution_time(self) -> float:
        return default_evolution_time(self.a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def n_system(self) -> int:
        return self.n.bit_length() - 1


def default_evolution_time(a: np.ndarray) -> float:
    """Scale so the largest eigenphase magnitude is 1/4: safely inside the
    two's-complement clock window regardless of eigenvalue sign."""
    eigs = np.linalg.eigvalsh(np.asarray(a, dtype=complex))
    top = float(np.abs(eigs).max())
    if top == 0.0:
        raise ParameterError("A is zero")
    return math.pi / (2.0 * top)


def classical_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct solve of A x = b (LAPACK partial-pivot LU); self-certifying
    residual check ||Ax - b|| <= 1e-8 ||b||."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if np.linalg.cond(a) >= MAX_CONDITION:
        raise ParameterError("A is singular or too ill-conditioned")
    x = np.linalg.solve(a, b)
    residual = np.linalg.norm(a @ x - b)
    if residual > 1e-8 * np.linalg.norm(b):
        raise ParameterError("solver residual out of tolerance")
    return x


def _prep_unitary(b: np.ndarray) -> np.ndarray:
    """Unitary whose first column is b, via QR completion."""
    n = len(b)
    pivot = int(np.argmax(np.abs(b)))
    cols = [np.eye(n)[:, j] for j in range(n) if j != pivot]
    q, _ = np.linalg.qr(np.column_stack([b] + cols))
    phase = q[:, 0].conj() @ b
    q[:, 0] = q[:, 0] * phase / abs(phase)
    return q


def _controlled(u: np.ndarray) -> np.ndarray:
    """Block-diagonal [I, U]: control qubit is the leading target."""
    n = u.shape[0]
    out = np.eye(2 * n, dtype=complex)
    out[n:, n:] = u
    return out


def _qft_matrix(m: int) -> np.ndarray:
    size = 2 ** m
    j, k = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.exp(2j * math.pi * j * k / size) / math.sqrt(size)


def _clock_phase(j: int, m: int) -> float:
    """Two's-complement eigenphase encoded by clock value j."""
    size = 2 ** m
    return (j - size) / size if j >= size // 2 else j / size


def _inversion_unitary(m: int, t: float) -> np.ndarray:
    """Ancilla RY conditioned on the clock value: sin(theta/2) = C / lambda,
    with C the smallest nonzero representable eigenvalue magnitude."""
    size = 2 ** m
    c = 2.0 * math.pi / (t * size)
    out = np.eye(2 * size, dtype=complex)
    for j in range(1, size):
        lam = 2.0 * math.pi * _clock_phase(j, m) / t
        ratio = max(-1.0, min(1.0, c / lam))
        half = math.asin(ratio)
        block = np.array([[math.cos(half), -math.sin(half)],
                          [math.sin(half), math.cos(half)]], dtype=complex)
        out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = block
    return out


def build_hhl(inst: HhlInstance) -> Circuit:
    """State prep, phase estimation with exact controlled e^{iAt 2^p}
    blocks, clock-conditioned eigenvalue-inversion rotation, inverse QPE."""
    ns, m, t = inst.n_system, inst.clock_qubits, inst.evolution_time
    system = tuple(range(ns))
    clock = tuple(range(ns, ns + m))
    ancilla = ns + m

    eigvals, eigvecs = np.linalg.eigh(inst.a)

    def evolution(power: int) -> np.ndarray:
        phases = np.exp(1j * t * power * eigvals)
        return eigvecs @ np.diag(phases) @ eigvecs.conj().T

    # Forward QPE: clock qubit ns+k carries phase-bit weight 2^(m-1-k).
    qpe = [Gate("H", (q,)) for q in clock]
    for k, q in enumerate(clock):
        power = 2 ** (m - 1 - k)
        qpe.append(Gate("DENSE_UNITARY", (q,) + system,
                        matrix=_controlled(evolution(power))))
    qpe.append(Gate("DENSE_UNITARY", clock, matrix=_qft_matrix(m).conj().T))
    # Inverse QPE uncomputes the clock register: the forward gates reversed,
    # each dense matrix conjugate-transposed (H is its own inverse).
    inverse_qpe = [g if g.matrix is None
                   else Gate(g.kind, g.targets, matrix=g.matrix.conj().T)
                   for g in reversed(qpe)]

    gates = [Gate("DENSE_UNITARY", system, matrix=_prep_unitary(inst.b)), *qpe,
             Gate("DENSE_UNITARY", clock + (ancilla,), matrix=_inversion_unitary(m, t)),
             *inverse_qpe]

    return Circuit(n_qubits=ns + m + 1, gates=tuple(gates),
                   output_qubit=ancilla, n_inputs=0)


def hhl_fidelity(inst: HhlInstance) -> float:
    """Squared overlap of the ancilla-postselected system register with the
    classically solved, normalized solution."""
    x_true = classical_solve(inst.a, inst.b)
    x_hat = x_true / np.linalg.norm(x_true)

    state = run(build_hhl(inst))
    # Index layout: system (most significant) x clock x ancilla (least).
    block = state.reshape(inst.n, 2 ** inst.clock_qubits, 2)[:, :, 1]
    p_success = float(np.sum(np.abs(block) ** 2))
    if p_success < POSTSELECT_TOL:
        raise ParameterError("zero post-selection probability: degenerate instance")
    overlaps = x_hat.conj() @ block     # per clock value
    return float(np.sum(np.abs(overlaps) ** 2) / p_success)
