"""Wall-clock benchmark suite: TLP timings, random-circuit calibration,
and the HHL methodology.

Calibration works in quarter-millisecond units: circuit time T and the
hash rate are converted so the chosen mu targets a solve time of about
(T + 1)^(1+eps) in those units.  The added unit keeps a margin at every T:
for eps = 0.5 the target is at least 2.6 times T (the minimum, 3^1.5 / 2,
falls at T = 2 units), where T^(1+eps) alone equals T at T = 1 unit.  For
T of many units the two agree to within a factor (1 + 1/T)^(1+eps).  (In
straight seconds the exponent would shrink sub-second times instead of
growing them.)  Wall-clock columns are machine-dependent; medians are
used to resist scheduler noise.
"""

from __future__ import annotations

import statistics
import time

from . import qsim, tlp
from .compiler import DEFAULT_EPSILON
from .errors import ParameterError

CALIBRATION_UNIT_MS = 0.25
HASH_SAMPLE_STEPS = 2000
HASH_SAMPLES = 25
MU_LIST = (2**10, 2**12, 2**14, 2**16)
QUBITS = (5, 10, 15)
DEPTHS = (10, 20, 50, 100, 200, 300)
HHL_SIZES = (2, 4, 8, 16)
CIRCUIT_SEED = 1      # random_circuit seed base for the QUBITS x DEPTHS grid
HHL_SEED = 1          # numpy seed of the HHL instances

_HEADER = ("# wall-clock columns (*_ms, *_s, hash_rate) and mu, calibrated from them, are "
           "machine-dependent; depth_estimate and fidelity are deterministic given seeds")


def _timed(fn, *args):
    """(fn(*args), its wall-clock seconds): the one timer of this module."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _median_time(fn, repetitions: int) -> float:
    """Median wall-clock seconds of fn() over repetitions."""
    return statistics.median(_timed(fn)[1] for _ in range(repetitions))


def measure_hash_rate() -> float:
    """Sequential chain steps per second on this machine, timed on the
    loop that `tlp.solve` runs, metered or not: a metered solve charges
    its clock once per chunk, before the chunk, around the same inner
    loop.  The fastest of many short samples, because a deadline must
    hold against the fastest solver, and a machine whose speed drifts
    over tens of milliseconds reads low on a long sample."""
    best = min(_timed(tlp._walk_chain, bytes(32), HASH_SAMPLE_STEPS)[1]
               for _ in range(HASH_SAMPLES))
    return HASH_SAMPLE_STEPS / best


def _time_puzzle(mu: int, gens: int, solves: int) -> tuple[float, float, float]:
    """Seconds of one `tlp.setup` for mu, then the medians of `gens`
    GenPuzzle and `solves` solve timings of a 64-byte message under it."""
    message = bytes(64)
    (tpk, tsk), setup_s = _timed(tlp.setup, 256, mu)
    gen_s = _median_time(lambda: tlp.gen_puzzle(message, tpk, tsk), gens)
    puzzle = tlp.gen_puzzle(message, tpk, tsk)
    solve_s = _median_time(lambda: tlp.solve(tpk, puzzle), solves)
    return setup_s, gen_s, solve_s


def report_to_text(rows: list[dict]) -> str:
    lines = [_HEADER]
    for row in rows:
        lines.append(" ".join(f"{k}={v}" for k, v in row.items()))
    return "\n".join(lines) + "\n"


def bench_tlp(repetitions: int) -> list[dict]:
    """Setup/GenPuzzle/Solve timings per mu; setup amortized over the
    puzzle generations as in the batch-use model."""
    if repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
    rows = []
    for mu in MU_LIST:
        setup_s, gen_s, solve_s = _time_puzzle(mu, repetitions, max(1, repetitions // 2))
        rows.append({
            "row": "tlp", "mu": mu,
            "solve_ms": round(solve_s * 1e3, 4),
            "genpuzzle_ms": round(gen_s * 1e3, 4),
            "setup_ms": round(setup_s * 1e3, 4),
            "amortized_setup_ms": round(setup_s * 1e3 / repetitions, 4),
        })
    return rows


def calibrate_cell(t_ms: float, epsilon: float, hash_rate: float) -> int:
    """Mu for a measured circuit time: (T + 1)^(1+eps) calibration units."""
    return tlp.calibrate_mu(t_ms / CALIBRATION_UNIT_MS + 1.0, epsilon,
                            hash_rate * CALIBRATION_UNIT_MS / 1e3)


def bench_circuits(repetitions: int) -> list[dict]:
    """Median simulation time per (qubits, depth) cell, the mu the
    calibration chooses, and the solve and GenPuzzle times for that mu."""
    if repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
    hash_rate = measure_hash_rate()
    accept_prob = qsim.accept_prob      # loads the simulator before any timing
    rows = []
    for n in QUBITS:
        for depth in DEPTHS:
            circuit = qsim.random_circuit(n, depth, CIRCUIT_SEED + 1000 * n + depth)
            x = [0] * n
            t_s = _median_time(lambda: accept_prob(circuit, x), repetitions)
            t_ms = t_s * 1e3
            mu = calibrate_cell(t_ms, DEFAULT_EPSILON, hash_rate)
            _, gen_s, solve_s = _time_puzzle(mu, 1, 1)
            rows.append({
                "row": "circuit", "qubits": n, "depth": depth,
                "t_ms": round(t_ms, 4), "mu": mu,
                "hash_rate": round(hash_rate, 1),
                "solve_ms": round(solve_s * 1e3, 4),
                "genpuzzle_ms": round(gen_s * 1e3, 4),
            })
    return rows


def bench_hhl() -> list[dict]:
    """Depth estimate, execution time, calibrated mu, and fidelity for
    well-conditioned Hermitian instances of each size."""
    import numpy as np

    hash_rate = measure_hash_rate()
    rng = np.random.default_rng(HHL_SEED)
    rows = []
    for n in HHL_SIZES:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (m + m.conj().T) / 2 + 2.0 * n * np.eye(n)   # well-conditioned
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = b / np.linalg.norm(b)
        inst = qsim.HhlInstance(a=a, b=b)
        circuit = qsim.build_hhl(inst)
        fidelity, elapsed = _timed(qsim.hhl_fidelity, inst)
        rows.append({
            "row": "hhl", "n": n,
            "depth_estimate": qsim.circuit_depth(circuit),
            "time_s": round(elapsed, 4),
            "mu": calibrate_cell(elapsed * 1e3, DEFAULT_EPSILON, hash_rate),
            "fidelity": round(fidelity, 6),
        })
    return rows
