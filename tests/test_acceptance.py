"""Top-level acceptance gate.

Each test covers one numbered criterion, prints a single PASS/FAIL line
on the real terminal (bypassing capture), and then asserts.  Wall-clock
bounds are generous enough for a loaded CI machine but still catch
asymptotic regressions.
"""

import math
import random
import time

import numpy as np

from pvqc import bench, commit, compiler, dvproof, fixtures, harness, qsim, tlp
from pvqc.compiler import CostModel, TimestampedProof
from pvqc.meter import MeteredClock
from pvqc.qsim.circuit import Gate
from pvqc.qsim.simulator import apply_gate
from pvqc.timestamp import Ledger, new_mac_key


def _report(capsys, number, name, ok):
    with capsys.disabled():
        print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _honest_run(circuit, x):
    cost = CostModel.from_circuit(circuit)
    crs, token = compiler.vc_setup(256, circuit, x, cost)
    ledger = Ledger(new_mac_key())
    clock = MeteredClock()
    pi_tau = compiler.vc_prove(crs, circuit, x, token, ledger, clock, cost)
    opening = compiler.vc_reveal(crs, clock)
    return compiler.vc_verify_explain(crs, circuit, x, pi_tau, opening, ledger)[0]


def test_criterion_1_end_to_end_completeness(capsys):
    """100/100 honest pipeline runs accept over the 20-circuit corpus."""
    corpus = fixtures.accepting_corpus()
    start = time.perf_counter()
    accepts = sum(_honest_run(c, x) for c, x in corpus for _ in range(5))
    elapsed = time.perf_counter() - start
    _report(capsys, 1, "end-to-end completeness",
            accepts == 100 and elapsed < 120.0)


def test_criterion_2_delta_soundness_suite(capsys):
    """A1-A4: exactly 0 wins over 10**4 trials each at lambda = 256, and
    each designated rejection site fires in its strategy."""
    designated = {
        harness.A1_GUESS_KEY: compiler.REJECT_MAC_TAG,
        harness.A2_SOLVE_THEN_FORGE: compiler.REJECT_TIMESTAMP,
        harness.A3_ALT_OPENING: compiler.REJECT_COMMITMENT,
        harness.A4_RANDOM_TAG: compiler.REJECT_CLAIMED_BIT,
    }
    circuit, x = fixtures.small_accepting_circuit()
    start = time.perf_counter()
    ok = True
    for strategy, site in designated.items():
        report = harness.run_experiment(
            harness.AdversarySpec(strategy=strategy), circuit, x,
            trials=10**4, seed=20240811)
        ok &= report.wins == 0
        ok &= report.rejection_sites.get(site, 0) > 0
    elapsed = time.perf_counter() - start
    _report(capsys, 2, "delta-soundness suite", ok and elapsed < 600.0)


def test_criterion_3_timestamp_gating(capsys):
    """A proof stamped after a completed solve has tau >= delta and is
    rejected by both verification passes, for every corpus CRS."""
    ok = True
    for circuit, x in fixtures.accepting_corpus():
        cost = CostModel.from_circuit(circuit)
        crs, _ = compiler.vc_setup(256, circuit, x, cost)
        ledger = Ledger(new_mac_key())
        clock = MeteredClock()
        opening = compiler.vc_reveal(crs, clock)
        proof = dvproof.forge_proof(
            dvproof.DvSecretKey(mac_key=opening.sk_bytes), crs.pk, 1)
        late = TimestampedProof(
            proof=proof, stamp=ledger.stamp(dvproof.serialize_proof(proof), clock))
        ok &= late.stamp.tau >= crs.delta
        for y in (opening, compiler.vc_reveal(crs, MeteredClock())):
            verdict, site = compiler.vc_verify_explain(
                crs, circuit, x, late, y, ledger)
            ok &= not verdict and site == compiler.REJECT_TIMESTAMP
    _report(capsys, 3, "timestamp gating", ok)


def test_criterion_4_tlp_calibration_contract(capsys):
    """Closed loop over the benchmark grid (plus two repeats, 20 checks):
    calibrated mu makes Solve slower than the measured circuit time, the
    larger of the median of three calls and a first call
    (`bench.first_call_time`: a new thread and a never-simulated copy of
    the circuit, so the call plans its schedule and builds the simulator's
    buffers and views), and GenPuzzle stays sub-millisecond across all
    chosen mu."""
    hash_rate = bench.measure_hash_rate()
    cells = [(n, d) for n in (5, 10, 15) for d in (10, 20, 50, 100, 200, 300)]
    cells += [(5, 10), (10, 50)]      # repeats: 20 closed-loop checks total
    ok = True
    gen_medians = []
    for i, (n, depth) in enumerate(cells):
        circuit = qsim.random_circuit(n, depth, 1 + 1000 * n + depth + i)
        x = [0] * n
        t_samples = []
        for _ in range(3):
            start = time.perf_counter()
            qsim.accept_prob(circuit, x)
            t_samples.append(time.perf_counter() - start)
        t = max(sorted(t_samples)[1], bench.first_call_time(circuit, x))
        mu = bench.calibrate_cell(t * 1e3, 0.5, hash_rate)
        tpk, tsk = tlp.setup(256, mu)
        puzzle = tlp.gen_puzzle(bytes(64), tpk, tsk)
        start = time.perf_counter()
        tlp.solve(tpk, puzzle)
        solve_t = time.perf_counter() - start
        ok &= solve_t > t
        gen_samples = []
        for _ in range(5):
            start = time.perf_counter()
            tlp.gen_puzzle(bytes(64), tpk, tsk)
            gen_samples.append(time.perf_counter() - start)
        gen_medians.append(sorted(gen_samples)[2])
    ok &= max(gen_medians) < 1e-3
    _report(capsys, 4, "tlp calibration contract", ok)


def test_criterion_5_tlp_sequential_linearity(capsys):
    """Solve wall-clock vs mu over four octaves fits a line with
    R^2 >= 0.99; the metered step count equals mu exactly.  Each mu's time
    is the median of three solves, one per round, and each round takes
    every mu in a seeded shuffled order: a slow phase of the host then
    spreads over the mus instead of moving one mu's median."""
    mus = [2**13, 2**14, 2**15, 2**16]
    puzzles = {}
    for mu in mus:
        tpk, tsk = tlp.setup(256, mu)
        puzzles[mu] = tpk, tlp.gen_puzzle(b"payload", tpk, tsk)
    samples = {mu: [] for mu in mus}
    metered_exact = True
    rng = random.Random(5)
    for _ in range(3):
        for mu in rng.sample(mus, len(mus)):
            tpk, puzzle = puzzles[mu]
            clock = MeteredClock()
            start = time.perf_counter()
            tlp.solve(tpk, puzzle, meter=clock)
            samples[mu].append(time.perf_counter() - start)
            metered_exact &= clock.now == mu
    times = [sorted(samples[mu])[1] for mu in mus]
    slope, intercept = np.polyfit(mus, times, 1)
    fitted = slope * np.asarray(mus) + intercept
    residual = np.sum((np.asarray(times) - fitted) ** 2)
    total = np.sum((np.asarray(times) - np.mean(times)) ** 2)
    r_squared = 1.0 - residual / total
    _report(capsys, 5, "tlp sequential linearity",
            metered_exact and r_squared >= 0.99)


def _inverse(g):
    if g.kind in ("X", "Y", "Z", "H", "CNOT", "CZ", "SWAP"):
        return g
    if g.kind == "S":
        return Gate("PHASE", g.targets, params=(-math.pi / 2,))
    if g.kind == "T":
        return Gate("PHASE", g.targets, params=(-math.pi / 4,))
    if g.kind == "DENSE_UNITARY":
        return Gate(g.kind, g.targets, matrix=g.matrix.conj().T)
    return Gate(g.kind, g.targets, params=(-g.params[0],))


def test_criterion_6_simulator_property_suite(capsys):
    """Exactly 50 properties: 20 normalization checks, 27 gate-inverse
    round-trips, 3 analytic acceptance probabilities."""
    checks = []

    for i in range(20):
        state = qsim.run(qsim.random_circuit(2 + i % 5, 4 + i, 100 + i))
        checks.append(abs(np.linalg.norm(state) - 1.0) <= 1e-9)

    rng = np.random.default_rng(0)
    n = 4
    gates = []
    for kind in ("X", "Y", "Z", "H", "S", "T"):
        gates += [Gate(kind, (0,)), Gate(kind, (3,))]
    for kind in ("RX", "RY", "RZ", "PHASE"):
        gates += [Gate(kind, (1,), params=(0.37,)), Gate(kind, (2,), params=(2.1,))]
    gates += [Gate("CNOT", (0, 2)), Gate("CZ", (3, 1)), Gate("SWAP", (1, 3)),
              Gate("CPHASE", (2, 0), params=(1.23,))]
    q1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gates += [Gate("DENSE_UNITARY", (2,), matrix=q1),
              Gate("DENSE_UNITARY", (1, 3), matrix=q2),
              Gate("DENSE_UNITARY", (3, 0), matrix=q2)]
    assert len(gates) == 27
    for i, g in enumerate(gates):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        back = apply_gate(apply_gate(v, g, n), _inverse(g), n)
        checks.append(bool(np.allclose(back, v, atol=1e-9)))

    x_circ = qsim.Circuit(n_qubits=1, gates=(Gate("X", (0,)),), output_qubit=0)
    h_circ = qsim.Circuit(n_qubits=1, gates=(Gate("H", (0,)),), output_qubit=0)
    bell = qsim.Circuit(n_qubits=2, gates=(Gate("H", (0,)), Gate("CNOT", (0, 1))),
                        output_qubit=1)
    checks.append(abs(qsim.accept_prob(x_circ, [0]) - 1.0) <= 1e-12)
    checks.append(abs(qsim.accept_prob(h_circ, [0]) - 0.5) <= 1e-12)
    checks.append(abs(qsim.accept_prob(bell, [0, 0]) - 0.5) <= 1e-12)

    _report(capsys, 6, "simulator property suite",
            len(checks) == 50 and all(checks))


def test_criterion_7_hhl_methodology(capsys):
    """Depth strictly increasing over N in {2,4,8,16}; fidelity 1 for
    identity systems and >= 0.9 for exactly representable spectra at six
    clock qubits, against the classical direct solver."""
    ok = True
    depths = []
    rng = np.random.default_rng(7)
    for n in (2, 4, 8, 16):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (m + m.conj().T) / 2 + 2.0 * n * np.eye(n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        b /= np.linalg.norm(b)
        inst = qsim.HhlInstance(a=a, b=b, clock_qubits=6)
        depths.append(qsim.circuit_depth(qsim.build_hhl(inst)))
    ok &= depths == sorted(depths) and len(set(depths)) == 4

    for n in (2, 4):
        b = np.ones(n, dtype=complex) / math.sqrt(n)
        f = qsim.hhl_fidelity(qsim.HhlInstance(a=np.eye(n, dtype=complex), b=b))
        ok &= abs(f - 1.0) <= 1e-6

    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.array([1.0, 1.0]) / math.sqrt(2)
    ok &= qsim.hhl_fidelity(qsim.HhlInstance(a=a, b=b, clock_qubits=6)) >= 0.9
    x = qsim.classical_solve(a, b)
    ok &= np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)
    _report(capsys, 7, "hhl methodology", ok)


def test_criterion_8_bit_exact_vectors(capsys):
    """Frozen digests from the independent pre-build oracle, plus
    byte-identical serialization round-trips for every record type."""
    ok = True
    ok &= tlp.chain_step(bytes(32), 0) == bytes.fromhex(
        "a536da9dfee29930a86f5ef11b27eff6d8e7c5f6f7af63c55a99582043215bf0")
    ok &= tlp.chain_step(bytes(32), 1) == bytes.fromhex(
        "247963d6539d33f7078804183732e6e6a183ab161922c12a06502cefac4f74b7")
    _, tsk = tlp.setup(256, 2, seed=bytes(32))
    ok &= tsk.key == bytes.fromhex(
        "225621139e0ca2841a80c2296d2d14cec94085e7d1412b03ceec0b69f8be6515")
    ok &= commit.commit(b"ab", bytes(32)).digest == bytes.fromhex(
        "975c906323886a418fdee0d1b0e135409903e85b01d384c363aef70705f79247")
    ledger = Ledger(b"\x11" * 32)
    stamp = ledger.stamp(b"blob", MeteredClock(start=7))
    ok &= stamp.auth_tag == bytes.fromhex(
        "d9ad21a1318215c614223a4453dd9af7cbd619af7c842d742ec9027f0ea370c3")

    circuit, x = fixtures.small_accepting_circuit()
    cost = CostModel.from_circuit(circuit)
    crs, token = compiler.vc_setup(256, circuit, x, cost)
    ledger2 = Ledger(new_mac_key())
    clock = MeteredClock()
    pi_tau = compiler.vc_prove(crs, circuit, x, token, ledger2, clock, cost)
    opening = compiler.vc_reveal(crs, clock)
    for blob, parse, serialize in (
        (compiler.serialize_crs(crs), compiler.parse_crs, compiler.serialize_crs),
        (compiler.serialize_timestamped_proof(pi_tau),
         compiler.parse_timestamped_proof, compiler.serialize_timestamped_proof),
        (compiler.serialize_opening(opening), compiler.parse_opening_record,
         compiler.serialize_opening),
        (dvproof.serialize_token(token), dvproof.parse_token,
         dvproof.serialize_token),
        (tlp.serialize_puzzle(crs.puzzle), tlp.parse_puzzle, tlp.serialize_puzzle),
    ):
        ok &= serialize(parse(blob)) == blob
    _report(capsys, 8, "bit-exact vectors", ok)


def test_criterion_9_verifier_frugality(capsys):
    """Instrumented verify: zero simulator runs and zero chain steps on
    every corpus instance."""
    ok = True
    for circuit, x in fixtures.accepting_corpus():
        cost = CostModel.from_circuit(circuit)
        crs, token = compiler.vc_setup(256, circuit, x, cost)
        ledger = Ledger(new_mac_key())
        clock = MeteredClock()
        pi_tau = compiler.vc_prove(crs, circuit, x, token, ledger, clock, cost)
        opening = compiler.vc_reveal(crs, clock)
        runs, chains = qsim.run_calls(), tlp.chain_calls()
        ok &= compiler.vc_verify_explain(crs, circuit, x, pi_tau, opening, ledger)[0]
        ok &= qsim.run_calls() == runs
        ok &= tlp.chain_calls() == chains
    _report(capsys, 9, "verifier frugality", ok)
