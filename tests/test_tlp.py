"""Time-lock puzzle unit tests: frozen digests, step accounting, tamper
rejection, serialization, and calibration."""

import itertools
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvqc import bench, fixtures, qsim, tlp
from pvqc.errors import FormatError, ParameterError
from pvqc.meter import MeteredClock

# Digests computed with an independent SHA-256 oracle before the build.
CHAIN_STEP_ZERO_0 = bytes.fromhex(
    "a536da9dfee29930a86f5ef11b27eff6d8e7c5f6f7af63c55a99582043215bf0")
CHAIN_STEP_ZERO_1 = bytes.fromhex(
    "247963d6539d33f7078804183732e6e6a183ab161922c12a06502cefac4f74b7")
KEY_MU2_ZERO_SEED = bytes.fromhex(
    "225621139e0ca2841a80c2296d2d14cec94085e7d1412b03ceec0b69f8be6515")


def test_chain_step_frozen_vectors():
    assert tlp.chain_step(bytes(32), 0) == CHAIN_STEP_ZERO_0
    assert tlp.chain_step(bytes(32), 1) == CHAIN_STEP_ZERO_1


def test_chain_step_index_matters():
    assert tlp.chain_step(bytes(32), 0) != tlp.chain_step(bytes(32), 1)


def test_setup_key_frozen_vector():
    _, tsk = tlp.setup(256, 2, seed=bytes(32))
    assert tsk.key == KEY_MU2_ZERO_SEED


def test_setup_walks_chain_once():
    before = tlp.chain_calls()
    tlp.setup(256, 100, seed=bytes(32))
    assert tlp.chain_calls() - before == 100


def test_gen_puzzle_costs_zero_chain_steps():
    tpk, tsk = tlp.setup(256, 10, seed=bytes(32))
    before = tlp.chain_calls()
    tlp.gen_puzzle(b"message", tpk, tsk)
    assert tlp.chain_calls() == before


def test_solve_costs_exactly_mu_chain_steps():
    tpk, tsk = tlp.setup(256, 37, seed=bytes(32))
    puzzle = tlp.gen_puzzle(b"message", tpk, tsk)
    before = tlp.chain_calls()
    clock = MeteredClock()
    assert tlp.solve(tpk, puzzle, meter=clock) == b"message"
    assert tlp.chain_calls() - before == 37
    assert clock.now == 37


class _RecordingClock(MeteredClock):
    """Records each charge with the chain steps walked before it."""

    def __init__(self):
        super().__init__()
        self.charges = []
        self.chain_before = tlp.chain_calls()

    def charge(self, steps=1):
        self.charges.append((steps, tlp.chain_calls() - self.chain_before))
        return super().charge(steps)


@pytest.mark.parametrize("mu", [1, 7, 8, 9, 17])
def test_metered_walk_charges_each_chunk_before_walking_it(monkeypatch, mu):
    monkeypatch.setattr(tlp, "PROGRESS_INTERVAL", 8)
    clock, reported = _RecordingClock(), []
    endpoint = tlp._walk_chain(bytes(32), mu, meter=clock, progress=reported.append)
    steps = [charged for charged, _ in clock.charges]
    assert len(steps) == math.ceil(mu / 8) and sum(steps) == mu
    # The clock is never behind the walk: each chunk is paid before it runs.
    walked = [w for _, w in clock.charges]
    assert walked == list(itertools.accumulate([0] + steps[:-1]))
    assert tlp.chain_calls() - clock.chain_before == clock.now == mu
    assert reported == list(range(8, mu + 1, 8))
    assert endpoint == tlp._walk_chain(bytes(32), mu)


@settings(max_examples=30, deadline=None)
@given(m=st.binary(max_size=200), mu=st.integers(min_value=1, max_value=8))
def test_roundtrip_arbitrary_messages(m, mu):
    tpk, tsk = tlp.setup(256, mu, seed=bytes(32))
    assert tlp.solve(tpk, tlp.gen_puzzle(m, tpk, tsk)) == m


def test_fresh_nonce_per_puzzle():
    tpk, tsk = tlp.setup(256, 2, seed=bytes(32))
    nonces = {tlp.gen_puzzle(b"m", tpk, tsk).nonce for _ in range(50)}
    assert len(nonces) == 50


@pytest.mark.parametrize("field", ["nonce", "ciphertext", "tag"])
def test_tamper_rejected(field):
    tpk, tsk = tlp.setup(256, 3, seed=bytes(32))
    puzzle = tlp.gen_puzzle(b"secret payload", tpk, tsk)
    value = bytearray(getattr(puzzle, field))
    value[0] ^= 0x01
    fields = {f: getattr(puzzle, f) for f in ("nonce", "ciphertext", "tag")}
    bad = tlp.Puzzle(**{**fields, field: bytes(value)})
    with pytest.raises(FormatError):
        tlp.solve(tpk, bad)


def test_solve_wrong_seed_rejected():
    tpk, tsk = tlp.setup(256, 3, seed=bytes(32))
    puzzle = tlp.gen_puzzle(b"m", tpk, tsk)
    other = tlp.TlpPublicParams(seed=b"\x01" * 32, mu=3)
    with pytest.raises(FormatError):
        tlp.solve(other, puzzle)


@settings(max_examples=50, deadline=None)
@given(m=st.binary(max_size=300))
def test_puzzle_serialization_roundtrip(m):
    tpk, tsk = tlp.setup(256, 1, seed=bytes(32))
    puzzle = tlp.gen_puzzle(m, tpk, tsk)
    blob = tlp.serialize_puzzle(puzzle)
    assert tlp.parse_puzzle(blob) == puzzle
    assert tlp.serialize_puzzle(tlp.parse_puzzle(blob)) == blob


def test_parse_puzzle_errors():
    tpk, tsk = tlp.setup(256, 1, seed=bytes(32))
    blob = tlp.serialize_puzzle(tlp.gen_puzzle(b"m", tpk, tsk))
    with pytest.raises(FormatError):
        tlp.parse_puzzle(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        tlp.parse_puzzle(blob[:-1])
    with pytest.raises(FormatError):
        tlp.parse_puzzle(blob + b"\x00")


def test_calibrate_mu_limit_case():
    # epsilon -> 0+ at T = 1 s and 1e6 steps/s approaches 1e6 + 1.
    assert tlp.calibrate_mu(1.0, 1e-12, 1e6) == 10**6 + 1


def test_calibrate_mu_monotone_in_t():
    mus = [tlp.calibrate_mu(t, 0.5, 1000.0) for t in (1.0, 2.0, 4.0, 8.0)]
    assert mus == sorted(mus) and len(set(mus)) == 4


def test_calibrate_cell_floors_short_circuit_times():
    # 0.1 ms is below one 0.25 ms calibration unit: it is charged as
    # 1.4 units, 1.4^1.5 * 250 ~ 415 steps at 10^6 steps/s, so the solve
    # outlasts the circuit.
    assert bench.calibrate_cell(0.1, 0.5, 1e6) > 100


def test_first_call_time_calls_once_in_a_new_thread(monkeypatch):
    # A new thread holds no simulator workspace, and a new circuit of the
    # same fields no schedule, so the call it times is the cold one a
    # one-shot prover makes, even after the circuit was simulated.
    c, x = fixtures.small_accepting_circuit()
    qsim.accept_prob(c, x)
    calls = []
    monkeypatch.setattr(qsim, "accept_prob",
                        lambda *args: calls.append((threading.get_ident(), *args)))
    assert bench.first_call_time(c, x) >= 0
    [(ident, fresh, bits)] = calls
    assert ident != threading.get_ident() and bits is x
    assert fresh == c and fresh is not c and not hasattr(fresh, "_schedule")


def test_calibrate_mu_validation():
    nan, inf = math.nan, math.inf
    for bad in [(0.0, 0.5, 1.0), (1.0, 0.0, 1.0), (1.0, 0.5, 0.0),
                (nan, 0.5, 1.0), (1.0, nan, 1.0), (1.0, 0.5, nan),
                (inf, 0.5, 1.0), (1.0, inf, 1.0), (1.0, 0.5, inf)]:
        with pytest.raises(ParameterError):
            tlp.calibrate_mu(*bad)
    # Finite inputs whose deadline overflows a float.
    for big in [(1e300, 1.0, 1.0), (18.0, 300.0, 1.0), (1e300, 0.5, 1e300)]:
        with pytest.raises(ParameterError, match="deadline too large"):
            tlp.calibrate_mu(*big)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        tlp.TlpPublicParams(seed=bytes(16), mu=1)
    with pytest.raises(ParameterError):
        tlp.TlpPublicParams(seed=bytes(32), mu=0)
    # The CRS record stores mu as a u64.
    assert tlp.TlpPublicParams(seed=bytes(32), mu=tlp.MAX_MU).mu == 2**64 - 1
    with pytest.raises(ParameterError, match=r"2\*\*64"):
        tlp.TlpPublicParams(seed=bytes(32), mu=2**64)
    with pytest.raises(ParameterError):
        tlp.setup(0, 1)
    with pytest.raises(ParameterError):
        tlp.setup(256, 0)
