"""The time-delayed publicly verifiable compiler.

Setup locks the opening record of the designated-verifier secret key
and its commitment randomness inside a time-lock puzzle and publishes
the CRS; Prove runs the backend prover and timestamps the proof; Reveal
solves the puzzle, whose plaintext is the opening record verify reads;
Verify gates acceptance on the timestamp deadline, the commitment, and
the backend tag check, and never executes the delegated circuit.

One CRS is single-use: one TLP instance and one backend session per
setup.

The deadline delta is the puzzle's step count `tpk.mu`, stored once:
a proof counts only if stamped before delta, and the key opens only
after delta sequential steps, so the two cannot be allowed to differ.
"""

from __future__ import annotations

import math
import secrets
import struct
from dataclasses import dataclass

from . import commit, dvproof, qsim, tlp
from .commit import Commitment, Opening
from .dvproof import DvProof, DvPublicKey, DvSecretKey, OracleToken
from .errors import FormatError, ParameterError
from .meter import MeteredClock
from .timestamp import Ledger, Stamp
from .tlp import Puzzle, TlpPublicParams

_MAGIC = b"PVQC"
_VERSION = 0x02
# The opening record `u32be len | sk | r` that the puzzle seals.
_OPENING_RECORD_LEN = 4 + dvproof.KEY_LEN + commit.RAND_LEN

DEFAULT_LAMBDA = 8 * dvproof.KEY_LEN
DEFAULT_EPSILON = 0.5
PROOF_OVERHEAD_UNITS = 16

# Verify rejection sites, in check order.
REJECT_TIMESTAMP = "timestamp"
REJECT_STATEMENT = "statement"
REJECT_STAMP = "stamp"
REJECT_COMMITMENT = "commitment"
REJECT_CLAIMED_BIT = "claimed_bit"
REJECT_MAC_TAG = "mac_tag"


@dataclass(frozen=True)
class CostModel:
    """Charged cost T of computing the circuit plus its proof, in logical
    step units, and the deadline exponent."""

    t_units: int
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        # Chained comparisons, so nan and inf fail both checks.
        if not 1 <= self.t_units < math.inf:
            raise ParameterError("t_units must be finite and >= 1")
        if not 0 < self.epsilon < math.inf:
            raise ParameterError("epsilon must be finite and > 0")

    @classmethod
    def from_circuit(cls, c: qsim.Circuit, epsilon: float = DEFAULT_EPSILON
                     ) -> "CostModel":
        return cls(t_units=qsim.circuit_depth(c) + PROOF_OVERHEAD_UNITS, epsilon=epsilon)

    def delta(self) -> int:
        """Deadline strictly above t_units^(1+epsilon), one step per unit."""
        return tlp.calibrate_mu(self.t_units, self.epsilon, 1.0)


@dataclass(frozen=True)
class Crs:
    tpk: TlpPublicParams
    pk: DvPublicKey
    puzzle: Puzzle
    commitment: Commitment

    @property
    def delta(self) -> int:
        """The deadline: proofs stamped at or after it are late."""
        return self.tpk.mu


@dataclass(frozen=True)
class TimestampedProof:
    """A backend proof and its ledger stamp; `Stamp` checks tau >= 0 and a
    32-byte tag when it is built."""

    proof: DvProof
    stamp: Stamp


def vc_setup(lam: int, c: qsim.Circuit, x, cost: CostModel
             ) -> tuple[Crs, OracleToken]:
    """Setup phase.  The chain walk inside the TLP setup is the dominant
    cost; the oracle token is emitted separately, never inside the CRS.
    Key generation runs first, so a bad statement is refused before the
    chain walk."""
    pk, sk = dvproof.keygen(lam, c, x)
    tpk, tsk = tlp.setup(lam, cost.delta())
    r = secrets.token_bytes(commit.RAND_LEN)
    d = commit.commit(sk.mac_key, r)
    puzzle = tlp.gen_puzzle(serialize_opening(Opening(sk_bytes=sk.mac_key, r=r)),
                            tpk, tsk)
    crs = Crs(tpk=tpk, pk=pk, puzzle=puzzle, commitment=d)
    return crs, dvproof.make_token(sk, pk)


def vc_prove(crs: Crs, c: qsim.Circuit, x, token: OracleToken, ledger: Ledger,
             clock: MeteredClock, cost: CostModel | None = None) -> TimestampedProof:
    """Prove phase: charge the computation cost, obtain the backend proof
    (the oracle refuses a foreign token or a false statement), and
    timestamp it."""
    if cost is None:
        cost = CostModel.from_circuit(c)
    clock.charge(cost.t_units)
    return stamp_proof(dvproof.prove_oracle(token, crs.pk, c, x), ledger, clock)


def stamp_proof(proof: DvProof, ledger: Ledger, clock: MeteredClock
                ) -> TimestampedProof:
    """Timestamp a backend proof at the clock's current time."""
    return TimestampedProof(proof=proof,
                            stamp=ledger.stamp(dvproof.serialize_proof(proof), clock))


def vc_reveal(crs: Crs, clock: MeteredClock, progress=None) -> Opening:
    """Reveal phase: solve the puzzle (charging exactly delta = mu steps)
    and parse the solution, which is the opening record.  The ciphertext
    is as long as the plaintext, so a puzzle that cannot hold an opening
    record is refused before the walk."""
    if len(crs.puzzle.ciphertext) != _OPENING_RECORD_LEN:
        raise FormatError("bad opening record length")
    return parse_opening_record(
        tlp.solve(crs.tpk, crs.puzzle, meter=clock, progress=progress))


def vc_verify_explain(crs: Crs, c: qsim.Circuit, x, pi_tau: TimestampedProof,
                      y: Opening, ledger: Ledger) -> tuple[bool, str | None]:
    """Verify phase with the rejection site reported (None on accept).

    Total: all failures are reject verdicts.  Late proofs (tau >= delta)
    are rejected; the deadline window is [0, delta).  Never simulates C.
    """
    if pi_tau.stamp.tau >= crs.tpk.mu:     # crs.delta, read without the property call
        return False, REJECT_TIMESTAMP
    try:
        if (dvproof.circuit_digest(c) != crs.pk.circuit_digest
                or dvproof.input_digest(x) != crs.pk.input_digest):
            return False, REJECT_STATEMENT
    except ParameterError:          # an input entry that is not a bit
        return False, REJECT_STATEMENT
    if not ledger.verify(dvproof.serialize_proof(pi_tau.proof), pi_tau.stamp):
        return False, REJECT_STAMP
    if not commit.verify_opening(crs.commitment, y.sk_bytes, y.r):
        return False, REJECT_COMMITMENT
    if pi_tau.proof.claimed_bit != 1:
        return False, REJECT_CLAIMED_BIT
    # An empty committed key is no MAC key: a reject, not a ParameterError.
    if not y.sk_bytes or not dvproof.verify(
            crs.pk, DvSecretKey(mac_key=y.sk_bytes), pi_tau.proof):
        return False, REJECT_MAC_TAG
    return True, None


def vc_verify(crs: Crs, c: qsim.Circuit, x, pi_tau: TimestampedProof,
              y: Opening, ledger: Ledger) -> bool:
    verdict, _ = vc_verify_explain(crs, c, x, pi_tau, y, ledger)
    return verdict


def serialize_crs(crs: Crs) -> bytes:
    """v2 layout: magic | version | seed | u64be mu | circuit digest |
    input digest | nonce | puzzle | commitment; mu is the deadline."""
    return (_MAGIC + bytes([_VERSION])
            + crs.tpk.seed + struct.pack(">Q", crs.tpk.mu)
            + crs.pk.circuit_digest + crs.pk.input_digest + crs.pk.session_nonce
            + tlp.serialize_puzzle(crs.puzzle) + crs.commitment.digest)


def parse_crs(data: bytes) -> Crs:
    if len(data) < 5 or data[:4] != _MAGIC or data[4] != _VERSION:
        raise FormatError("bad CRS header")
    body = data[5:]
    if len(body) < 40 + 80:
        raise FormatError("truncated CRS record")
    (mu,) = struct.unpack(">Q", body[32:40])
    pk = DvPublicKey(circuit_digest=body[40:72], input_digest=body[72:104],
                     session_nonce=body[104:120])
    return Crs(tpk=TlpPublicParams(seed=body[:32], mu=mu), pk=pk,
               puzzle=tlp.parse_puzzle(body[120:-32]),
               commitment=Commitment(digest=body[-32:]))


def serialize_timestamped_proof(pi_tau: TimestampedProof) -> bytes:
    return (dvproof.serialize_proof(pi_tau.proof)
            + struct.pack(">Q", pi_tau.stamp.tau) + pi_tau.stamp.auth_tag)


def parse_timestamped_proof(data: bytes) -> TimestampedProof:
    proof = dvproof.parse_proof(data[:-40])
    (tau,) = struct.unpack(">Q", data[-40:-32])
    return TimestampedProof(proof=proof, stamp=Stamp(tau=tau, auth_tag=data[-32:]))


def serialize_opening(y: Opening) -> bytes:
    return struct.pack(">I", len(y.sk_bytes)) + y.sk_bytes + y.r


def parse_opening_record(data: bytes) -> Opening:
    if len(data) < 4:
        raise FormatError("bad opening record")
    (sk_len,) = struct.unpack(">I", data[:4])
    if len(data) != 4 + sk_len + commit.RAND_LEN:
        raise FormatError("bad opening record length")
    return Opening(sk_bytes=data[4:4 + sk_len], r=data[4 + sk_len:])
