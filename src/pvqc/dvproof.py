"""Designated-verifier proof backend (idealized MAC functionality).

This stands in for a real measurement-based CVQC prover behind the same
three-operation interface (key generation, prover, output verification).
It reproduces exactly the two properties the compiler consumes: only the
holder of the prover oracle token can produce accepting proofs before the
key is revealed, and anyone holding sk can forge afterwards (which is the
threat the time delay neutralizes).

The oracle token is a harness artifact: it is written by setup and handed
only to the honest prover role.  A genuine quantum prover would not need
it; the token isolates that idealization in one place.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

from .errors import FormatError, ParameterError, ProofRefused
from . import qsim

_PROOF_DOMAIN = b"DVPROOFv1"
_INPUT_DOMAIN = b"DVINPUTv1"
_CIRCUIT_DOMAIN = b"DVCIRCUITv2"

_TOKEN_MAGIC = b"PVQO"
_PROOF_MAGIC = b"PVQP"
_VERSION = 0x01

KEY_LEN = 32    # MAC key bytes; the token record holds exactly this many
NONCE_LEN = 16  # session nonce bytes, in the public key and the token


@dataclass(frozen=True)
class DvPublicKey:
    circuit_digest: bytes
    input_digest: bytes
    session_nonce: bytes

    def __post_init__(self):
        if len(self.circuit_digest) != 32 or len(self.input_digest) != 32:
            raise ParameterError("digests must be 32 bytes")
        if len(self.session_nonce) != NONCE_LEN:
            raise ParameterError(f"session nonce must be {NONCE_LEN} bytes")


@dataclass(frozen=True)
class DvSecretKey:
    mac_key: bytes

    def __post_init__(self):
        if not self.mac_key:
            raise ParameterError("empty mac key")


@dataclass(frozen=True)
class DvProof:
    claimed_bit: int
    tag: bytes

    def __post_init__(self):
        if self.claimed_bit not in (0, 1):
            raise ParameterError("claimed bit must be 0 or 1")
        if len(self.tag) != 32:
            raise ParameterError("tag must be 32 bytes")


@dataclass(frozen=True)
class OracleToken:
    """Capability held by the honest prover role; see module docstring."""

    mac_key: bytes
    session_nonce: bytes

    def __post_init__(self):
        if len(self.mac_key) != KEY_LEN:
            raise ParameterError(f"oracle token requires a {KEY_LEN}-byte key")
        if len(self.session_nonce) != NONCE_LEN:
            raise ParameterError(f"session nonce must be {NONCE_LEN} bytes")


def circuit_digest(c: qsim.Circuit) -> bytes:
    """SHA-256 of the statement's binary encoding under a domain tag.

    The earlier digest hashed the circuit's text, which starts with
    `qubits` and carries no tag, so it never equals this one: a CRS made
    before the binary encoding rejects at the statement check.
    """
    return hashlib.sha256(_CIRCUIT_DOMAIN + qsim.circuit_to_bytes(c)).digest()


def input_digest(x) -> bytes:
    """SHA-256 of the input bits; ParameterError unless each entry is 0 or 1."""
    return hashlib.sha256(_INPUT_DOMAIN + bytes(map(int, qsim.input_bits(x)))).digest()


def keygen(lam: int, c: qsim.Circuit, x) -> tuple[DvPublicKey, DvSecretKey]:
    """Fresh per-session key pair bound to the statement (C, x).

    Does not evaluate C.  `lam` must be 8 * KEY_LEN, the key length the
    token record holds.
    """
    if lam != 8 * KEY_LEN:
        raise ParameterError(f"lambda must be {8 * KEY_LEN}")
    if len(list(x)) != c.n_inputs:
        raise ParameterError("input width mismatch")
    pk = DvPublicKey(circuit_digest=circuit_digest(c), input_digest=input_digest(x),
                     session_nonce=secrets.token_bytes(NONCE_LEN))
    sk = DvSecretKey(mac_key=secrets.token_bytes(KEY_LEN))
    return pk, sk


def make_token(sk: DvSecretKey, pk: DvPublicKey) -> OracleToken:
    return OracleToken(mac_key=sk.mac_key, session_nonce=pk.session_nonce)


def tag_proof(mac_key: bytes, pk: DvPublicKey, claimed_bit: int) -> bytes:
    msg = (_PROOF_DOMAIN + pk.circuit_digest + pk.input_digest
           + pk.session_nonce + bytes([claimed_bit]))
    return hmac.new(mac_key, msg, hashlib.sha256).digest()


def prove_oracle(token: OracleToken, pk: DvPublicKey, c: qsim.Circuit, x) -> DvProof:
    """Honest prover: evaluates the acceptance predicate exactly and issues
    a tagged proof only when C accepts; refuses otherwise."""
    if token.session_nonce != pk.session_nonce:
        raise ParameterError("oracle token does not match this session")
    if circuit_digest(c) != pk.circuit_digest or input_digest(x) != pk.input_digest:
        raise ParameterError("statement does not match the session key")
    if qsim.accept_prob(c, x) < qsim.ACCEPT_THRESHOLD:
        raise ProofRefused("circuit does not accept: honest prover refuses")
    return DvProof(claimed_bit=1, tag=tag_proof(token.mac_key, pk, 1))


def forge_proof(sk: DvSecretKey, pk: DvPublicKey, claimed_bit: int = 1) -> DvProof:
    """Valid-looking proof for any claimed bit, given sk.  Used by the
    harness to assert the post-reveal forgeability the scheme must gate."""
    return DvProof(claimed_bit=claimed_bit, tag=tag_proof(sk.mac_key, pk, claimed_bit))


def verify(pk: DvPublicKey, sk: DvSecretKey, pi: DvProof) -> bool:
    """Accept iff the claimed bit is 1 and the tag recomputes under sk.
    Never invokes the circuit simulator."""
    if pi.claimed_bit != 1:
        return False
    return hmac.compare_digest(tag_proof(sk.mac_key, pk, pi.claimed_bit), pi.tag)


def serialize_token(token: OracleToken) -> bytes:
    return _TOKEN_MAGIC + bytes([_VERSION]) + token.mac_key + token.session_nonce


def parse_token(data: bytes) -> OracleToken:
    if len(data) != 5 + KEY_LEN + NONCE_LEN or data[:4] != _TOKEN_MAGIC or data[4] != _VERSION:
        raise FormatError("bad oracle token record")
    return OracleToken(mac_key=data[5:5 + KEY_LEN], session_nonce=data[5 + KEY_LEN:])


def serialize_proof(pi: DvProof) -> bytes:
    return _PROOF_MAGIC + bytes([_VERSION, pi.claimed_bit]) + pi.tag


def parse_proof(data: bytes) -> DvProof:
    if len(data) != 38 or data[:4] != _PROOF_MAGIC or data[4] != _VERSION:
        raise FormatError("bad proof record")
    if data[5] not in (0, 1):
        raise FormatError("bad claimed bit")
    return DvProof(claimed_bit=data[5], tag=data[6:])
