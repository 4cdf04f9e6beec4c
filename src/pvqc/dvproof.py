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

from .errors import FormatError, ParameterError, ProofRefused
from .record import Record, setfield
from . import qsim

_PROOF_DOMAIN = b"DVPROOFv1"
_INPUT_DOMAIN = b"DVINPUTv1"
_CIRCUIT_DOMAIN = b"DVCIRCUITv2"

_TOKEN_MAGIC = b"PVQO"
_PROOF_MAGIC = b"PVQP"
_VERSION = 0x01

KEY_LEN = 32    # MAC key bytes; the token record holds exactly this many
NONCE_LEN = 16  # session nonce bytes, in the public key and the token


class DvPublicKey(Record):
    __slots__ = ("circuit_digest", "input_digest", "session_nonce")

    def __init__(self, circuit_digest: bytes, input_digest: bytes, session_nonce: bytes):
        if len(circuit_digest) != 32 or len(input_digest) != 32:
            raise ParameterError("digests must be 32 bytes")
        if len(session_nonce) != NONCE_LEN:
            raise ParameterError(f"session nonce must be {NONCE_LEN} bytes")
        setfield(self, "circuit_digest", circuit_digest)
        setfield(self, "input_digest", input_digest)
        setfield(self, "session_nonce", session_nonce)


class DvSecretKey(Record):
    __slots__ = ("mac_key",)

    def __init__(self, mac_key: bytes):
        if not mac_key:
            raise ParameterError("empty mac key")
        setfield(self, "mac_key", mac_key)


class DvProof(Record):
    __slots__ = ("claimed_bit", "tag")

    def __init__(self, claimed_bit: int, tag: bytes):
        if claimed_bit not in (0, 1):
            raise ParameterError("claimed bit must be 0 or 1")
        if len(tag) != 32:
            raise ParameterError("tag must be 32 bytes")
        setfield(self, "claimed_bit", claimed_bit)
        setfield(self, "tag", tag)


class OracleToken(Record):
    """Capability held by the honest prover role; see module docstring."""

    __slots__ = ("mac_key", "session_nonce")

    def __init__(self, mac_key: bytes, session_nonce: bytes):
        if len(mac_key) != KEY_LEN:
            raise ParameterError(f"oracle token requires a {KEY_LEN}-byte key")
        if len(session_nonce) != NONCE_LEN:
            raise ParameterError(f"session nonce must be {NONCE_LEN} bytes")
        setfield(self, "mac_key", mac_key)
        setfield(self, "session_nonce", session_nonce)


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


def binds(pk: DvPublicKey, c: qsim.Circuit, x) -> bool:
    """Whether pk is the key of statement (C, x): both digests match.
    False for an input entry that is not a bit."""
    try:
        return circuit_digest(c) == pk.circuit_digest and input_digest(x) == pk.input_digest
    except ParameterError:
        return False


def keygen(lam: int, c: qsim.Circuit, x) -> tuple[DvPublicKey, DvSecretKey]:
    """Fresh per-session key pair bound to the statement (C, x).

    Does not evaluate C.  `lam` must be 8 * KEY_LEN, the key length the
    token record holds.
    """
    if lam != 8 * KEY_LEN:
        raise ParameterError(f"lambda must be {8 * KEY_LEN}")
    x = qsim.input_bits(x, c.n_inputs)
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
    if not binds(pk, c, x):
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
