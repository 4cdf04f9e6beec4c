"""Hash commitment pinning the verification key inside the puzzle.

digest = SHA-256("COMMITv1" || u32be(|m|) || m || r) with |r| = 32 bytes.
The length prefix removes any (m, r) boundary ambiguity.  Binding rests on
SHA-256 collision resistance; hiding is a random-oracle-model assumption.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

from .errors import ParameterError
from .record import Record, setfield

_DOMAIN = b"COMMITv1"

RAND_LEN = 32
DIGEST_LEN = 32


class Commitment(Record):
    __slots__ = ("digest",)

    def __init__(self, digest: bytes):
        if len(digest) != DIGEST_LEN:
            raise ParameterError("digest must be 32 bytes")
        setfield(self, "digest", digest)


class Opening(Record):
    """Committed message (the verification key) plus its randomness."""

    __slots__ = ("sk_bytes", "r")

    def __init__(self, sk_bytes: bytes, r: bytes):
        if len(r) != RAND_LEN:
            raise ParameterError("opening randomness must be 32 bytes")
        setfield(self, "sk_bytes", sk_bytes)
        setfield(self, "r", r)


def commit(m: bytes, r: bytes) -> Commitment:
    if len(r) != RAND_LEN:
        raise ParameterError("commitment randomness must be 32 bytes")
    digest = hashlib.sha256(_DOMAIN + struct.pack(">I", len(m)) + m + r).digest()
    return Commitment(digest=digest)


def verify_opening(d: Commitment, m: bytes, r: bytes) -> bool:
    """Accept iff (m, r) recommits to d. Reject is a value, not an error."""
    if len(r) != RAND_LEN:
        return False
    return hmac.compare_digest(commit(m, r).digest, d.digest)
