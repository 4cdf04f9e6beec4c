"""Sequential hash-chain time-lock puzzle.

The sequential function is iterated, domain-separated SHA-256: step i maps
chain value s to SHA-256("TLPCHAINv1" || u64be(i) || s).  Binding the step
index into each hash prevents short cycles and cross-instance reuse.

Setup walks the chain once (its one-time sequential cost), derives a batch
key from the endpoint, and every puzzle of the instance is sealed under a
fresh nonce-bound subkey.  Generating a puzzle therefore costs zero chain
steps; solving one costs exactly mu of them.  Caveat: solving any puzzle
of a batch reveals the batch key, so the compiler uses one TLP instance
per CRS.

A metered solve charges its clock once per chunk of PROGRESS_INTERVAL
steps, before the chunk is walked: the clock is never behind the walk, it
has moved by exactly mu when the solve ends, and the inner loop is the
unmetered one that `bench.measure_hash_rate` times.

The step count mu is the deadline: the compiler's delta is mu, stored
once in `TlpPublicParams`, and `calibrate_mu` is the one formula that
turns a cost into it.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import secrets
import struct

from .errors import FormatError, ParameterError
from .record import Record, setfield

_CHAIN_DOMAIN = b"TLPCHAINv1"
_KEY_DOMAIN = b"TLPKEYv1"
_SUB_DOMAIN = b"TLPSUBv1"
_KS_DOMAIN = b"TLPKSv1"

_MAGIC = b"PVQ1"
_VERSION = 0x01
_RECORD_PUZZLE = 0x02
# Record: magic | version | record type | nonce | u32be len, then ciphertext | tag.
_PUZZLE_HEAD = struct.Struct(">4sBB16sI")
_TAG_LEN = 32

MAX_MESSAGE_LEN = 2**32 - 1
MAX_MU = 2**64 - 1      # the CRS record stores mu as a u64
PROGRESS_INTERVAL = 2**16

# Instrumentation: total chain-step invocations in this process.
_chain_calls = 0


def chain_calls() -> int:
    return _chain_calls


class TlpPublicParams(Record):
    __slots__ = ("seed",     # chain start s0, 32 bytes
                 "mu")       # sequential steps to the key: the deadline delta

    def __init__(self, seed: bytes, mu: int):
        if len(seed) != 32:
            raise ParameterError("seed must be 32 bytes")
        if mu < 1:
            raise ParameterError("mu must be >= 1")
        if mu > MAX_MU:
            raise ParameterError("mu must be < 2**64: a CRS record stores it as a u64")
        setfield(self, "seed", seed)
        setfield(self, "mu", mu)


class TlpSecretParams(Record):
    __slots__ = ("key",)     # batch key derived from the chain endpoint

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ParameterError("key must be 32 bytes")
        setfield(self, "key", key)


class Puzzle(Record):
    __slots__ = ("nonce",    # 16 bytes, fresh per puzzle
                 "ciphertext",
                 "tag")      # 32-byte HMAC over nonce || ciphertext

    def __init__(self, nonce: bytes, ciphertext: bytes, tag: bytes):
        if len(nonce) != 16:
            raise ParameterError("nonce must be 16 bytes")
        if len(tag) != _TAG_LEN:
            raise ParameterError("tag must be 32 bytes")
        setfield(self, "nonce", nonce)
        setfield(self, "ciphertext", ciphertext)
        setfield(self, "tag", tag)


def chain_step(s: bytes, i: int) -> bytes:
    """One application of the sequential function. Bit-exact everywhere."""
    global _chain_calls
    _chain_calls += 1
    return hashlib.sha256(_CHAIN_DOMAIN + struct.pack(">Q", i) + s).digest()


def _walk_chain(seed: bytes, mu: int, meter=None, progress=None) -> bytes:
    """The chain's endpoint after mu steps from seed, walked in chunks of
    PROGRESS_INTERVAL steps.  Each chunk is charged to `meter` before it
    is walked, so the clock is never behind the work done, and `progress`
    gets the step count at the end of each full chunk."""
    s = seed
    interval = PROGRESS_INTERVAL
    for start in range(0, mu, interval):
        stop = min(start + interval, mu)
        if meter is not None:
            meter.charge(stop - start)
        for i in range(start, stop):
            s = chain_step(s, i)
        if progress is not None and stop % interval == 0:
            progress(stop)
    return s


def _derive_key(endpoint: bytes) -> bytes:
    return hashlib.sha256(_KEY_DOMAIN + endpoint).digest()


def _subkey(key: bytes, nonce: bytes) -> bytes:
    return hashlib.sha256(_SUB_DOMAIN + key + nonce).digest()


def _crypt(subkey: bytes, data: bytes) -> bytes:
    """data XOR the subkey's keystream: encrypts and decrypts alike."""
    stream = b"".join(hashlib.sha256(_KS_DOMAIN + subkey + struct.pack(">Q", block)).digest()
                      for block in range((len(data) + 31) // 32))
    return bytes(a ^ b for a, b in zip(data, stream))


def _tag(subkey: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    return hmac.new(subkey, nonce + ciphertext, hashlib.sha256).digest()


def setup(lam: int, delta_steps: int, *, seed: bytes | None = None
          ) -> tuple[TlpPublicParams, TlpSecretParams]:
    """Sample a chain seed and pay the one-time sequential setup cost.

    The puzzle's step count mu is `delta_steps`.  `seed` is a test
    override; production callers let it default to fresh randomness.
    """
    if lam < 1:
        raise ParameterError("lambda must be >= 1")
    if seed is None:
        seed = secrets.token_bytes(32)
    tpk = TlpPublicParams(seed=seed, mu=delta_steps)
    endpoint = _walk_chain(seed, tpk.mu)
    tsk = TlpSecretParams(key=_derive_key(endpoint))
    return tpk, tsk


def gen_puzzle(m: bytes, tpk: TlpPublicParams, tsk: TlpSecretParams) -> Puzzle:
    """Seal m under a fresh nonce-bound subkey. Costs zero chain steps."""
    if len(m) > MAX_MESSAGE_LEN:
        raise ParameterError("message too long")
    nonce = secrets.token_bytes(16)
    sub = _subkey(tsk.key, nonce)
    ciphertext = _crypt(sub, m)
    return Puzzle(nonce=nonce, ciphertext=ciphertext, tag=_tag(sub, nonce, ciphertext))


def solve(tpk: TlpPublicParams, o: Puzzle, meter=None, progress=None) -> bytes:
    """Recompute the chain (exactly mu sequential steps), check, decrypt."""
    endpoint = _walk_chain(tpk.seed, tpk.mu, meter=meter, progress=progress)
    sub = _subkey(_derive_key(endpoint), o.nonce)
    if not hmac.compare_digest(_tag(sub, o.nonce, o.ciphertext), o.tag):
        raise FormatError("corrupt puzzle or wrong parameters")
    return _crypt(sub, o.ciphertext)


def calibrate_mu(t_seconds: float, epsilon: float, hash_rate: float) -> int:
    """Steps needed so expected solve wall-clock exceeds t_seconds^(1+eps)."""
    if not all(0 < v < math.inf for v in (t_seconds, epsilon, hash_rate)):
        raise ParameterError("t_seconds, epsilon and hash_rate must be finite and > 0")
    try:
        return math.ceil(hash_rate * t_seconds ** (1.0 + epsilon)) + 1
    except OverflowError as exc:
        raise ParameterError("deadline too large: t_seconds^(1+epsilon) overflows") from exc


def serialize_puzzle(o: Puzzle) -> bytes:
    return (_PUZZLE_HEAD.pack(_MAGIC, _VERSION, _RECORD_PUZZLE, o.nonce, len(o.ciphertext))
            + o.ciphertext + o.tag)


def parse_puzzle(data: bytes) -> Puzzle:
    if len(data) < _PUZZLE_HEAD.size or not data.startswith(_MAGIC):
        raise FormatError("bad puzzle magic")
    _, version, record, nonce, clen = _PUZZLE_HEAD.unpack_from(data)
    if version != _VERSION or record != _RECORD_PUZZLE:
        raise FormatError("unsupported puzzle version or record type")
    end = _PUZZLE_HEAD.size + clen
    if len(data) != end + _TAG_LEN:
        raise FormatError("bad puzzle record length")
    return Puzzle(nonce=nonce, ciphertext=data[_PUZZLE_HEAD.size:end], tag=data[end:])
