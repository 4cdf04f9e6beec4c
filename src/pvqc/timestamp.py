"""Trusted timestamping service as an append-only, file-backed ledger.

Timestamps are logical: tau is the global sequential-step count at
submission, so deadline comparisons are deterministic.  A stamp counts
only if the ledger holds its record (think of a public blockchain), so
verification needs no secret.  A record's tag is an HMAC under the key
of the ledger that appended it.  The ledger never escrows secrets.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import os
import secrets
import struct
import threading
from typing import TYPE_CHECKING

from .errors import FormatError, ParameterError
from .record import Record, setfield

if TYPE_CHECKING:       # an annotation only, so `pvqc verify` never loads the meter
    from .meter import MeteredClock

_DOMAIN = b"STAMPv1"
_MAGIC = b"PVQL"
_VERSION = 0x01
STAMP = struct.Struct(">Q32s")          # u64be tau | tag
_RECORD = struct.Struct(">32s" + STAMP.format[1:])     # digest | stamp


class Stamp(Record):
    __slots__ = ("tau", "auth_tag")

    def __init__(self, tau: int, auth_tag: bytes):
        if tau < 0:
            raise ParameterError("tau must be non-negative")
        if len(auth_tag) != 32:
            raise ParameterError("auth tag must be 32 bytes")
        setfield(self, "tau", tau)
        setfield(self, "auth_tag", auth_tag)


def new_mac_key() -> bytes:
    return secrets.token_bytes(32)


def _tag(mac_key: bytes, blob_digest: bytes, tau: int) -> bytes:
    return hmac.new(mac_key, _DOMAIN + blob_digest + struct.pack(">Q", tau),
                    hashlib.sha256).digest()


def write_atomic(path, data: bytes) -> None:
    """Replace the file at `path` with `data` by way of a temp file in the
    same directory and `os.replace`: readers, and a write that fails
    midway, leave the old file or the new one, never a part of either.
    Atomic, not durable: nothing is fsync'd.
    """
    tmp = f"{os.fspath(path)}.{secrets.token_hex(4)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class Ledger:
    """Append-only record list (blob digest, tau, tag); a stamp verifies
    iff its record is listed, and the MAC key only tags new records.

    Single writer; saves are atomic, so concurrent readers of a saved file
    are safe.
    """

    def __init__(self, mac_key: bytes):
        if len(mac_key) != 32:
            raise ParameterError("mac key must be 32 bytes")
        self._mac_key = mac_key
        self._records: list[tuple[bytes, int, bytes]] = []
        self._lock = threading.Lock()

    @property
    def records(self) -> tuple[tuple[bytes, int, bytes], ...]:
        return tuple(self._records)

    def stamp(self, blob: bytes, clock: MeteredClock) -> Stamp:
        """Append a record at the clock's current logical time.

        tau is bumped past the previous record when the clock has not
        advanced, keeping the sequence strictly increasing.
        """
        digest = hashlib.sha256(blob).digest()
        with self._lock:
            tau = clock.now
            if self._records and tau <= self._records[-1][1]:
                tau = self._records[-1][1] + 1
            tag = _tag(self._mac_key, digest, tau)
            self._records.append((digest, tau, tag))
        return Stamp(tau=tau, auth_tag=tag)

    def verify(self, blob: bytes, stamp: Stamp) -> bool:
        # A plain scan: a session's ledger holds a few records.
        record = (hashlib.sha256(blob).digest(), stamp.tau, stamp.auth_tag)
        return record in self._records

    def save(self, path) -> None:
        data = _MAGIC + bytes([_VERSION]) + b"".join(
            _RECORD.pack(*record) for record in self._records)
        write_atomic(path, data)

    @classmethod
    def load(cls, path) -> "Ledger":
        """The ledger saved at `path`, under a fresh key."""
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 5 or data[:4] != _MAGIC or data[4] != _VERSION:
            raise FormatError("bad ledger header")
        body = data[5:]
        if len(body) % _RECORD.size:
            raise FormatError("truncated ledger record")
        ledger = cls(new_mac_key())
        last_tau = -1
        for digest, tau, tag in _RECORD.iter_unpack(body):
            if tau <= last_tau:
                raise FormatError("ledger tau sequence not strictly increasing")
            last_tau = tau
            ledger._records.append((digest, tau, tag))
        return ledger
