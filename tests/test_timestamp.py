"""Timestamp ledger unit tests: frozen tag, stamping semantics, tamper
and forgery rejection, and file persistence."""

import errno
import hashlib
import random

import pytest

from pvqc import timestamp
from pvqc.errors import FormatError, ParameterError
from pvqc.meter import MeteredClock

# Computed with an independent HMAC-SHA-256 oracle before the build.
STAMP_TAG_FROZEN = bytes.fromhex(
    "d9ad21a1318215c614223a4453dd9af7cbd619af7c842d742ec9027f0ea370c3")


def test_frozen_stamp_tag():
    ledger = timestamp.Ledger(b"\x11" * 32)
    stamp = ledger.stamp(b"blob", MeteredClock(start=7))
    assert stamp.tau == 7
    assert stamp.auth_tag == STAMP_TAG_FROZEN


def test_stamp_then_verify():
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    clock = MeteredClock()
    clock.charge(42)
    stamp = ledger.stamp(b"proof bytes", clock)
    assert stamp.tau == 42
    assert ledger.verify(b"proof bytes", stamp)


def test_tampered_blob_rejected():
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    stamp = ledger.stamp(b"proof bytes", MeteredClock())
    rng = random.Random(3)
    for _ in range(200):
        blob = bytearray(b"proof bytes")
        blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        if bytes(blob) != b"proof bytes":
            assert not ledger.verify(bytes(blob), stamp)


def test_tampered_tau_and_tag_rejected():
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    stamp = ledger.stamp(b"blob", MeteredClock(start=5))
    assert not ledger.verify(b"blob", timestamp.Stamp(tau=6, auth_tag=stamp.auth_tag))
    bad_tag = bytes(32)
    assert not ledger.verify(b"blob", timestamp.Stamp(tau=5, auth_tag=bad_tag))


def test_forgery_attempts_all_rejected():
    """10**4 random tags for an unsubmitted (blob, tau) pair: zero accepts."""
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    rng = random.Random(99)
    accepted = sum(
        ledger.verify(b"never submitted",
                      timestamp.Stamp(tau=rng.randrange(2**32),
                                      auth_tag=rng.randbytes(32)))
        for _ in range(10**4))
    assert accepted == 0


def test_tag_minted_with_the_ledger_key_rejected():
    """A stamp counts only if the ledger holds its record: a tag minted
    with the ledger's own key for a (blob, tau) never appended fails."""
    key = timestamp.new_mac_key()
    ledger = timestamp.Ledger(key)
    ledger.stamp(b"proof", MeteredClock(start=5))
    for blob in (b"proof", b"forged"):
        tag = timestamp._tag(key, hashlib.sha256(blob).digest(), 0)
        assert not ledger.verify(blob, timestamp.Stamp(tau=0, auth_tag=tag))


def test_tau_strictly_increasing_with_stalled_clock():
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    clock = MeteredClock(start=3)
    taus = [ledger.stamp(b"x", clock).tau for _ in range(4)]
    assert taus == [3, 4, 5, 6]
    # A later clock value is used as-is.
    clock.charge(100)
    assert ledger.stamp(b"x", clock).tau == 103


def test_records_are_append_only_view():
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    ledger.stamp(b"a", MeteredClock())
    assert isinstance(ledger.records, tuple)
    assert len(ledger.records) == 1


def test_save_load_roundtrip(tmp_path):
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    clock = MeteredClock()
    stamps = []
    for blob in (b"one", b"two", b"three"):
        clock.charge(10)
        stamps.append((blob, ledger.stamp(blob, clock)))
    path = tmp_path / "ledger.bin"
    ledger.save(path)
    loaded = timestamp.Ledger.load(path)
    assert loaded.records == ledger.records
    for blob, stamp in stamps:
        assert loaded.verify(blob, stamp)


def test_load_rejects_corrupt_files(tmp_path):
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    ledger.stamp(b"a", MeteredClock())
    path = tmp_path / "ledger.bin"
    ledger.save(path)
    data = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(FormatError):
        timestamp.Ledger.load(bad)
    bad.write_bytes(data[:-1])
    with pytest.raises(FormatError):
        timestamp.Ledger.load(bad)
    with pytest.raises(FileNotFoundError):
        timestamp.Ledger.load(tmp_path / "missing.bin")


def test_load_rejects_non_increasing_tau(tmp_path):
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    clock = MeteredClock()
    ledger.stamp(b"a", clock)
    ledger.stamp(b"b", clock)
    path = tmp_path / "ledger.bin"
    ledger.save(path)
    data = bytearray(path.read_bytes())
    # Duplicate the first record over the second (tau repeats).
    data[5 + 72:5 + 144] = data[5:5 + 72]
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        timestamp.Ledger.load(path)


class _HalfWriter:
    """A file that writes half of what it is given, then fails as a full
    disk does."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "no space left on device")


def test_failed_save_keeps_previous_ledger(tmp_path, monkeypatch):
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    clock = MeteredClock()
    ledger.stamp(b"a", clock)
    path = tmp_path / "ledger.bin"
    ledger.save(path)
    before = path.read_bytes()
    ledger.stamp(b"b", clock)

    def half_writing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _HalfWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(timestamp, "open", half_writing_open, raising=False)
    with pytest.raises(OSError):
        ledger.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert timestamp.Ledger.load(path).records == ledger.records[:1]
    assert [p.name for p in tmp_path.iterdir()] == ["ledger.bin"]


def test_key_validation():
    with pytest.raises(ParameterError):
        timestamp.Ledger(b"short")
    with pytest.raises(ParameterError):
        timestamp.Stamp(tau=-1, auth_tag=bytes(32))
