"""The record contract, over every record class: positional and keyword
construction agree, fields are read-only, equality is by exact type and
field values with a matching hash, the repr names every field, pickle and
copy give the same record, and each constructor check raises its
ParameterError, also when a copy rebuilds the record."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from pvqc import commit, compiler, dvproof, harness, qsim, timestamp, tlp
from pvqc.errors import ParameterError
from pvqc.qsim import hhl
from pvqc.record import Record, setfield

K = b"k" * 32
N = b"n" * 16
_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_TPK = tlp.TlpPublicParams(K, 5)
_PK = dvproof.DvPublicKey(K, K, N)
_PUZZLE = tlp.Puzzle(N, b"c", K)
_PROOF = dvproof.DvProof(1, K)
_STAMP = timestamp.Stamp(3, K)
_GATE = qsim.Gate("RX", (0,), (0.5,))

# class -> (sample positional arguments, (index, another valid value) that
# makes an unequal record, [(index, bad value, message)] one per check).
CONTRACT = {
    commit.Commitment: ((K,), (0, b"d" * 32), [(0, b"short", "digest must be 32 bytes")]),
    commit.Opening: ((K, K), (0, b"m"), [(1, b"r", "opening randomness must be 32 bytes")]),
    dvproof.DvPublicKey: ((K, K, N), (2, b"m" * 16), [
        (0, b"d", "digests must be 32 bytes"),
        (1, b"d", "digests must be 32 bytes"),
        (2, b"n", "session nonce must be 16 bytes")]),
    dvproof.DvSecretKey: ((K,), (0, b"j"), [(0, b"", "empty mac key")]),
    dvproof.DvProof: ((1, K), (0, 0), [
        (0, 2, "claimed bit must be 0 or 1"),
        (1, b"t", "tag must be 32 bytes")]),
    dvproof.OracleToken: ((K, N), (0, b"j" * 32), [
        (0, b"k", "oracle token requires a 32-byte key"),
        (1, b"n", "session nonce must be 16 bytes")]),
    qsim.Gate: (("RX", (0,), (0.5,), None), (2, (0.25,)), [
        (1, (0, 0), "duplicate gate targets"),
        (0, "FOO", "unknown gate kind 'FOO'"),
        (1, (0, 1), "RX takes 1 targets"),
        (2, (), "wrong parameter count for RX")]),
    qsim.Circuit: ((2, (_GATE,), 1, 1), (3, 2), [
        (0, 0, "n_qubits must be in [1, 20]"),
        (2, 2, "output_qubit out of range"),
        (3, 3, "n_inputs out of range"),
        (1, (qsim.Gate("H", (2,)),), "gate target out of range")]),
    compiler.CostModel: ((18, 0.5), (0, 19), [
        (0, 18.0, "t_units must be an int >= 1"),
        (0, 0, "t_units must be an int >= 1"),
        (1, math.inf, "epsilon must be finite and > 0")]),
    compiler.Crs: ((_TPK, _PK, _PUZZLE, commit.Commitment(K)),
                   (3, commit.Commitment(b"d" * 32)), []),
    compiler.TimestampedProof: ((_PROOF, _STAMP), (1, timestamp.Stamp(4, K)), []),
    tlp.TlpPublicParams: ((K, 5), (1, 6), [
        (0, b"s", "seed must be 32 bytes"),
        (1, 0, "mu must be >= 1"),
        (1, 2**64, "mu must be < 2**64")]),
    tlp.TlpSecretParams: ((K,), (0, b"j" * 32), [(0, b"k", "key must be 32 bytes")]),
    tlp.Puzzle: ((N, b"c", K), (1, b"d"), [
        (0, b"n", "nonce must be 16 bytes"),
        (2, b"t", "tag must be 32 bytes")]),
    timestamp.Stamp: ((3, K), (0, 4), [
        (0, -1, "tau must be non-negative"),
        (1, b"t", "auth tag must be 32 bytes")]),
    harness.AdversarySpec: ((harness.HONEST,), (0, harness.A1_GUESS_KEY), [
        (0, "A9", "unknown strategy 'A9'")]),
    harness.ExperimentReport: ((1, 0, 1, 1, 7, 9), (4, None), []),
    harness.AggregateReport: ((harness.HONEST, 2, 0, 1, 3.0, 4.0, {"mac_tag": 1}),
                              (6, {}), []),
    hhl.HhlInstance: ((np.eye(2, dtype=complex), np.array([1, 0], dtype=complex), 3), None, [
        (0, np.eye(3), "A must be square with power-of-two size >= 2"),
        (1, np.ones(4) / 2, "b length must match A"),
        (0, np.full((2, 2), np.nan), "A and b must be finite"),
        (0, np.array([[0, 1], [0, 0]]), "A is not Hermitian"),
        (1, np.array([1.0, 1.0]), "b is not normalized"),
        (2, 0, "need at least one clock qubit"),
        (2, 19, "the HHL register must fit in 20 qubits")]),
}

# Its array fields make equality of two distinct instances ambiguous, as
# numpy's own `==` is, and the record unhashable; it has no alternative.
HOLDS_ARRAYS = hhl.HhlInstance


def _replaced(args, index, value):
    return (*args[:index], value, *args[index + 1:])


def _records():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return found


def test_contract_covers_every_record_class():
    assert _records() == set(CONTRACT)


@pytest.mark.parametrize("cls", CONTRACT, ids=lambda c: c.__name__)
def test_record_contract(cls):
    args, alt, bad = CONTRACT[cls]
    names = cls.__slots__
    assert len(names) == len(args)
    record = cls(*args)

    # Positional and keyword construction agree, the fields read back, and
    # the repr shows every field.
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{f}={getattr(record, f)!r}" for f in cls.__slots__) + ")"
    assert repr(cls(**dict(zip(names, args)))) == repr(record)
    for name, value in zip(names, args):
        assert getattr(record, name) is value
    assert record == record
    assert record != tuple(getattr(record, f) for f in cls.__slots__)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(twin) is cls and repr(twin) == repr(record)

    # Equal means the same type and field values, and equal records hash
    # alike; a report whose dict field has no hash has none either.
    if cls is not HOLDS_ARRAYS:
        assert record == cls(*args) and not record != cls(*args)
        assert cls(**dict(zip(names, args))) == record
        assert record != cls(*_replaced(args, *alt))
        if cls is harness.AggregateReport:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(cls(*args))

    # Fields are read-only.
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1

    # Each check raises its own ParameterError, and so does a copy of a
    # record whose field was set past the constructor.
    for index, value, message in bad:
        with pytest.raises(ParameterError, match="^" + re.escape(message)):
            cls(*_replaced(args, index, value))
        broken = cls(*args)
        setfield(broken, names[index], value)
        for duplicate in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            with pytest.raises(ParameterError, match="^" + re.escape(message)):
                duplicate(broken)


def test_equality_needs_the_exact_type():
    # Three single-field records with the same 32-byte value.
    assert commit.Commitment(K) != dvproof.DvSecretKey(K)
    assert dvproof.DvSecretKey(K) != tlp.TlpSecretParams(K)
    assert tlp.TlpSecretParams(K) != commit.Commitment(K)


def test_gate_equality_ignores_its_matrix():
    a = qsim.Gate("DENSE_UNITARY", (0,), matrix=_H)
    b = qsim.Gate("DENSE_UNITARY", (0,), matrix=np.eye(2))
    assert a == b and hash(a) == hash(b)
    assert a.matrix.dtype == complex
    bad = [((0,), None, (), "DENSE_UNITARY requires a matrix"),
           ((0,), np.eye(4), (), "matrix shape does not match target count"),
           ((0,), _H, (0.5,), "wrong parameter count for DENSE_UNITARY")]
    for targets, matrix, params, message in bad:
        with pytest.raises(ParameterError, match="^" + re.escape(message)):
            qsim.Gate("DENSE_UNITARY", targets, params, matrix)


def test_normalised_fields():
    g = qsim.Gate("CPHASE", [1, 0], [0.5])
    assert (g.targets, g.params) == ((1, 0), (0.5,))
    c = qsim.Circuit(2, [g], 0)
    assert (c.gates, c.n_inputs) == ((g,), 2)
    assert c == qsim.Circuit(2, (g,), 0, 2)
