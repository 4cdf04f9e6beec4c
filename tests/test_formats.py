"""Byte-exact file format checks built from the documented layouts with
plain struct/hashlib code, independent of the library's serializers, and
parser totality under mutated input."""

import hashlib
import hmac
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvqc import compiler, dvproof, qsim, timestamp, tlp
from pvqc.commit import Opening
from pvqc.errors import FormatError, ParameterError
from pvqc.meter import MeteredClock


def test_puzzle_record_layout():
    puzzle = tlp.Puzzle(nonce=bytes(range(16)), ciphertext=b"cipher",
                        tag=bytes(range(32)))
    expected = (b"PVQ1" + bytes([0x01, 0x02]) + bytes(range(16))
                + struct.pack(">I", 6) + b"cipher" + bytes(range(32)))
    assert tlp.serialize_puzzle(puzzle) == expected


def test_ledger_file_layout(tmp_path):
    key = b"\x11" * 32
    ledger = timestamp.Ledger(key)
    stamp = ledger.stamp(b"blob", MeteredClock(start=7))
    path = tmp_path / "ledger.bin"
    ledger.save(path)
    digest = hashlib.sha256(b"blob").digest()
    tag = hmac.new(key, b"STAMPv1" + digest + struct.pack(">Q", 7),
                   hashlib.sha256).digest()
    assert stamp.auth_tag == tag
    assert path.read_bytes() == b"PVQL" + bytes([0x01]) + digest \
        + struct.pack(">Q", 7) + tag


def test_token_record_layout():
    token = dvproof.OracleToken(mac_key=b"\x22" * 32, session_nonce=b"\x33" * 16)
    assert dvproof.serialize_token(token) == \
        b"PVQO" + bytes([0x01]) + b"\x22" * 32 + b"\x33" * 16


def test_proof_record_layout():
    pi = dvproof.DvProof(claimed_bit=1, tag=b"\x44" * 32)
    assert dvproof.serialize_proof(pi) == b"PVQP" + bytes([0x01, 0x01]) + b"\x44" * 32


def test_timestamped_proof_record_layout():
    pi = dvproof.DvProof(claimed_bit=1, tag=b"\x44" * 32)
    pi_tau = compiler.TimestampedProof(
        proof=pi, stamp=timestamp.Stamp(tau=9, auth_tag=b"\x55" * 32))
    assert compiler.serialize_timestamped_proof(pi_tau) == \
        dvproof.serialize_proof(pi) + struct.pack(">Q", 9) + b"\x55" * 32


def test_opening_record_layout():
    opening = Opening(sk_bytes=b"\x66" * 32, r=b"\x77" * 32)
    assert compiler.serialize_opening(opening) == \
        struct.pack(">I", 32) + b"\x66" * 32 + b"\x77" * 32


def _crs():
    tpk = tlp.TlpPublicParams(seed=b"\x01" * 32, mu=5)
    pk = dvproof.DvPublicKey(circuit_digest=b"\x02" * 32, input_digest=b"\x03" * 32,
                             session_nonce=b"\x04" * 16)
    puzzle = tlp.Puzzle(nonce=b"\x05" * 16, ciphertext=b"\x06" * 64, tag=b"\x07" * 32)
    return compiler.Crs(tpk=tpk, pk=pk, puzzle=puzzle,
                        commitment=compiler.Commitment(digest=b"\x08" * 32))


def test_crs_record_layout():
    crs = _crs()
    puzzle = crs.puzzle
    expected = (b"PVQC" + bytes([0x02])
                + b"\x01" * 32 + struct.pack(">Q", 5)
                + b"\x02" * 32 + b"\x03" * 32 + b"\x04" * 16
                + tlp.serialize_puzzle(puzzle) + b"\x08" * 32)
    blob = compiler.serialize_crs(crs)
    assert blob == expected
    assert compiler.parse_crs(blob) == crs


def test_crs_v1_record_rejected():
    # v1 carried the deadline in three slots (mu, delta_steps, delta).
    crs = _crs()
    v1 = (b"PVQC" + bytes([0x01])
          + b"\x01" * 32 + struct.pack(">QQ", 5, 5)
          + b"\x02" * 32 + b"\x03" * 32 + b"\x04" * 16
          + tlp.serialize_puzzle(crs.puzzle) + b"\x08" * 32 + struct.pack(">Q", 5))
    with pytest.raises(FormatError):
        compiler.parse_crs(v1)


_TEXT_TOKENS = ("x", "abc", "nan", "inf", "-1", "99", "1,0,0", "1,x", ",", " ",
                "\n", "0", "DENSE_UNITARY", "RX", "inputs")


@st.composite
def _mutated(draw, valid):
    """`valid` with one to four slices replaced by short junk."""
    out = valid
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(out)))
        j = draw(st.integers(i, min(len(out), i + 8)))
        if isinstance(valid, bytes):
            junk = draw(st.binary(max_size=8))
        else:
            junk = draw(st.sampled_from(_TEXT_TOKENS) | st.text(max_size=4))
        out = out[:i] + junk + out[j:]
    return out


def _valid_records():
    pi = dvproof.DvProof(claimed_bit=1, tag=b"\x44" * 32)
    circuit = qsim.Circuit(n_qubits=3, gates=(
        qsim.Gate("H", (0,)), qsim.Gate("RX", (1,), params=(0.5,)),
        qsim.Gate("CNOT", (0, 2)),
        qsim.Gate("DENSE_UNITARY", (1,), matrix=np.array([[0, 1], [1, 0]]))),
        output_qubit=2, n_inputs=2)
    return {
        compiler.parse_crs: compiler.serialize_crs(_crs()),
        compiler.parse_timestamped_proof: compiler.serialize_timestamped_proof(
            compiler.TimestampedProof(
                proof=pi, stamp=timestamp.Stamp(tau=9, auth_tag=b"\x55" * 32))),
        compiler.parse_opening_record: compiler.serialize_opening(
            Opening(sk_bytes=b"\x66" * 32, r=b"\x77" * 32)),
        dvproof.parse_token: dvproof.serialize_token(
            dvproof.OracleToken(mac_key=b"\x22" * 32, session_nonce=b"\x33" * 16)),
        tlp.parse_puzzle: tlp.serialize_puzzle(
            tlp.Puzzle(nonce=b"\x05" * 16, ciphertext=b"cipher", tag=b"\x07" * 32)),
        dvproof.parse_proof: dvproof.serialize_proof(pi),
        qsim.circuit_from_text: qsim.circuit_to_text(circuit),
    }


_VALID = _valid_records()


@pytest.mark.parametrize("parse", list(_VALID), ids=lambda f: f.__name__)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parsers_are_total(parse, data):
    """Every parser turns a mutated record into a value or a declared error."""
    try:
        parse(data.draw(_mutated(_VALID[parse])))
    except (FormatError, ParameterError):
        pass


# Two records in the documented layout: digest | u64be tau | tag.
_LEDGER_FILE = b"PVQL" + bytes([0x01]) + b"".join(
    hashlib.sha256(blob).digest() + struct.pack(">Q", tau) + bytes([tau]) * 32
    for tau, blob in ((7, b"proof"), (9, b"opening")))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ledger_parser_is_total(tmp_path_factory, data):
    """A mutated ledger file loads as a ledger or raises FormatError: the
    file alone decides whether a stamp verifies."""
    path = tmp_path_factory.getbasetemp() / "mutated-ledger.bin"
    path.write_bytes(data.draw(_mutated(_LEDGER_FILE)))
    try:
        assert isinstance(timestamp.Ledger.load(path), timestamp.Ledger)
    except FormatError:
        pass


_BINARY = {**{parse: valid for parse, valid in _VALID.items()
              if parse is not qsim.circuit_from_text},
           timestamp.Ledger.load: _LEDGER_FILE}


@pytest.mark.parametrize("parse", list(_BINARY), ids=lambda f: f.__qualname__)
def test_binary_parsers_take_exactly_one_record(parse, tmp_path):
    """A record parses; one byte more or one byte less is a FormatError."""
    def run(data):
        if parse == timestamp.Ledger.load:
            path = tmp_path / "ledger.bin"
            path.write_bytes(data)
            return parse(path)
        return parse(data)

    valid = _BINARY[parse]
    run(valid)
    for data in (valid + b"\x00", valid[:-1]):
        with pytest.raises(FormatError):
            run(data)


def test_chain_domain_separation():
    # The chain hash is SHA-256("TLPCHAINv1" || u64be(i) || s), recomputed here
    # from primitives.
    s = bytes(32)
    expected = hashlib.sha256(b"TLPCHAINv1" + struct.pack(">Q", 3) + s).digest()
    assert tlp.chain_step(s, 3) == expected


def test_commit_domain_separation():
    from pvqc import commit
    m, r = b"payload", bytes(32)
    expected = hashlib.sha256(b"COMMITv1" + struct.pack(">I", len(m)) + m + r).digest()
    assert commit.commit(m, r).digest == expected
