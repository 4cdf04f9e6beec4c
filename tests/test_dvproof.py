"""Designated-verifier backend tests: honest proving, refusal, token
gating, forgery with sk, random-tag soundness, and record formats."""

import math
import random

import numpy as np
import pytest

from pvqc import dvproof, qsim
from pvqc.errors import FormatError, ParameterError, ProofRefused
from pvqc.fixtures import small_accepting_circuit, small_rejecting_circuit
from pvqc.qsim import Gate


def _session(circuit=None, x=None):
    if circuit is None:
        circuit, x = small_accepting_circuit()
    pk, sk = dvproof.keygen(256, circuit, x)
    return circuit, x, pk, sk


def test_honest_prove_verify():
    c, x, pk, sk = _session()
    token = dvproof.make_token(sk, pk)
    pi = dvproof.prove_oracle(token, pk, c, x)
    assert pi.claimed_bit == 1
    assert dvproof.verify(pk, sk, pi)


def test_prover_refuses_rejecting_circuit():
    c, x = small_rejecting_circuit()
    _, _, pk, sk = _session(c, x)
    token = dvproof.make_token(sk, pk)
    with pytest.raises(ProofRefused):
        dvproof.prove_oracle(token, pk, c, x)


def test_token_session_gating():
    c, x, pk, sk = _session()
    _, _, pk2, sk2 = _session()
    wrong_token = dvproof.make_token(sk2, pk2)
    with pytest.raises(ParameterError):
        dvproof.prove_oracle(wrong_token, pk, c, x)


def test_statement_binding():
    c, x, pk, sk = _session()
    token = dvproof.make_token(sk, pk)
    other_c, other_x = small_rejecting_circuit()
    with pytest.raises(ParameterError):
        dvproof.prove_oracle(token, pk, other_c, x)
    with pytest.raises(ParameterError):
        dvproof.prove_oracle(token, pk, c, [1, 0, 0])


def test_verify_rejects_claimed_zero():
    _, _, pk, sk = _session()
    pi = dvproof.forge_proof(sk, pk, claimed_bit=0)
    assert not dvproof.verify(pk, sk, pi)


def test_forge_with_sk_accepted():
    # Anyone holding sk can forge: the property the time delay must gate.
    _, _, pk, sk = _session()
    pi = dvproof.forge_proof(sk, pk, claimed_bit=1)
    assert dvproof.verify(pk, sk, pi)


def test_random_tags_never_accept():
    _, _, pk, sk = _session()
    rng = random.Random(7)
    accepted = sum(
        dvproof.verify(pk, sk, dvproof.DvProof(claimed_bit=1, tag=rng.randbytes(32)))
        for _ in range(10**4))
    assert accepted == 0


def test_verify_never_simulates():
    c, x, pk, sk = _session()
    token = dvproof.make_token(sk, pk)
    pi = dvproof.prove_oracle(token, pk, c, x)
    before = qsim.run_calls()
    dvproof.verify(pk, sk, pi)
    assert qsim.run_calls() == before


def test_digests_separate_statements():
    c, x = small_accepting_circuit()
    c2, _ = small_rejecting_circuit()
    assert dvproof.circuit_digest(c) != dvproof.circuit_digest(c2)
    assert dvproof.input_digest([0, 0, 0]) != dvproof.input_digest([1, 0, 0])
    assert dvproof.input_digest([0, 1]) != dvproof.input_digest([0, 1, 0])


def test_keygen_validation():
    c, x = small_accepting_circuit()
    with pytest.raises(ParameterError):
        dvproof.keygen(12, c, x)
    # Setup and the simulator refuse a short input with one message.
    for refuse in (lambda: dvproof.keygen(256, c, [0, 0]),
                   lambda: qsim.accept_prob(c, [0, 0])):
        with pytest.raises(ParameterError, match=r"^input width 2 != declared 3$"):
            refuse()


def test_circuit_digest_frozen():
    # Recorded when the digest moved to the binary encoding.  The second
    # circuit has the shape of test_qsim's off-corpus text pin: 2- and
    # 3-qubit DENSE_UNITARY with signed zeros (exact products, no LAPACK),
    # extreme and signed-zero angles, and fewer inputs than qubits.
    c, _ = small_accepting_circuit()
    assert dvproof.circuit_digest(c).hex() == \
        "10f8e5ef0e00fcba7cee3f56b4ab122c4333eb6b128de1c76edf3d3319df3afc"
    r = 1 / math.sqrt(2)
    hs = np.kron([[r, r], [r, -r]], [[1, 0], [0, 1j]])
    gates = (Gate("DENSE_UNITARY", (0, 2), matrix=hs),
             Gate("RZ", (1,), params=(0.25,)),
             Gate("DENSE_UNITARY", (2, 0, 1), matrix=np.kron(hs, [[0, -1j], [1j, 0]])),
             Gate("RX", (0,), params=(1e-300,)), Gate("RY", (1,), params=(-0.0,)),
             Gate("PHASE", (2,), params=(1e16,)),
             Gate("CPHASE", (2, 0), params=(5e-324,)),
             Gate("H", (1,)), Gate("CNOT", (1, 2)))
    c = qsim.Circuit(n_qubits=3, gates=gates, output_qubit=2, n_inputs=1)
    assert dvproof.circuit_digest(c).hex() == \
        "27dbda8d9b439db9d81426eeccb8f2a714802f389d6fb8794b1dba486bab2427"


@pytest.mark.parametrize("x", [[0, 0, 256], [0, 0, -1], [0, 0, 2], [0, 0, 0.5]])
def test_input_digest_rejects_non_bits(x):
    c, bits = small_accepting_circuit()
    with pytest.raises(ParameterError):
        dvproof.input_digest(x)
    with pytest.raises(ParameterError):
        dvproof.keygen(256, c, x)
    # The statement check says no rather than raising; the oracle refuses.
    pk, sk = dvproof.keygen(256, c, bits)
    assert dvproof.binds(pk, c, bits) and not dvproof.binds(pk, c, x)
    with pytest.raises(ParameterError, match="statement does not match"):
        dvproof.prove_oracle(dvproof.make_token(sk, pk), pk, c, x)


def test_token_serialization_roundtrip():
    _, _, pk, sk = _session()
    token = dvproof.make_token(sk, pk)
    blob = dvproof.serialize_token(token)
    assert dvproof.parse_token(blob) == token
    with pytest.raises(FormatError):
        dvproof.parse_token(blob[:-1])
    with pytest.raises(FormatError):
        dvproof.parse_token(b"XXXX" + blob[4:])
    with pytest.raises(ParameterError):
        dvproof.OracleToken(mac_key=token.mac_key[:-1], session_nonce=token.session_nonce)
    with pytest.raises(ParameterError):     # else it serializes to a record parse_token refuses
        dvproof.OracleToken(mac_key=bytes(dvproof.KEY_LEN), session_nonce=b"x")


def test_proof_serialization_roundtrip():
    _, _, pk, sk = _session()
    pi = dvproof.forge_proof(sk, pk, claimed_bit=1)
    blob = dvproof.serialize_proof(pi)
    assert dvproof.parse_proof(blob) == pi
    with pytest.raises(FormatError):
        dvproof.parse_proof(blob + b"\x00")
    with pytest.raises(FormatError):
        dvproof.parse_proof(blob[:10])
    bad = bytearray(blob)
    bad[5] = 2
    with pytest.raises(FormatError):
        dvproof.parse_proof(bytes(bad))
