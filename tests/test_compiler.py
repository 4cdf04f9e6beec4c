"""Compiler tests: the four protocol phases end to end, deadline math,
every rejection site, serialization, and verifier frugality."""

import hashlib
import math

import pytest

from pvqc import commit, compiler, dvproof, qsim, timestamp, tlp
from pvqc.commit import Opening
from pvqc.compiler import CostModel, TimestampedProof
from pvqc.errors import FormatError, ParameterError, ProofRefused
from pvqc.fixtures import small_accepting_circuit, small_rejecting_circuit
from pvqc.meter import MeteredClock
from pvqc.timestamp import Ledger, Stamp, new_mac_key


def _pipeline(circuit=None, x=None, lam=256):
    if circuit is None:
        circuit, x = small_accepting_circuit()
    cost = CostModel.from_circuit(circuit)
    crs, token = compiler.vc_setup(lam, circuit, x, cost)
    ledger = Ledger(new_mac_key())
    clock = MeteredClock()
    return circuit, x, cost, crs, token, ledger, clock


def test_cost_model_delta():
    assert CostModel(t_units=18, epsilon=0.5).delta() == 78
    assert CostModel(t_units=1, epsilon=0.5).delta() == 2
    assert CostModel(t_units=100, epsilon=1.0).delta() == 10001


def test_cost_model_from_circuit():
    c, _ = small_accepting_circuit()
    cost = CostModel.from_circuit(c)
    assert cost.t_units == qsim.circuit_depth(c) + compiler.PROOF_OVERHEAD_UNITS


def test_cost_model_validation():
    with pytest.raises(ParameterError):
        CostModel(t_units=0)
    with pytest.raises(ParameterError):
        CostModel(t_units=1, epsilon=0.0)
    # nan compares false with everything, so a bare `<` check lets it through.
    for t_units in (1, 18):
        for epsilon in (math.nan, math.inf):
            with pytest.raises(ParameterError):
                CostModel(t_units=t_units, epsilon=epsilon)
    # A float, even a whole one, would give a deadline, then fail to stamp
    # after the clock had moved by it.
    for t_units in (math.nan, math.inf, 40.0):
        with pytest.raises(ParameterError):
            CostModel(t_units=t_units)


def test_deadline_beyond_the_crs_record_is_refused_before_the_walk(monkeypatch):
    # A u64 holds mu: at t_units 18, epsilon 10 fits (6.4e13 steps), 20
    # does not (2.3e26), and from about 300 the formula overflows a float.
    c, x = small_accepting_circuit()
    assert CostModel(t_units=18, epsilon=10.0).delta() == 64_268_410_079_233
    assert CostModel(t_units=18, epsilon=20.0).delta() > tlp.MAX_MU
    with pytest.raises(ParameterError, match="deadline too large"):
        CostModel(t_units=18, epsilon=300.0).delta()

    def walk(*args, **kwargs):
        raise AssertionError("the chain walk started")

    monkeypatch.setattr(tlp, "_walk_chain", walk)
    with pytest.raises(ParameterError, match=r"2\*\*64"):
        compiler.vc_setup(256, c, x, CostModel(t_units=18, epsilon=20.0))


def test_honest_pipeline_accepts():
    c, x, cost, crs, token, ledger, clock = _pipeline()
    pi_tau = compiler.vc_prove(crs, c, x, token, ledger, clock, cost)
    assert pi_tau.stamp.tau == cost.t_units
    assert pi_tau.stamp.tau < crs.delta
    opening = compiler.vc_reveal(crs, clock)
    verdict, site = compiler.vc_verify_explain(crs, c, x, pi_tau, opening, ledger)
    assert verdict and site is None


def test_reveal_charges_exactly_delta():
    _, _, _, crs, _, _, clock = _pipeline()
    compiler.vc_reveal(crs, clock)
    assert clock.now == crs.delta
    assert crs.tpk.mu == crs.delta


def test_reveal_matches_commitment():
    _, _, _, crs, _, _, clock = _pipeline()
    opening = compiler.vc_reveal(crs, clock)
    assert commit.verify_opening(crs.commitment, opening.sk_bytes, opening.r)


def test_prove_refuses_rejecting_circuit():
    c, x = small_rejecting_circuit()
    _, _, cost, crs, token, ledger, clock = _pipeline(c, x)
    with pytest.raises(ProofRefused):
        compiler.vc_prove(crs, c, x, token, ledger, clock, cost)


def test_prove_rejects_foreign_token():
    c, x, cost, crs, _, ledger, clock = _pipeline()
    _, _, _, _, other_token, _, _ = _pipeline()
    with pytest.raises(ParameterError):
        compiler.vc_prove(crs, c, x, other_token, ledger, clock, cost)


def _honest_artifacts():
    c, x, cost, crs, token, ledger, clock = _pipeline()
    pi_tau = compiler.vc_prove(crs, c, x, token, ledger, clock, cost)
    opening = compiler.vc_reveal(crs, clock)
    return c, x, crs, pi_tau, opening, ledger


def test_reject_site_timestamp():
    c, x, cost, crs, token, ledger, clock = _pipeline()
    opening = compiler.vc_reveal(crs, clock)     # clock is now at delta
    proof = dvproof.forge_proof(dvproof.DvSecretKey(mac_key=opening.sk_bytes),
                                crs.pk, 1)
    late = TimestampedProof(proof=proof,
                            stamp=ledger.stamp(dvproof.serialize_proof(proof), clock))
    assert late.stamp.tau >= crs.delta
    verdict, site = compiler.vc_verify_explain(crs, c, x, late, opening, ledger)
    assert not verdict and site == compiler.REJECT_TIMESTAMP


def test_reject_site_statement():
    c, x, crs, pi_tau, opening, ledger = _honest_artifacts()
    other_c, _ = small_rejecting_circuit()
    verdict, site = compiler.vc_verify_explain(crs, other_c, x, pi_tau, opening, ledger)
    assert not verdict and site == compiler.REJECT_STATEMENT
    verdict, site = compiler.vc_verify_explain(crs, c, [1, 0, 0], pi_tau, opening, ledger)
    assert not verdict and site == compiler.REJECT_STATEMENT


@pytest.mark.parametrize("x", [[0, 0, 256], [0, 0, -1], [0, 0, 2], [0, 0, 0.5]])
def test_non_bit_input_rejects_at_statement(x):
    c, _, crs, pi_tau, opening, ledger = _honest_artifacts()
    verdict, site = compiler.vc_verify_explain(crs, c, x, pi_tau, opening, ledger)
    assert not verdict and site == compiler.REJECT_STATEMENT
    with pytest.raises(ParameterError):
        compiler.vc_setup(256, c, x, CostModel.from_circuit(c))


def test_setup_reads_a_one_shot_input_once():
    c, x = small_accepting_circuit()
    crs, _ = compiler.vc_setup(256, c, iter(x), CostModel.from_circuit(c))
    assert dvproof.binds(crs.pk, c, [0, 0, 0])
    assert not dvproof.binds(crs.pk, c, [])


def test_text_digest_of_statement_rejects():
    # The digest before the binary encoding was sha256 of the circuit text.
    # A CRS that carries it must never verify, even for the same statement.
    c, x, crs, pi_tau, opening, ledger = _honest_artifacts()
    text_digest = hashlib.sha256(qsim.circuit_to_text(c).encode()).digest()
    pk = dvproof.DvPublicKey(text_digest, crs.pk.input_digest, crs.pk.session_nonce)
    crs = compiler.Crs(crs.tpk, pk, crs.puzzle, crs.commitment)
    verdict, site = compiler.vc_verify_explain(crs, c, x, pi_tau, opening, ledger)
    assert not verdict and site == compiler.REJECT_STATEMENT


def test_reject_site_stamp():
    c, x, crs, pi_tau, opening, ledger = _honest_artifacts()
    forged = TimestampedProof(proof=pi_tau.proof,
                              stamp=Stamp(tau=pi_tau.stamp.tau, auth_tag=bytes(32)))
    verdict, site = compiler.vc_verify_explain(crs, c, x, forged, opening, ledger)
    assert not verdict and site == compiler.REJECT_STAMP


def test_tag_minted_with_the_ledger_key_rejects_at_stamp():
    # After an honest prove and reveal, a proof forged with the revealed
    # key and a tau = 0 tag minted with the ledger's own key: the ledger
    # holds no such record, so the stamp fails.
    c, x, cost, crs, token, _, clock = _pipeline()
    key = new_mac_key()
    ledger = Ledger(key)
    compiler.vc_prove(crs, c, x, token, ledger, clock, cost)
    opening = compiler.vc_reveal(crs, clock)
    proof = dvproof.forge_proof(dvproof.DvSecretKey(mac_key=opening.sk_bytes),
                                crs.pk, 1)
    digest = hashlib.sha256(dvproof.serialize_proof(proof)).digest()
    backdated = TimestampedProof(
        proof=proof, stamp=Stamp(tau=0, auth_tag=timestamp._tag(key, digest, 0)))
    assert compiler.vc_verify_explain(crs, c, x, backdated, opening, ledger) == \
        (False, compiler.REJECT_STAMP)


def test_reject_site_commitment():
    c, x, crs, pi_tau, opening, ledger = _honest_artifacts()
    wrong = Opening(sk_bytes=bytes(32), r=opening.r)
    verdict, site = compiler.vc_verify_explain(crs, c, x, pi_tau, wrong, ledger)
    assert not verdict and site == compiler.REJECT_COMMITMENT


def test_reject_site_claimed_bit():
    c, x, cost, crs, token, ledger, clock = _pipeline()
    opening_clock = MeteredClock()
    opening = compiler.vc_reveal(crs, opening_clock)
    proof = dvproof.forge_proof(dvproof.DvSecretKey(mac_key=opening.sk_bytes),
                                crs.pk, claimed_bit=0)
    pi_tau = TimestampedProof(proof=proof,
                              stamp=ledger.stamp(dvproof.serialize_proof(proof), clock))
    verdict, site = compiler.vc_verify_explain(crs, c, x, pi_tau, opening, ledger)
    assert not verdict and site == compiler.REJECT_CLAIMED_BIT


def test_reject_site_mac_tag():
    c, x, cost, crs, token, ledger, clock = _pipeline()
    opening = compiler.vc_reveal(crs, MeteredClock())
    proof = dvproof.DvProof(claimed_bit=1, tag=bytes(32))
    pi_tau = TimestampedProof(proof=proof,
                              stamp=ledger.stamp(dvproof.serialize_proof(proof), clock))
    verdict, site = compiler.vc_verify_explain(crs, c, x, pi_tau, opening, ledger)
    assert not verdict and site == compiler.REJECT_MAC_TAG


def test_verify_rejects_empty_committed_key():
    # A CRS may commit to an empty key; its opening passes the commitment
    # check but is no MAC key, which must be a mac_tag reject, not an error.
    c, x, crs, pi_tau, opening, ledger = _honest_artifacts()
    crs = compiler.Crs(crs.tpk, crs.pk, crs.puzzle, commit.commit(b"", opening.r))
    empty = Opening(sk_bytes=b"", r=opening.r)
    verdict, site = compiler.vc_verify_explain(crs, c, x, pi_tau, empty, ledger)
    assert not verdict and site == compiler.REJECT_MAC_TAG


def test_verify_is_frugal():
    c, x, crs, pi_tau, opening, ledger = _honest_artifacts()
    runs_before, chain_before = qsim.run_calls(), tlp.chain_calls()
    assert compiler.vc_verify_explain(crs, c, x, pi_tau, opening, ledger)[0]
    assert qsim.run_calls() == runs_before
    assert tlp.chain_calls() == chain_before


def test_setup_refuses_bad_statement_before_chain_walk():
    c, x = small_accepting_circuit()
    before = tlp.chain_calls()
    with pytest.raises(ParameterError):
        compiler.vc_setup(256, c, [2, *x[1:]], CostModel.from_circuit(c))
    # The token record holds a KEY_LEN-byte key, so no other lambda gets a CRS.
    assert compiler.DEFAULT_LAMBDA == 8 * dvproof.KEY_LEN
    with pytest.raises(ParameterError):
        compiler.vc_setup(128, c, x, CostModel.from_circuit(c))
    assert tlp.chain_calls() == before


def test_puzzle_seals_the_opening_record():
    # The puzzle's plaintext is the record that reveal writes and stamps.
    _, _, _, crs, _, _, clock = _pipeline()
    assert tlp.solve(crs.tpk, crs.puzzle) == \
        compiler.serialize_opening(compiler.vc_reveal(crs, clock))


def test_reveal_refuses_a_suffix_split_puzzle():
    # A CRS made before the puzzle sealed the opening record holds sk || r.
    _, _, _, crs, _, _, clock = _pipeline()
    tpk, tsk = tlp.setup(256, crs.delta)
    crs = compiler.Crs(tpk, crs.pk, tlp.gen_puzzle(b"K" * 32 + bytes(32), tpk, tsk),
                       crs.commitment)
    steps, now = tlp.chain_calls(), clock.now
    with pytest.raises(FormatError):
        compiler.vc_reveal(crs, clock)
    # The ciphertext length is public, so the refusal costs no chain walk.
    assert (tlp.chain_calls(), clock.now) == (steps, now)


def test_timestamped_proof_checks_its_stamp_when_built():
    proof = dvproof.DvProof(claimed_bit=1, tag=bytes(32))
    with pytest.raises(ParameterError):
        TimestampedProof(proof=proof, stamp=Stamp(tau=-1, auth_tag=bytes(32)))
    with pytest.raises(ParameterError):
        TimestampedProof(proof=proof, stamp=Stamp(tau=0, auth_tag=bytes(31)))


def test_crs_serialization_roundtrip():
    _, _, crs, _, _, _ = _honest_artifacts()
    blob = compiler.serialize_crs(crs)
    assert compiler.parse_crs(blob) == crs
    assert compiler.serialize_crs(compiler.parse_crs(blob)) == blob
    with pytest.raises(FormatError):
        compiler.parse_crs(blob[:-1])
    with pytest.raises(FormatError):
        compiler.parse_crs(b"XXXX" + blob[4:])


def test_timestamped_proof_serialization_roundtrip():
    _, _, _, pi_tau, _, _ = _honest_artifacts()
    blob = compiler.serialize_timestamped_proof(pi_tau)
    assert compiler.parse_timestamped_proof(blob) == pi_tau
    with pytest.raises(FormatError):
        compiler.parse_timestamped_proof(blob + b"\x00")


def test_opening_serialization_roundtrip():
    opening = Opening(sk_bytes=b"\x42" * 32, r=bytes(range(32)))
    blob = compiler.serialize_opening(opening)
    assert compiler.parse_opening_record(blob) == opening
    with pytest.raises(FormatError):
        compiler.parse_opening_record(blob[:-1])
    with pytest.raises(FormatError):
        compiler.parse_opening_record(b"")
