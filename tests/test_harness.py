"""Experiment harness tests: the metered clock, the win formula, and
per-strategy outcomes with their designated rejection sites."""

import inspect
import itertools
import math

import pytest

from pvqc import harness
from pvqc.compiler import (CostModel, REJECT_CLAIMED_BIT, REJECT_COMMITMENT,
                           REJECT_MAC_TAG, REJECT_TIMESTAMP)
from pvqc.errors import ParameterError
from pvqc.fixtures import small_accepting_circuit, small_rejecting_circuit
from pvqc.meter import MeteredClock


# ------------------------------------------------------------ metered clock

def test_clock_charges_accumulate():
    clock = MeteredClock()
    clock.charge(3)
    clock.charge()
    assert clock.now == 4


def test_clock_validation():
    with pytest.raises(ValueError):
        MeteredClock(start=-1)
    with pytest.raises(ValueError):
        MeteredClock().charge(-1)


@pytest.mark.parametrize("bad", [0.5, math.nan, math.inf, "3"])
def test_clock_refuses_non_int_units(bad):
    # As CostModel.t_units: a non-int never reaches a stamp's u64 tau.
    with pytest.raises(ParameterError, match="int"):
        MeteredClock(start=bad)
    clock = MeteredClock(start=2)
    with pytest.raises(ParameterError, match="int"):
        clock.charge(bad)
    assert clock.now == 2


# ------------------------------------------------------------- win formula

def test_report_win_formula_enforced():
    # win = (b1 or b2) and (C(x) = 0 or sk != y), over every input.
    for b1, b2, c_of_x, y_matches_sk in itertools.product((0, 1), repeat=4):
        report = harness.ExperimentReport(b1=b1, b2=b2, c_of_x=c_of_x,
                                          y_matches_sk=y_matches_sk,
                                          tau=3, steps_used=3)
        expected = (b1 == 1 or b2 == 1) and (c_of_x == 0 or y_matches_sk == 0)
        assert report.win == int(expected)


def test_spec_validation():
    with pytest.raises(ParameterError):
        harness.AdversarySpec(strategy="A9")


# ---------------------------------------------------------------- strategies

def _run(strategy, trials=20, circuit=None, x=None, seed=0):
    if circuit is None:
        circuit, x = small_accepting_circuit()
    spec = harness.AdversarySpec(strategy=strategy)
    return harness.run_experiment(spec, circuit, x, trials=trials, seed=seed)


def test_honest_never_wins():
    report = _run(harness.HONEST)
    assert report.wins == 0
    assert report.rejection_sites == {}
    assert report.mean_tau > 0


def test_honest_on_rejecting_circuit_is_bottom():
    circuit, x = small_rejecting_circuit()
    report = _run(harness.HONEST, circuit=circuit, x=x)
    assert report.wins == 0
    assert report.mean_tau == -1.0    # the prover refused: no proof exists


def test_a1_guess_key_loses_at_mac_tag():
    report = _run(harness.A1_GUESS_KEY)
    assert report.wins == 0
    assert report.rejection_sites.get(REJECT_MAC_TAG, 0) > 0
    assert report.mean_steps == 0.0   # guessing is not sequential work


def test_a2_solve_then_forge_loses_at_timestamp():
    report = _run(harness.A2_SOLVE_THEN_FORGE)
    assert report.wins == 0
    assert report.rejection_sites.get(REJECT_TIMESTAMP, 0) > 0


def test_a3_alt_opening_loses_at_commitment():
    report = _run(harness.A3_ALT_OPENING)
    assert report.wins == 0
    assert report.rejection_sites.get(REJECT_COMMITMENT, 0) > 0
    assert report.mean_steps == 0.0


def test_a4_random_tag_loses_at_claimed_bit():
    report = _run(harness.A4_RANDOM_TAG)
    assert report.wins == 0
    assert report.rejection_sites.get(REJECT_CLAIMED_BIT, 0) > 0
    assert report.mean_steps == 0.0


def test_run_trial_lists_sites_in_pass_order():
    # Sites of the b1 pass (adversary's opening) come before those of the
    # b2 pass (true opening); a bottom output runs neither pass.
    circuit, x = small_accepting_circuit()
    cost = CostModel.from_circuit(circuit)
    expected = {
        harness.HONEST: [],
        harness.A1_GUESS_KEY: [REJECT_COMMITMENT, REJECT_MAC_TAG],
        harness.A2_SOLVE_THEN_FORGE: [REJECT_TIMESTAMP, REJECT_TIMESTAMP],
        harness.A3_ALT_OPENING: [REJECT_COMMITMENT, REJECT_MAC_TAG],
        harness.A4_RANDOM_TAG: [REJECT_COMMITMENT, REJECT_CLAIMED_BIT],
    }
    for strategy, sites in expected.items():
        _, got = harness.run_trial(harness.AdversarySpec(strategy), circuit, x, 256,
                                   cost, trial_seed=3, c_accepts=True)
        assert got == sites, strategy

    circuit, x = small_rejecting_circuit()
    report, sites = harness.run_trial(harness.AdversarySpec(harness.HONEST), circuit,
                                      x, 256, CostModel.from_circuit(circuit),
                                      trial_seed=3, c_accepts=False)
    assert (report.b1, report.b2, report.tau, report.steps_used) == (0, 0, None, 18)
    assert sites == []


def test_honest_prover_charges_the_trials_cost():
    # Delta is set from the trial's cost, so the honest proof is stamped
    # at that cost, not at the circuit's own 18 units.
    circuit, x = small_accepting_circuit()
    cost = CostModel(t_units=40)
    report, sites = harness.run_trial(harness.AdversarySpec(harness.HONEST), circuit,
                                      x, 256, cost, trial_seed=3, c_accepts=True)
    assert cost.delta() == 254
    assert (report.b1, report.b2, sites) == (1, 1, [])
    assert report.tau == 40
    assert report.steps_used == 40 + 254


def test_adversaries_never_get_the_statement_or_the_token():
    assert harness.STRATEGIES == (harness.HONEST, *harness._ADVERSARIES)
    for strategy, fn in harness._ADVERSARIES.items():
        assert list(inspect.signature(fn).parameters) == [
            "crs", "ledger", "clock", "rng"], strategy


# Report text of every strategy at seed 11, 20 trials.  A harness refactor
# must leave these bytes unchanged.
_FROZEN_REPORTS = {
    (harness.HONEST, "accepting"):
        "strategy=HONEST\ntrials=20\nwins=0\nseed=11\nmean_tau=18.000000\n"
        "mean_steps=96.000000\nrejection_sites=\n",
    (harness.A1_GUESS_KEY, "accepting"):
        "strategy=A1_GUESS_KEY\ntrials=20\nwins=0\nseed=11\nmean_tau=0.000000\n"
        "mean_steps=0.000000\nrejection_sites=commitment:20,mac_tag:20\n",
    (harness.A2_SOLVE_THEN_FORGE, "accepting"):
        "strategy=A2_SOLVE_THEN_FORGE\ntrials=20\nwins=0\nseed=11\n"
        "mean_tau=78.000000\nmean_steps=78.000000\nrejection_sites=timestamp:40\n",
    (harness.A3_ALT_OPENING, "accepting"):
        "strategy=A3_ALT_OPENING\ntrials=20\nwins=0\nseed=11\nmean_tau=0.000000\n"
        "mean_steps=0.000000\nrejection_sites=commitment:20,mac_tag:20\n",
    (harness.A4_RANDOM_TAG, "accepting"):
        "strategy=A4_RANDOM_TAG\ntrials=20\nwins=0\nseed=11\nmean_tau=0.000000\n"
        "mean_steps=0.000000\nrejection_sites=claimed_bit:20,commitment:20\n",
    (harness.HONEST, "rejecting"):
        "strategy=HONEST\ntrials=20\nwins=0\nseed=11\nmean_tau=-1.000000\n"
        "mean_steps=18.000000\nrejection_sites=\n",
}


def test_reports_frozen():
    fixtures = {"accepting": small_accepting_circuit,
                "rejecting": small_rejecting_circuit}
    for (strategy, which), expected in _FROZEN_REPORTS.items():
        circuit, x = fixtures[which]()
        report = _run(strategy, circuit=circuit, x=x, seed=11)
        assert report.to_text() == expected, (strategy, which)


def test_experiment_is_deterministic():
    a = _run(harness.A1_GUESS_KEY, trials=10, seed=5)
    b = _run(harness.A1_GUESS_KEY, trials=10, seed=5)
    assert a == b


def test_aggregate_report_text_is_parseable():
    report = _run(harness.A4_RANDOM_TAG, trials=5)
    pairs = dict(line.split("=", 1) for line in report.to_text().splitlines())
    assert pairs["strategy"] == harness.A4_RANDOM_TAG
    assert int(pairs["trials"]) == 5
    assert int(pairs["wins"]) == 0
    assert "claimed_bit" in pairs["rejection_sites"]


def test_run_experiment_validation():
    circuit, x = small_accepting_circuit()
    spec = harness.AdversarySpec(strategy=harness.HONEST)
    with pytest.raises(ParameterError):
        harness.run_experiment(spec, circuit, x, trials=0)
