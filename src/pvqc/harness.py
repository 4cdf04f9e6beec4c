"""Soundness-experiment harness with built-in adversary strategies.

The experiment runs under a metered logical clock: the prover produces
a timestamped proof and a claimed opening, the first verification happens
pre-reveal, the reveal charges exactly delta steps, and the second
verification replays the same proof against the true opening.  The
winning condition is
    (b1 or b2) and (C(x) = 0 or sk != y).

The deadline is enforced by the timestamp alone: every sequential step an
adversary takes moves the clock that stamps its proof, so one that solves
the puzzle first stamps at tau >= delta and is rejected.  Only sequential
work is metered: adversaries may do arbitrary non-chain work (guessing
keys, tagging proofs) at zero charge, since the security being exercised
is depth-bounded, not work-bounded.

The honest prover charges the cost that delta was set from.  Adversaries
get the CRS, the ledger, the clock and their coins, never the oracle
token, which only the honest branch of run_trial holds.
"""

from __future__ import annotations

import random

from . import commit, dvproof, qsim
from .commit import Opening
from .compiler import (DEFAULT_LAMBDA, CostModel, Crs, TimestampedProof,
                       stamp_proof, vc_prove, vc_reveal, vc_setup,
                       vc_verify_explain)
from .dvproof import DvSecretKey
from .errors import ParameterError, ProofRefused
from .meter import MeteredClock
from .record import Record, setfield
from .timestamp import Ledger, new_mac_key

HONEST = "HONEST"
A1_GUESS_KEY = "A1_GUESS_KEY"
A2_SOLVE_THEN_FORGE = "A2_SOLVE_THEN_FORGE"
A3_ALT_OPENING = "A3_ALT_OPENING"
A4_RANDOM_TAG = "A4_RANDOM_TAG"


class AdversarySpec(Record):
    __slots__ = ("strategy",)

    def __init__(self, strategy: str):
        if strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy {strategy!r}")
        setfield(self, "strategy", strategy)


class ExperimentReport(Record):
    __slots__ = ("b1", "b2", "c_of_x", "y_matches_sk", "tau", "steps_used")

    def __init__(self, b1: int, b2: int, c_of_x: int, y_matches_sk: int,
                 tau: int | None, steps_used: int):
        setfield(self, "b1", b1)
        setfield(self, "b2", b2)
        setfield(self, "c_of_x", c_of_x)
        setfield(self, "y_matches_sk", y_matches_sk)
        setfield(self, "tau", tau)
        setfield(self, "steps_used", steps_used)

    @property
    def win(self) -> int:
        return int((self.b1 or self.b2)
                   and (not self.c_of_x or not self.y_matches_sk))


class AggregateReport(Record):
    """Unhashable: its `rejection_sites` field is a dict."""

    __slots__ = ("strategy", "trials", "wins", "seed", "mean_tau", "mean_steps",
                 "rejection_sites")

    def __init__(self, strategy: str, trials: int, wins: int, seed: int,
                 mean_tau: float, mean_steps: float, rejection_sites: dict[str, int]):
        setfield(self, "strategy", strategy)
        setfield(self, "trials", trials)
        setfield(self, "wins", wins)
        setfield(self, "seed", seed)
        setfield(self, "mean_tau", mean_tau)
        setfield(self, "mean_steps", mean_steps)
        setfield(self, "rejection_sites", rejection_sites)

    def to_text(self) -> str:
        sites = ",".join(f"{k}:{v}" for k, v in sorted(self.rejection_sites.items()))
        lines = [
            f"strategy={self.strategy}",
            f"trials={self.trials}",
            f"wins={self.wins}",
            f"seed={self.seed}",
            f"mean_tau={self.mean_tau:.6f}",
            f"mean_steps={self.mean_steps:.6f}",
            f"rejection_sites={sites}",
        ]
        return "\n".join(lines) + "\n"


def strategy_a1_guess_key(crs: Crs, ledger: Ledger, clock: MeteredClock,
                          rng: random.Random) -> tuple[TimestampedProof, Opening]:
    """Tag a proof under a uniformly guessed key and present the guessed
    opening.  Zero sequential charges.  Also serves A3: the guessed
    opening fails the commitment check, the true one the tag check."""
    guess = rng.randbytes(dvproof.KEY_LEN)
    proof = dvproof.forge_proof(DvSecretKey(mac_key=guess), crs.pk, 1)
    pi_tau = stamp_proof(proof, ledger, clock)
    return pi_tau, Opening(sk_bytes=guess, r=rng.randbytes(commit.RAND_LEN))


def strategy_a2_solve_then_forge(crs: Crs, ledger: Ledger, clock: MeteredClock,
                                 rng: random.Random) -> tuple[TimestampedProof, Opening]:
    """Solve the puzzle first, then forge under the recovered true key.

    Solving charges delta sequential steps to the clock that stamps the
    forgery, so the stamp carries tau >= delta and both verifications
    reject at the timestamp.
    """
    opening = vc_reveal(crs, clock)
    proof = dvproof.forge_proof(DvSecretKey(mac_key=opening.sk_bytes), crs.pk, 1)
    return stamp_proof(proof, ledger, clock), opening


def strategy_a4_random_tag(crs: Crs, ledger: Ledger, clock: MeteredClock,
                           rng: random.Random) -> tuple[TimestampedProof, Opening]:
    """Stamp a proof with a random tag and claimed bit 0 plus a random
    opening; exercises the claimed-bit rejection site under the true key."""
    proof = dvproof.DvProof(claimed_bit=0, tag=rng.randbytes(32))
    pi_tau = stamp_proof(proof, ledger, clock)
    return pi_tau, Opening(sk_bytes=rng.randbytes(dvproof.KEY_LEN),
                           r=rng.randbytes(commit.RAND_LEN))


_ADVERSARIES = {
    A1_GUESS_KEY: strategy_a1_guess_key,
    A2_SOLVE_THEN_FORGE: strategy_a2_solve_then_forge,
    A3_ALT_OPENING: strategy_a1_guess_key,
    A4_RANDOM_TAG: strategy_a4_random_tag,
}
STRATEGIES = (HONEST, *_ADVERSARIES)


def run_trial(adv: AdversarySpec, c, x, lam: int, cost: CostModel,
              trial_seed: int, c_accepts: bool) -> tuple[ExperimentReport, list[str]]:
    """One experiment trial.  Returns the report and the rejection sites
    observed across both verification passes."""
    clock = MeteredClock()
    ledger = Ledger(new_mac_key())
    crs, token = vc_setup(lam, c, x, cost)
    rng = random.Random(trial_seed)

    try:
        if adv.strategy == HONEST:
            # Proves at the cost delta was set from, then solves for the true opening.
            pi_tau = vc_prove(crs, c, x, token, ledger, clock, cost)
            y_adv = vc_reveal(crs, clock)
        else:
            pi_tau, y_adv = _ADVERSARIES[adv.strategy](crs, ledger, clock, rng)
    except ProofRefused:
        pi_tau, y_adv = None, None   # prover output is bottom: a loss

    sites: list[str] = []

    def verdict(y) -> int:
        """One verification pass under opening y; bottom gives 0, no site."""
        if pi_tau is None:
            return 0
        ok, site = vc_verify_explain(crs, c, x, pi_tau, y, ledger)
        if site is not None:
            sites.append(site)
        return int(ok)

    b1 = verdict(y_adv)
    adversary_steps = clock.now
    true_opening = vc_reveal(crs, clock)
    b2 = verdict(true_opening)
    report = ExperimentReport(
        b1=b1, b2=b2, c_of_x=int(c_accepts), y_matches_sk=int(y_adv == true_opening),
        tau=None if pi_tau is None else pi_tau.stamp.tau, steps_used=adversary_steps)
    return report, sites


def run_experiment(adv: AdversarySpec, c, x, trials: int = 1,
                   seed: int = 0) -> AggregateReport:
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    cost = CostModel.from_circuit(c)
    c_accepts = qsim.accept_prob(c, x) >= qsim.ACCEPT_THRESHOLD

    wins = 0
    taus: list[int] = []
    steps: list[int] = []
    site_counts: dict[str, int] = {}
    for trial in range(trials):
        report, sites = run_trial(adv, c, x, DEFAULT_LAMBDA, cost,
                                  trial_seed=seed * 1_000_003 + trial,
                                  c_accepts=c_accepts)
        wins += report.win
        if report.tau is not None:
            taus.append(report.tau)
        steps.append(report.steps_used)
        for site in sites:
            site_counts[site] = site_counts.get(site, 0) + 1
    return AggregateReport(
        strategy=adv.strategy, trials=trials, wins=wins, seed=seed,
        mean_tau=sum(taus) / len(taus) if taus else -1.0,
        mean_steps=sum(steps) / len(steps),
        rejection_sites=site_counts)
