"""The four closed-loop workloads of the pvqc benchmark.

A workload is built from a seed (input generation), then runs one op at
a time: `op(k, samples)` performs op number k, records phase timings in
`samples` and raises `CheckFailed` when the program's answer is wrong.
A pass is the smallest run of ops that covers every input once; runs
end on a pass boundary so that per-op counts do not depend on speed.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from pvqc import cli, compiler, dvproof, fixtures, harness, qsim, timestamp
from pvqc.meter import MeteredClock

from spans import patch

LAMBDA = 256
_now = time.perf_counter


class CheckFailed(Exception):
    """The program gave a wrong answer on one op."""


@dataclass
class Samples:
    """Timings (seconds) of one loop, filed per input: every sample goes
    under `input`, the input of the op in progress."""

    input: int = 0
    latency: dict[int, list[float]] = field(default_factory=dict)
    prove: dict[int, list[float]] = field(default_factory=dict)
    verify: dict[int, list[float]] = field(default_factory=dict)
    setup: dict[int, list[float]] = field(default_factory=dict)
    reveal: dict[int, list[float]] = field(default_factory=dict)
    delta: dict[int, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def add(self, kind: str, seconds: float) -> None:
        getattr(self, kind).setdefault(self.input, []).append(seconds)


@contextlib.contextmanager
def timed_phases(owner, samples: Samples, verify: bool):
    """Time the compiler phases that `owner` calls through its own module
    attributes, and check that every reveal charges exactly delta.  A
    wrong charge is recorded, not raised: cli.main turns exceptions into
    exit code 2."""
    def timed_setup(fn):
        def vc_setup(*args, **kwargs):
            start = _now()
            crs, token = fn(*args, **kwargs)
            samples.add("setup", _now() - start)
            samples.delta[samples.input] = crs.delta
            return crs, token
        return vc_setup

    def timed_prove(fn):
        def vc_prove(*args, **kwargs):
            start = _now()
            pi_tau = fn(*args, **kwargs)
            samples.add("prove", _now() - start)
            return pi_tau
        return vc_prove

    def timed_reveal(fn):
        def vc_reveal(crs, clock, *args, **kwargs):
            before = clock.now
            start = _now()
            opening = fn(crs, clock, *args, **kwargs)
            samples.add("reveal", _now() - start)
            if clock.now - before != crs.delta:
                samples.problems.append(f"vc_reveal charged {clock.now - before} "
                                        f"steps, delta is {crs.delta}")
            return opening
        return vc_reveal

    def timed_verify(fn):
        def vc_verify_explain(*args, **kwargs):
            start = _now()
            result = fn(*args, **kwargs)
            samples.add("verify", _now() - start)
            return result
        return vc_verify_explain

    with contextlib.ExitStack() as stack:
        for attr, timer in (("vc_setup", timed_setup), ("vc_prove", timed_prove),
                            ("vc_reveal", timed_reveal)):
            patch(stack, owner, attr, timer(getattr(owner, attr)))
        if verify:
            patch(stack, owner, "vc_verify_explain",
                  timed_verify(owner.vc_verify_explain))
        yield


@dataclass(frozen=True)
class Statement:
    circuit: qsim.Circuit
    x: list[int]
    cost: compiler.CostModel


def pipeline_op(st: Statement, s: Samples) -> None:
    """The honest four-phase pipeline on one statement.  The prover gets
    the CRS and token as records, and the verifier gets the CRS, proof
    and opening as records, as separate parties would."""
    c, x, cost = st.circuit, st.x, st.cost
    clock = MeteredClock()
    ledger = timestamp.Ledger(timestamp.new_mac_key())
    t0 = _now()
    crs, token = compiler.vc_setup(LAMBDA, c, x, cost)
    t1 = _now()
    crs_record = compiler.serialize_crs(crs)
    token_record = dvproof.serialize_token(token)
    prover_crs = compiler.parse_crs(crs_record)
    prover_token = dvproof.parse_token(token_record)
    t2 = _now()
    pi_tau = compiler.vc_prove(prover_crs, c, x, prover_token, ledger, clock, cost)
    t3 = _now()
    before = clock.now
    opening = compiler.vc_reveal(prover_crs, clock)
    t4 = _now()
    charged = clock.now - before
    proof_record = compiler.serialize_timestamped_proof(pi_tau)
    opening_record = compiler.serialize_opening(opening)
    t5 = _now()
    ok, site = compiler.vc_verify_explain(
        compiler.parse_crs(crs_record), c, x,
        compiler.parse_timestamped_proof(proof_record),
        compiler.parse_opening_record(opening_record), ledger)
    t6 = _now()
    s.delta[s.input] = crs.delta
    s.add("setup", t1 - t0)
    s.add("prove", t3 - t2)
    s.add("reveal", t4 - t3)
    s.add("verify", t6 - t5)
    if charged != crs.delta:
        raise CheckFailed(f"vc_reveal charged {charged} steps, delta is {crs.delta}")
    if not ok:
        raise CheckFailed(f"honest statement ({c.n_qubits} qubits, {len(c.gates)} "
                          f"gates) rejected at {site}")


class Workload:
    """Inputs made from a seed, and the op run on them."""

    name = ""
    pass_size = 1

    def op(self, k: int, s: Samples) -> None:
        raise NotImplementedError

    def phases(self, s: Samples):
        """Context in which phase timings of ops go to `s`."""
        return contextlib.nullcontext()

    def close(self) -> None:
        pass


class CorpusPipeline(Workload):
    """The honest pipeline over fixtures.accepting_corpus(seed): 20
    statements of 5-15 qubits at depth 10-300."""

    name = "corpus-pipeline"

    def __init__(self, seed: int, quick: bool, workdir: Path):
        pairs = fixtures.accepting_corpus(seed)
        if quick:
            pairs = [pairs[i] for i in (0, 5, 10)]
        self.statements = [Statement(c, x, compiler.CostModel.from_circuit(c))
                           for c, x in pairs]
        self.pass_size = len(self.statements)

    def op(self, k, s):
        pipeline_op(self.statements[k % self.pass_size], s)


# The rejection site each adversary must trigger in one of its two passes.
EXPECTED_SITE = {
    harness.A1_GUESS_KEY: "mac_tag",
    harness.A2_SOLVE_THEN_FORGE: "timestamp",
    harness.A3_ALT_OPENING: "commitment",
    harness.A4_RANDOM_TAG: "claimed_bit",
}
SOUNDNESS_BLOCK = 20


class SoundnessMix(Workload):
    """harness.run_trial one trial at a time on the small accepting
    circuit, cycling HONEST and A1-A4 in fixed blocks."""

    name = "soundness-mix"

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.c, self.x = fixtures.small_accepting_circuit()
        self.cost = compiler.CostModel.from_circuit(self.c)
        self.c_accepts = qsim.accept_prob(self.c, self.x) >= qsim.ACCEPT_THRESHOLD
        self.specs = [harness.AdversarySpec(s) for s in harness.STRATEGIES]
        self.block = 2 if quick else SOUNDNESS_BLOCK
        self.pass_size = self.block * len(self.specs)
        self.seed_base = seed * 1_000_003

    def op(self, k, s):
        spec = self.specs[(k // self.block) % len(self.specs)]
        report, sites = harness.run_trial(spec, self.c, self.x, LAMBDA, self.cost,
                                          trial_seed=self.seed_base + k,
                                          c_accepts=self.c_accepts)
        if report.win:
            raise CheckFailed(f"{spec.strategy} won trial {k}")
        if spec.strategy == harness.HONEST:
            if not (report.b1 and report.b2) or sites:
                raise CheckFailed(f"honest trial {k} rejected: b1={report.b1} "
                                  f"b2={report.b2} sites={sites}")
        elif EXPECTED_SITE[spec.strategy] not in sites:
            raise CheckFailed(f"{spec.strategy} trial {k} rejected at {sites}, "
                              f"expected {EXPECTED_SITE[spec.strategy]}")

    def phases(self, s):
        return timed_phases(harness, s, verify=True)


# Small corpus statements (5-8 qubits, depth 10-60), by corpus index.
CLI_STATEMENTS = (0, 1, 5, 7)
HONEST_ORDER = ("setup", "prove", "reveal", "verify")
LATE_ORDER = ("setup", "reveal", "prove", "verify")


class CliSession(Workload):
    """pvqc.cli.main in-process on files: per session one honest run,
    which must accept, and one late-order run (reveal before prove),
    whose verify must reject."""

    name = "cli-session"

    def __init__(self, seed: int, quick: bool, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        corpus = fixtures.accepting_corpus(seed)
        self.files = []
        for i in CLI_STATEMENTS[:1] if quick else CLI_STATEMENTS:
            c, x = corpus[i]
            circuit, inp = self.root / f"c{i}.txt", self.root / f"x{i}.txt"
            circuit.write_text(qsim.circuit_to_text(c))
            inp.write_text("".join(str(b) for b in x))
            self.files.append((str(circuit), str(inp)))
        self.pass_size = len(self.files)

    def op(self, k, s):
        circuit, inp = self.files[k % self.pass_size]
        session = Path(tempfile.mkdtemp(dir=self.root))
        try:
            self._run(session / "honest", circuit, inp, HONEST_ORDER, 0, s)
            self._run(session / "late", circuit, inp, LATE_ORDER, 1, s)
        finally:
            shutil.rmtree(session)

    @staticmethod
    def _run(d: Path, circuit: str, inp: str, order, verify_exit: int,
             s: Samples) -> None:
        d.mkdir()
        f = {name: str(d / name) for name in
             ("crs.bin", "token.bin", "ledger.bin", "proof.bin", "opening.bin")}
        statement = ["--circuit", circuit, "--input", inp]
        argv = {
            "setup": ["setup", *statement, "--crs", f["crs.bin"],
                      "--oracle", f["token.bin"]],
            "prove": ["prove", *statement, "--crs", f["crs.bin"],
                      "--oracle", f["token.bin"], "--ledger", f["ledger.bin"],
                      "--proof", f["proof.bin"]],
            "reveal": ["reveal", "--crs", f["crs.bin"], "--ledger", f["ledger.bin"],
                       "--opening", f["opening.bin"]],
            "verify": ["verify", *statement, "--crs", f["crs.bin"],
                       "--proof", f["proof.bin"], "--opening", f["opening.bin"],
                       "--ledger", f["ledger.bin"]],
        }
        for cmd in order:
            out = io.StringIO()
            start = _now()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(argv[cmd])
            elapsed = _now() - start
            want = verify_exit if cmd == "verify" else 0
            if cmd == "verify" and want == 0:
                s.add("verify", elapsed)
            if code != want:
                raise CheckFailed(f"{'-'.join(order)} run: pvqc {cmd} exited {code}, "
                                  f"expected {want}: {out.getvalue().strip()}")

    def phases(self, s):
        return timed_phases(compiler, s, verify=False)

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CorpusPipeline, SoundnessMix, CliSession)}
