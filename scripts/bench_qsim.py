"""Simulator and statement timings, and an interleaved before/after
comparison of two source trees.

    python scripts/bench_qsim.py
        Times the importable pvqc and prints one JSON object of metrics,
        each the best of a few repetitions.
    python scripts/bench_qsim.py --trees BEFORE_SRC AFTER_SRC --rounds 5 [--groups GROUP...]
        Starts one worker process per tree (PYTHONPATH set to the tree,
        BLAS on one thread) and, each round, asks both for each group of
        rows in turn, so that the trees alternate per sample and a slow
        phase of the host covers both; which tree goes first alternates
        too.  Each round takes the groups in its own seeded random order,
        so that no group always runs right after the same other group
        (a rotation would keep every group's successor).  Prints, for
        every row, the median, min and n of each tree's values and of
        the paired ratio AFTER / BEFORE, with their quartiles q1 and q3
        (inclusive method) when n >= 2.  `--groups` times only the
        named groups (see `_groups`).  Stops if a worker's pvqc, the one
        it imported, is not in its tree.

The simulator plans a circuit's schedule on its first simulation and
keeps it on the circuit; later calls replay it.  The rows that time a
circuit repeatedly (the per-kind, corpus, fixture, HHL and random rows)
therefore time replays, best of their repetitions; the planning is timed
only by the cold and first-call rows below.

Per-kind rows: a two-qubit kind is timed alone, 200 gates on random pairs;
a SWAP relabels two qubits and touches no amplitude, so its rows time a
replay of an empty schedule (the relabels happen when it is planned).  A
one-qubit kind is timed as 200 (gate, partner) pairs minus 200
partners alone, where the partner is a two-qubit gate on the gate's qubit
that does not commute with it, so each gate is applied on its own, neither
fused nor left pending: a CNOT whose target is the gate's qubit for the
diagonal kinds, which pass a CZ, and a CZ for the others.  The partner
flushes a kind that is not diagonal by copying the state with the gate's
qubit in front, so such a row's (gate, partner) pair includes that copy.

Corpus rows: `qsim.accept_prob` of every statement of
`fixtures.accepting_corpus()`, as one pass (`corpus_accept_prob_ms`) and
as `corpus_accept_prob_ms.<n>q`, the best time of each n-qubit statement
summed; `corpus_accept_prob_cold_ms`, the same sum over COLD_CALL_REPS
calls per statement, each on a new `Circuit` of its fields, which holds
no schedule yet, in the measuring thread, whose buffers and views are
built: the miss path of a prover that parses a new circuit per call;
`dvproof.circuit_digest` of every statement; and
`compiler.vc_verify_explain` of every statement on the parsed records of
the CLI sessions below.

Fixture rows: `fixture_accept_prob_us` is `qsim.accept_prob` of
`fixtures.small_accepting_circuit()`, the statement of every
`soundness-mix` trial, and `fixture_vc_prove_us` its `compiler.vc_prove`
on a fresh ledger and clock per call, as `harness.run_trial`'s honest
branch calls it; each is the best mean over FIXTURE_CALLS calls, with
ledgers and clocks made before the timing starts.

First-call rows: `corpus_accept_prob_first_ms` and `corpus_run_first_ms`
sum, over the corpus statements, the best of FIRST_REPS timings of
`qsim.accept_prob` and `qsim.run` as the first call of a new thread, which
holds no simulator buffers or views yet, on a new `Circuit` of the
statement's fields, which holds no schedule, as a one-shot `pvqc prove`
does; `fixture_accept_prob_first_us` is the same for the fixture, best of
FIXTURE_FIRST_REPS.  Thread start and the copy are not timed.

HHL row: `hhl_run_ms` is `qsim.run` of the HHL circuits of `pvqc bench
hhl`, built from `bench.hhl_instances()`, one per size in
`bench.HHL_SIZES`; every block of them is a DENSE_UNITARY.

Parse rows: `corpus_parse_ms` is `qsim.circuit_from_text` of the 20 corpus
texts in the measuring process, after earlier parses, and
`corpus_parse_first_ms` the best time of the same 20 parses as the first
in a fresh interpreter (pvqc compiled from source, see below), before any
gate line has been seen.

Chain rows: the steps/s of CHAIN_STEPS chain steps, best of CHAIN_REPS
interleaved repetitions, at three layers: `chain_raw_steps_per_s` a bare
hashlib loop over the step formula, `chain_unmetered_steps_per_s` the
walk `tlp.setup` and `bench.measure_hash_rate` run, and
`chain_metered_steps_per_s` the walk `tlp.solve` runs on a
`MeteredClock`; `chain_metered_over_unmetered` is the ratio of the last
two within the run.

CLI rows: `corpus_cli_verify_ms` is `cli.main(["verify", ...])` in-process
over the same 20 statements, on session files written by `pvqc setup`,
`prove` and `reveal` before timing starts.  `cold_cli_verify_ms` is the
best wall time of a fresh `python -m pvqc.cli verify` on statement 17,
`import_pvqc_ms` the best time of `import pvqc` in a fresh interpreter,
and `python_pass_ms` the best wall time of a fresh `python -c pass`, the
floor of any cold command.

Every fresh interpreter has PYTHONPATH set to the measured tree and its
own bytecode cache (PYTHONPYCACHEPREFIX), which starts empty and is filled
by one untimed run of the same command.  In `cold_cli_verify_ms` and
`import_pvqc_ms` pvqc then compiles from source while the standard
library loads from the cache: the state of a fresh checkout, and of a run
under PYTHONDONTWRITEBYTECODE on a tree without `__pycache__`, which is
what `perfbench`'s import probe measures.  The `_cached` rows load pvqc
from the cache too, as a second run does for a user.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

QUBITS = (5, 10, 15)
GATES = 200
COLD_STATEMENT = 17     # 14 qubits, depth 90
COLD_REPS = 5
CHAIN_STEPS = 50_000
CHAIN_REPS = 5
FIXTURE_CALLS = 500
FIRST_REPS = 5
FIXTURE_FIRST_REPS = 50
COLD_CALL_REPS = 5


def _best_ms(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _cli_verify_argvs(corpus, root: Path) -> list[list[str]]:
    """`pvqc verify` argv of one honest CLI session per statement, run
    through setup, prove and reveal in `root`."""
    from pvqc import cli, qsim

    argvs = []
    for i, (c, x) in enumerate(corpus):
        f = {name: str(root / f"{i}.{name}") for name in
             ("circuit", "input", "crs", "oracle", "ledger", "proof", "opening")}
        Path(f["circuit"]).write_text(qsim.circuit_to_text(c))
        Path(f["input"]).write_text("".join(map(str, x)))
        statement = ["--circuit", f["circuit"], "--input", f["input"], "--crs", f["crs"]]
        commands = [
            ["setup", *statement, "--oracle", f["oracle"]],
            ["prove", *statement, "--oracle", f["oracle"], "--ledger", f["ledger"],
             "--proof", f["proof"]],
            ["reveal", "--crs", f["crs"], "--ledger", f["ledger"], "--opening", f["opening"]],
            ["verify", *statement, "--proof", f["proof"], "--opening", f["opening"],
             "--ledger", f["ledger"]],
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if any(cli.main(argv) != cli.EXIT_ACCEPT for argv in commands):
                raise RuntimeError(f"honest CLI session {i} did not accept")
        argvs.append(commands[-1])
    return argvs


def _fresh(pycache: Path, args, cached: bool) -> list[tuple[float, str]]:
    """(wall seconds, stdout) of COLD_REPS fresh interpreters running
    `args` with the measured pvqc on their path and `pycache` as their
    bytecode cache, after one untimed run that fills it.  Unless `cached`,
    pvqc's entries are then dropped and the timed runs write none, so pvqc
    compiles from source in each."""
    import pvqc

    tree = Path(pvqc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(tree), PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)
    if not cached:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        shutil.rmtree(pycache / tree.relative_to(tree.anchor), ignore_errors=True)
    runs = []
    for _ in range(COLD_REPS):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, *args], env=env, check=True,
                             capture_output=True, text=True).stdout
        runs.append((time.perf_counter() - start, out))
    return runs


_FIRST_PARSE = """import sys, time
from pathlib import Path
from pvqc import qsim
texts = [Path(p).read_text() for p in sys.argv[1:]]
t = time.perf_counter()
for text in texts:
    qsim.circuit_from_text(text)
print(time.perf_counter() - t)
"""


def _parse_rows(corpus, pycache: Path) -> dict[str, float]:
    from pvqc import qsim

    texts = [qsim.circuit_to_text(c) for c, _ in corpus]
    out = {"corpus_parse_ms": _best_ms(
        lambda: [qsim.circuit_from_text(t) for t in texts], 15)}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{i}.txt" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text)
        first = _fresh(pycache, ["-c", _FIRST_PARSE, *map(str, paths)], cached=False)
    out["corpus_parse_first_ms"] = min(float(t) for _, t in first) * 1e3
    return out


def _corpus_verify_ms(corpus, argvs) -> float:
    """`vc_verify_explain` over the records of the CLI sessions `argvs`,
    which accepted them in `pvqc verify`."""
    from pvqc import compiler
    from pvqc.timestamp import Ledger

    sessions = []
    for (c, x), argv in zip(corpus, argvs):
        f = dict(zip(argv[1::2], argv[2::2]))
        sessions.append((compiler.parse_crs(Path(f["--crs"]).read_bytes()), c, x,
                         compiler.parse_timestamped_proof(Path(f["--proof"]).read_bytes()),
                         compiler.parse_opening_record(Path(f["--opening"]).read_bytes()),
                         Ledger.load(f["--ledger"])))
    return _best_ms(lambda: [compiler.vc_verify_explain(*s) for s in sessions], 15)


_IMPORT = "import time; t = time.perf_counter(); import pvqc; print(time.perf_counter() - t)"


def _cli_rows(argvs, pycache: Path) -> dict[str, float]:
    from pvqc import cli

    def verify_all():
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in argvs]

    out = {"corpus_cli_verify_ms": _best_ms(verify_all, 15)}
    for cached, suffix in ((False, ""), (True, "_cached")):
        verify = _fresh(pycache, ["-m", "pvqc.cli", *argvs[COLD_STATEMENT]], cached)
        out[f"cold_cli_verify{suffix}_ms"] = min(wall for wall, _ in verify) * 1e3
        imports = _fresh(pycache, ["-c", _IMPORT], cached)
        out[f"import_pvqc{suffix}_ms"] = min(float(t) for _, t in imports) * 1e3
    out["python_pass_ms"] = min(
        wall for wall, _ in _fresh(pycache, ["-c", "pass"], cached=True)) * 1e3
    return out


def _chain_rows() -> dict[str, float]:
    from pvqc import tlp
    from pvqc.meter import MeteredClock

    def raw(steps):
        sha256, pack, s = hashlib.sha256, struct.pack, bytes(32)
        for i in range(steps):
            s = sha256(b"TLPCHAINv1" + pack(">Q", i) + s).digest()
        return s

    if raw(16) != tlp._walk_chain(bytes(32), 16):
        raise RuntimeError("the bare loop does not compute tlp's chain")
    walks = {"raw": lambda: raw(CHAIN_STEPS),
             "unmetered": lambda: tlp._walk_chain(bytes(32), CHAIN_STEPS),
             "metered": lambda: tlp._walk_chain(bytes(32), CHAIN_STEPS, meter=MeteredClock())}
    best = dict.fromkeys(walks, float("inf"))
    for _ in range(CHAIN_REPS):     # interleaved: a drift in speed reaches all three
        for name, walk in walks.items():
            best[name] = min(best[name], _best_ms(walk, 1))
    out = {f"chain_{name}_steps_per_s": CHAIN_STEPS / ms * 1e3 for name, ms in best.items()}
    out["chain_metered_over_unmetered"] = best["unmetered"] / best["metered"]
    return out


def _kind_rows(n: int) -> dict[str, float]:
    from pvqc import qsim
    from pvqc.qsim.circuit import DIAGONAL_GATES, DOUBLE_GATES, PARAM_GATES, SINGLE_GATES

    def gate(kind, targets):
        return qsim.Gate(kind, targets, params=(0.7,) if kind in PARAM_GATES else ())

    def ms(gates):
        c = qsim.Circuit(n_qubits=n, gates=tuple(gates), output_qubit=0)
        return _best_ms(lambda: qsim.run(c), reps)

    rng = random.Random(n)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(GATES)]
    reps = 3 if n == 15 else 15
    out = {}
    partners = {"CZ": [gate("CZ", p) for p in pairs],
                "CNOT": [gate("CNOT", p[::-1]) for p in pairs]}
    partner_ms = {name: ms(gates) for name, gates in partners.items()}
    for kind in SINGLE_GATES:
        partner = "CNOT" if kind in DIAGONAL_GATES else "CZ"
        gates = [g for p, two in zip(pairs, partners[partner])
                 for g in (gate(kind, p[:1]), two)]
        out[f"us_per_gate.{kind}.{n}q"] = (ms(gates) - partner_ms[partner]) / GATES * 1e3
    for kind in DOUBLE_GATES:
        gates = [gate(kind, p) for p in pairs]
        out[f"us_per_gate.{kind}.{n}q"] = ms(gates) / GATES * 1e3
    return out


def _unscheduled(c):
    """A new circuit of c's fields: its first simulation plans its schedule."""
    from pvqc import qsim

    return qsim.Circuit(c.n_qubits, c.gates, c.output_qubit, c.n_inputs)


def _corpus_rows(corpus) -> dict[str, float]:
    from pvqc import qsim

    out = {"corpus_accept_prob_ms": _best_ms(
        lambda: [qsim.accept_prob(c, x) for c, x in corpus], 5)}
    for n in sorted({c.n_qubits for c, _ in corpus}):
        out[f"corpus_accept_prob_ms.{n}q"] = sum(
            _best_ms(lambda: qsim.accept_prob(c, x), 5) for c, x in corpus if c.n_qubits == n)
    copies = [[_unscheduled(c) for _ in range(COLD_CALL_REPS)] for c, _ in corpus]
    out["corpus_accept_prob_cold_ms"] = sum(
        min(_best_ms(lambda: qsim.accept_prob(fresh, x), 1) for fresh in fresh_copies)
        for fresh_copies, (_, x) in zip(copies, corpus))
    return out


def _fixture_rows() -> dict[str, float]:
    from pvqc import compiler, fixtures, qsim
    from pvqc.meter import MeteredClock
    from pvqc.timestamp import Ledger, new_mac_key

    c, x = fixtures.small_accepting_circuit()
    cost = compiler.CostModel.from_circuit(c)
    crs, token = compiler.vc_setup(compiler.DEFAULT_LAMBDA, c, x, cost)
    accept_ms = _best_ms(lambda: [qsim.accept_prob(c, x) for _ in range(FIXTURE_CALLS)], 7)
    prove_ms = float("inf")
    for _ in range(7):
        fresh = [(Ledger(new_mac_key()), MeteredClock()) for _ in range(FIXTURE_CALLS)]
        prove_ms = min(prove_ms, _best_ms(lambda: [
            compiler.vc_prove(crs, c, x, token, ledger, clock, cost) for ledger, clock in fresh], 1))
    return {"fixture_accept_prob_us": accept_ms / FIXTURE_CALLS * 1e3,
            "fixture_vc_prove_us": prove_ms / FIXTURE_CALLS * 1e3}


def _first_call_ms(fn, c, reps: int) -> float:
    """Best ms of fn(a new circuit of c's fields) over reps calls, each the
    first call of a new thread."""
    best = []
    for _ in range(reps):
        fresh = _unscheduled(c)
        thread = threading.Thread(target=lambda: best.append(_best_ms(lambda: fn(fresh), 1)))
        thread.start()
        thread.join()
    return min(best)


def _first_rows(corpus) -> dict[str, float]:
    from pvqc import fixtures, qsim

    fixture, bits = fixtures.small_accepting_circuit()
    return {
        "corpus_accept_prob_first_ms": sum(
            _first_call_ms(lambda f: qsim.accept_prob(f, x), c, FIRST_REPS) for c, x in corpus),
        "corpus_run_first_ms": sum(
            _first_call_ms(qsim.run, c, FIRST_REPS) for c, _ in corpus),
        "fixture_accept_prob_first_us": _first_call_ms(
            lambda f: qsim.accept_prob(f, bits), fixture, FIXTURE_FIRST_REPS) * 1e3,
    }


@contextlib.contextmanager
def _groups():
    """The rows as named groups, each a call that times its rows once, in
    output order, over one corpus and its CLI sessions, built on entry."""
    from pvqc import bench, dvproof, fixtures, qsim

    corpus = fixtures.accepting_corpus()
    big = qsim.random_circuit(15, 300, 15301)
    hhl = [qsim.build_hhl(inst) for inst in bench.hhl_instances()]
    with tempfile.TemporaryDirectory() as tmp:
        argvs = _cli_verify_argvs(corpus, Path(tmp))
        pycache = Path(tmp) / "pycache"
        yield {
            "chain": _chain_rows,
            **{f"kinds.{n}q": functools.partial(_kind_rows, n) for n in QUBITS},
            "corpus": lambda: _corpus_rows(corpus),
            "digest": lambda: {"corpus_circuit_digest_ms": _best_ms(
                lambda: [dvproof.circuit_digest(c) for c, _ in corpus], 15)},
            "fixture": _fixture_rows,
            "first": lambda: _first_rows(corpus),
            "hhl": lambda: {"hhl_run_ms": _best_ms(lambda: [qsim.run(c) for c in hhl], 15)},
            "verify": lambda: {"corpus_verify_ms": _corpus_verify_ms(corpus, argvs)},
            "parse": lambda: _parse_rows(corpus, pycache),
            "cli": lambda: _cli_rows(argvs, pycache),
            "random": lambda: {"random_circuit_15q_300_run_ms": _best_ms(lambda: qsim.run(big), 3)},
        }


def measure() -> dict[str, float]:
    with _groups() as groups:
        return {name: value for group in groups.values() for name, value in group().items()}


def _worker() -> None:
    """The `--trees` side of one tree: writes pvqc's file and the group
    names as one JSON line, then the rows of each group named on a line of
    stdin, until stdin closes."""
    import pvqc

    reply = sys.stdout
    with contextlib.redirect_stdout(sys.stderr), _groups() as groups:
        print(json.dumps({"pvqc_file": pvqc.__file__, "groups": list(groups)}),
              file=reply, flush=True)
        for line in sys.stdin:
            print(json.dumps(groups[line.strip()]()), file=reply, flush=True)


_WORKER = "import runpy, sys; runpy.run_path(sys.argv[1])['_worker']()"


def compare(before: str, after: str, rounds: int, only: list[str] | None = None) -> dict:
    trees = (before, after)
    samples: dict[str, dict[str, list[float]]] = {t: {} for t in trees}
    with contextlib.ExitStack() as stack:
        workers = {}
        for tree in trees:
            env = dict(os.environ, PYTHONPATH=tree, OMP_NUM_THREADS="1",
                       OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
            workers[tree] = stack.enter_context(subprocess.Popen(
                [sys.executable, "-c", _WORKER, __file__], env=env, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE))
            hello = json.loads(workers[tree].stdout.readline())
            print(f"{tree}: {hello['pvqc_file']}", file=sys.stderr)
            if Path(tree).resolve() not in Path(hello["pvqc_file"]).resolve().parents:
                sys.exit(f"pvqc was imported from {hello['pvqc_file']}, not {tree}")
        if only and set(only) - set(hello["groups"]):
            sys.exit(f"no group {sorted(set(only) - set(hello['groups']))}; "
                     f"groups: {hello['groups']}")
        turn = 0
        for r in range(rounds):
            print(f"round {r}", file=sys.stderr)
            groups = [g for g in hello["groups"] if not only or g in only]
            random.Random(r).shuffle(groups)
            for group in groups:
                for tree in trees if turn % 2 == 0 else trees[::-1]:
                    workers[tree].stdin.write(group + "\n")
                    workers[tree].stdin.flush()
                    for name, value in json.loads(workers[tree].stdout.readline()).items():
                        samples[tree].setdefault(name, []).append(value)
                turn += 1
        for worker in workers.values():
            worker.stdin.close()
    ratios = {name: [a / b for a, b in zip(v, samples[before][name])]
              for name, v in samples[after].items()}
    return {**{tree: {name: _summary(v) for name, v in rows.items()}
               for tree, rows in samples.items()},
            "ratio": {name: _summary(v) for name, v in ratios.items()}}


def _summary(v: list[float]) -> dict[str, float]:
    row = {"median": statistics.median(v), "min": min(v), "n": len(v)}
    if len(v) >= 2:
        row["q1"], _, row["q3"] = statistics.quantiles(v, n=4, method="inclusive")
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trees", nargs=2, metavar=("BEFORE_SRC", "AFTER_SRC"),
                        help="src directories to compare")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--groups", nargs="+", metavar="GROUP",
                        help="with --trees, time only these groups of rows")
    args = parser.parse_args()
    if args.trees:
        print(json.dumps(compare(*args.trees, args.rounds, args.groups), indent=1))
    else:
        import pvqc
        print(json.dumps({"pvqc_file": pvqc.__file__, **measure()}))


if __name__ == "__main__":
    main()
