"""Simulator and statement timings, and an interleaved before/after
comparison of two source trees.

    python scripts/bench_qsim.py
        Times the importable pvqc and prints one JSON object of metrics,
        each the best of a few repetitions.
    python scripts/bench_qsim.py --trees BEFORE_SRC AFTER_SRC --rounds 5
        Runs the first form once per round in each tree (PYTHONPATH set to
        the tree, BLAS on one thread), alternating which goes first, and
        prints median, min and n of the per-round values for both trees,
        plus their quartiles q1 and q3 (inclusive method) when n >= 2.
        Stops if a round's `pvqc_file`, the pvqc it imported, is not in its tree.

Per-kind rows: a two-qubit kind is timed alone, 200 gates on random pairs.
A one-qubit kind is timed as 200 (gate, CZ) pairs minus 200 CZs alone: the
CZ touches the gate's qubit, so each gate is applied on its own, not fused.

Corpus rows: `dvproof.circuit_digest` of every statement of
`fixtures.accepting_corpus()`, and `compiler.vc_verify_explain` of every
statement on the parsed records of the CLI sessions below.

Parse rows: `corpus_parse_ms` is `qsim.circuit_from_text` of the 20 corpus
texts in the measuring process, after earlier parses, and
`corpus_parse_first_ms` the best time of the same 20 parses as the first
in a fresh interpreter, before any gate line has been seen.

CLI rows: `corpus_cli_verify_ms` is `cli.main(["verify", ...])` in-process
over the same 20 statements, on session files written by `pvqc setup`,
`prove` and `reveal` before timing starts.  `cold_cli_verify_ms` is the
best wall time of a fresh `python -m pvqc.cli verify` on statement 17, and
`import_pvqc_ms` the best time of `import pvqc` in a fresh interpreter,
both with PYTHONPATH set to the measured tree.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

QUBITS = (5, 10, 15)
GATES = 200
COLD_STATEMENT = 17     # 14 qubits, depth 90
COLD_REPS = 5


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


def _fresh(*args) -> str:
    """Stdout of a fresh interpreter with the measured pvqc on its path."""
    import pvqc

    env = dict(os.environ, PYTHONPATH=str(Path(pvqc.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


_FIRST_PARSE = """import sys, time
from pathlib import Path
from pvqc import qsim
texts = [Path(p).read_text() for p in sys.argv[1:]]
t = time.perf_counter()
for text in texts:
    qsim.circuit_from_text(text)
print(time.perf_counter() - t)
"""


def _parse_rows(corpus) -> dict[str, float]:
    from pvqc import qsim

    texts = [qsim.circuit_to_text(c) for c, _ in corpus]
    out = {"corpus_parse_ms": _best_ms(
        lambda: [qsim.circuit_from_text(t) for t in texts], 15)}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{i}.txt" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text)
        first = [float(_fresh("-c", _FIRST_PARSE, *map(str, paths)))
                 for _ in range(COLD_REPS)]
    out["corpus_parse_first_ms"] = min(first) * 1e3
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


def _cli_rows(argvs) -> dict[str, float]:
    from pvqc import cli

    def verify_all():
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in argvs]

    out = {"corpus_cli_verify_ms": _best_ms(verify_all, 15),
           "cold_cli_verify_ms": _best_ms(
               lambda: _fresh("-m", "pvqc.cli", *argvs[COLD_STATEMENT]), COLD_REPS)}
    code = "import time; t = time.perf_counter(); import pvqc; print(time.perf_counter() - t)"
    out["import_pvqc_ms"] = min(float(_fresh("-c", code)) for _ in range(COLD_REPS)) * 1e3
    return out


def measure() -> dict[str, float]:
    from pvqc import dvproof, fixtures, qsim
    from pvqc.qsim.circuit import DOUBLE_GATES, PARAM_GATES, SINGLE_GATES

    def gate(kind, targets):
        return qsim.Gate(kind, targets, params=(0.7,) if kind in PARAM_GATES else ())

    out = {}
    for n in QUBITS:
        rng = random.Random(n)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(GATES)]
        reps = 3 if n == 15 else 15

        def ms(gates):
            c = qsim.Circuit(n_qubits=n, gates=tuple(gates), output_qubit=0)
            return _best_ms(lambda: qsim.run(c), reps)

        cz_ms = ms(gate("CZ", p) for p in pairs)
        for kind in SINGLE_GATES:
            gates = [g for p in pairs for g in (gate(kind, p[:1]), gate("CZ", p))]
            out[f"us_per_gate.{kind}.{n}q"] = (ms(gates) - cz_ms) / GATES * 1e3
        for kind in DOUBLE_GATES:
            gates = [gate(kind, p) for p in pairs]
            out[f"us_per_gate.{kind}.{n}q"] = ms(gates) / GATES * 1e3

    corpus = fixtures.accepting_corpus()
    out["corpus_accept_prob_ms"] = _best_ms(
        lambda: [qsim.accept_prob(c, x) for c, x in corpus], 5)
    out["corpus_circuit_digest_ms"] = _best_ms(
        lambda: [dvproof.circuit_digest(c) for c, _ in corpus], 15)
    with tempfile.TemporaryDirectory() as tmp:
        argvs = _cli_verify_argvs(corpus, Path(tmp))
        out["corpus_verify_ms"] = _corpus_verify_ms(corpus, argvs)
        out.update(_parse_rows(corpus))
        out.update(_cli_rows(argvs))
    big = qsim.random_circuit(15, 300, 15301)
    out["random_circuit_15q_300_run_ms"] = _best_ms(lambda: qsim.run(big), 3)
    return out


def compare(trees: list[str], rounds: int) -> dict:
    samples: dict[str, dict[str, list[float]]] = {t: {} for t in trees}
    for r in range(rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            env = dict(os.environ, PYTHONPATH=tree, OMP_NUM_THREADS="1",
                       OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
            line = subprocess.run([sys.executable, __file__], env=env, check=True,
                                  capture_output=True, text=True).stdout
            rows = json.loads(line)
            where = rows.pop("pvqc_file")
            print(f"round {r}: {tree}: {where}", file=sys.stderr)
            if Path(tree).resolve() not in Path(where).resolve().parents:
                sys.exit(f"pvqc was imported from {where}, not {tree}")
            for name, value in rows.items():
                samples[tree].setdefault(name, []).append(value)
    return {tree: {name: _summary(v) for name, v in rows.items()}
            for tree, rows in samples.items()}


def _summary(v: list[float]) -> dict[str, float]:
    row = {"median": statistics.median(v), "min": min(v), "n": len(v)}
    if len(v) >= 2:
        row["q1"], _, row["q3"] = statistics.quantiles(v, n=4, method="inclusive")
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trees", nargs="+", help="src directories to compare")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if args.trees:
        print(json.dumps(compare(args.trees, args.rounds), indent=1))
    else:
        import pvqc
        print(json.dumps({"pvqc_file": pvqc.__file__, **measure()}))


if __name__ == "__main__":
    main()
