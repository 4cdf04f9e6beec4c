"""Command-line surface for the protocol phases, the soundness
experiments, and the benchmark suite.

Exit codes: 0 accept/success, 1 reject, 2 usage or runtime error.
The ledger is the one global timeline: a command's logical clock starts
at the tau of the ledger's last record, so successive invocations share
it (reveal-then-prove stamps late).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import compiler, dvproof, qsim, timestamp
from .compiler import CostModel

if TYPE_CHECKING:
    from .meter import MeteredClock

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2

# `--strategy` name -> harness strategy.  Written out, so that only
# `experiment` imports the harness; a test pins it to harness.STRATEGIES.
_STRATEGY_ALIASES = {"honest": "HONEST", "a1": "A1_GUESS_KEY",
                     "a2": "A2_SOLVE_THEN_FORGE", "a3": "A3_ALT_OPENING",
                     "a4": "A4_RANDOM_TAG"}


def _read_statement(args) -> tuple[qsim.Circuit, list[int]]:
    """The statement (C, x) named by `--circuit` and `--input`."""
    circuit = qsim.circuit_from_text(Path(args.circuit).read_text())
    text = Path(args.input).read_text().strip()
    if any(ch not in "01" for ch in text):
        raise ValueError("input file must contain only 0/1 characters")
    return circuit, [int(ch) for ch in text]


def _open_ledger(path) -> tuple[timestamp.Ledger, MeteredClock]:
    """The ledger at `path`, or an empty one if there is none, and the
    CLI's time: a clock at the tau of the ledger's last record, or 0.
    Writes nothing; the command saves the ledger after its stamp."""
    from .meter import MeteredClock     # here, so that `pvqc verify` never loads it

    ledger = (timestamp.Ledger.load(path) if Path(path).exists()
              else timestamp.Ledger(timestamp.new_mac_key()))
    records = ledger.records
    return ledger, MeteredClock(start=records[-1][1] if records else 0)


def _cmd_setup(args) -> int:
    circuit, x = _read_statement(args)
    cost = CostModel.from_circuit(circuit, epsilon=args.epsilon)
    crs, token = compiler.vc_setup(compiler.DEFAULT_LAMBDA, circuit, x, cost)
    Path(args.crs).write_bytes(compiler.serialize_crs(crs))
    Path(args.oracle).write_bytes(dvproof.serialize_token(token))
    print(f"crs written: delta={crs.delta} t_units={cost.t_units}")
    return EXIT_ACCEPT


def _cmd_prove(args) -> int:
    crs = compiler.parse_crs(Path(args.crs).read_bytes())
    circuit, x = _read_statement(args)
    token = dvproof.parse_token(Path(args.oracle).read_bytes())
    ledger, clock = _open_ledger(args.ledger)
    pi_tau = compiler.vc_prove(crs, circuit, x, token, ledger, clock,
                               CostModel.from_circuit(circuit))
    ledger.save(args.ledger)
    Path(args.proof).write_bytes(compiler.serialize_timestamped_proof(pi_tau))
    print(f"proof stamped at tau={pi_tau.stamp.tau} (deadline delta={crs.delta})")
    return EXIT_ACCEPT


def _cmd_reveal(args) -> int:
    crs = compiler.parse_crs(Path(args.crs).read_bytes())
    ledger, clock = _open_ledger(args.ledger)

    def progress(step):
        print(f"solved {step}/{crs.tpk.mu} steps", file=sys.stderr)

    record = compiler.serialize_opening(compiler.vc_reveal(crs, clock, progress=progress))
    ledger.stamp(record, clock)     # the public "key released at tau" event
    ledger.save(args.ledger)
    Path(args.opening).write_bytes(record)
    print(f"opening recovered after {crs.tpk.mu} sequential steps")
    return EXIT_ACCEPT


def _cmd_verify(args) -> int:
    crs = compiler.parse_crs(Path(args.crs).read_bytes())
    circuit, x = _read_statement(args)
    pi_tau = compiler.parse_timestamped_proof(Path(args.proof).read_bytes())
    opening = compiler.parse_opening_record(Path(args.opening).read_bytes())
    ledger = timestamp.Ledger.load(args.ledger)
    verdict, site = compiler.vc_verify_explain(crs, circuit, x, pi_tau, opening, ledger)
    if verdict:
        print("accept")
        return EXIT_ACCEPT
    print(f"reject (site={site})")
    return EXIT_REJECT


def _cmd_experiment(args) -> int:
    from . import harness   # only this command runs it
    circuit, x = _read_statement(args)
    spec = harness.AdversarySpec(strategy=_STRATEGY_ALIASES[args.strategy])
    report = harness.run_experiment(spec, circuit, x, trials=args.trials, seed=args.seed)
    print(report.to_text(), end="")
    return EXIT_ACCEPT if report.wins == 0 else EXIT_REJECT


def _cmd_bench(args) -> int:
    from . import bench     # only this command runs it
    if args.suite == "tlp":
        rows = bench.bench_tlp(repetitions=args.repetitions)
    elif args.suite == "circuits":
        rows = bench.bench_circuits(repetitions=args.repetitions)
    else:
        rows = bench.bench_hhl()
    print(bench.report_to_text(rows), end="")
    return EXIT_ACCEPT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Parsing leaves
    it unchanged, so every `main` call reuses it; callers must not modify
    it.  Building it costs about as much as the rest of an in-process
    verify."""
    parser = argparse.ArgumentParser(
        prog="pvqc",
        description="time-delayed publicly verifiable delegation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_statement(p):
        p.add_argument("--circuit", required=True, help="circuit text file")
        p.add_argument("--input", required=True, help="input bit-string file")

    p = sub.add_parser("setup", help="generate CRS and prover oracle token")
    add_statement(p)
    p.add_argument("--epsilon", type=float, default=compiler.DEFAULT_EPSILON)
    p.add_argument("--crs", required=True)
    p.add_argument("--oracle", required=True)
    p.set_defaults(fn=_cmd_setup)

    p = sub.add_parser("prove", help="run the prover and timestamp the proof")
    add_statement(p)
    p.add_argument("--crs", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--ledger", required=True)
    p.add_argument("--proof", required=True)
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("reveal", help="solve the puzzle and write the opening")
    p.add_argument("--crs", required=True)
    p.add_argument("--opening", required=True)
    p.add_argument("--ledger", required=True, help="stamp the opening on this ledger")
    p.set_defaults(fn=_cmd_reveal)

    p = sub.add_parser("verify", help="publicly verify a timestamped proof")
    add_statement(p)
    p.add_argument("--crs", required=True)
    p.add_argument("--proof", required=True)
    p.add_argument("--opening", required=True)
    p.add_argument("--ledger", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("experiment", help="run the soundness experiment")
    add_statement(p)
    p.add_argument("--strategy", choices=sorted(_STRATEGY_ALIASES), required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("bench", help="benchmark suites")
    p.set_defaults(fn=_cmd_bench)
    suites = p.add_subparsers(dest="suite", required=True)
    for suite in ("tlp", "circuits"):     # hhl has nothing to repeat
        suites.add_parser(suite).add_argument("--repetitions", type=int, default=5)
    suites.add_parser("hhl")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
