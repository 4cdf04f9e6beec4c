"""CLI tests: the four protocol phases across separate invocations,
experiment and bench subcommands, exit-code discipline, and the commands
that README.md shows."""

import dataclasses
import errno
import os
import re
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from pvqc import bench, cli, commit, compiler, harness, qsim, tlp
from pvqc.commit import Opening
from pvqc.fixtures import (accepting_corpus, small_accepting_circuit,
                           small_rejecting_circuit)


def _make_workspace(root):
    circuit, x = small_accepting_circuit()
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "circuit": root / "circuit.txt",
        "input": root / "input.txt",
        "crs": root / "crs.bin",
        "oracle": root / "oracle.bin",
        "ledger": root / "ledger.bin",
        "proof": root / "proof.bin",
        "opening": root / "opening.bin",
    }
    paths["circuit"].write_text(qsim.circuit_to_text(circuit))
    paths["input"].write_text("".join(str(b) for b in x))
    return paths


@pytest.fixture
def workspace(tmp_path):
    return _make_workspace(tmp_path)


def _statement_args(paths):
    return ["--circuit", str(paths["circuit"]), "--input", str(paths["input"])]


def _setup(paths):
    return cli.main(["setup", *_statement_args(paths),
                     "--crs", str(paths["crs"]), "--oracle", str(paths["oracle"])])


def _prove(paths):
    return cli.main(["prove", *_statement_args(paths),
                     "--crs", str(paths["crs"]), "--oracle", str(paths["oracle"]),
                     "--ledger", str(paths["ledger"]), "--proof", str(paths["proof"])])


def _reveal(paths):
    return cli.main(["reveal", "--crs", str(paths["crs"]),
                     "--ledger", str(paths["ledger"]),
                     "--opening", str(paths["opening"])])


def _run_pipeline(paths):
    assert _setup(paths) == cli.EXIT_ACCEPT
    assert _prove(paths) == cli.EXIT_ACCEPT
    assert _reveal(paths) == cli.EXIT_ACCEPT


def _verify(paths):
    return cli.main(["verify", *_statement_args(paths),
                     "--crs", str(paths["crs"]), "--proof", str(paths["proof"]),
                     "--opening", str(paths["opening"]),
                     "--ledger", str(paths["ledger"])])


def test_full_pipeline_accepts(workspace, capsys):
    _run_pipeline(workspace)
    assert _verify(workspace) == cli.EXIT_ACCEPT
    assert "accept" in capsys.readouterr().out


def test_tampered_proof_rejects(workspace, capsys):
    _run_pipeline(workspace)
    blob = bytearray(workspace["proof"].read_bytes())
    blob[-1] ^= 0x01
    workspace["proof"].write_bytes(bytes(blob))
    assert _verify(workspace) == cli.EXIT_REJECT
    assert "reject" in capsys.readouterr().out


def test_reveal_before_prove_stamps_late(workspace, capsys):
    assert _setup(workspace) == cli.EXIT_ACCEPT
    # Solving first advances the shared logical clock past the deadline.
    assert _reveal(workspace) == cli.EXIT_ACCEPT
    assert _prove(workspace) == cli.EXIT_ACCEPT
    assert _verify(workspace) == cli.EXIT_REJECT
    assert "site=timestamp" in capsys.readouterr().out


def test_reveal_requires_a_ledger(workspace):
    # Every reveal stamps the opening: there is no ledger-less reveal.
    assert _setup(workspace) == cli.EXIT_ACCEPT
    with pytest.raises(SystemExit) as exc:
        cli.main(["reveal", "--crs", str(workspace["crs"]),
                  "--opening", str(workspace["opening"])])
    assert exc.value.code == cli.EXIT_ERROR
    assert not workspace["opening"].exists()


def _ledger_taus(paths):
    return [tau for _, tau, _ in cli._load_ledger(paths["ledger"]).records]


@pytest.mark.parametrize("late", [False, True], ids=["honest", "late"])
def test_corpus_statement_tau_values(workspace, late):
    # Corpus statement 7: T = 76 units, delta = 664.  The ledger is the
    # only timeline: the proof and the opening are both stamped on it, and
    # nothing else is written next to it.
    circuit, x = accepting_corpus()[7]
    workspace["circuit"].write_text(qsim.circuit_to_text(circuit))
    workspace["input"].write_text("".join(str(b) for b in x))
    workspace["ledger"] = workspace["ledger"].parent / "log" / "ledger.bin"
    workspace["ledger"].parent.mkdir()
    assert _setup(workspace) == cli.EXIT_ACCEPT
    assert compiler.parse_crs(workspace["crs"].read_bytes()).delta == 664
    steps = (_reveal, _prove) if late else (_prove, _reveal)
    assert all(step(workspace) == cli.EXIT_ACCEPT for step in steps)
    tau = compiler.parse_timestamped_proof(workspace["proof"].read_bytes()).stamp.tau
    assert tau == (740 if late else 76)
    assert _ledger_taus(workspace) == ([664, 740] if late else [76, 740])
    assert sorted(p.name for p in workspace["ledger"].parent.iterdir()) == \
        ["ledger.bin", "ledger.bin.key"]
    assert _verify(workspace) == (cli.EXIT_REJECT if late else cli.EXIT_ACCEPT)


def test_time_survives_losing_files_next_to_the_ledger(workspace):
    # After the key is revealed, a prove must stamp at or after delta even
    # when every file beside the ledger and its key is gone.
    workspace["ledger"] = workspace["ledger"].parent / "log" / "ledger.bin"
    workspace["ledger"].parent.mkdir()
    _run_pipeline(workspace)
    for p in workspace["ledger"].parent.iterdir():
        if p.name not in ("ledger.bin", "ledger.bin.key"):
            p.unlink()
    assert _prove(workspace) == cli.EXIT_ACCEPT
    delta = compiler.parse_crs(workspace["crs"].read_bytes()).delta
    pi_tau = compiler.parse_timestamped_proof(workspace["proof"].read_bytes())
    assert pi_tau.stamp.tau >= delta
    assert _verify(workspace) == cli.EXIT_REJECT


def test_prove_rejecting_circuit_errors(workspace, tmp_path):
    circuit, x = small_rejecting_circuit()
    workspace["circuit"].write_text(qsim.circuit_to_text(circuit))
    workspace["input"].write_text("".join(str(b) for b in x))
    assert _setup(workspace) == cli.EXIT_ACCEPT
    assert _prove(workspace) == cli.EXIT_ERROR
    # A refused prove stamps nothing and does not move the ledger's time.
    assert _ledger_taus(workspace) == []


def test_verify_empty_committed_key_rejects(workspace, capsys):
    _run_pipeline(workspace)
    crs = compiler.parse_crs(workspace["crs"].read_bytes())
    r = bytes(32)
    crs = dataclasses.replace(crs, commitment=commit.commit(b"", r))
    workspace["crs"].write_bytes(compiler.serialize_crs(crs))
    workspace["opening"].write_bytes(
        compiler.serialize_opening(Opening(sk_bytes=b"", r=r)))
    assert _verify(workspace) == cli.EXIT_REJECT
    assert "site=mac_tag" in capsys.readouterr().out


def test_missing_file_is_error(workspace):
    assert cli.main(["verify", *_statement_args(workspace),
                     "--crs", str(workspace["crs"]), "--proof", "/nonexistent",
                     "--opening", "/nonexistent",
                     "--ledger", str(workspace["ledger"])]) == cli.EXIT_ERROR


def _tree(root):
    return {p.name: p.read_bytes() for p in root.iterdir()}


def test_verify_writes_nothing(workspace):
    _run_pipeline(workspace)
    root = workspace["ledger"].parent
    before = _tree(root)
    assert _verify(workspace) == cli.EXIT_ACCEPT
    assert _tree(root) == before
    # A missing ledger is an error, and verify must not create one.
    workspace["ledger"] = root / "missing.bin"
    assert _verify(workspace) == cli.EXIT_ERROR
    assert _tree(root) == before


def test_new_ledger_files_are_written_whole(tmp_path, monkeypatch):
    # The key file and the ledger go through a temp file and a rename:
    # when the rename fails, neither appears and no temp file is left.
    def failing_replace(src, dst):
        raise OSError(errno.EIO, "rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        cli._open_ledger(tmp_path / "ledger.bin")
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []
    cli._open_ledger(tmp_path / "ledger.bin")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.bin", "ledger.bin.key"]


def test_bad_input_file_is_error(workspace):
    workspace["input"].write_text("01x")
    assert cli.main(["setup", *_statement_args(workspace),
                     "--crs", str(workspace["crs"]),
                     "--oracle", str(workspace["oracle"])]) == cli.EXIT_ERROR


@pytest.mark.parametrize("epsilon,message", [
    ("20", "error: mu must be < 2**64: a CRS record stores it as a u64"),
    ("300", "error: deadline too large: t_seconds^(1+epsilon) overflows"),
])
def test_setup_refuses_a_deadline_the_crs_cannot_hold(workspace, capsys, monkeypatch,
                                                      epsilon, message):
    # The fixture costs 18 units: 18^21 steps pass the u64 mu of the CRS
    # record, and 18^301 overflows a float.  Neither may start the walk.
    def walk(*args, **kwargs):
        raise AssertionError("the chain walk started")

    monkeypatch.setattr(tlp, "_walk_chain", walk)
    assert cli.main(["setup", *_statement_args(workspace), "--epsilon", epsilon,
                     "--crs", str(workspace["crs"]),
                     "--oracle", str(workspace["oracle"])]) == cli.EXIT_ERROR
    assert capsys.readouterr().err.strip() == message
    assert not workspace["crs"].exists()


def test_strategy_aliases_name_every_harness_strategy():
    assert cli._STRATEGY_ALIASES == {s.split("_")[0].lower(): s
                                     for s in harness.STRATEGIES}


def test_experiment_command(workspace, tmp_path, capsys):
    summary = tmp_path / "summary.txt"
    code = cli.main(["experiment", *_statement_args(workspace),
                     "--strategy", "a1", "--trials", "5", "--seed", "1",
                     "--summary", str(summary)])
    assert code == cli.EXIT_ACCEPT
    out = capsys.readouterr().out
    assert "wins=0" in out
    assert summary.read_text() == out


def test_experiment_honest_command(workspace, capsys):
    code = cli.main(["experiment", *_statement_args(workspace),
                     "--strategy", "honest", "--trials", "3", "--seed", "1"])
    assert code == cli.EXIT_ACCEPT
    assert "wins=0" in capsys.readouterr().out


def _report_rows(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def test_bench_tlp_command(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code = cli.main(["bench", "tlp", "--repetitions", "1", "--out", str(out_path)])
    assert code == cli.EXIT_ACCEPT
    data_lines = _report_rows(out_path)
    assert len(data_lines) == 4
    assert all("solve_ms=" in ln for ln in data_lines)


def test_bench_circuits_command(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "QUBITS", (5,))
    monkeypatch.setattr(bench, "DEPTHS", (10,))
    out_path = tmp_path / "report.txt"
    code = cli.main(["bench", "circuits", "--repetitions", "1", "--out", str(out_path)])
    assert code == cli.EXIT_ACCEPT
    rows = _report_rows(out_path)
    assert len(rows) == 1
    assert rows[0].startswith("row=circuit qubits=5 depth=10 ")
    assert "solve_ms=" in rows[0]


def test_bench_hhl_command(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "HHL_SIZES", (2,))
    out_path = tmp_path / "report.txt"
    assert cli.main(["bench", "hhl", "--out", str(out_path)]) == cli.EXIT_ACCEPT
    rows = _report_rows(out_path)
    assert len(rows) == 1
    assert rows[0].startswith("row=hhl n=2 ")


def _readme_commands():
    """Every `pvqc ...` line of README.md's shell blocks, with backslash
    continuations joined and `#` comments stripped, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["pvqc"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "setup", "prove", "reveal", "verify", "experiment", "bench"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: pvqc {shlex.join(argv)}")


def test_unknown_subcommand_errors():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def _session_outputs(root, capsys):
    """Run one script of commands through `cli.main` in `root`: an honest
    session, a late-order session, a reveal without --ledger, then an
    experiment with and one without --summary.  Returns each command's
    (exit code, stdout, stderr) and the text of every summary written."""
    honest, late = _make_workspace(root / "honest"), _make_workspace(root / "late")
    summary = root / "summary.txt"
    experiment = ["experiment", *_statement_args(honest), "--strategy", "a1",
                  "--trials", "3", "--seed", "1"]
    steps = [*(partial(step, honest) for step in (_setup, _prove, _reveal, _verify)),
             *(partial(step, late) for step in (_setup, _reveal, _prove, _verify)),
             partial(cli.main, ["reveal", "--crs", str(honest["crs"]),
                                "--opening", str(root / "opening.bin")]),
             partial(cli.main, [*experiment, "--summary", str(summary)]),
             partial(cli.main, experiment)]
    outputs, summaries = [], []
    for step in steps:
        try:
            code = step()
        except SystemExit as exc:
            code = exc.code
        outputs.append((code, *capsys.readouterr()))
        if summary.exists():
            summaries.append(summary.read_text())
            summary.unlink()
    return outputs, summaries


def test_one_parser_serves_a_whole_session(tmp_path, capsys, monkeypatch):
    # cli.main parses with one parser per process; no state of one call
    # reaches the next, so every command behaves as on a fresh parser.
    assert cli.build_parser() is cli.build_parser()
    reused, summaries = _session_outputs(tmp_path / "reused", capsys)
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0]
    assert summaries == [reused[-2][1]]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert _session_outputs(tmp_path / "fresh", capsys) == (reused, summaries)


def test_verify_loads_neither_numpy_nor_the_simulator(workspace):
    _run_pipeline(workspace)
    argv = ["verify", *_statement_args(workspace), "--crs", str(workspace["crs"]),
            "--proof", str(workspace["proof"]), "--opening", str(workspace["opening"]),
            "--ledger", str(workspace["ledger"])]
    script = f"""
import sys

def assert_unloaded(*names):
    found = set(names) & set(sys.modules)
    assert not found, found

unused_by_verify = ("numpy", "pvqc.qsim.simulator", "pvqc.bench", "pvqc.fixtures",
                    "pvqc.harness", "statistics")
import pvqc
assert_unloaded(*unused_by_verify)
from pvqc import cli, qsim
assert cli.main({argv!r}) == cli.EXIT_ACCEPT
assert_unloaded(*unused_by_verify)
from pvqc import fixtures
qsim.accept_prob(*fixtures.small_accepting_circuit())
assert "accept_prob" in vars(qsim)
"""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
