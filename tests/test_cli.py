"""CLI tests: the four protocol phases across separate invocations,
experiment and bench subcommands, exit-code discipline, and the commands
that README.md shows."""

import argparse
import errno
import os
import re
import shlex
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from pvqc import bench, cli, commit, compiler, dvproof, harness, qsim, timestamp, tlp
from pvqc.commit import Opening
from pvqc.errors import FormatError, ParameterError
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


def test_reveal_reports_progress_per_interval(workspace, capsys, monkeypatch):
    # Every delta the tests and benchmarks use is below the 2**16-step
    # interval, so only a smaller one reaches reveal's progress lines.
    monkeypatch.setattr(tlp, "PROGRESS_INTERVAL", 8)
    assert _setup(workspace) == cli.EXIT_ACCEPT
    assert _prove(workspace) == cli.EXIT_ACCEPT
    delta = compiler.parse_crs(workspace["crs"].read_bytes()).delta
    assert delta > 2 * 8 and delta % 8
    tau = _ledger_taus(workspace)[-1]
    capsys.readouterr()
    assert _reveal(workspace) == cli.EXIT_ACCEPT
    assert capsys.readouterr().err.splitlines() == [
        f"solved {k}/{delta} steps" for k in range(8, delta + 1, 8)]
    assert _ledger_taus(workspace)[-1] == tau + delta
    assert _verify(workspace) == cli.EXIT_ACCEPT


def test_reveal_requires_a_ledger(workspace):
    # Every reveal stamps the opening: there is no ledger-less reveal.
    assert _setup(workspace) == cli.EXIT_ACCEPT
    with pytest.raises(SystemExit) as exc:
        cli.main(["reveal", "--crs", str(workspace["crs"]),
                  "--opening", str(workspace["opening"])])
    assert exc.value.code == cli.EXIT_ERROR
    assert not workspace["opening"].exists()


def _ledger_taus(paths):
    return [tau for _, tau, _ in timestamp.Ledger.load(paths["ledger"]).records]


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
    assert sorted(p.name for p in workspace["ledger"].parent.iterdir()) == ["ledger.bin"]
    assert _verify(workspace) == (cli.EXIT_REJECT if late else cli.EXIT_ACCEPT)


def test_time_survives_losing_files_next_to_the_ledger(workspace):
    # After the key is revealed, a prove must stamp at or after delta even
    # when every file beside the ledger is gone.
    workspace["ledger"] = workspace["ledger"].parent / "log" / "ledger.bin"
    workspace["ledger"].parent.mkdir()
    _run_pipeline(workspace)
    for p in workspace["ledger"].parent.iterdir():
        if p.name != "ledger.bin":
            p.unlink()
    assert _prove(workspace) == cli.EXIT_ACCEPT
    delta = compiler.parse_crs(workspace["crs"].read_bytes()).delta
    pi_tau = compiler.parse_timestamped_proof(workspace["proof"].read_bytes())
    assert pi_tau.stamp.tau >= delta
    assert _verify(workspace) == cli.EXIT_REJECT


def test_prove_rejecting_circuit_errors(workspace, capsys):
    circuit, x = small_rejecting_circuit()
    workspace["circuit"].write_text(qsim.circuit_to_text(circuit))
    workspace["input"].write_text("".join(str(b) for b in x))
    assert _setup(workspace) == cli.EXIT_ACCEPT
    capsys.readouterr()
    # The refusal takes cli.main's one error path.
    assert _prove(workspace) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", "error: circuit does not accept: honest prover refuses\n")
    # A refused prove stamps nothing and does not move the ledger's time:
    # it writes no ledger.
    assert not workspace["ledger"].exists()


def test_verify_empty_committed_key_rejects(workspace, capsys):
    _run_pipeline(workspace)
    crs = compiler.parse_crs(workspace["crs"].read_bytes())
    r = bytes(32)
    crs = compiler.Crs(crs.tpk, crs.pk, crs.puzzle, commit.commit(b"", r))
    workspace["crs"].write_bytes(compiler.serialize_crs(crs))
    workspace["opening"].write_bytes(
        compiler.serialize_opening(Opening(sk_bytes=b"", r=r)))
    assert _verify(workspace) == cli.EXIT_REJECT
    assert "site=mac_tag" in capsys.readouterr().out


# Known breaks of the deadline claim on the public path.  Each test states
# the claim and fails at its last assert until the ROADMAP item it names
# lands; that change removes the marker.

def _known_break(item, what):
    return pytest.mark.xfail(raises=AssertionError, reason=f"ROADMAP item {item}: {what}")


def _stamp_forgery(paths, mac_key):
    """Stamp a proof forged under `mac_key` on the ledger at `paths`,
    through the CLI's ledger, and write it as the proof file; its tau."""
    crs = compiler.parse_crs(paths["crs"].read_bytes())
    ledger, clock = cli._open_ledger(paths["ledger"])
    pi_tau = compiler.stamp_proof(
        dvproof.forge_proof(dvproof.DvSecretKey(mac_key), crs.pk, 1), ledger, clock)
    ledger.save(paths["ledger"])
    paths["proof"].write_bytes(compiler.serialize_timestamped_proof(pi_tau))
    return pi_tau.stamp.tau


@_known_break(1, "break B, a ledger serves one session")
def test_two_honest_sessions_share_one_ledger(tmp_path, capsys):
    first, second = _make_workspace(tmp_path / "first"), _make_workspace(tmp_path / "second")
    second["ledger"] = first["ledger"]
    _run_pipeline(first)
    assert _verify(first) == cli.EXIT_ACCEPT
    _run_pipeline(second)
    capsys.readouterr()
    _verify(second)
    assert capsys.readouterr().out == "accept\n"


@_known_break(3, "break C, the ledger's time moves only when a party reports work")
def test_key_revealed_off_the_ledger_forges_nothing(workspace, tmp_path):
    assert _setup(workspace) == cli.EXIT_ACCEPT
    throwaway = dict(workspace, ledger=tmp_path / "throwaway.bin")
    assert _reveal(throwaway) == cli.EXIT_ACCEPT
    opening = compiler.parse_opening_record(workspace["opening"].read_bytes())
    assert _stamp_forgery(workspace, opening.sk_bytes) == 0
    assert compiler.parse_crs(workspace["crs"].read_bytes()).delta == 78
    assert _verify(workspace) == cli.EXIT_REJECT


@_known_break(2, "break D, the oracle token holds the verification key")
def test_oracle_token_forges_nothing(workspace):
    circuit, x = small_rejecting_circuit()
    workspace["circuit"].write_text(qsim.circuit_to_text(circuit))
    workspace["input"].write_text("".join(str(b) for b in x))
    assert _setup(workspace) == cli.EXIT_ACCEPT
    assert _prove(workspace) == cli.EXIT_ERROR
    token = dvproof.parse_token(workspace["oracle"].read_bytes())
    assert _stamp_forgery(workspace, token.mac_key) == 0
    assert _reveal(workspace) == cli.EXIT_ACCEPT
    assert _verify(workspace) == cli.EXIT_REJECT


@_known_break(1, "step 1, a save replaces the ledger another handle saved")
def test_two_ledger_handles_keep_both_records(tmp_path):
    path = tmp_path / "ledger.bin"
    handles = [cli._open_ledger(path) for _ in range(2)]
    for i, (ledger, clock) in enumerate(handles):
        ledger.stamp(bytes([i]), clock)
        ledger.save(path)
    assert len(timestamp.Ledger.load(path).records) == 2


def _stamp_late_forgery(paths):
    """Set up, reveal on the session's own ledger, and stamp a proof forged
    under the revealed key: tau 79 against delta 78."""
    assert _setup(paths) == cli.EXIT_ACCEPT
    assert _reveal(paths) == cli.EXIT_ACCEPT
    opening = compiler.parse_opening_record(paths["opening"].read_bytes())
    assert _stamp_forgery(paths, opening.sk_bytes) == 79


@_known_break(12, "break E, verify reads the deadline from the CRS it is handed")
def test_edited_crs_deadline_forges_nothing(workspace, tmp_path, capsys):
    _stamp_late_forgery(workspace)
    capsys.readouterr()
    assert _verify(workspace) == cli.EXIT_REJECT
    assert capsys.readouterr().out == "reject (site=timestamp)\n"
    crs = bytearray(workspace["crs"].read_bytes())
    crs[37] ^= 0x01                     # the top byte of u64be mu
    edited = dict(workspace, crs=tmp_path / "edited_crs.bin")
    edited["crs"].write_bytes(crs)
    assert compiler.parse_crs(bytes(crs)).delta == 2**56 + 78
    assert _verify(edited) == cli.EXIT_REJECT


# The bytes of the four records a verifier reads where some single-bit
# flip keeps an honest session's accept: the CRS's seed and mu, its
# puzzle's nonce, ciphertext and tag, and the ledger's second record, the
# reveal record.  Verify reads none of them but mu, and an early proof
# stays early under most edits of mu; item 12 binds it.
_UNREAD_BYTES = ({("crs", i) for lo, hi in ((5, 45), (131, 147), (151, 251))
                  for i in range(lo, hi)}
                 | {("ledger", i) for i in range(77, 149)})


def _accepting_flips(paths):
    """The (record, byte) positions of the session's records at which some
    single-bit flip still verifies; a record that fails to parse rejects."""
    scratch = paths["ledger"].parent / "flipped_ledger.bin"

    def load_ledger(data):
        scratch.write_bytes(data)
        return timestamp.Ledger.load(scratch)

    parse = {"crs": compiler.parse_crs, "proof": compiler.parse_timestamped_proof,
             "opening": compiler.parse_opening_record, "ledger": load_ledger}
    blobs = {name: paths[name].read_bytes() for name in parse}
    genuine = {name: parse[name](blob) for name, blob in blobs.items()}
    circuit, x = small_accepting_circuit()
    accepting = set()
    for name, blob in blobs.items():
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                records = dict(genuine, **{name: parse[name](bytes(flipped))})
            except (FormatError, ParameterError):
                continue
            if compiler.vc_verify_explain(records["crs"], circuit, x, records["proof"],
                                          records["opening"], records["ledger"])[0]:
                accepting.add((name, bit // 8))
    return accepting


def test_flips_that_keep_an_honest_accept_are_in_unread_bytes(workspace):
    _run_pipeline(workspace)
    assert {name: len(workspace[name].read_bytes())
            for name in ("crs", "proof", "opening", "ledger")} == \
        {"crs": 283, "proof": 78, "opening": 68, "ledger": 149}
    assert _accepting_flips(workspace) == _UNREAD_BYTES


@_known_break(12, "break E, a flip of mu in the CRS moves the deadline")
def test_no_single_flip_accepts_a_late_forgery(workspace):
    _stamp_late_forgery(workspace)
    assert _accepting_flips(workspace) == set()


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


def test_verify_reports_a_bad_ledger(workspace, capsys):
    # A corrupt ledger is a FormatError and a missing one the OSError of
    # reading it; both take cli.main's one error path.
    _run_pipeline(workspace)
    workspace["ledger"].write_bytes(b"XXXX")
    capsys.readouterr()
    assert _verify(workspace) == cli.EXIT_ERROR
    assert capsys.readouterr().err == "error: bad ledger header\n"
    workspace["ledger"].unlink()
    assert _verify(workspace) == cli.EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


def test_new_ledger_files_are_written_whole(workspace, monkeypatch):
    # The ledger goes through a temp file and a rename: when the rename
    # fails, prove exits 2, and no ledger, proof or temp file appears.
    def failing_replace(src, dst):
        raise OSError(errno.EIO, "rename failed")

    assert _setup(workspace) == cli.EXIT_ACCEPT
    before = _tree(workspace["ledger"].parent)
    monkeypatch.setattr(os, "replace", failing_replace)
    assert _prove(workspace) == cli.EXIT_ERROR
    monkeypatch.undo()
    assert _tree(workspace["ledger"].parent) == before


def test_verify_needs_only_the_files_it_names(workspace, tmp_path):
    # A public verifier holds no secret: the six files verify names,
    # copied elsewhere, suffice, and the session writes no key file.
    _run_pipeline(workspace)
    public = {name: tmp_path / "public" / workspace[name].name
              for name in ("circuit", "input", "crs", "proof", "opening", "ledger")}
    public["circuit"].parent.mkdir()
    for name, path in public.items():
        shutil.copyfile(workspace[name], path)
    assert _verify(public) == cli.EXIT_ACCEPT
    assert list(workspace["ledger"].parent.glob("*.key")) == []


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


_NON_UNITARY = "qubits 2 output 1\nDENSE_UNITARY 0\n1.0,0.0 1.0,0.0\n0.0,0.0 1.0,0.0\n"


def test_setup_refuses_a_non_unitary_block(workspace, capsys, monkeypatch):
    # No prover could evaluate the statement, so setup refuses it when it
    # reads it, before the walk, and writes no CRS.
    def walk(*args, **kwargs):
        raise AssertionError("the chain walk started")

    with pytest.raises(ParameterError, match="^DENSE_UNITARY matrix is not unitary$"):
        qsim.circuit_from_text(_NON_UNITARY)
    monkeypatch.setattr(tlp, "_walk_chain", walk)
    workspace["circuit"].write_text(_NON_UNITARY)
    workspace["input"].write_text("00")
    assert _setup(workspace) == cli.EXIT_ERROR
    assert capsys.readouterr().err.strip() == "error: DENSE_UNITARY matrix is not unitary"
    assert not workspace["crs"].exists()


def test_strategy_aliases_name_every_harness_strategy():
    assert cli._STRATEGY_ALIASES == {s.split("_")[0].lower(): s
                                     for s in harness.STRATEGIES}


def test_experiment_command(workspace, capsys):
    # The report is stdout: exactly the harness report, nothing else.
    code = cli.main(["experiment", *_statement_args(workspace),
                     "--strategy", "a1", "--trials", "5", "--seed", "1"])
    assert code == cli.EXIT_ACCEPT
    circuit, x = small_accepting_circuit()
    report = harness.run_experiment(
        harness.AdversarySpec(strategy=harness.A1_GUESS_KEY), circuit, x,
        trials=5, seed=1)
    assert report.wins == 0
    assert capsys.readouterr() == (report.to_text(), "")


def test_experiment_honest_command(workspace, capsys):
    code = cli.main(["experiment", *_statement_args(workspace),
                     "--strategy", "honest", "--trials", "3", "--seed", "1"])
    assert code == cli.EXIT_ACCEPT
    assert "wins=0" in capsys.readouterr().out


def _report_rows(capsys):
    """The data rows of the report a bench command printed to stdout."""
    out, err = capsys.readouterr()
    assert err == ""
    return [ln for ln in out.splitlines() if not ln.startswith("#")]


def test_bench_tlp_command(capsys):
    assert cli.main(["bench", "tlp", "--repetitions", "1"]) == cli.EXIT_ACCEPT
    data_lines = _report_rows(capsys)
    assert len(data_lines) == 4
    assert all("solve_ms=" in ln for ln in data_lines)


def test_bench_circuits_command(capsys, monkeypatch):
    monkeypatch.setattr(bench, "QUBITS", (5,))
    monkeypatch.setattr(bench, "DEPTHS", (10,))
    assert cli.main(["bench", "circuits", "--repetitions", "1"]) == cli.EXIT_ACCEPT
    rows = _report_rows(capsys)
    assert len(rows) == 1
    assert rows[0].startswith("row=circuit qubits=5 depth=10 t_ms=")
    assert " first_ms=" in rows[0] and "solve_ms=" in rows[0]


@pytest.mark.parametrize("suite", ["tlp", "circuits"])
@pytest.mark.parametrize("repetitions", ["0", "-1"])
def test_bench_refuses_fewer_than_one_repetition(capsys, monkeypatch, suite,
                                                 repetitions):
    def walk(*args, **kwargs):
        raise AssertionError("the chain walk started")

    monkeypatch.setattr(tlp, "_walk_chain", walk)
    assert cli.main(["bench", suite, "--repetitions", repetitions]) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", "error: repetitions must be >= 1\n")


def test_bench_hhl_command(capsys, monkeypatch):
    monkeypatch.setattr(bench, "HHL_SIZES", (2,))
    assert cli.main(["bench", "hhl"]) == cli.EXIT_ACCEPT
    rows = _report_rows(capsys)
    assert len(rows) == 1
    assert rows[0].startswith("row=hhl n=2 ")


def _command_options(parser, words=()):
    """{command: its option strings} for every command `parser` runs; a
    positional argument counts by name, `-h` not at all."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subparsers:
        return {command: options for action in subparsers
                for name, sub in action.choices.items()
                for command, options in _command_options(sub, (*words, name)).items()}
    return {" ".join(words): [option for a in parser._actions
                              if not isinstance(a, argparse._HelpAction)
                              for option in a.option_strings or [a.dest]]}


def test_cli_option_inventory():
    # Every option the CLI accepts, and each is read by its command.  A new
    # option has to be added here.
    statement = ["--circuit", "--input"]
    inventory = {
        "setup": [*statement, "--epsilon", "--crs", "--oracle"],
        "prove": [*statement, "--crs", "--oracle", "--ledger", "--proof"],
        "reveal": ["--crs", "--opening", "--ledger"],
        "verify": [*statement, "--crs", "--proof", "--opening", "--ledger"],
        "experiment": [*statement, "--strategy", "--trials", "--seed"],
        "bench tlp": ["--repetitions"],
        "bench circuits": ["--repetitions"],
        "bench hhl": [],
    }
    assert _command_options(cli.build_parser()) == inventory
    assert sum(map(len, inventory.values())) == 27
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "hhl", "--repetitions", "3"])
    assert exc.value.code == cli.EXIT_ERROR


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
    experiment with --seed 2 and one without --seed.  Returns each
    command's (exit code, stdout, stderr)."""
    honest, late = _make_workspace(root / "honest"), _make_workspace(root / "late")
    experiment = ["experiment", *_statement_args(honest), "--strategy", "a1",
                  "--trials", "3"]
    steps = [*(partial(step, honest) for step in (_setup, _prove, _reveal, _verify)),
             *(partial(step, late) for step in (_setup, _reveal, _prove, _verify)),
             partial(cli.main, ["reveal", "--crs", str(honest["crs"]),
                                "--opening", str(root / "opening.bin")]),
             partial(cli.main, [*experiment, "--seed", "2"]),
             partial(cli.main, experiment)]
    outputs = []
    for step in steps:
        try:
            code = step()
        except SystemExit as exc:
            code = exc.code
        outputs.append((code, *capsys.readouterr()))
    return outputs


def test_one_parser_serves_a_whole_session(tmp_path, capsys, monkeypatch):
    # cli.main parses with one parser per process; no state of one call
    # reaches the next, so every command behaves as on a fresh parser.
    assert cli.build_parser() is cli.build_parser()
    reused = _session_outputs(tmp_path / "reused", capsys)
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0]
    # The --seed of one experiment does not reach the next.
    assert "\nseed=2\n" in reused[-2][1]
    assert "\nseed=0\n" in reused[-1][1]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert _session_outputs(tmp_path / "fresh", capsys) == reused


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
                    "pvqc.harness", "statistics", "dataclasses", "inspect")
import pvqc
assert_unloaded(*unused_by_verify)
from pvqc import cli, qsim
assert cli.main({argv!r}) == cli.EXIT_ACCEPT
assert_unloaded(*unused_by_verify)
loaded = sorted(m for m in sys.modules if m == "pvqc" or m.startswith("pvqc."))
assert loaded == ["pvqc", *(f"pvqc.{{m}}" for m in
                            ("cli", "commit", "compiler", "dvproof", "errors",
                             "qsim", "qsim.circuit", "record", "timestamp", "tlp"))], loaded
from pvqc import fixtures
qsim.accept_prob(*fixtures.small_accepting_circuit())
assert "accept_prob" in vars(qsim)
"""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
