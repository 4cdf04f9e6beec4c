"""Spans and counters recorded around pvqc's public functions.

`Tracer.installed()` replaces module and class attributes of the program
with wrappers for the duration of a traced run and puts the originals
back afterwards.  Every wrapped call becomes a span (name, start, end,
parent span, op id) kept in memory; inner hot loops (gate applications,
clock charges, chain steps) only bump counters.  The self time of a span
is its duration minus the time its child spans cover, so the self times
of all spans of one op add up to the op's duration.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import struct
import time
from array import array
from contextlib import ExitStack, contextmanager

from pvqc import cli, commit, compiler, dvproof, harness, qsim, timestamp, tlp
from pvqc.meter import MeteredClock
from pvqc.qsim import simulator

_ns = time.perf_counter_ns

GATE_KINDS = ("X", "Y", "Z", "H", "S", "T", "RX", "RY", "RZ", "PHASE",
              "CNOT", "CZ", "SWAP", "CPHASE", "other")
REJECT_SITES = ("timestamp", "statement", "stamp", "commitment", "claimed_bit",
                "mac_tag")
LAYERS = ("qsim", "tlp", "dvproof", "commit", "timestamp", "compiler", "harness",
          "cli", "bench")
RECORDS = ("crs", "proof", "opening", "token")
PHASES = ("vc_setup", "vc_prove", "vc_reveal", "vc_verify")
CLI_COMMANDS = ("setup", "prove", "reveal", "verify")
OP_SPAN = "bench.op"


def _per_layer_names() -> tuple[tuple[str, str], ...]:
    names = [("qsim.us_per_gate", "us")]
    names += [(f"qsim.us_per_gate.{k}", "us") for k in GATE_KINDS]
    names += [(f"qsim.gates.{k}", "count/op") for k in GATE_KINDS]
    names += [("qsim.runs", "count/op"), ("qsim.gbytes_per_s_computed", "GB/s"),
              ("tlp.setup.steps_per_s", "1/s"), ("tlp.solve.steps_per_s", "1/s"),
              ("tlp.chain_steps", "count/op"), ("tlp.raw_steps_per_s", "1/s"),
              ("tlp.solve_over_raw", "ratio"), ("tlp.gen_puzzle_us", "us"),
              ("meter.charges", "count/op"), ("meter.charges_per_chain_step", "ratio"),
              ("dvproof.circuit_digest_us", "us"),
              ("dvproof.circuit_digest.calls", "count/op"),
              ("dvproof.keygen_us", "us"), ("dvproof.prove_oracle.self_ms", "ms"),
              ("dvproof.verify_us", "us"),
              ("commit.commit_us", "us"), ("commit.verify_opening_us", "us"),
              ("timestamp.stamp_us", "us"), ("timestamp.verify_us", "us"),
              ("timestamp.save_us", "us"), ("timestamp.load_us", "us")]
    names += [(f"compiler.{p}.self_ms", "ms") for p in PHASES]
    names += [(f"records.{r}.{op}_us", "us") for r in RECORDS
              for op in ("serialize", "parse")]
    for p in ("b1", "b2"):
        names.append((f"compiler.accept.{p}", "count/op"))
        names += [(f"compiler.reject.{p}.{site}", "count/op") for site in REJECT_SITES]
    names.append(("harness.run_trial.self_us", "us"))
    names += [(f"cli.{c}.self_ms", "ms") for c in CLI_COMMANDS]
    names += [(f"share.{layer}", "%") for layer in LAYERS]
    names += [("trace.ops_per_s", "1/s"), ("trace.spans_per_op", "count/op")]
    return tuple(names)


PER_LAYER = _per_layer_names()


def patch(stack: ExitStack, owner, attr: str, new) -> None:
    """Set owner.attr to `new` until `stack` closes."""
    old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, new)
    stack.callback(setattr, owner, attr, old)


class Tracer:
    """In-memory span recorder for one traced run (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.steps: list[int] = []
        # One entry per span, in start order.
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack: list[list[int]] = []   # [span index, child ns]
        self.op_id = -1
        self.gate_ns: dict[str, int] = {}
        self.gate_count: dict[str, int] = {}
        self.gate_bytes = 0
        self.charges = 0
        self.chain_steps = 0
        self.runs = 0
        self.verdicts = {name: 0 for name, _ in PER_LAYER
                         if name.startswith(("compiler.accept.", "compiler.reject."))}
        self._verify_pass = 0
        self._op_nid = self._name_id(OP_SPAN, "bench")

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            for column in (self.calls, self.total_ns, self.self_ns, self.steps):
                column.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0)
        self._stack.append([idx, 0])
        self.span_start.append(_ns())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        end = _ns()
        _, child_ns = self._stack.pop()
        duration = end - self.span_start[idx]
        self.span_end[idx] = end
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op."""
        self.op_id = op_id
        idx = self._open(self._op_nid)
        try:
            yield
        finally:
            self._close(idx, self._op_nid)

    def wrap(self, fn, name: str, layer: str, steps=None, after=None):
        """`fn` recorded as span `name`; `steps(args)` adds to the span's
        step total and `after(result)` sees each return value."""
        nid = self._name_id(name, layer)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if steps is not None:
                self.steps[nid] += steps(args)
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_cli_main(self, fn):
        nids = {c: self._name_id(f"cli.{c}", "cli") for c in CLI_COMMANDS}

        def main(argv=None):
            nid = nids[argv[0]]
            idx = self._open(nid)
            try:
                return fn(argv)
            finally:
                self._close(idx, nid)

        return main

    def _wrap_apply_gate(self, fn):
        gate_ns, gate_count = self.gate_ns, self.gate_count
        known = frozenset(GATE_KINDS)

        def apply_gate(state, g, n):
            start = _ns()
            out = fn(state, g, n)
            elapsed = _ns() - start
            kind = g.kind if g.kind in known else "other"
            gate_ns[kind] = gate_ns.get(kind, 0) + elapsed
            gate_count[kind] = gate_count.get(kind, 0) + 1
            self.gate_bytes += 2 * state.nbytes   # read once, written once
            return out

        return apply_gate

    def _wrap_charge(self, fn):
        def charge(clock, steps=1):
            self.charges += 1
            return fn(clock, steps)

        return charge

    def _new_instance(self, _result) -> None:
        self._verify_pass = 0

    def _count_verdict(self, result) -> None:
        ok, site = result
        self._verify_pass += 1
        p = "b1" if self._verify_pass == 1 else "b2"
        self.verdicts[f"compiler.accept.{p}" if ok else f"compiler.reject.{p}.{site}"] += 1

    @contextmanager
    def installed(self):
        """Wrap the program's public functions while the context is open."""
        with ExitStack() as stack:
            def span(owner, attr, name, layer, **hooks):
                patch(stack, owner, attr, self.wrap(getattr(owner, attr), name, layer,
                                                    **hooks))

            span(qsim, "accept_prob", "qsim.accept_prob", "qsim")
            span(simulator, "run", "qsim.run", "qsim")
            patch(stack, simulator, "apply_gate", self._wrap_apply_gate(simulator.apply_gate))
            span(tlp, "setup", "tlp.setup", "tlp", steps=lambda a: a[1])
            span(tlp, "gen_puzzle", "tlp.gen_puzzle", "tlp")
            span(tlp, "solve", "tlp.solve", "tlp", steps=lambda a: a[0].mu)
            patch(stack, MeteredClock, "charge", self._wrap_charge(MeteredClock.charge))
            for fn in ("circuit_digest", "keygen", "prove_oracle", "verify"):
                span(dvproof, fn, f"dvproof.{fn}", "dvproof")
            span(dvproof, "serialize_token", "records.token.serialize", "compiler")
            span(dvproof, "parse_token", "records.token.parse", "compiler")
            span(commit, "commit", "commit.commit", "commit")
            span(commit, "verify_opening", "commit.verify_opening", "commit")
            ledger = timestamp.Ledger
            for fn in ("stamp", "verify", "save"):
                span(ledger, fn, f"timestamp.{fn}", "timestamp")
            patch(stack, ledger, "load", classmethod(
                self.wrap(ledger.__dict__["load"].__func__, "timestamp.load", "timestamp")))
            for owner in (compiler, harness):   # harness imports the phases by name
                span(owner, "vc_setup", "compiler.vc_setup", "compiler",
                     after=self._new_instance)
                span(owner, "vc_prove", "compiler.vc_prove", "compiler")
                span(owner, "vc_reveal", "compiler.vc_reveal", "compiler")
                span(owner, "vc_verify_explain", "compiler.vc_verify", "compiler",
                     after=self._count_verdict)
            for fn, name in (("serialize_crs", "crs.serialize"), ("parse_crs", "crs.parse"),
                             ("serialize_timestamped_proof", "proof.serialize"),
                             ("parse_timestamped_proof", "proof.parse"),
                             ("serialize_opening", "opening.serialize"),
                             ("parse_opening_record", "opening.parse")):
                span(compiler, fn, f"records.{name}", "compiler")
            span(harness, "run_trial", "harness.run_trial", "harness")
            patch(stack, cli, "main", self._wrap_cli_main(cli.main))
            chain_before, runs_before = tlp.chain_calls(), qsim.run_calls()
            try:
                yield self
            finally:
                self.chain_steps += tlp.chain_calls() - chain_before
                self.runs += qsim.run_calls() - runs_before

    def _stat(self, name: str) -> tuple[int, int, int, int]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0, 0
        return self.calls[nid], self.total_ns[nid], self.self_ns[nid], self.steps[nid]

    def _mean_us(self, name: str) -> float:
        calls, total, _, _ = self._stat(name)
        return total / calls / 1e3 if calls else 0.0

    def _self_per_call_us(self, name: str) -> float:
        calls, _, self_ns, _ = self._stat(name)
        return self_ns / calls / 1e3 if calls else 0.0

    def _steps_per_s(self, name: str) -> float:
        _, total, _, steps = self._stat(name)
        return steps / total * 1e9 if total else 0.0

    def metrics(self, ops: int, elapsed_s: float, raw_rate: float) -> dict[str, float]:
        """Every PER_LAYER metric of the traced run; 0 where a layer was
        not exercised."""
        m: dict[str, float] = {}
        gates = sum(self.gate_count.values())
        gate_ns = sum(self.gate_ns.values())
        m["qsim.us_per_gate"] = gate_ns / gates / 1e3 if gates else 0.0
        for k in GATE_KINDS:
            n = self.gate_count.get(k, 0)
            m[f"qsim.us_per_gate.{k}"] = self.gate_ns.get(k, 0) / n / 1e3 if n else 0.0
            m[f"qsim.gates.{k}"] = n / ops
        m["qsim.runs"] = self.runs / ops
        m["qsim.gbytes_per_s_computed"] = self.gate_bytes / gate_ns if gate_ns else 0.0
        m["tlp.setup.steps_per_s"] = self._steps_per_s("tlp.setup")
        m["tlp.solve.steps_per_s"] = self._steps_per_s("tlp.solve")
        m["tlp.chain_steps"] = self.chain_steps / ops
        m["tlp.raw_steps_per_s"] = raw_rate
        m["tlp.solve_over_raw"] = m["tlp.solve.steps_per_s"] / raw_rate
        m["tlp.gen_puzzle_us"] = self._mean_us("tlp.gen_puzzle")
        m["meter.charges"] = self.charges / ops
        metered_steps = self._stat("tlp.solve")[3]
        m["meter.charges_per_chain_step"] = (self.charges / metered_steps
                                             if metered_steps else 0.0)
        m["dvproof.circuit_digest_us"] = self._mean_us("dvproof.circuit_digest")
        m["dvproof.circuit_digest.calls"] = self._stat("dvproof.circuit_digest")[0] / ops
        m["dvproof.keygen_us"] = self._mean_us("dvproof.keygen")
        m["dvproof.prove_oracle.self_ms"] = (
            self._self_per_call_us("dvproof.prove_oracle") / 1e3)
        m["dvproof.verify_us"] = self._mean_us("dvproof.verify")
        for name in ("commit.commit", "commit.verify_opening", "timestamp.stamp",
                     "timestamp.verify", "timestamp.save", "timestamp.load"):
            m[f"{name}_us"] = self._mean_us(name)
        for p in PHASES:
            m[f"compiler.{p}.self_ms"] = self._self_per_call_us(f"compiler.{p}") / 1e3
        for r in RECORDS:
            for op in ("serialize", "parse"):
                m[f"records.{r}.{op}_us"] = self._mean_us(f"records.{r}.{op}")
        m.update({name: count / ops for name, count in self.verdicts.items()})
        m["harness.run_trial.self_us"] = self._self_per_call_us("harness.run_trial")
        for c in CLI_COMMANDS:
            m[f"cli.{c}.self_ms"] = self._self_per_call_us(f"cli.{c}") / 1e3
        op_ns = self._stat(OP_SPAN)[1]
        for layer in LAYERS:
            layer_ns = sum(s for s, lay in zip(self.self_ns, self.layers) if lay == layer)
            m[f"share.{layer}"] = 100.0 * layer_ns / op_ns if op_ns else 0.0
        m["trace.ops_per_s"] = ops / elapsed_s
        m["trace.spans_per_op"] = len(self.span_start) / ops
        return m

    def write(self, path, header: dict) -> None:
        """Write every span as JSON; times are ns from the first span."""
        t0 = self.span_start[0] if self.span_start else 0
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "names": self.names,
                                 "layers": self.layers})[:-1])
            fh.write(', "fields": ["name", "start_ns", "end_ns", "parent", "op"],'
                     ' "spans": [')
            for i in range(len(self.span_start)):
                fh.write(f"{',' if i else ''}\n[{self.span_name[i]},"
                         f"{self.span_start[i] - t0},{self.span_end[i] - t0},"
                         f"{self.span_parent[i]},{self.span_op[i]}]")
            fh.write("]}\n")


CHAIN_DOMAIN = b"TLPCHAINv1"


def raw_chain_rate(steps: int = 50_000, reps: int = 5) -> float:
    """Median steps/s of a plain hashlib loop over the chain step
    SHA-256("TLPCHAINv1" || u64be(i) || s); it does not call pvqc, so it
    stays a fixed base when the chain code changes."""
    sha256, pack = hashlib.sha256, struct.pack
    s = bytes(32)
    for i in range(16):   # the loop must compute the program's chain
        expected = tlp.chain_step(s, i)
        s = sha256(CHAIN_DOMAIN + pack(">Q", i) + s).digest()
        if s != expected:
            raise RuntimeError("raw chain loop disagrees with tlp.chain_step")
    rates = []
    for _ in range(reps):
        s = bytes(32)
        start = time.perf_counter()
        for i in range(steps):
            s = sha256(CHAIN_DOMAIN + pack(">Q", i) + s).digest()
        rates.append(steps / (time.perf_counter() - start))
    return statistics.median(rates)
