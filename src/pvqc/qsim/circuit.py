"""Gate-list circuit representation, depth metric, text serialization
and the binary statement encoding.

Qubit 0 is the most significant bit of the amplitude index.  The text
format is line-oriented: header `qubits N output K` (plus `inputs M` when
the input width differs from N), then one gate per line
`KIND target[,target] [angle]`; DENSE_UNITARY blocks follow inline as
rows of `re,im` pairs.  The text is the file format; a statement's digest
hashes `circuit_to_bytes` instead.  Parsing shares one `Gate` per
canonical parameterless line (`H 3`, `CNOT 0,4`) across all parses.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import islice, permutations
from typing import TYPE_CHECKING

from ..errors import FormatError, ParameterError
from ..record import Record, setfield

if TYPE_CHECKING:
    import numpy as np

MAX_QUBITS = 20
UNITARY_TOL = 1e-9

SINGLE_GATES = ("X", "Y", "Z", "H", "S", "T", "RX", "RY", "RZ", "PHASE")
DOUBLE_GATES = ("CNOT", "CZ", "SWAP", "CPHASE")
PARAM_GATES = frozenset({"RX", "RY", "RZ", "PHASE", "CPHASE"})
DIAGONAL_GATES = frozenset({"Z", "S", "T", "RZ", "PHASE", "CZ", "CPHASE"})
GATE_ARITY = {**{k: 1 for k in SINGLE_GATES}, **{k: 2 for k in DOUBLE_GATES}}


# Target and parameter count of each fixed-arity kind.
_GATE_SHAPE = {k: (a, int(k in PARAM_GATES)) for k, a in GATE_ARITY.items()}


class Gate(Record):
    """One gate.  Targets and params become tuples; a DENSE_UNITARY matrix
    must be unitary and becomes a read-only complex copy, which no
    caller's array aliases, and equality and the hash ignore it."""

    __slots__ = ("kind", "targets", "params", "matrix")
    _uncompared = ("matrix",)

    def __init__(self, kind: str, targets: tuple[int, ...], params: tuple[float, ...] = (),
                 matrix: np.ndarray | None = None):
        if type(targets) is not tuple:
            targets = tuple(targets)
        if type(params) is not tuple:
            params = tuple(params)
        if len(set(targets)) != len(targets):
            raise ParameterError("duplicate gate targets")
        shape = _GATE_SHAPE.get(kind)
        if shape == (len(targets), len(params)):
            pass
        elif kind == "DENSE_UNITARY":
            if matrix is None:
                raise ParameterError("DENSE_UNITARY requires a matrix")
            import numpy as np      # only dense gates need numpy
            dim = 2 ** len(targets)
            matrix = np.array(matrix, dtype=complex)
            matrix.flags.writeable = False
            if matrix.shape != (dim, dim):
                raise ParameterError("matrix shape does not match target count")
            if params:
                raise ParameterError("wrong parameter count for DENSE_UNITARY")
            # Bounded entries (NaN fails the bound) keep the product finite.
            if not ((abs(matrix) <= 1 + UNITARY_TOL).all() and np.allclose(
                    matrix.conj().T @ matrix, np.eye(dim), atol=UNITARY_TOL)):
                raise ParameterError("DENSE_UNITARY matrix is not unitary")
        elif shape is None:
            raise ParameterError(f"unknown gate kind {kind!r}")
        elif len(targets) != shape[0]:
            raise ParameterError(f"{kind} takes {shape[0]} targets")
        else:
            raise ParameterError(f"wrong parameter count for {kind}")
        setfield(self, "kind", kind)
        setfield(self, "targets", targets)
        setfield(self, "params", params)
        setfield(self, "matrix", matrix)


class _Scheduled:
    """The slot in which the simulator keeps a circuit's schedule
    (`simulator._schedule`), filled by its first simulation.  It is no
    record field: equality, the hash and the repr ignore it, and a copy
    or unpickle, which rebuilds the circuit through its constructor,
    starts without it and plans its own."""

    __slots__ = ("_schedule",)


class Circuit(Record, _Scheduled):
    """A statement's circuit.  Gates become a tuple, and `n_inputs`
    defaults to `n_qubits`."""

    __slots__ = ("n_qubits", "gates", "output_qubit", "n_inputs")

    def __init__(self, n_qubits: int, gates: tuple[Gate, ...], output_qubit: int,
                 n_inputs: int | None = None):
        gates = tuple(gates)
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ParameterError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        if not 0 <= output_qubit < n_qubits:
            raise ParameterError("output_qubit out of range")
        if n_inputs is None:
            n_inputs = n_qubits
        elif not 0 <= n_inputs <= n_qubits:
            raise ParameterError("n_inputs out of range")
        targets = [t for g in gates for t in g.targets]
        if targets and (min(targets) < 0 or max(targets) >= n_qubits):
            raise ParameterError("gate target out of range")
        setfield(self, "n_qubits", n_qubits)
        setfield(self, "gates", gates)
        setfield(self, "output_qubit", output_qubit)
        setfield(self, "n_inputs", n_inputs)


def gate_weight(g: Gate) -> int:
    """Elementary-cost weight: dense k-qubit unitaries count as 4^k layers
    (two-level decomposition bound), everything else as 1."""
    if g.kind == "DENSE_UNITARY":
        return 4 ** len(g.targets)
    return 1


def circuit_depth(c: Circuit) -> int:
    """Greedy layering: a gate starts at the earliest layer where all its
    targets are free, occupying `gate_weight` layers."""
    frontier = [0] * c.n_qubits     # qubit -> end of its last gate's layers
    for g in c.gates:
        targets = g.targets
        if len(targets) == 1:
            frontier[targets[0]] += gate_weight(g)
        elif len(targets) == 2:
            a, b = targets
            fa, fb = frontier[a], frontier[b]
            frontier[a] = frontier[b] = (fa if fa > fb else fb) + gate_weight(g)
        else:
            end = max([frontier[t] for t in targets]) + gate_weight(g)
            for t in targets:
                frontier[t] = end
    return max(frontier)


def _gate_text(g: Gate) -> str:
    """A gate line; a DENSE_UNITARY line is followed by its matrix rows of
    `re,im` entries."""
    line = " ".join([g.kind, ",".join(map(str, g.targets)), *map(repr, g.params)])
    if g.kind != "DENSE_UNITARY":
        return line
    rows = (" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row)
            for row in g.matrix)
    return "\n".join([line, *rows])


def circuit_to_text(c: Circuit) -> str:
    head = (f"qubits {c.n_qubits} output {c.output_qubit}"
            + (f" inputs {c.n_inputs}" if c.n_inputs != c.n_qubits else ""))
    return "\n".join([head, *map(_gate_text, c.gates), ""])


# One byte per kind in `circuit_to_bytes`.  Written out, not derived from
# the kind tuples, so that a new kind takes a new code and never renumbers
# the old ones.  Every code is above MAX_QUBITS, so no target or target
# count byte equals one: the DENSE_UNITARY code occurs in the ops only
# when such a gate does, and an encoding without one skips the matrix scan.
_KIND_CODE = {"X": 0x21, "Y": 0x22, "Z": 0x23, "H": 0x24, "S": 0x25, "T": 0x26,
              "RX": 0x27, "RY": 0x28, "RZ": 0x29, "PHASE": 0x2A, "CNOT": 0x2B,
              "CZ": 0x2C, "SWAP": 0x2D, "CPHASE": 0x2E, "DENSE_UNITARY": 0x2F}
_DENSE_CODE = _KIND_CODE["DENSE_UNITARY"]


class _DenseOps(dict):
    """DENSE_UNITARY op bytes: kind code, target count, targets."""

    def __missing__(self, targets):
        return bytes([_DENSE_CODE, len(targets), *targets])


class _UnbuiltOps(dict):
    """Holds a fixed-arity kind's place in `_GATE_BYTES` until the kind's
    first lookup, which builds its table and puts it in that place."""

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def __missing__(self, targets):
        kind = self.kind
        table = _GATE_BYTES[kind] = {
            t: bytes([_KIND_CODE[kind], *t])
            for t in permutations(range(MAX_QUBITS), GATE_ARITY[kind])}
        return table[targets]


# The op bytes (kind code, then one byte per target) of every fixed-arity
# gate, keyed by kind and then by targets; each kind's table is a plain
# dict, built on first use.  Nesting the two keys saves building a (kind,
# targets) tuple per gate.
_GATE_BYTES = {kind: _UnbuiltOps(kind) for kind in GATE_ARITY}
_GATE_BYTES["DENSE_UNITARY"] = _DenseOps()

# n_qubits, output_qubit and n_inputs fit a byte each (MAX_QUBITS < 256).
_HEADER = struct.Struct("<BBBQ")
_BIG_ENDIAN = sys.byteorder == "big"


def circuit_to_bytes(c: Circuit) -> bytes:
    """The canonical binary encoding of a statement, which its digest hashes.

    Layout, little-endian, in four parts:
      1. header `<BBBQ`: n_qubits, output_qubit, n_inputs, gate count;
      2. one op per gate: its kind code, then for DENSE_UNITARY the target
         count, then one byte per target;
      3. the parameters of all gates, in gate order, each as `<d`;
      4. the DENSE_UNITARY matrices, in gate order, each as row-major `<c16`.

    Injective: the header fixes the gate count.  An op's first byte is its
    kind, and the kind fixes the op's length (its arity, or the count byte
    after it), so the ops parse back one by one.  The kinds then fix how
    many parameters follow (one for PARAM_GATES, none otherwise; `Gate`
    enforces it) and each matrix's size (4^k entries for k targets), and
    the length of the whole is fixed too.  So two circuits encode alike
    iff their header fields, kinds, targets and the bits of their float
    parameters and matrix entries agree.  For float parameters that is iff
    their `circuit_to_text` agree, since `repr` round-trips a double,
    signed zeros included; only NaNs, which all print as `nan`, can differ
    in bytes and not in text.
    """
    gates = c.gates
    ops = b"".join([_GATE_BYTES[g.kind][g.targets] for g in gates])
    parts = [_HEADER.pack(c.n_qubits, c.output_qubit, c.n_inputs, len(gates)), ops]
    params = [p for g in gates if g.params for p in g.params]
    if params:
        packed = array("d", params)
        if _BIG_ENDIAN:
            packed.byteswap()
        parts.append(packed.tobytes())
    if _DENSE_CODE in ops:
        parts += [g.matrix.astype("<c16", copy=False).tobytes()
                  for g in gates if g.kind == "DENSE_UNITARY"]
    return b"".join(parts)


def input_bits(x, width: int | None = None) -> list:
    """x read once into a list; ParameterError unless each entry is exactly
    0 or 1 (none is rounded to a bit) and, given a width, there are that many."""
    bits = list(x)
    if bits.count(0) + bits.count(1) != len(bits):
        raise ParameterError("input entries must be 0 or 1")
    if width is not None and len(bits) != width:
        raise ParameterError(f"input width {len(bits)} != declared {width}")
    return bits


def _split_gate_line(line: str) -> tuple[str, tuple[int, ...], tuple[float, ...]]:
    """Kind, targets and parameters of a gate line; FormatError if they do
    not parse."""
    parts = line.split()
    try:
        targets = tuple(map(int, parts[1].split(",")))
        return parts[0], targets, tuple(map(float, parts[2:]))
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad gate line: {line!r}") from exc


class _PlainGates(dict):
    """The gate of each canonical parameterless line (`H 3`, `CNOT 0,4`),
    interned on first use, so that a line seen before costs one lookup.

    A missing line is parsed: a DENSE_UNITARY line gives None (its matrix
    rows follow, which the caller reads), a bad one raises, any other
    gives its gate.  The gate is stored only when it has no parameters,
    every target is below MAX_QUBITS and the line is its `_gate_text`;
    so whatever text is parsed, the table holds at most one entry per
    parameterless gate on MAX_QUBITS qubits, 6·20 + 3·20·19 = 1260.  It
    starts empty: building all of them costs milliseconds that every
    `import pvqc` would pay.
    """

    def __missing__(self, line):
        kind, targets, params = _split_gate_line(line)
        if kind == "DENSE_UNITARY":
            return None
        gate = Gate(kind, targets, params)
        if (not params and 0 <= min(targets) and max(targets) < MAX_QUBITS
                and _gate_text(gate) == line):
            self[line] = gate
        return gate


_PLAIN_GATES = _PlainGates()


def _dense_gate(line: str, rest) -> Gate:
    """The DENSE_UNITARY gate of `line`, its matrix rows taken from the
    iterator `rest`."""
    _, targets, params = _split_gate_line(line)
    if params:
        raise FormatError(f"DENSE_UNITARY takes no parameters: {line!r}")
    if len(targets) > MAX_QUBITS:
        raise ParameterError(f"DENSE_UNITARY takes at most {MAX_QUBITS} targets")
    dim = 2 ** len(targets)
    block = list(islice(rest, dim))
    if len(block) < dim:
        raise FormatError("truncated DENSE_UNITARY block")
    rows = []
    for row_line in block:
        entries = row_line.split()
        if len(entries) != dim:
            raise FormatError("bad DENSE_UNITARY row width")
        try:
            rows.append([complex(*map(float, e.split(","))) for e in entries])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad DENSE_UNITARY row: {row_line!r}") from exc
    import numpy as np
    return Gate("DENSE_UNITARY", targets, matrix=np.array(rows, dtype=complex))


def circuit_from_text(text: str) -> Circuit:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty circuit file")
    head = lines[0].split()
    try:
        if head[0] != "qubits" or head[2] != "output":
            raise FormatError("bad circuit header")
        n = int(head[1])
        output = int(head[3])
        n_inputs = None
        if len(head) > 4:
            if head[4] != "inputs" or len(head) != 6:
                raise FormatError("bad circuit header")
            n_inputs = int(head[5])
    except (IndexError, ValueError) as exc:
        raise FormatError("bad circuit header") from exc

    gates: list[Gate] = []
    rest = islice(lines, 1, None)
    for line in rest:
        gate = _PLAIN_GATES[line]
        gates.append(_dense_gate(line, rest) if gate is None else gate)
    return Circuit(n_qubits=n, gates=tuple(gates), output_qubit=output,
                   n_inputs=n_inputs)
