"""Gate-list circuit representation, depth metric, text serialization
and the binary statement encoding.

Qubit 0 is the most significant bit of the amplitude index.  The text
format is line-oriented: header `qubits N output K` (plus `inputs M` when
the input width differs from N), then one gate per line
`KIND target[,target] [angle]`; DENSE_UNITARY blocks follow inline as
rows of `re,im` pairs.  The text is the file format; a statement's digest
hashes `circuit_to_bytes` instead.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass, field
from itertools import permutations
from typing import TYPE_CHECKING

from ..errors import FormatError, ParameterError

if TYPE_CHECKING:
    import numpy as np

MAX_QUBITS = 20
UNITARY_TOL = 1e-9

SINGLE_GATES = ("X", "Y", "Z", "H", "S", "T", "RX", "RY", "RZ", "PHASE")
DOUBLE_GATES = ("CNOT", "CZ", "SWAP", "CPHASE")
PARAM_GATES = frozenset({"RX", "RY", "RZ", "PHASE", "CPHASE"})
DIAGONAL_GATES = frozenset({"Z", "S", "T", "RZ", "PHASE", "CZ", "CPHASE"})
GATE_ARITY = {**{k: 1 for k in SINGLE_GATES}, **{k: 2 for k in DOUBLE_GATES}}


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "params", tuple(self.params))
        if len(set(self.targets)) != len(self.targets):
            raise ParameterError("duplicate gate targets")
        if self.kind == "DENSE_UNITARY":
            if self.matrix is None:
                raise ParameterError("DENSE_UNITARY requires a matrix")
            import numpy as np      # only dense gates need numpy
            dim = 2 ** len(self.targets)
            mat = np.asarray(self.matrix, dtype=complex)
            if mat.shape != (dim, dim):
                raise ParameterError("matrix shape does not match target count")
            if self.params:
                raise ParameterError("wrong parameter count for DENSE_UNITARY")
            object.__setattr__(self, "matrix", mat)
        elif self.kind in GATE_ARITY:
            if len(self.targets) != GATE_ARITY[self.kind]:
                raise ParameterError(f"{self.kind} takes {GATE_ARITY[self.kind]} targets")
            needs = self.kind in PARAM_GATES
            if needs != (len(self.params) == 1):
                raise ParameterError(f"wrong parameter count for {self.kind}")
        else:
            raise ParameterError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]
    output_qubit: int
    n_inputs: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ParameterError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        if not 0 <= self.output_qubit < self.n_qubits:
            raise ParameterError("output_qubit out of range")
        if self.n_inputs is None:
            object.__setattr__(self, "n_inputs", self.n_qubits)
        elif not 0 <= self.n_inputs <= self.n_qubits:
            raise ParameterError("n_inputs out of range")
        for g in self.gates:
            if any(t < 0 or t >= self.n_qubits for t in g.targets):
                raise ParameterError("gate target out of range")


def gate_weight(g: Gate) -> int:
    """Elementary-cost weight: dense k-qubit unitaries count as 4^k layers
    (two-level decomposition bound), everything else as 1."""
    if g.kind == "DENSE_UNITARY":
        return 4 ** len(g.targets)
    return 1


def circuit_depth(c: Circuit) -> int:
    """Greedy layering: a gate starts at the earliest layer where all its
    targets are free, occupying `gate_weight` layers."""
    frontier = [0] * c.n_qubits
    depth = 0
    for g in c.gates:
        start = max(frontier[t] for t in g.targets)
        end = start + gate_weight(g)
        for t in g.targets:
            frontier[t] = end
        depth = max(depth, end)
    return depth


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


# The op bytes (kind code, then one byte per target) of every fixed-arity
# gate, keyed by kind and then by targets, built once.  Nesting the two
# keys saves building a (kind, targets) tuple per gate.
_GATE_BYTES = {kind: {t: bytes([_KIND_CODE[kind], *t])
                      for t in permutations(range(MAX_QUBITS), arity)}
               for kind, arity in GATE_ARITY.items()}
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


def input_bits(x) -> list:
    """The entries of x as a list; ParameterError unless each is exactly
    0 or 1, so that no entry is rounded to a bit."""
    bits = list(x)
    if bits.count(0) + bits.count(1) != len(bits):
        raise ParameterError("input entries must be 0 or 1")
    return bits


def circuit_from_text(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
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
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        kind = parts[0]
        try:
            targets = tuple(int(t) for t in parts[1].split(","))
            params = tuple(map(float, parts[2:]))
        except (IndexError, ValueError) as exc:
            raise FormatError(f"bad gate line: {lines[i]!r}") from exc
        i += 1
        if kind == "DENSE_UNITARY":
            dim = 2 ** len(targets)
            if i + dim > len(lines):
                raise FormatError("truncated DENSE_UNITARY block")
            rows = []
            for row_line in lines[i:i + dim]:
                entries = row_line.split()
                if len(entries) != dim:
                    raise FormatError("bad DENSE_UNITARY row width")
                try:
                    rows.append([complex(*map(float, e.split(","))) for e in entries])
                except (TypeError, ValueError) as exc:
                    raise FormatError(f"bad DENSE_UNITARY row: {row_line!r}") from exc
            i += dim
            import numpy as np
            gates.append(Gate(kind, targets, matrix=np.array(rows, dtype=complex)))
        else:
            gates.append(Gate(kind, targets, params=params))
    return Circuit(n_qubits=n, gates=tuple(gates), output_qubit=output,
                   n_inputs=n_inputs)
