"""Minimal OpenQASM 2.0 reader and writer.

Covers the subset of OpenQASM 2.0 used by the benchmark suites the paper draws from
(QASMBench / RevLib exports): ``qreg``/``creg`` declarations, the standard ``qelib1.inc``
gate set, parameter expressions built from numbers, ``pi``, arithmetic, parentheses and
``sin``/``cos``/``tan``/``exp``/``ln``/``sqrt``, ``measure``, ``barrier``, and
user-defined ``gate`` blocks (which are inlined during parsing).
"""

from __future__ import annotations

import ast
import math
import os
import re
import threading
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..exceptions import QASMError
from .circuit import Instruction, QuantumCircuit
from .gates import GATE_SPECS, Gate, gate as make_gate

_KNOWN_ALIASES = {
    "cnot": "cx",
    "toffoli": "ccx",
    "u0": "id",
    "phase": "p",
}


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

_ALLOWED_FUNCS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
                  "ln": math.log, "sqrt": math.sqrt}

#: A plain decimal literal: every ``repr(float)`` of a finite float, plus integers of up
#: to 15 digits.  ``float(text)`` returns exactly the ast evaluator's value on every
#: match, because both round the same decimal string correctly.  Everything else goes
#: through ast, which rejects ``01`` and non-ASCII digits, reads ``1_0`` and ``0x10``,
#: and treats ``nan``/``inf`` as unknown identifiers.
_NUMBER_RE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|[0-9]+[eE][+-]?[0-9]+|0+|[1-9][0-9]{0,14})"
)

#: CPython 3.11 keeps the AST constructor's recursion-depth bookkeeping in shared
#: module state, so concurrent ``ast.parse`` calls from thread-pool workers (the
#: server's QASM parsing path) can race into ``SystemError: AST constructor recursion
#: depth mismatch``.  Only expressions that are not plain numeric literals reach ast
#: (``pi/2``, ``2*theta``), and they are tiny, so serialising the parse is free.
_AST_PARSE_LOCK = threading.Lock()


def _eval_expr(text: str, bindings: Optional[Dict[str, float]] = None) -> float:
    """Safely evaluate a QASM parameter expression."""
    if _NUMBER_RE.fullmatch(text):
        return float(text)
    return _eval_ast(text, bindings)


def _eval_ast(text: str, bindings: Optional[Dict[str, float]] = None) -> float:
    """Evaluate a parameter expression through :mod:`ast`: numbers, ``pi``, bound
    gate parameters, ``+ - * / **`` and the functions in ``_ALLOWED_FUNCS``."""
    bindings = bindings or {}
    try:
        # A SyntaxWarning (``1if``) would print to stderr; raised, it is a SyntaxError.
        with _AST_PARSE_LOCK, warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(text, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # Nesting too deep for CPython's parser (e.g. thousands of unary minuses) raises
        # RecursionError or, on parser stack overflow, MemoryError.
        raise QASMError(f"invalid parameter expression: {text!r}") from exc

    def walk(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id == "pi":
                return math.pi
            if node.id in bindings:
                return bindings[node.id]
            raise QASMError(f"unknown identifier {node.id!r} in expression {text!r}")
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            if isinstance(node.op, ast.Pow):
                return left ** right
            raise QASMError(f"unsupported operator in {text!r}")
        if isinstance(node, ast.UnaryOp):
            value = walk(node.operand)
            if isinstance(node.op, ast.USub):
                return -value
            if isinstance(node.op, ast.UAdd):
                return value
            raise QASMError(f"unsupported unary operator in {text!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            func = _ALLOWED_FUNCS.get(node.func.id)
            if func is None or len(node.args) != 1:
                raise QASMError(f"unsupported function call in {text!r}")
            return func(walk(node.args[0]))
        raise QASMError(f"unsupported expression construct in {text!r}")

    try:
        value = walk(tree)
    except (ArithmeticError, ValueError, RecursionError) as exc:
        # ValueError: a math domain error, such as ``sqrt(-1)`` or ``ln(0)``.
        raise QASMError(f"cannot evaluate parameter expression {text!r}: {exc}") from exc
    if not isinstance(value, float):  # a negative base to a fractional power is complex
        raise QASMError(f"parameter expression {text!r} is not a real number")
    return value


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@dataclass
class _GateDef:
    """A user-defined gate block from the QASM source."""

    name: str
    params: List[str]
    qubits: List[str]
    body: List[str]


_TERMINATOR_RE = re.compile(r"([;{}])")
#: A call's parameter list runs to its last ``)``: an operand (``q``, ``q[3]``) never holds
#: one, so a parameter may hold parentheses itself (``rz(sin(pi/2))``, ``rz((1+2)*pi)``).
_CALL_RE = re.compile(r"(\w+)\s*(\((.*)\))?\s*(.*)", re.S)
_REGISTER_RE = re.compile(r"(qreg|creg)\s+(\w+)\s*\[\s*(\d+)\s*\]")
_GATE_DEF_RE = re.compile(r"gate\s+(\w+)\s*(\(([^)]*)\))?\s*(.*)", re.S)
_MEASURE_RE = re.compile(r"measure\s+(.+?)\s*->\s*(.+)")
_INDEXED_RE = re.compile(r"(\w+)\s*\[\s*(\d+)\s*\]$")

#: A statement starting with one of these goes through the keyword dispatch of
#: :meth:`_QASMParser.statement`; any other statement is a gate call.
_KEYWORD_PREFIXES = (
    "OPENQASM", "include", "qreg", "creg", "gate", "{", "}", "measure", "barrier", "if",
)

#: ``name -> (num_qubits, num_params, is_directive)`` for every gate a statement may call.
_CALLABLE_GATES: Dict[str, Tuple[int, int, bool]] = {
    name: (spec.num_qubits, spec.num_params, spec.is_directive)
    for name, spec in GATE_SPECS.items()
    if name not in ("measure", "barrier", "unitary")
}

_BARRIER = make_gate("barrier")
_MEASURE = make_gate("measure")


#: Where a statement's operations go: the list :func:`loads` builds, or the stream
#: reader's pending queue.
_Sink = Union[List[Instruction], Deque[Instruction]]


def _split_operands(arg_text: str) -> List[str]:
    return [a for a in map(str.strip, arg_text.split(",")) if a]


def _iter_statement_tokens(chunks: Iterable[str]) -> Iterator[str]:
    """Split source text into statement tokens.

    ``chunks`` is the source cut at line boundaries: one line at a time (the streaming
    reader) or the whole text in one piece (:func:`loads`).  Yields every
    ``;``-terminated statement with the terminator stripped, plus bare ``{`` / ``}``
    tokens.  Text before a ``}`` or at the end of the input that no ``;`` terminates is
    a :class:`QASMError`: a truncated source must not lose its last statement silently.
    Only the current incomplete statement is held between chunks.
    """
    buffer = ""
    for chunk in chunks:
        if "//" in chunk:
            chunk = "\n".join(line.split("//", 1)[0] for line in chunk.splitlines())
        buffer += chunk if chunk.endswith("\n") else chunk + "\n"
        # [text, terminator, text, terminator, ..., unterminated tail]
        *pieces, buffer = _TERMINATOR_RE.split(buffer)
        pairs = iter(pieces)
        for text, terminator in zip(pairs, pairs):
            text = text.strip()
            if terminator == "}":
                if text:
                    raise QASMError(f"missing ';' after {text!r} before '}}'")
                yield "}"
                continue
            if text:
                yield text
            if terminator == "{":
                yield "{"
    if buffer.strip():
        raise QASMError(f"missing ';' after {buffer.strip()!r} at the end of the input")


def _gate_instruction(
    name: str,
    shape: Tuple[int, int, bool],
    params: Tuple[float, ...],
    qubits: Tuple[int, ...],
    stmt: str,
) -> Instruction:
    """One standard-gate operation, checked as ``Gate`` and ``Instruction`` check it."""
    num_qubits, num_params, directive = shape
    if not directive:
        if len(params) != num_params:
            raise QASMError(
                f"gate {name!r} expects {num_params} parameter(s), got {len(params)}: {stmt!r}"
            )
        if len(qubits) != num_qubits:
            raise QASMError(
                f"gate {name!r} acts on {num_qubits} qubit(s), got {len(qubits)}: {stmt!r}"
            )
    if len(qubits) > 1 and len(set(qubits)) != len(qubits):
        raise QASMError(f"duplicate qubit arguments in {stmt!r}")
    return Instruction.trusted(Gate.trusted(name, params) if params else make_gate(name), qubits)


class _QASMParser:
    """Parse state shared by :func:`loads` and :class:`QASMStreamReader`.

    Holds the declared registers and ``gate`` definitions.  :meth:`statement` turns one
    statement token into its operations.  The parser range-checks every operand against
    its register and checks each gate's arity itself, so every operation is built once,
    by :meth:`Instruction.trusted`.
    """

    def __init__(self) -> None:
        self.qregs: Dict[str, Tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: Dict[str, Tuple[int, int]] = {}
        self.gate_defs: Dict[str, _GateDef] = {}
        self.num_qubits = 0
        self.num_clbits = 0
        # Operand text -> resolved indices.  A register name is declared once, so an
        # entry never goes stale; only canonical spellings (``q[3]``, ``q``) are kept,
        # which bounds each memo by the declared registers rather than the source length.
        self._qubit_operands: Dict[str, Tuple[int, ...]] = {}
        self._clbit_operands: Dict[str, Tuple[int, ...]] = {}

    def statement(self, stmt: str, tokens: Iterator[str], out: _Sink) -> None:
        """Append the operations of one statement to ``out`` (none for declarations).

        ``tokens`` is the token stream ``stmt`` came from; a ``gate`` header reads its
        body from it.
        """
        if not stmt.startswith(_KEYWORD_PREFIXES):
            self._call(stmt, out)
        elif stmt.startswith(("OPENQASM", "include")) or stmt in ("{", "}"):
            pass
        elif stmt.startswith(("qreg", "creg")):
            self._declare_register(stmt)
        elif stmt.startswith("gate ") or stmt == "gate":
            self._parse_gate_def(self._collect_gate_def(stmt, tokens))
        elif stmt.startswith("measure"):
            self._measure(stmt, out)
        elif stmt.startswith("barrier"):
            out.append(self._barrier(stmt))
        elif stmt.startswith("if"):
            raise QASMError("classical control ('if') is not supported")
        else:
            self._call(stmt, out)

    # -- declarations ------------------------------------------------------

    def _declare_register(self, stmt: str) -> None:
        match = _REGISTER_RE.match(stmt)
        if not match:
            raise QASMError(f"malformed register declaration: {stmt!r}")
        kind, name, size = match.group(1), match.group(2), int(match.group(3))
        if name in self.qregs or name in self.cregs:
            raise QASMError(f"register {name!r} is already declared: {stmt!r}")
        if kind == "qreg":
            self.qregs[name] = (self.num_qubits, size)
            self.num_qubits += size
        else:
            self.cregs[name] = (self.num_clbits, size)
            self.num_clbits += size

    @staticmethod
    def _collect_gate_def(header: str, tokens: Iterator[str]) -> List[str]:
        """The header plus every token of its ``{ ... }`` block."""
        collected = [header]
        depth = 0
        opened = False
        for token in tokens:
            collected.append(token)
            if token == "{":
                depth += 1
                opened = True
            elif token == "}":
                depth -= 1
            if opened and depth == 0:
                return collected
        raise QASMError(f"unterminated gate definition: {header!r}")

    def _parse_gate_def(self, statements: List[str]) -> None:
        header = statements[0]
        match = _GATE_DEF_RE.match(header)
        if not match:
            raise QASMError(f"malformed gate definition: {header!r}")
        name = match.group(1)
        params = _split_operands(match.group(3) or "")
        qubits = _split_operands(match.group(4) or "")
        body: List[str] = []
        i = 1
        if i < len(statements) and statements[i] == "{":
            i += 1
        depth = 1
        while i < len(statements) and depth > 0:
            stmt = statements[i]
            if stmt == "{":
                depth += 1
            elif stmt == "}":
                depth -= 1
            else:
                body.append(stmt)
            i += 1
        self.gate_defs[name] = _GateDef(name, params, qubits, body)

    # -- operands ----------------------------------------------------------

    def _resolve(
        self, operand: str, registers: Dict[str, Tuple[int, int]], kind: str
    ) -> Tuple[int, ...]:
        """Indices of a ``reg[i]`` or whole-register operand, looked up only in
        ``registers`` (the quantum or the classical ones, by ``kind``)."""
        match = _INDEXED_RE.match(operand)
        name = match.group(1) if match else operand
        if name not in registers:
            other = self.cregs if registers is self.qregs else self.qregs
            if name in other:
                raise QASMError(f"operand {operand!r} is not a {kind} register")
            if match:
                raise QASMError(f"unknown register {name!r}")
            raise QASMError(f"unknown operand {operand!r}")
        offset, size = registers[name]
        if match:
            index = int(match.group(2))
            if index >= size:
                raise QASMError(f"{kind} index out of range: {operand}")
            found: Tuple[int, ...] = (offset + index,)
            canonical = f"{name}[{index}]"
        else:
            found = tuple(range(offset, offset + size))
            canonical = name
        if operand == canonical:
            memo = self._qubit_operands if registers is self.qregs else self._clbit_operands
            memo[operand] = found
        return found

    def _qubits(self, operand: str) -> Tuple[int, ...]:
        return self._qubit_operands.get(operand) or self._resolve(operand, self.qregs, "qubit")

    def _clbits(self, operand: str) -> Tuple[int, ...]:
        return self._clbit_operands.get(operand) or self._resolve(operand, self.cregs, "clbit")

    # -- operations --------------------------------------------------------

    def _measure(self, stmt: str, out: _Sink) -> None:
        match = _MEASURE_RE.match(stmt)
        if not match:
            raise QASMError(f"malformed measure: {stmt!r}")
        qubits = self._qubits(match.group(1).strip())
        clbits = self._clbits(match.group(2).strip())
        if len(qubits) != len(clbits):
            raise QASMError(f"measure register size mismatch: {stmt!r}")
        out.extend(Instruction.trusted(_MEASURE, (q,), (c,)) for q, c in zip(qubits, clbits))

    def _barrier(self, stmt: str) -> Instruction:
        qubits: List[int] = []
        for operand in _split_operands(stmt[len("barrier"):]):
            qubits.extend(self._qubits(operand))
        if not qubits:
            # OpenQASM 2.0 has no operand-less barrier.
            raise QASMError(f"barrier on no qubits: {stmt!r}")
        if len(set(qubits)) != len(qubits):
            raise QASMError(f"duplicate qubit arguments in {stmt!r}")
        return Instruction.trusted(_BARRIER, tuple(qubits))

    def _call(self, stmt: str, out: _Sink) -> None:
        match = _CALL_RE.match(stmt)
        if match is None:
            raise QASMError(f"malformed statement: {stmt!r}")
        name, param_text, operand_text = match.group(1, 3, 4)
        params = tuple([_eval_expr(p) for p in _split_operands(param_text)]) if param_text else ()
        memo = self._qubit_operands
        groups: List[Tuple[int, ...]] = []
        qubits: Tuple[int, ...] = ()
        broadcast = False
        for operand in operand_text.split(","):
            group = memo.get(operand)
            if group is None:
                operand = operand.strip()
                if not operand:
                    continue
                group = memo.get(operand) or self._resolve(operand, self.qregs, "qubit")
            groups.append(group)
            qubits += group
            if len(group) != 1:
                broadcast = True
        name = _KNOWN_ALIASES.get(name, name)
        if not broadcast:
            self._apply(name, params, qubits, stmt, out)
            return
        # Broadcast register operands (e.g. `h q;`) over their elements.
        sizes = {len(group) for group in groups if len(group) != 1}
        if 0 in sizes:
            raise QASMError(f"empty register operand in {stmt!r}")
        if len(sizes) > 1:
            raise QASMError(f"inconsistent register broadcast in {stmt!r}")
        for rep in range(sizes.pop()):
            qubits = tuple([group[rep] if len(group) > 1 else group[0] for group in groups])
            self._apply(name, params, qubits, stmt, out)

    def _apply(
        self, name: str, params: Tuple[float, ...], qubits: Tuple[int, ...], stmt: str,
        out: _Sink,
    ) -> None:
        """Append a standard gate, or the inlined body of a user-defined one."""
        shape = _CALLABLE_GATES.get(name)
        if shape is not None:
            out.append(_gate_instruction(name, shape, params, qubits, stmt))
            return
        try:
            self._inline(name, params, qubits, stmt, out)
        except RecursionError as exc:
            # Caught here, at the statement, where the stack has room again.
            raise QASMError(
                f"gate {name!r} calls itself or nests too deeply: {stmt!r}"
            ) from exc

    def _inline(
        self, name: str, params: Tuple[float, ...], qubits: Tuple[int, ...], stmt: str,
        out: _Sink,
    ) -> None:
        """Append the body of user-defined gate ``name``, its calls inlined recursively."""
        gate_def = self.gate_defs.get(name)
        if gate_def is None:
            raise QASMError(f"unknown gate {name!r} in statement {stmt!r}")
        if len(params) != len(gate_def.params):
            raise QASMError(f"gate {gate_def.name!r} expects {len(gate_def.params)} params")
        if len(qubits) != len(gate_def.qubits):
            raise QASMError(f"gate {gate_def.name!r} expects {len(gate_def.qubits)} qubits")
        param_binding = dict(zip(gate_def.params, params))
        qubit_binding = dict(zip(gate_def.qubits, qubits))
        for body_stmt in gate_def.body:
            match = _CALL_RE.match(body_stmt)
            if not match:
                raise QASMError(f"malformed statement in gate body: {body_stmt!r}")
            inner = match.group(1)
            if inner == "barrier":
                continue
            inner_params = tuple([
                _eval_expr(p, param_binding) for p in _split_operands(match.group(3) or "")
            ])
            try:
                inner_qubits = tuple([qubit_binding[q] for q in _split_operands(match.group(4))])
            except KeyError as exc:
                raise QASMError(f"unknown qubit {exc} in gate body of {gate_def.name!r}") from exc
            inner = _KNOWN_ALIASES.get(inner, inner)
            shape = _CALLABLE_GATES.get(inner)
            if shape is not None:
                out.append(_gate_instruction(inner, shape, inner_params, inner_qubits, body_stmt))
            else:
                self._inline(inner, inner_params, inner_qubits, body_stmt, out)


def loads(text: str) -> QuantumCircuit:
    """Parse OpenQASM 2.0 source text into a :class:`QuantumCircuit`."""
    parser = _QASMParser()
    tokens = _iter_statement_tokens((text,))
    data: List[Instruction] = []
    for stmt in tokens:
        parser.statement(stmt, tokens, data)
    circuit = QuantumCircuit(parser.num_qubits, parser.num_clbits, "qasm_circuit")
    circuit.data = data
    return circuit


def load(path: str) -> QuantumCircuit:
    """Parse an OpenQASM 2.0 file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


# ---------------------------------------------------------------------------
# Streaming ingest
# ---------------------------------------------------------------------------

class QASMStreamReader:
    """Incremental OpenQASM 2.0 reader: instructions without the full AST in memory.

    Wraps any iterable of source lines (an open file, a socket wrapped in
    ``io.TextIOWrapper``, ``text.splitlines(keepends=True)``, ...) and exposes the
    parsed operations as a lazy instruction stream.  Register declarations and ``gate``
    definitions must precede their first use, which every QASM 2.0 emitter satisfies
    (the spec's "declare before use" rule), so the header can be parsed from the stream
    prefix while the gate body is still unread.

    Parsing shares the statement machinery of :func:`loads`, so a streamed parse
    accepts the same dialect and produces the same operations —
    ``tests/circuit/test_qasm_stream.py`` and ``test_qasm_reference.py`` pin the
    equivalence.
    """

    def __init__(self, lines: Iterable[str], name: str = "qasm_stream") -> None:
        self.name = name
        self._parser = _QASMParser()
        self._tokens = _iter_statement_tokens(lines)
        self._pending: Deque[Instruction] = deque()
        self._header_done = False
        self._exhausted = False

    # -- header --------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        self._ensure_header()
        return self._parser.num_qubits

    @property
    def num_clbits(self) -> int:
        self._ensure_header()
        return self._parser.num_clbits

    def _ensure_header(self) -> None:
        """Parse declarations up to (and including buffering) the first operation."""
        if self._header_done:
            return
        while not self._pending and not self._exhausted:
            self._advance()
        self._header_done = True

    # -- statement pump ------------------------------------------------------

    def _advance(self) -> None:
        """Consume source statements until one operation batch is pending (or EOF)."""
        pending = self._pending
        for stmt in self._tokens:
            self._parser.statement(stmt, self._tokens, pending)
            if pending:
                return
        self._exhausted = True

    # -- instruction stream ---------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        """Lazily yield every operation in source order as an :class:`Instruction`."""
        self._ensure_header()
        pending = self._pending
        while True:
            while pending:
                yield pending.popleft()
            if self._exhausted:
                return
            self._advance()

    def __iter__(self) -> Iterator[Instruction]:
        return self.instructions()

    def batches(self, batch_size: int) -> Iterator[List[Instruction]]:
        """Yield instructions grouped into lists of at most ``batch_size``."""
        if batch_size < 1:
            raise QASMError(f"batch_size must be >= 1, got {batch_size}")
        batch: List[Instruction] = []
        for inst in self.instructions():
            batch.append(inst)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch


def loads_stream(text: str, name: str = "qasm_stream") -> QASMStreamReader:
    """Streaming reader over in-memory QASM text (one parse state, lazy operations)."""
    return QASMStreamReader(text.splitlines(keepends=True), name=name)


def load_stream(path: Union[str, "os.PathLike"]) -> QASMStreamReader:
    """Streaming reader over a QASM file; the file is read line by line, never whole.

    The underlying handle is closed when the instruction stream is exhausted or the
    reader is garbage-collected.
    """
    handle = open(os.fspath(path), "r", encoding="utf-8")
    base = os.path.basename(os.fspath(path))
    name = base[:-5] if base.endswith(".qasm") else base
    return QASMStreamReader(handle, name=name or "qasm_stream")


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def header_lines(num_qubits: int, num_clbits: int = 0) -> List[str]:
    """The OpenQASM 2.0 preamble emitted by :func:`dumps` for the given registers."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]
    if num_clbits:
        lines.append(f"creg c[{num_clbits}];")
    return lines


def instruction_line(inst: Instruction) -> str:
    """One instruction rendered exactly as :func:`dumps` renders it (no newline)."""
    if inst.name == "barrier":
        operands = ",".join(f"q[{q}]" for q in inst.qubits)
        return f"barrier {operands};"
    if inst.name == "measure":
        return f"measure q[{inst.qubits[0]}] -> c[{inst.clbits[0]}];"
    if inst.name == "unitary":
        raise QASMError("explicit-matrix gates cannot be serialised to OpenQASM 2.0")
    params = ""
    if inst.gate.params:
        params = "(" + ",".join(repr(p) for p in inst.gate.params) + ")"
    operands = ",".join(f"q[{q}]" for q in inst.qubits)
    return f"{inst.name}{params} {operands};"


def dumps(circuit: QuantumCircuit) -> str:
    """Serialise a circuit to OpenQASM 2.0 (gates must be in the standard named set)."""
    lines = header_lines(circuit.num_qubits, circuit.num_clbits)
    lines.extend(instruction_line(inst) for inst in circuit.data)
    return "\n".join(lines) + "\n"


def dump(circuit: QuantumCircuit, path: str) -> None:
    """Write a circuit to an OpenQASM 2.0 file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(circuit))
