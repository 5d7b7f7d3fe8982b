"""The pre-rewrite OpenQASM statement parser, kept as the test oracle.

This is ``repro.circuit.qasm``'s reader as it stood before the single-pass statement
path: ``ast`` for every parameter, regexes looked up by pattern string, operands resolved
against quantum and classical registers alike, and every operation validated by
``QuantumCircuit.append`` and ``Instruction.__post_init__``.  ``test_qasm_reference.py``
requires the production reader to return the same instructions wherever this one does,
and to raise ``QASMError`` wherever this one raises anything.  Do not optimise it.
"""

from __future__ import annotations

import ast
import math
import re
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.circuit import Instruction, QuantumCircuit
from repro.circuit.gates import GATE_SPECS, Gate, gate as make_gate
from repro.exceptions import QASMError

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

#: CPython 3.11 keeps the AST constructor's recursion-depth bookkeeping in shared
#: module state, so concurrent ``ast.parse`` calls from thread-pool workers (the
#: server's QASM parsing path) can race into ``SystemError: AST constructor recursion
#: depth mismatch``.  Parameter expressions are tiny, so serialising the parse is free.
_AST_PARSE_LOCK = threading.Lock()


def _eval_expr(text: str, bindings: Optional[Dict[str, float]] = None) -> float:
    """Safely evaluate a QASM parameter expression."""
    bindings = bindings or {}
    try:
        with _AST_PARSE_LOCK:
            tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
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

    return walk(tree)


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


_STATEMENT_RE = re.compile(r"[^;{}]+;|[^;{}]+(?=\{)|\{|\}")


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if "//" in line:
            line = line.split("//", 1)[0]
        lines.append(line)
    return "\n".join(lines)


def _split_operands(arg_text: str) -> List[str]:
    return [a.strip() for a in arg_text.split(",") if a.strip()]


class _QASMParser:
    def __init__(self, text: str) -> None:
        self.text = _strip_comments(text)
        self.qregs: Dict[str, Tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: Dict[str, Tuple[int, int]] = {}
        self.gate_defs: Dict[str, _GateDef] = {}
        self.num_qubits = 0
        self.num_clbits = 0

    def parse(self) -> QuantumCircuit:
        statements = self._tokenize()
        instructions: List[Tuple[str, List[float], List[int], List[int]]] = []
        i = 0
        while i < len(statements):
            stmt = statements[i].strip()
            i += 1
            if not stmt or stmt.startswith("OPENQASM") or stmt.startswith("include"):
                continue
            if stmt.startswith("qreg") or stmt.startswith("creg"):
                self._declare_register(stmt)
                continue
            if stmt.startswith("gate ") or stmt == "gate":
                i = self._parse_gate_def(statements, i - 1)
                continue
            if stmt in ("{", "}"):
                continue
            instructions.extend(self._parse_operation(stmt))

        circuit = QuantumCircuit(self.num_qubits, self.num_clbits, "qasm_circuit")
        for name, params, qubits, clbits in instructions:
            if name == "barrier":
                circuit.barrier(*qubits)
            elif name == "measure":
                circuit.measure(qubits[0], clbits[0])
            else:
                circuit.append(Gate(name, tuple(params)), qubits)
        return circuit

    # -- helpers -----------------------------------------------------------

    def _tokenize(self) -> List[str]:
        tokens = []
        for match in _STATEMENT_RE.finditer(self.text):
            token = match.group(0).strip()
            if token.endswith(";"):
                token = token[:-1].strip()
            if token:
                tokens.append(token)
        return tokens

    def _declare_register(self, stmt: str) -> None:
        match = re.match(r"(qreg|creg)\s+(\w+)\s*\[\s*(\d+)\s*\]", stmt)
        if not match:
            raise QASMError(f"malformed register declaration: {stmt!r}")
        kind, name, size = match.group(1), match.group(2), int(match.group(3))
        if kind == "qreg":
            self.qregs[name] = (self.num_qubits, size)
            self.num_qubits += size
        else:
            self.cregs[name] = (self.num_clbits, size)
            self.num_clbits += size

    def _parse_gate_def(self, statements: List[str], start: int) -> int:
        header = statements[start].strip()
        match = re.match(r"gate\s+(\w+)\s*(\(([^)]*)\))?\s*(.*)", header, re.S)
        if not match:
            raise QASMError(f"malformed gate definition: {header!r}")
        name = match.group(1)
        params = _split_operands(match.group(3) or "")
        qubits = _split_operands(match.group(4) or "")
        body: List[str] = []
        i = start + 1
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
        return i

    def _resolve_qubit(self, operand: str) -> List[int]:
        operand = operand.strip()
        match = re.match(r"(\w+)\s*\[\s*(\d+)\s*\]$", operand)
        if match:
            reg, idx = match.group(1), int(match.group(2))
            if reg in self.qregs:
                offset, size = self.qregs[reg]
                if idx >= size:
                    raise QASMError(f"qubit index out of range: {operand}")
                return [offset + idx]
            if reg in self.cregs:
                offset, size = self.cregs[reg]
                if idx >= size:
                    raise QASMError(f"clbit index out of range: {operand}")
                return [offset + idx]
            raise QASMError(f"unknown register {reg!r}")
        if operand in self.qregs:
            offset, size = self.qregs[operand]
            return [offset + i for i in range(size)]
        if operand in self.cregs:
            offset, size = self.cregs[operand]
            return [offset + i for i in range(size)]
        raise QASMError(f"unknown operand {operand!r}")

    def _parse_operation(self, stmt: str) -> List[Tuple[str, List[float], List[int], List[int]]]:
        if stmt.startswith("measure"):
            match = re.match(r"measure\s+(.+?)\s*->\s*(.+)", stmt)
            if not match:
                raise QASMError(f"malformed measure: {stmt!r}")
            qubits = self._resolve_qubit(match.group(1))
            clbits = self._resolve_qubit(match.group(2))
            if len(qubits) != len(clbits):
                raise QASMError(f"measure register size mismatch: {stmt!r}")
            return [("measure", [], [q], [c]) for q, c in zip(qubits, clbits)]
        if stmt.startswith("barrier"):
            operands = _split_operands(stmt[len("barrier"):])
            qubits: List[int] = []
            for op in operands:
                qubits.extend(self._resolve_qubit(op))
            return [("barrier", [], qubits, [])]
        if stmt.startswith("if"):
            raise QASMError("classical control ('if') is not supported")

        match = re.match(r"(\w+)\s*(\(([^)]*)\))?\s*(.*)", stmt, re.S)
        if not match:
            raise QASMError(f"malformed statement: {stmt!r}")
        name = match.group(1)
        param_text = match.group(3) or ""
        operand_text = match.group(4) or ""
        params = [_eval_expr(p) for p in _split_operands(param_text)]
        operand_groups = [self._resolve_qubit(op) for op in _split_operands(operand_text)]
        return self._expand_call(name, params, operand_groups, stmt)

    def _expand_call(
        self,
        name: str,
        params: List[float],
        operand_groups: List[List[int]],
        stmt: str,
    ) -> List[Tuple[str, List[float], List[int], List[int]]]:
        name = _KNOWN_ALIASES.get(name, name)
        # Broadcast register operands (e.g. `h q;`) over their elements.
        sizes = {len(g) for g in operand_groups if len(g) > 1}
        if len(sizes) > 1:
            raise QASMError(f"inconsistent register broadcast in {stmt!r}")
        repeat = sizes.pop() if sizes else 1
        results: List[Tuple[str, List[float], List[int], List[int]]] = []
        for rep in range(repeat):
            qubits = [g[rep] if len(g) > 1 else g[0] for g in operand_groups]
            if name in GATE_SPECS and name not in ("measure", "barrier", "unitary"):
                results.append((name, params, qubits, []))
            elif name in self.gate_defs:
                results.extend(self._inline_gate_def(self.gate_defs[name], params, qubits))
            else:
                raise QASMError(f"unknown gate {name!r} in statement {stmt!r}")
        return results

    def _inline_gate_def(
        self, gate_def: _GateDef, params: List[float], qubits: List[int]
    ) -> List[Tuple[str, List[float], List[int], List[int]]]:
        if len(params) != len(gate_def.params):
            raise QASMError(f"gate {gate_def.name!r} expects {len(gate_def.params)} params")
        if len(qubits) != len(gate_def.qubits):
            raise QASMError(f"gate {gate_def.name!r} expects {len(gate_def.qubits)} qubits")
        param_binding = dict(zip(gate_def.params, params))
        qubit_binding = dict(zip(gate_def.qubits, qubits))
        results: List[Tuple[str, List[float], List[int], List[int]]] = []
        for stmt in gate_def.body:
            match = re.match(r"(\w+)\s*(\(([^)]*)\))?\s*(.*)", stmt, re.S)
            if not match:
                raise QASMError(f"malformed statement in gate body: {stmt!r}")
            name = match.group(1)
            if name == "barrier":
                continue
            inner_params = [
                _eval_expr(p, param_binding) for p in _split_operands(match.group(3) or "")
            ]
            inner_qubit_names = _split_operands(match.group(4) or "")
            try:
                inner_qubits = [qubit_binding[qn] for qn in inner_qubit_names]
            except KeyError as exc:
                raise QASMError(f"unknown qubit {exc} in gate body of {gate_def.name!r}") from exc
            resolved = _KNOWN_ALIASES.get(name, name)
            if resolved in GATE_SPECS and resolved not in ("measure", "barrier", "unitary"):
                results.append((resolved, inner_params, inner_qubits, []))
            elif resolved in self.gate_defs:
                results.extend(
                    self._inline_gate_def(self.gate_defs[resolved], inner_params, inner_qubits)
                )
            else:
                raise QASMError(f"unknown gate {name!r} inside gate {gate_def.name!r}")
        return results


def loads(text: str) -> QuantumCircuit:
    """Parse OpenQASM 2.0 source text into a :class:`QuantumCircuit`."""
    return _QASMParser(text).parse()


# ---------------------------------------------------------------------------
# Streaming ingest
# ---------------------------------------------------------------------------

def _iter_statement_tokens(lines: Iterable[str]) -> Iterator[str]:
    """Incremental version of :meth:`_QASMParser._tokenize`.

    Consumes raw source lines one at a time and yields the same statement tokens the
    batch tokenizer produces (``;``-terminated statements with the terminator stripped,
    plus bare ``{`` / ``}`` tokens), holding only the current incomplete statement in
    memory.
    """
    buffer = ""
    for line in lines:
        if "//" in line:
            line = line.split("//", 1)[0]
        buffer += line if line.endswith("\n") else line + "\n"
        while True:
            match = re.search(r"[;{}]", buffer)
            if match is None:
                break
            char = buffer[match.start()]
            pre = buffer[: match.start()].strip()
            buffer = buffer[match.end():]
            if char == ";":
                if pre:
                    yield pre
            elif char == "{":
                if pre:
                    yield pre
                yield "{"
            else:
                yield "}"


class QASMStreamReader:
    """Incremental OpenQASM 2.0 reader: instructions without the full AST in memory.

    Wraps any iterable of source lines (an open file, a socket wrapped in
    ``io.TextIOWrapper``, ``text.splitlines(keepends=True)``, ...) and exposes the
    parsed operations as a lazy instruction stream.  Register declarations and ``gate``
    definitions must precede their first use, which every QASM 2.0 emitter satisfies
    (the spec's "declare before use" rule), so the header can be parsed from the stream
    prefix while the gate body is still unread.

    Parsing reuses the exact statement machinery of :class:`_QASMParser`, so a streamed
    parse accepts the same dialect and produces the same operations as :func:`loads` —
    ``tests/circuit/test_qasm.py`` pins the equivalence.
    """

    def __init__(self, lines: Iterable[str], name: str = "qasm_stream") -> None:
        self.name = name
        self._parser = _QASMParser("")
        self._tokens = _iter_statement_tokens(lines)
        self._pending: List[Tuple[str, List[float], List[int], List[int]]] = []
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
        parser = self._parser
        for stmt in self._tokens:
            stmt = stmt.strip()
            if not stmt or stmt.startswith("OPENQASM") or stmt.startswith("include"):
                continue
            if stmt.startswith("qreg") or stmt.startswith("creg"):
                parser._declare_register(stmt)
                continue
            if stmt.startswith("gate ") or stmt == "gate":
                self._collect_gate_def(stmt)
                continue
            if stmt in ("{", "}"):
                continue
            self._pending = parser._parse_operation(stmt)
            if self._pending:
                return
        self._exhausted = True

    def _collect_gate_def(self, header: str) -> None:
        """Buffer one ``gate`` block's tokens and hand them to the batch parser."""
        collected = [header]
        depth = 0
        opened = False
        for token in self._tokens:
            collected.append(token)
            if token == "{":
                depth += 1
                opened = True
            elif token == "}":
                depth -= 1
            if opened and depth == 0:
                break
        else:
            raise QASMError(f"unterminated gate definition: {header!r}")
        self._parser._parse_gate_def(collected, 0)

    # -- instruction stream ---------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        """Lazily yield every operation in source order as an :class:`Instruction`."""
        self._ensure_header()
        while True:
            while self._pending:
                name, params, qubits, clbits = self._pending.pop(0)
                if name == "barrier":
                    yield Instruction(make_gate("barrier"), tuple(qubits))
                elif name == "measure":
                    yield Instruction(make_gate("measure"), tuple(qubits), tuple(clbits))
                else:
                    yield Instruction(Gate(name, tuple(params)), tuple(qubits), tuple(clbits))
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


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

def signature(instructions: Iterable[Instruction]) -> List[Tuple]:
    """What a parse produced, with every parameter compared bit for bit."""
    return [
        (
            inst.name,
            inst.qubits,
            inst.clbits,
            tuple(float.hex(p) for p in inst.gate.params),
            inst.gate.label,
        )
        for inst in instructions
    ]


def assert_matches_reference(text: str) -> None:
    """``qasm.loads`` and ``qasm.loads_stream`` return what this parser returns."""
    from repro.circuit import qasm

    want = loads(text)
    got = qasm.loads(text)
    assert (got.name, got.num_qubits, got.num_clbits) == (
        want.name, want.num_qubits, want.num_clbits
    )
    assert signature(got.data) == signature(want.data)
    reader, reference_reader = qasm.loads_stream(text), loads_stream(text)
    assert (reader.num_qubits, reader.num_clbits) == (
        reference_reader.num_qubits, reference_reader.num_clbits
    )
    assert signature(reader) == signature(reference_reader)
