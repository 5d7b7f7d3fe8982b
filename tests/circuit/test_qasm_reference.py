"""The QASM statement parser against the pre-rewrite reference (``reference_qasm.py``).

``qasm.loads`` and ``qasm.loads_stream`` must return the reference's instructions
(parameters compared bit for bit) on the benchlib sources, on random circuits with
extreme parameters and on mutated programs, and raise ``QASMError`` wherever the
reference raises anything.  The 42 golden O1 outputs are checked the same way in
``tests/transpiler/test_golden_o1.py``, which already compiles them.
"""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchlib import benchmark_names, get_benchmark
from repro.circuit import QuantumCircuit, qasm
from repro.circuit.gates import Gate, gate
from repro.circuit.qasm import _NUMBER_RE, _eval_ast, _eval_expr
from repro.exceptions import QASMError

from . import reference_qasm as reference
from .reference_qasm import assert_matches_reference, signature

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def outcome(fn):
    """``fn()``'s value, or the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the reference raises several types
        return exc


def stream(text):
    return list(qasm.loads_stream(text))


def reference_stream(text):
    return list(reference.loads_stream(text))


@pytest.mark.parametrize("name", benchmark_names())
def test_benchlib_sources_match_reference(name):
    assert_matches_reference(qasm.dumps(get_benchmark(name)))


EXTREME_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, math.pi, -math.pi / 2, 1e16, 123456789.0,
]
PARAMS = st.one_of(
    st.sampled_from(EXTREME_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
#: (name, qubits, parameters) of the gates the random circuits draw from.
GATES = [
    ("rz", 1, 1), ("u", 1, 3), ("cp", 2, 1), ("rzz", 2, 1), ("cx", 2, 0), ("h", 1, 0),
    ("sx", 1, 0), ("ccx", 3, 0), ("swap", 2, 0), ("measure", 1, 0), ("barrier", 0, 0),
]


@st.composite
def circuits(draw):
    num_qubits = draw(st.integers(3, 6))
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(draw(st.integers(0, 25))):
        name, arity, num_params = draw(st.sampled_from(GATES))
        order = draw(st.permutations(range(num_qubits)))
        if name == "measure":
            circuit.measure(order[0], draw(st.integers(0, num_qubits - 1)))
        elif name == "barrier":
            circuit.barrier(*order[: draw(st.integers(1, num_qubits))])
        else:
            params = [draw(PARAMS) for _ in range(num_params)]
            circuit.append(gate(name, *params), order[:arity])
    return circuit


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_random_circuits_match_reference_and_round_trip(circuit):
    text = qasm.dumps(circuit)
    assert_matches_reference(text)
    assert signature(qasm.loads(text).data) == signature(circuit.data)


#: Programs the reference refuses, some with a ``CircuitError``, ``ZeroDivisionError``,
#: ``OverflowError``, ``TypeError``, ``RecursionError``, ``MemoryError`` or
#: ``IndexError`` rather than a ``QASMError``.
CHAIN_DEPTH = sys.getrecursionlimit() + 100

REJECTED = [
    "qreg q[1];\nfoo q[0];",
    "qreg q[1];\nx q[3];",
    "qreg q[1];\nx r[0];",
    "qreg q[1];\nx r;",
    "qreg q[1];\nrz(__import__) q[0];",
    "qreg q[1];\ncreg c[1];\nif (c==1) x q[0];",
    "qreg q[2];\ncx q[0],q[0];",
    "qreg q[2];\ncx q[0];",
    "qreg q[1];\nh;",
    "qreg q[1];\nrz q[0];",
    "qreg q[1];\nh(0.5) q[0];",
    "qreg q[1];\nu(0.1,0.2) q[0];",
    "qreg q[2];\nbarrier q[0],q[0];",
    "qreg q[2];\nbarrier q,q[1];",
    "qreg q[1];\nrz(1/0) q[0];",
    "qreg q[1];\nrz(0**-1) q[0];",
    "qreg q[1];\nrz(10.0**400) q[0];",
    "qreg q[1];\nrz(1" + "0" * 400 + ") q[0];",
    "qreg q[1];\ngate g(t) a { rz(t**0.5) a; }\ng(-1) q[0];",
    "qreg q[1];\nrz(" + "-" * 1000 + "1) q[0];",
    "qreg q[1];\nrz(" + "-" * 3000 + "1) q[0];",
    "qreg q[1];\nrz(" + "-" * 20000 + "1) q[0];",
    "qreg q[1];\nrz(nan) q[0];",
    "qreg q[1];\nrz(inf) q[0];",
    "qreg q[1];\nrz(01) q[0];",
    "qreg q[1];\nrz(pi q[0];",
    "qreg q[0];\nh q;",
    "qreg q[2];\nqreg r[3];\ncx q,r;",
    "qreg q[2];\ncreg c[1];\nmeasure q -> c;",
    "qreg q[1];\nmeasure q[0];",
    "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[4];",
    "qreg q[1];\nmeasure q[0] -> q[0];",
    "qreg;",
    "qreg q;",
    "creg c[x];",
    "gate;",
    "qreg q[1];\ngate g a { x b; }\ng q[0];",
    "qreg q[1];\ngate g(t) a { rz(t) a; }\ng q[0];",
    "qreg q[2];\ngate g a { x a; }\ng q[0],q[1];",
    "qreg q[1];\ngate g a { foo a; }\ng q[0];",
    "qreg q[1];\ngate g a { measure a; }\ng q[0];",
    "qreg q[2];\ngate g a, b { cx a, a; }\ng q[0],q[1];",
    "qreg q[1];\n(x) q[0];",
    "qreg q[1];\nunitary q[0];",
    "qreg q[1];\nmeasurex q[0] -> c[0];",
    "qreg q[1];\ngate g a { g a; }\ng q[0];",
    "qreg q[1];\ngate f a { g a; }\ngate g a { f a; }\nf q[0];",
    "qreg q[1];\ngate g a { h a; }\ngate g a { g a; }\ng q[0];",
    "qreg q[1];\nrz(sqrt(-1)) q[0];",
    "qreg q[1];\nrz(ln(0)) q[0];",
    "qreg q[1];\nrz((1+2) q[0];",
    "qreg q[1];\ngate g(t) a { rz(sqrt(t)) a; }\ng(-1) q[0];",
    # A valid chain of definitions nested deeper than the interpreter's stack.
    "qreg q[1];\ngate g0 a { x a; }\n"
    + "".join(f"gate g{i} a {{ g{i - 1} a; }}\n" for i in range(1, CHAIN_DEPTH + 1))
    + f"g{CHAIN_DEPTH} q[0];",
]


@pytest.mark.parametrize("text", REJECTED, ids=[text[-40:] for text in REJECTED])
def test_rejected_wherever_the_reference_rejects(text):
    source = HEADER + text + "\n"
    assert isinstance(outcome(lambda: reference.loads(source)), Exception)
    with pytest.raises(QASMError):
        qasm.loads(source)
    if isinstance(outcome(lambda: reference_stream(source)), Exception):
        with pytest.raises(QASMError):
            stream(source)


BASE = HEADER + (
    "qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\nrz(0.5) q[2];\n"
    "u(0.1,-0.0,1e-07) q[1];\nbarrier q;\nccx q[0],q[1],q[2];\ncp(pi/4) q[2],q[0];\n"
    "h q;\nmeasure q[1] -> c[0];\nmeasure q -> c;\n"
)
#: Insertions for the mutation fuzz.  No braces, so gate blocks (whose malformed forms
#: the two reference readers already disagree on) stay out of it.
PIECES = list("qcr[]0123456789.,;()-+*/e ") + [
    "pi", "h ", "cx ", "rz(", "measure ", "->", "barrier ", "qreg r[2];", "creg d[1];",
    "\n", "//",
]


@st.composite
def mutated_programs(draw):
    text = BASE
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 4))
        text = text[:pos] + draw(st.sampled_from(PIECES)) + text[pos + cut:]
    return text


#: The only refusals of input the reference accepts: an operand of the wrong register
#: kind, a register declared twice, a statement no ``;`` terminates (the reference drops
#: it), and a barrier on no qubits (which the reference's two readers read differently).
NEW_REFUSALS = (
    "is not a qubit register", "is not a clbit register", "already declared",
    "missing ';'", "barrier on no qubits",
)


def accepted_only_here(reference_error):
    """Whether the reference refused only a parameter that holds parentheses.

    The reference ends a parameter list at its first ``)``, so ``rz((0.5)) q[0];``
    reaches its evaluator as ``(0.5``; both readers here parse such parameters.
    """
    message = str(reference_error)
    return (
        isinstance(reference_error, QASMError)
        and message.startswith("invalid parameter expression: ")
        and "(" in message[len("invalid parameter expression: "):]
    )


@settings(max_examples=300, deadline=None)
@given(mutated_programs())
def test_mutated_programs_match_reference(text):
    for parse, reference_parse, view in (
        (qasm.loads, reference.loads, lambda c: (c.num_qubits, c.num_clbits, signature(c.data))),
        (stream, reference_stream, signature),
    ):
        want = outcome(lambda: reference_parse(text))
        if isinstance(want, Exception):
            if accepted_only_here(want) and not isinstance(outcome(lambda: parse(text)), Exception):
                continue
            with pytest.raises(QASMError):
                parse(text)
            continue
        try:
            got = parse(text)
        except QASMError as exc:
            assert any(reason in str(exc) for reason in NEW_REFUSALS), (text, exc)
            continue
        assert view(got) == view(want), text


class TestNumericLiteralCase:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_reprs_take_the_literal_case_and_equal_ast(self, value):
        text = repr(value)
        assert _NUMBER_RE.fullmatch(text)
        assert float.hex(_eval_expr(text)) == float.hex(_eval_ast(text)) == float.hex(value)
        assert float.hex(reference._eval_expr(text)) == float.hex(value)

    @pytest.mark.parametrize(
        "text",
        ["10", "1e+16", "5e-324", "-0", "0", "00", "+1.5", ".5", "5.", "1.e5", "01.5",
         "1e400", "-1e-400", "999999999999999", "1.7976931348623157e+308"],
    )
    def test_accepted_literals_equal_ast(self, text):
        assert _NUMBER_RE.fullmatch(text)
        value = _eval_expr(text)
        assert float.hex(value) == float.hex(_eval_ast(text))
        assert float.hex(value) == float.hex(reference._eval_expr(text))

    @pytest.mark.parametrize(
        "text",
        ["01", "007", "1_0", "0x10", "pi/2", "nan", "inf", "-inf", "1e5j", "１２",
         "1" * 16, "2**0.5", "True"],
    )
    def test_everything_else_defers_to_ast(self, text):
        assert _NUMBER_RE.fullmatch(text) is None
        want = outcome(lambda: reference._eval_expr(text))
        got = outcome(lambda: _eval_expr(text))
        if isinstance(want, Exception):
            assert isinstance(want, QASMError) and isinstance(got, QASMError)
        else:
            assert float.hex(got) == float.hex(want)


class TestRegisterKinds:
    """Operands resolve only against registers of their kind, and names are unique."""

    REGISTERS = HEADER + "qreg q[2];\ncreg c[2];\n"

    @pytest.mark.parametrize(
        "statement",
        ["h c[1];", "cx c[0],q[1];", "cx q[0],c[1];", "measure q[0] -> q[1];",
         "measure c[0] -> c[1];", "measure c -> c;", "barrier c;", "barrier q[0],c[1];"],
    )
    def test_operand_of_the_wrong_kind_is_refused(self, statement):
        text = self.REGISTERS + statement + "\n"
        with pytest.raises(QASMError, match="is not a (qubit|clbit) register"):
            qasm.loads(text)
        with pytest.raises(QASMError, match="is not a (qubit|clbit) register"):
            stream(text)

    @pytest.mark.parametrize(
        "declarations",
        ["qreg q[2];\nh q[1];\nqreg q[3];\nh q[1];", "qreg q[2];\ncreg q[2];",
         "creg c[1];\ncreg c[1];", "creg c[1];\nqreg c[1];"],
    )
    def test_second_declaration_is_refused_by_name(self, declarations):
        text = HEADER + declarations + "\n"
        name = declarations.split()[1].split("[")[0]
        with pytest.raises(QASMError, match=f"register '{name}' is already declared"):
            qasm.loads(text)
        with pytest.raises(QASMError, match=f"register '{name}' is already declared"):
            stream(text)

    def test_distinct_registers_of_both_kinds_still_parse(self):
        text = HEADER + (
            "qreg a[2];\nqreg b[2];\ncreg m[1];\ncreg n[2];\n"
            "cx a[1],b[0];\nh b;\nmeasure b -> n;\nmeasure a[0] -> m[0];\n"
        )
        circuit = qasm.loads(text)
        assert (circuit.num_qubits, circuit.num_clbits) == (4, 3)
        assert [(inst.name, inst.qubits, inst.clbits) for inst in circuit.data] == [
            ("cx", (1, 2), ()), ("h", (2,), ()), ("h", (3,), ()),
            ("measure", (2,), (1,)), ("measure", (3,), (2,)), ("measure", (0,), (0,)),
        ]
        assert signature(stream(text)) == signature(circuit.data)


def test_parameterless_gates_are_the_interned_flyweights():
    text = HEADER + "qreg q[2];\nh q[0];\ncx q[0],q[1];\nrz(0.5) q[1];\n"
    circuit = qasm.loads(text)
    assert circuit.data[0].gate is gate("h")
    assert circuit.data[1].gate is gate("cx")
    # A parametrised gate is a fresh instance per read, equal to the constructor's.
    assert circuit.data[2].gate is not qasm.loads(text).data[2].gate
    assert vars(circuit.data[2].gate) == vars(Gate("rz", (0.5,)))


#: Programs the reference accepts and both readers refuse, each with a ``NEW_REFUSALS``
#: message: the reference drops an unterminated statement, and reads an operand-less
#: barrier as the final register (``loads``) or as no qubit at all (its stream reader).
NEWLY_REJECTED = [
    "qreg q[2];\nh q[0];\ncx q[0],q[1]",
    "qreg q[2];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0]\n// no terminator\n",
    "qreg q[2];\ngate g a { x a }\ng q[1];",
    "qreg q[2];\ngate g a { h a; x a }\ng q[1];",
    "qreg q[1];\nbarrier;",
    "qreg q[1];\nbarrier;\nqreg r[2];\nh r[1];",
    "qreg q[0];\nqreg r[1];\nh r[0];\nbarrier q;",
]


@pytest.mark.parametrize("text", NEWLY_REJECTED, ids=[text[-30:] for text in NEWLY_REJECTED])
def test_refused_by_both_readers_where_the_reference_accepts(text):
    source = HEADER + text
    assert not isinstance(outcome(lambda: reference.loads(source)), Exception)
    for parse in (qasm.loads, stream):
        with pytest.raises(QASMError) as refused:
            parse(source)
        assert any(reason in str(refused.value) for reason in NEW_REFUSALS)


class TestParenthesisedParameters:
    """A parameter may hold parentheses; the reference refuses these, so they are
    checked against ``math`` directly."""

    @pytest.mark.parametrize(
        "expression,value",
        [
            ("sin(pi/2)", math.sin(math.pi / 2)),
            ("(1+2)*pi", (1 + 2) * math.pi),
            ("-(pi)", -math.pi),
            ("sqrt(cos(0)*2)", math.sqrt(math.cos(0) * 2)),
            ("exp(ln(2))/(tan(pi/4))", math.exp(math.log(2)) / math.tan(math.pi / 4)),
        ],
    )
    def test_both_readers_evaluate_nested_parentheses(self, expression, value):
        text = HEADER + f"qreg q[2];\nrz({expression}) q[1];\nu(({expression}),0,pi) q[0];\n"
        for data in (qasm.loads(text).data, stream(text)):
            assert [(inst.name, inst.qubits) for inst in data] == [("rz", (1,)), ("u", (0,))]
            assert float.hex(data[0].gate.params[0]) == float.hex(value)
            assert float.hex(data[1].gate.params[0]) == float.hex(value)

    def test_gate_bodies_and_arguments_take_nested_parentheses(self):
        text = HEADER + (
            "qreg q[1];\ngate g(t) a { rz(sin(t)*(2)) a; }\ng((pi/2)) q[0];\n"
        )
        for data in (qasm.loads(text).data, stream(text)):
            assert float.hex(data[0].gate.params[0]) == float.hex(math.sin(math.pi / 2) * 2)


def test_unterminated_gate_block_is_refused_by_both_readers():
    """``loads`` used to swallow the rest of the file into the gate body."""
    text = HEADER + "qreg q[1];\nh q[0];\ngate g a { x a;\nh q[0];\n"
    with pytest.raises(QASMError, match="unterminated gate definition"):
        qasm.loads(text)
    with pytest.raises(QASMError, match="unterminated gate definition"):
        stream(text)
