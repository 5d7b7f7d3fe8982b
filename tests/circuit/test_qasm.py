"""Unit tests for the OpenQASM 2.0 reader/writer."""

import math
import warnings

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, qasm, random_circuit
from repro.exceptions import QASMError
from repro.synthesis import allclose_up_to_global_phase

SIMPLE = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/4) q[2];
barrier q[0],q[1];
measure q[0] -> c[0];
"""


class TestParsing:
    def test_simple_program(self):
        circuit = qasm.loads(SIMPLE)
        assert circuit.num_qubits == 3
        assert circuit.num_clbits == 3
        assert circuit.count_ops() == {"h": 1, "cx": 1, "rz": 1, "barrier": 1, "measure": 1}
        assert circuit.data[2].gate.params == (math.pi / 4,)

    def test_comments_ignored(self):
        circuit = qasm.loads("OPENQASM 2.0;\nqreg q[1];\n// a comment\nx q[0]; // trailing\n")
        assert circuit.count_ops() == {"x": 1}

    def test_register_broadcast(self):
        circuit = qasm.loads("OPENQASM 2.0;\nqreg q[3];\nh q;\n")
        assert circuit.count_gate("h") == 3

    def test_measure_register_broadcast(self):
        circuit = qasm.loads("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q -> c;\n")
        assert circuit.count_gate("measure") == 2

    def test_parameter_expressions(self):
        circuit = qasm.loads("OPENQASM 2.0;\nqreg q[1];\nrz(2*pi/3) q[0];\nrx(-pi) q[0];\n")
        assert circuit.data[0].gate.params[0] == pytest.approx(2 * math.pi / 3)
        assert circuit.data[1].gate.params[0] == pytest.approx(-math.pi)

    def test_multiple_registers_are_concatenated(self):
        text = "OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncx a[1],b[0];\n"
        circuit = qasm.loads(text)
        assert circuit.num_qubits == 4
        assert circuit.data[0].qubits == (1, 2)

    def test_custom_gate_definition_inlined(self):
        text = """
        OPENQASM 2.0;
        qreg q[2];
        gate mygate(theta) a, b { h a; cx a, b; rz(theta) b; }
        mygate(pi/2) q[0], q[1];
        """
        circuit = qasm.loads(text)
        assert [inst.name for inst in circuit.data] == ["h", "cx", "rz"]
        assert circuit.data[2].gate.params[0] == pytest.approx(math.pi / 2)

    def test_nested_gate_definitions(self):
        text = """
        OPENQASM 2.0;
        qreg q[2];
        gate inner a { x a; }
        gate outer a, b { inner a; cx a, b; }
        outer q[0], q[1];
        """
        circuit = qasm.loads(text)
        assert [inst.name for inst in circuit.data] == ["x", "cx"]

    def test_cnot_alias(self):
        circuit = qasm.loads("OPENQASM 2.0;\nqreg q[2];\ncnot q[0],q[1];\n")
        assert circuit.data[0].name == "cx"

    def test_unknown_gate_rejected(self):
        with pytest.raises(QASMError):
            qasm.loads("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(QASMError):
            qasm.loads("OPENQASM 2.0;\nqreg q[1];\nx q[3];\n")

    def test_malformed_expression_rejected(self):
        with pytest.raises(QASMError):
            qasm.loads("OPENQASM 2.0;\nqreg q[1];\nrz(__import__) q[0];\n")

    @pytest.mark.parametrize("read", [qasm.loads, lambda text: list(qasm.loads_stream(text))])
    def test_malformed_literal_raises_without_a_python_warning(self, read, capfd):
        """``1if`` makes CPython's tokenizer warn; the reader must only raise."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(QASMError, match="invalid parameter expression"):
                read("OPENQASM 2.0;\nqreg q[1];\nrz(1if) q[0];\n")
        assert [str(w.message) for w in caught] == []
        assert capfd.readouterr().err == ""

    def test_classical_control_rejected(self):
        with pytest.raises(QASMError):
            qasm.loads("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c==1) x q[0];\n")


class TestRoundTrip:
    def test_dump_and_parse_round_trip(self):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(0.25, 2)
        circuit.cp(0.5, 1, 2)
        circuit.barrier(0, 1)
        circuit.measure(2, 2)
        text = qasm.dumps(circuit)
        rebuilt = qasm.loads(text)
        assert rebuilt.count_ops() == circuit.count_ops()
        assert allclose_up_to_global_phase(
            rebuilt.without_directives().to_matrix(), circuit.without_directives().to_matrix()
        )

    def test_round_trip_random_circuits(self):
        for seed in range(5):
            circuit = random_circuit(4, 6, seed=seed)
            rebuilt = qasm.loads(qasm.dumps(circuit))
            assert allclose_up_to_global_phase(
                rebuilt.to_matrix(), circuit.to_matrix(), 1e-6
            )

    def test_dump_file(self, tmp_path):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        path = tmp_path / "circuit.qasm"
        qasm.dump(circuit, str(path))
        assert qasm.load(str(path)).count_gate("h") == 1

    def test_unitary_gate_not_serialisable(self):
        circuit = QuantumCircuit(1)
        circuit.unitary(np.eye(2), [0])
        with pytest.raises(QASMError):
            qasm.dumps(circuit)
