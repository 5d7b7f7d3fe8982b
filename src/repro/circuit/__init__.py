"""Quantum circuit intermediate representation (gates, circuits, DAGs, OpenQASM I/O)."""

from .gates import Gate, GateSpec, GATE_SPECS, HARDWARE_BASIS, SELF_INVERSE_GATES, gate, unitary_gate
from .circuit import Instruction, QuantumCircuit, expand_gate_matrix
from .dag import DAGCircuit, DAGNode, StreamingDAG
from .random import random_circuit, random_circuit_stream, random_cx_circuit, random_unitary
from . import qasm

__all__ = [
    "Gate",
    "GateSpec",
    "GATE_SPECS",
    "HARDWARE_BASIS",
    "SELF_INVERSE_GATES",
    "gate",
    "unitary_gate",
    "Instruction",
    "QuantumCircuit",
    "expand_gate_matrix",
    "DAGCircuit",
    "DAGNode",
    "StreamingDAG",
    "random_circuit",
    "random_circuit_stream",
    "random_cx_circuit",
    "random_unitary",
    "qasm",
]
