"""Tests for streaming transpilation (:func:`repro.transpile_stream`).

The core guarantee under test: windowed routing over a :class:`StreamingDAG` makes the
*same decisions* as whole-circuit routing — a window that covers the circuit is
byte-identical to ``qasm.dumps(transpile(...).circuit)`` at the equivalent O0
configuration, and narrow windows (thanks to tail-aware lookahead spill) still produce
identical gate counts, depth and SWAP counts.  A hypothesis property pins the window
invariance across random circuits on the evaluation grid device.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    QuantumCircuit,
    Target,
    TranspileOptions,
    stream_to,
    transpile,
    transpile_stream,
)
from repro.circuit import Instruction, gate, qasm, random_circuit, random_circuit_stream
from repro.exceptions import TranspilerError


GRID_TARGET = Target.from_topology("grid", 25)

O0 = dict(level="O0", layout_iterations=0, seed=0)


def stream_text(source, target, options, **kwargs):
    """Run transpile_stream to completion; returns (emitted_text, summary)."""
    buf = io.StringIO()
    summary = stream_to(transpile_stream(source, target, options=options, **kwargs), buf)
    return buf.getvalue(), summary


def routed_reference(circuit, target, options):
    result = transpile(circuit, target, options=options)
    return qasm.dumps(result.circuit), result


class TestValidation:
    def test_rejects_non_o0_levels(self):
        circ = random_circuit(4, 3, seed=0)
        opts = TranspileOptions(routing="sabre", level="O1", seed=0)
        with pytest.raises(TranspilerError, match="O0"):
            next(transpile_stream(circ, GRID_TARGET, options=opts))

    def test_rejects_layout_iterations(self):
        circ = random_circuit(4, 3, seed=0)
        opts = TranspileOptions(routing="sabre", level="O0", layout_iterations=2, seed=0)
        with pytest.raises(TranspilerError, match="layout_iterations"):
            next(transpile_stream(circ, GRID_TARGET, options=opts))

    @pytest.mark.parametrize("clbit", [-1, 5])
    def test_rejects_out_of_range_clbits(self, clbit):
        # Clbit -1 used to be emitted as ``c[-1]`` and clbit 5 to die in an IndexError.
        source = [Instruction(gate("h"), (0,)), Instruction(gate("measure"), (1,), (clbit,))]
        opts = TranspileOptions(routing="sabre", **O0)
        with pytest.raises(TranspilerError, match=f"clbit {clbit} out of range"):
            stream_text(source, GRID_TARGET, opts, num_qubits=2, num_clbits=1)

    def test_rejects_best_of_ensembles(self):
        circ = random_circuit(4, 3, seed=0)
        opts = TranspileOptions(routing="sabre", best_of=4, **O0)
        with pytest.raises(TranspilerError, match="best_of"):
            next(transpile_stream(circ, GRID_TARGET, options=opts))

    def test_rejects_schedule(self):
        circ = random_circuit(4, 3, seed=0)
        opts = TranspileOptions(routing="sabre", schedule="asap", **O0)
        with pytest.raises(TranspilerError, match="schedule"):
            next(transpile_stream(circ, Target.from_topology("grid", 25, calibrated=True),
                                  options=opts))

    def test_rejects_routerless_method(self):
        circ = random_circuit(4, 3, seed=0)
        opts = TranspileOptions(routing="none", **O0)
        with pytest.raises(TranspilerError, match="router"):
            next(transpile_stream(circ, Target(), options=opts))

    def test_rejects_bare_coupling_map(self):
        circ = random_circuit(4, 3, seed=0)
        opts = TranspileOptions(routing="sabre", **O0)
        with pytest.raises(TranspilerError, match=r"Target\(coupling_map=\.\.\.\)"):
            next(transpile_stream(circ, GRID_TARGET.coupling_map, options=opts))

    def test_bare_iterable_needs_num_qubits(self):
        opts = TranspileOptions(routing="sabre", **O0)
        source = random_circuit_stream(4, 10, seed=0)
        with pytest.raises(TranspilerError, match="num_qubits"):
            next(transpile_stream(source, GRID_TARGET, options=opts))


class TestWholeWindowByteIdentity:
    @pytest.mark.parametrize("num_qubits,depth,seed", [(5, 20, 0), (10, 30, 1), (4, 15, 7)])
    def test_sabre_matches_in_memory_transpile(self, num_qubits, depth, seed):
        circ = random_circuit(num_qubits, depth, seed=seed)
        circ.measure_all()
        opts = TranspileOptions(routing="sabre", **O0)
        ref_text, ref = routed_reference(circ, GRID_TARGET, opts)
        text, summary = stream_text(circ, GRID_TARGET, opts, window_gates=10**6)
        assert text == ref_text
        assert summary["num_swaps"] == ref.num_swaps
        assert summary["depth"] == ref.circuit.depth()
        assert summary["cx_count"] == ref.circuit.cx_count()

    def test_emitted_text_reparses_to_consistent_metrics(self):
        circ = random_circuit(6, 12, seed=3)
        circ.measure_all()
        opts = TranspileOptions(routing="sabre", **O0)
        text, summary = stream_text(circ, GRID_TARGET, opts, window_gates=128)
        reparsed = qasm.loads(text)
        assert summary["depth"] == reparsed.depth()
        assert summary["cx_count"] == reparsed.cx_count()
        assert summary["emitted_gates"] == sum(
            1 for inst in reparsed.data if inst.name != "barrier"
        )

    def test_nassc_windowed_metrics_match_whole_window(self):
        # nassc's in-memory pipeline appends a whole-DAG cleanup pass, so streaming is
        # pinned against its own whole-window run instead of transpile().
        circ = random_circuit(6, 15, seed=2)
        opts = TranspileOptions(routing="nassc", **O0)
        whole, whole_summary = stream_text(circ, GRID_TARGET, opts, window_gates=10**6)
        narrow, narrow_summary = stream_text(circ, GRID_TARGET, opts, window_gates=64)
        assert narrow == whole
        drop = lambda s: {k: v for k, v in s.items() if k != "window_gates"}  # noqa: E731
        assert drop(narrow_summary) == drop(whole_summary)


class TestStreamingSources:
    def test_qasm_stream_reader_source(self):
        circ = random_circuit(5, 10, seed=4)
        circ.measure_all()
        opts = TranspileOptions(routing="sabre", **O0)
        ref_text, _ = routed_reference(circ, GRID_TARGET, opts)
        reader = qasm.loads_stream(qasm.dumps(circ))
        text, _ = stream_text(reader, GRID_TARGET, opts, window_gates=10**6)
        assert text == ref_text

    def test_generator_source_with_explicit_width(self):
        opts = TranspileOptions(routing="sabre", **O0)
        gates = list(random_circuit_stream(5, 40, seed=1))
        circ = QuantumCircuit(5)
        for inst in gates:
            circ.append(inst.gate, inst.qubits)
        ref_text, _ = routed_reference(circ, GRID_TARGET, opts)
        text, summary = stream_text(
            iter(gates), GRID_TARGET, opts, window_gates=10**6, num_qubits=5
        )
        assert text == ref_text
        assert summary["source_gates"] == 40

    def test_chunk_gates_controls_emission_granularity(self):
        circ = random_circuit(5, 15, seed=5)
        opts = TranspileOptions(routing="sabre", **O0)
        chunks = list(transpile_stream(circ, GRID_TARGET, options=opts, chunk_gates=8))
        assert len(chunks) > 1
        whole, _ = stream_text(circ, GRID_TARGET, opts)
        assert "".join(chunks) == whole


# Satellite (c): streaming transpile over W in {64, 512, whole-circuit} is invariant —
# identical gate count, depth and SWAP count vs whole-circuit transpile() for seed-0
# SABRE on the evaluation device grid.
@settings(max_examples=10, deadline=None)
@given(
    num_qubits=st.integers(min_value=4, max_value=10),
    depth=st.integers(min_value=4, max_value=20),
    circuit_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_window_size_invariance_property(num_qubits, depth, circuit_seed):
    circ = random_circuit(num_qubits, depth, seed=circuit_seed)
    circ.measure_all()
    opts = TranspileOptions(routing="sabre", **O0)
    ref_text, ref = routed_reference(circ, GRID_TARGET, opts)
    expected_gates = sum(1 for inst in ref.circuit.data if inst.name != "barrier")
    for window in (64, 512, 10**6):
        text, summary = stream_text(circ, GRID_TARGET, opts, window_gates=window)
        assert text == ref_text, f"window={window} diverged from whole-circuit routing"
        assert summary["emitted_gates"] == expected_gates
        assert summary["depth"] == ref.circuit.depth()
        assert summary["num_swaps"] == ref.num_swaps
