"""Pipeline instrumentation tests: pass spans, DAG deltas, and the no-op contract.

The no-op contract test is the tier-1 guard ISSUE 6 asks for: it proves *by counter*,
not by timing (timing-based overhead assertions flake in CI), that disabled tracing
creates zero spans anywhere in a full ``transpile()`` call.
"""

import pytest

from repro import QuantumCircuit, Target, Tracer, transpile, use_tracer
from repro.circuit import qasm
from repro.obs import tracer as tracer_mod


def ghz(n: int = 4) -> QuantumCircuit:
    circuit = QuantumCircuit(n, name=f"ghz{n}")
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    tracer_mod.set_tracer(None)
    tracer_mod._reset_env_tracer_for_tests()
    yield
    tracer_mod.set_tracer(None)
    tracer_mod._reset_env_tracer_for_tests()


class TestNoOpContract:
    def test_disabled_tracing_starts_zero_spans(self, monkeypatch):
        """With no tracer installed, a full compile must not allocate a single Span."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tracer_mod._reset_env_tracer_for_tests()
        transpile(ghz(), Target.from_topology("linear", 4), level="O1")  # warm caches
        before = tracer_mod.SPANS_STARTED
        result = transpile(ghz(5), Target.from_topology("linear", 5), level="O1")
        assert tracer_mod.SPANS_STARTED == before
        assert result.trace == []
        assert "trace" not in result.to_dict()


class TestTracedTranspile:
    def test_span_tree_matches_timing_log(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = transpile(ghz(), Target.from_topology("linear", 4), level="O1")
        names = [span.name for span in tracer.finished]
        assert names[-1] == "transpile"  # root closes last
        pass_names = [n[len("pass:"):] for n in names if n.startswith("pass:")]
        assert pass_names == [name for name, _ in result.pass_timing_log]
        root = tracer.finished[-1]
        assert root.attrs["circuit"] == "ghz4"
        assert root.attrs["gates"] == len(result.circuit.data)
        assert root.attrs["depth"] == result.depth

    def test_last_pass_span_depth_is_result_depth(self):
        # Barriers synchronise wires without adding a layer, and measures order through
        # their clbits: pass spans must count depth the way QuantumCircuit.depth does.
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.barrier()
        circuit.t(2)
        circuit.cx(0, 2)
        circuit.barrier()
        for q in range(3):
            circuit.measure(q, q)
        tracer = Tracer()
        with use_tracer(tracer):
            result = transpile(circuit, Target.from_topology("linear", 3), level="O1", seed=0)
        passes = [
            span for span in tracer.finished
            if span.name.startswith("pass:") and "depth" in span.attrs
        ]
        root = tracer.finished[-1]
        assert passes[-1].attrs["depth"] == result.depth == root.attrs["depth"]

    def test_pass_spans_carry_dag_deltas(self):
        from repro.benchlib.qft import qft

        tracer = Tracer()
        with use_tracer(tracer):
            transpile(qft(5), Target.from_topology("linear", 5), level="O1",
                      routing="sabre")
        changed = [
            span for span in tracer.finished
            if span.name.startswith("pass:") and span.attrs.get("changed")
        ]
        assert changed, "at least one pass must modify a 5q QFT on a line"
        for span in changed:
            for key in ("gates", "depth", "two_qubit", "d_gates", "d_depth"):
                assert key in span.attrs, (span.name, key)
        routing = next(s for s in changed if s.name == "pass:SabreRouting")
        assert routing.attrs["swaps_inserted"] >= 1

    def test_result_trace_round_trips(self):
        target = Target.from_topology("linear", 5)
        # routing="none" keeps both compiles deterministic: the SABRE path is
        # sensitive to process history (global memo caches, hash seed) and can take
        # different optimisation-loop iteration counts between two identical calls,
        # which is routing variance, not tracing overhead.  A chain GHZ needs no SWAPs
        # on a line, so CheckMap still validates the unrouted output.
        untraced = transpile(ghz(5), target, level="O1", routing="none")
        tracer = Tracer()
        with use_tracer(tracer):
            traced = transpile(ghz(5), target, level="O1", routing="none")
        # Tracing is observation-only: the traced compile runs the same schedule and
        # produces an equivalent result shape.  Exact-QASM equality is deliberately not
        # asserted: compile output is already history-sensitive without tracing.
        assert [n for n, _ in traced.pass_timing_log] == [n for n, _ in untraced.pass_timing_log]
        assert traced.circuit.num_qubits == untraced.circuit.num_qubits
        assert qasm.dumps(traced.circuit)  # serialisable, routed output
        assert traced.trace and untraced.trace == []
        payload = traced.to_dict()
        assert payload["trace"] == traced.trace
        from repro.core.pipeline import TranspileResult

        clone = TranspileResult.from_dict(payload)
        assert clone.trace == traced.trace

    def test_consecutive_calls_get_separate_traces(self):
        tracer = Tracer()
        with use_tracer(tracer):
            first = transpile(ghz(4), Target.from_topology("linear", 4), level="O0")
            second = transpile(ghz(5), Target.from_topology("linear", 5), level="O0")
        # Each result carries only its own spans even on a shared tracer.
        first_names = {span["span_id"] for span in first.trace}
        second_names = {span["span_id"] for span in second.trace}
        assert not first_names & second_names
        assert len(first.trace) + len(second.trace) == len(tracer.finished)
